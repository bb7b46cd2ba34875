"""Command-line front end: admissibility checks, solves, flow figures,
and end-to-end regeneration of the three bundled flow cases.

Every command reads one JSON config (plus a few flag overrides) and
writes deterministic artifacts: identical config means byte-identical
output files.  Exit codes: 0 success, 1 domain failure (inadmissible
stress or failed verification), 2 usage/config failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from .geometry import TriangleDomain, PhysicalPoint, classify, distance_to_boundary
from .polyalg import BivariatePoly
from .compatibility import (
    CosineStress,
    PolynomialStress,
    StressField,
    compat_check,
    cosine_from_harmonic,
    stress_scale,
)
from .solver import (
    IncompatibleStress,
    StreamFunction,
    format_float,
    linear_example,
    realistic_example,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_quadrature,
    write_grid_csv,
)
from .kinematics import (
    CENTER,
    StagnationPoint,
    interior_centers,
    stagnation_points,
    trace_streamline,
    u_profile,
    velocity_field,
    write_stagnation_csv,
    write_streamlines_csv,
)
from .verify import verify_solution

BUILTIN_NAMES = ("linear", "sinusoidal", "realistic")
SINUSOIDAL_AMPLITUDE = 5.0  # amplitude of the bundled sinusoidal case

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
# Most characters of an error message printed before the rest is counted.
MAX_MESSAGE = 200

# Upper bounds on the size settings, so that a config that parses
# cannot ask for unbounded time or memory.
MAX_GRID_N = 1001
# seeds_per_axis loops over n^2 points.
MAX_SEEDS_PER_AXIS = 101
# Cosine harmonics: the quadrature subdivision max(8, ceil(m/2)) and the
# Riemann oracle's cells per axis, about max(128, 32m), grow with m.
MAX_HARMONIC = 200
MAX_STREAM_STEPS = 1_000_000
# Joint degree i + j of a polynomial stress term: the exact path grows
# with the degree's square in terms and in the numerators' length.
MAX_POLY_DEGREE = 64


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class StressSpec:
    kind: str
    terms: tuple[tuple[int, int, Fraction], ...] = ()
    amplitude: float = 0.0
    harmonic: int = 0
    name: str = ""


@dataclass(frozen=True)
class RunConfig:
    a: float = 1.0
    stress: StressSpec = StressSpec(kind="builtin", name="linear")
    out: str = "out"
    grid_n: int = 101
    seeds_per_axis: int = 21
    step: float | None = None
    max_steps: int = 100_000
    seeds: tuple[tuple[float, float], ...] | None = None

    @property
    def domain(self) -> TriangleDomain:
        return TriangleDomain(self.a)


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _finite_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    return float(v)


def _positive_int(v, where: str, maximum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ConfigError(f"{where} must be a positive integer")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{where} must be at most {maximum}")
    return v


def _parse_stress(d: dict) -> StressSpec:
    if not isinstance(d, dict):
        raise ConfigError("stress must be an object")
    kind = d.get("kind")
    if kind == "polynomial":
        _require_keys(d, {"kind", "terms"}, "stress")
        terms = d.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError("stress.terms must be a nonempty array")
        parsed = []
        for idx, term in enumerate(terms):
            if not isinstance(term, dict):
                raise ConfigError(f"stress.terms[{idx}] must be an object")
            _require_keys(term, {"i", "j", "coefficient"}, f"stress.terms[{idx}]")
            i, j = term.get("i"), term.get("j")
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise ConfigError(f"stress.terms[{idx}]: i and j must be nonnegative integers")
            if i + j > MAX_POLY_DEGREE:
                raise ConfigError(f"stress.terms[{idx}]: i + j must be at most {MAX_POLY_DEGREE}")
            c = _finite_number(term.get("coefficient"), f"stress.terms[{idx}].coefficient")
            parsed.append((i, j, Fraction(c)))
        return StressSpec(kind="polynomial", terms=tuple(parsed))
    if kind == "cosine":
        _require_keys(d, {"kind", "A", "m"}, "stress")
        A = _finite_number(d.get("A"), "stress.A")
        m = _positive_int(d.get("m"), "stress.m", MAX_HARMONIC)
        return StressSpec(kind="cosine", amplitude=A, harmonic=m)
    if kind == "builtin":
        _require_keys(d, {"kind", "name"}, "stress")
        name = d.get("name")
        if name not in BUILTIN_NAMES:
            raise ConfigError(f"stress.name must be one of {BUILTIN_NAMES}")
        return StressSpec(kind="builtin", name=name)
    raise ConfigError("stress.kind must be 'polynomial', 'cosine' or 'builtin'")


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        doc,
        {"a", "stress", "out", "grid_n", "streamlines", "seeds_per_axis"},
        "config",
    )
    cfg = RunConfig()
    if "a" in doc:
        a = _finite_number(doc["a"], "a")
        if a <= 0:
            raise ConfigError("a must be positive")
        cfg = replace(cfg, a=a)
    if "stress" in doc:
        cfg = replace(cfg, stress=_parse_stress(doc["stress"]))
    if "out" in doc:
        if not isinstance(doc["out"], str):
            raise ConfigError("out must be a string")
        cfg = replace(cfg, out=doc["out"])
    if "grid_n" in doc:
        n = _positive_int(doc["grid_n"], "grid_n", MAX_GRID_N)
        if n < 2:
            raise ConfigError("grid_n must be >= 2")
        cfg = replace(cfg, grid_n=n)
    if "streamlines" in doc:
        s = doc["streamlines"]
        if not isinstance(s, dict):
            raise ConfigError("streamlines must be an object")
        _require_keys(s, {"step", "max_steps", "seeds"}, "streamlines")
        if "step" in s:
            st = _finite_number(s["step"], "streamlines.step")
            if st <= 0:
                raise ConfigError("streamlines.step must be positive")
            cfg = replace(cfg, step=st)
        if "max_steps" in s:
            cfg = replace(cfg, max_steps=_positive_int(s["max_steps"], "streamlines.max_steps", MAX_STREAM_STEPS))
        if "seeds" in s and s["seeds"] is not None:
            seeds = s["seeds"]
            if not isinstance(seeds, list):
                raise ConfigError("streamlines.seeds must be an array of [x, y] pairs")
            parsed = []
            for idx, pair in enumerate(seeds):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"streamlines.seeds[{idx}] must be an [x, y] pair")
                parsed.append((
                    _finite_number(pair[0], f"streamlines.seeds[{idx}][0]"),
                    _finite_number(pair[1], f"streamlines.seeds[{idx}][1]"),
                ))
            cfg = replace(cfg, seeds=tuple(parsed))
    if "seeds_per_axis" in doc:
        cfg = replace(cfg, seeds_per_axis=_positive_int(doc["seeds_per_axis"], "seeds_per_axis", MAX_SEEDS_PER_AXIS))
    return cfg


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON: {exc}")
    cfg = parse_config(doc)
    if getattr(overrides, "a", None) is not None:
        if overrides.a <= 0 or not math.isfinite(overrides.a):
            raise ConfigError("--a must be a positive finite number")
        cfg = replace(cfg, a=overrides.a)
    if getattr(overrides, "out", None) is not None:
        cfg = replace(cfg, out=overrides.out)
    if getattr(overrides, "grid", None) is not None:
        if not 2 <= overrides.grid <= MAX_GRID_N:
            raise ConfigError(f"--grid must be between 2 and {MAX_GRID_N}")
        cfg = replace(cfg, grid_n=overrides.grid)
    # the test trace_streamline applies to its seed, at the final a
    for idx, (x, y) in enumerate(cfg.seeds or ()):
        if not classify(cfg.domain, PhysicalPoint(x, y), 1e-9 * cfg.a).is_interior:
            raise ConfigError(f"streamlines.seeds[{idx}] ({x:g}, {y:g}) is not inside the cavity (a = {cfg.a:g})")
    return cfg


# ----------------------------------------------------------------------
# stress / solution assembly

def _require_finite_wavenumber(stress: CosineStress, a: float) -> None:
    """A cosine stress whose wavenumber m pi / a overflows (a below
    about m pi / 1.8e308) has no value anywhere: a config error."""
    if not math.isfinite(stress.wavenumber):
        raise ConfigError(f"a={a:g} is too small: the wavenumber m*pi/a of the cosine stress "
                          "overflows float arithmetic")


def build_stress(cfg: RunConfig) -> StressField:
    spec = cfg.stress
    if spec.kind == "polynomial":
        poly = BivariatePoly({(i, j, 0): c for i, j, c in spec.terms})
        return PolynomialStress(poly)
    if spec.kind == "cosine":
        stress = cosine_from_harmonic(spec.amplitude, spec.harmonic, cfg.domain)
        _require_finite_wavenumber(stress, cfg.a)
        return stress
    return build_stream_function(cfg).source_stress


def build_stream_function(cfg: RunConfig) -> StreamFunction:
    d = cfg.domain
    spec = cfg.stress
    if spec.kind == "builtin":
        if spec.name == "linear":
            return linear_example(d)
        if spec.name == "sinusoidal":
            psi = sinusoidal_closed_form(SINUSOIDAL_AMPLITUDE, d)
            _require_finite_wavenumber(psi.source_stress, cfg.a)
            return psi
        return realistic_example(d)
    stress = build_stress(cfg)
    if isinstance(stress, PolynomialStress):
        return solve_exact_poly(stress, d)
    return solve_quadrature(stress, d)


# ----------------------------------------------------------------------
# SVG rendering

def _svg_marker(kind: str, x: float, y: float, r: float) -> str:
    if kind == CENTER:
        return f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{r:.6f}" fill="#d62728" stroke="none"/>'
    if kind == "saddle":
        return (
            f'<path d="M {x - r:.6f} {y - r:.6f} L {x + r:.6f} {y + r:.6f} '
            f'M {x - r:.6f} {y + r:.6f} L {x + r:.6f} {y - r:.6f}" '
            f'stroke="#2ca02c" stroke-width="{r / 2:.6f}" fill="none"/>'
        )
    return (
        f'<rect x="{x - r / 2:.6f}" y="{y - r / 2:.6f}" width="{r:.6f}" height="{r:.6f}" '
        f'fill="none" stroke="#7f7f7f" stroke-width="{r / 3:.6f}"/>'
    )


def render_flow_svg(d: TriangleDomain, traces, stagnation, width: float = 800.0) -> Iterator[str]:
    """Triangle outline + streamline polylines + stagnation markers, as
    pieces of SVG text to write in order.

    Pure shapes, no text, no external assets: byte-stable for a fixed
    input.  World coordinates are y-flipped into screen coordinates.
    Each polyline's points come as one piece, formatted by one format
    over a flat tuple, so no whole-file string is built.
    """
    a = float(d.a)
    margin = 0.05 * 2 * a
    x0, x1 = -margin, 2 * a + margin
    y0, y1 = -margin, a + margin
    w, h = x1 - x0, y1 - y0
    scale = width / w
    height = h * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.6f}" '
           f'viewBox="0 0 {width:.0f} {height:.6f}">\n')
    yield f'<rect x="0" y="0" width="{width:.0f}" height="{height:.6f}" fill="#ffffff"/>\n'
    o, va, vb = d.vertices()
    tri = " ".join(f"{sx(float(p.x)):.6f},{sy(float(p.y)):.6f}" for p in (o, va, vb))
    yield f'<polygon points="{tri}" fill="none" stroke="#000000" stroke-width="1.5"/>\n'
    for tr in traces:
        yield '<polyline points="'
        # sx and sy inline, as one flat tuple under one format
        n = len(tr.xs)
        coords = [0.0] * (2 * n)
        coords[0::2] = [(x - x0) * scale for x in tr.xs]
        coords[1::2] = [(y1 - y) * scale for y in tr.ys]
        yield " ".join(["%.6f,%.6f"] * n) % tuple(coords)
        yield '" fill="none" stroke="#1f77b4" stroke-width="0.8"/>\n'
    r = 0.012 * width
    for sp in stagnation:
        yield _svg_marker(sp.classification, sx(sp.location.x), sy(sp.location.y), r) + "\n"
    yield "</svg>\n"


# ----------------------------------------------------------------------
# commands

def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {path} ({exc})")


def _info(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _error(msg: str) -> None:
    """One stderr line; past MAX_MESSAGE characters the message is cut
    with a count of what was left out (an exact constraint polynomial at
    a large ``a`` runs to about a thousand)."""
    if len(msg) > MAX_MESSAGE:
        msg = f"{msg[:MAX_MESSAGE]}... ({len(msg) - MAX_MESSAGE} more characters)"
    print(f"error: {msg}", file=sys.stderr)


def cmd_check(cfg: RunConfig, quiet: bool = False, psi: StreamFunction | None = None) -> int:
    """``psi``, when given, is the stream function built from ``cfg``;
    its source stress is the one ``build_stress(cfg)`` would build."""
    _ensure_outdir(cfg.out)
    return _check(cfg, quiet, psi)


# the bodies of cmd_check, cmd_solve and cmd_flow, which probe cfg.out
# first; cmd_examples probes each directory once and calls these

def _check(cfg: RunConfig, quiet: bool, psi: StreamFunction | None) -> int:
    d = cfg.domain
    stress = psi.source_stress if psi is not None else build_stress(cfg)
    if cfg.stress.kind == "cosine" and cfg.stress.harmonic % 2 == 0 and not quiet:
        print(f"warning: even harmonic m={cfg.stress.harmonic} is outside the admissible family", file=sys.stderr)
    report = compat_check(stress, d)
    _write_json(os.path.join(cfg.out, "compat.json"), report.to_json_dict())
    # a polynomial's verdict is its exact constraint's, whatever the float sweep reads
    exact = "" if report.exact_constraints is None else \
        f"exact constraint {'zero' if report.is_compatible else 'nonzero'}; "
    _info(quiet, f"check: {report.verdict} ({exact}max residual {report.max_abs_residual:.3e})")
    return EXIT_OK if report.is_compatible else EXIT_DOMAIN


def _report_table(report) -> str:
    lines = [f"{'check':<24} {'value':>12} {'tolerance':>12}  result"]
    for name, c in sorted(report.checks.items()):
        lines.append(f"{name:<24} {c['value']:>12.3e} {c['tol']:>12.3e}  {'pass' if c['pass'] else 'FAIL'}")
    return "\n".join(lines)


def _stream_function(cfg: RunConfig, psi: StreamFunction | None) -> StreamFunction | None:
    """``psi`` if given, else built from ``cfg``; None (after the error
    message) when the stress is inadmissible."""
    if psi is not None:
        return psi
    try:
        return build_stream_function(cfg)
    except IncompatibleStress as exc:
        _error(str(exc))
        return None


def cmd_solve(cfg: RunConfig, quiet: bool = False, psi: StreamFunction | None = None) -> int:
    _ensure_outdir(cfg.out)
    return _solve(cfg, quiet, psi)


def _solve(cfg: RunConfig, quiet: bool, psi: StreamFunction | None) -> int:
    d = cfg.domain
    psi = _stream_function(cfg, psi)
    if psi is None:
        return EXIT_DOMAIN
    write_grid_csv(psi, d, cfg.grid_n, os.path.join(cfg.out, "psi.csv"))
    report = verify_solution(psi, psi.source_stress)
    _write_json(os.path.join(cfg.out, "verify.json"), report.to_json_dict())
    _info(quiet, _report_table(report))
    return EXIT_OK if report.overall_pass else EXIT_DOMAIN


def _stress_vanishes(f: StressField, d: TriangleDomain) -> bool:
    """Exactly for a polynomial stress, whose float values can underflow
    where its coefficients do not; on ``stress_scale``'s samples else."""
    if isinstance(f, PolynomialStress):
        return f.poly.is_zero
    return stress_scale(f, d) == 0


def default_flow_seeds(d: TriangleDomain, points: list[StagnationPoint]) -> list[PhysicalPoint]:
    """Rings of seeds around each interior recirculation center among
    the stagnation ``points``."""
    seeds = []
    for sp in interior_centers(points, d):
        reach = distance_to_boundary(d, sp.location)
        for frac in (0.25, 0.5, 0.75):
            seeds.append(PhysicalPoint(sp.location.x + frac * reach, sp.location.y))
    return seeds


def cmd_flow(cfg: RunConfig, quiet: bool = False, psi: StreamFunction | None = None) -> int:
    _ensure_outdir(cfg.out)
    return _flow(cfg, quiet, psi)


def _flow(cfg: RunConfig, quiet: bool, psi: StreamFunction | None) -> int:
    d = cfg.domain
    psi = _stream_function(cfg, psi)
    if psi is None:
        return EXIT_DOMAIN
    V = velocity_field(psi)
    vscale = V.speed_scale()
    if not math.isfinite(vscale):
        _error(f"the velocity is not finite (speed scale {vscale}): the field overflows "
               f"float arithmetic at a={cfg.a:g}")
        return EXIT_DOMAIN
    if vscale < sys.float_info.min and not _stress_vanishes(psi.source_stress, d):
        # a subnormal speed has too few digits for the stagnation search
        _error(f"the velocity underflows to zero or to subnormal floats (speed scale {vscale:.3g}) "
               f"although the stress does not vanish: the field is below float range at a={cfg.a:g}")
        return EXIT_DOMAIN
    points = stagnation_points(V, d, seeds_per_axis=cfg.seeds_per_axis)
    if cfg.seeds is not None:
        seeds = [PhysicalPoint(x, y) for x, y in cfg.seeds]
    else:
        seeds = default_flow_seeds(d, points)
    if all(sp.classification == "degenerate" for sp in points) and points:
        _info(quiet, "flow: null field (velocity vanishes everywhere)")
    traces = [trace_streamline(V, s, step=cfg.step, max_steps=cfg.max_steps) for s in seeds]
    write_streamlines_csv(traces, os.path.join(cfg.out, "streamlines.csv"))
    write_stagnation_csv(points, os.path.join(cfg.out, "stagnation.csv"))
    with open(os.path.join(cfg.out, "flow.svg"), "w", newline="\n") as fh:
        fh.writelines(render_flow_svg(d, traces, points))
    closed = sum(1 for t in traces if t.termination == "closed")
    _info(quiet, f"flow: {len(traces)} streamlines ({closed} closed), {len(points)} stagnation points")
    return EXIT_OK


def cmd_examples(cfg: RunConfig, quiet: bool = False) -> int:
    # every builtin is built before anything is written, so a config
    # error in one leaves no artifact of another
    subs = {name: replace(cfg, stress=StressSpec(kind="builtin", name=name), out=os.path.join(cfg.out, name))
            for name in BUILTIN_NAMES}
    fields = {name: build_stream_function(sub) for name, sub in subs.items()}
    _ensure_outdir(cfg.out)
    # each command prints its own error line; the run reports one line
    # for all builtins, the first failure's
    failures = []
    for name, sub in subs.items():
        _ensure_outdir(sub.out)
        psi = fields[name]
        err = io.StringIO()
        with redirect_stderr(err):
            rcs = {"check": _check(sub, True, psi), "solve": _solve(sub, True, psi), "flow": _flow(sub, True, psi)}
        failed = [command for command, rc in rcs.items() if rc != EXIT_OK]
        if failed:
            lines = err.getvalue().splitlines()
            why = lines[0].removeprefix("error: ") if lines else f"{', '.join(failed)} failed"
            failures.append(f"{name}: {why}")
        _info(quiet, f"examples/{name}: {'FAIL' if failed else 'pass'}")

    n = 201
    a = cfg.a
    v_lin = velocity_field(fields["linear"])
    v_sin = velocity_field(fields["sinusoidal"])
    lin_rows = u_profile(v_lin, "x", a, n)
    sin_rows = u_profile(v_sin, "x", a, n)
    with open(os.path.join(cfg.out, "fig6_u_profiles.csv"), "w", newline="\n") as fh:
        fh.write("y,u_linear,u_sinusoidal\n")
        for (yv, ul), (_, us) in zip(lin_rows, sin_rows):
            fh.write(f"{format_float(yv)},{format_float(ul)},{format_float(us)}\n")

    v_real = velocity_field(fields["realistic"])
    with open(os.path.join(cfg.out, "fig7_shear_profile.csv"), "w", newline="\n") as fh:
        fh.write("x,u\n")
        for xv, uv in u_profile(v_real, "y", 0.0, n):
            fh.write(f"{format_float(xv)},{format_float(uv)}\n")

    _info(quiet, f"examples: {'FAILURES PRESENT' if failures else 'all pass'}")
    if not failures:
        return EXIT_OK
    _error(f"examples: {len(failures)} of {len(subs)} builtins failed; first {failures[0]}")
    return EXIT_DOMAIN


# ----------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-stream",
        description="Stream-function solver for shear-driven flow in a right-triangular cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "admissibility check of the configured stress"),
        ("solve", "solve and export the stream function grid + verification report"),
        ("flow", "trace streamlines, locate stagnation points, render an SVG figure"),
        ("examples", "regenerate the three bundled flow cases end to end"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--a", type=float, help="cavity half-base (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--grid", type=int, help="grid resolution (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")
    return parser


_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    # one parser per process, built on the first run and not at import;
    # each parse_args fills a fresh namespace, so no flag carries over
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "check": cmd_check,
        "solve": cmd_solve,
        "flow": cmd_flow,
        "examples": cmd_examples,
    }[args.command]
    try:
        # inf and nan fail the checks they reach; numpy's warnings about
        # them would only break the one-line contract of stderr
        with np.errstate(all="ignore"):
            return handler(cfg, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IncompatibleStress as exc:
        _error(str(exc))
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
