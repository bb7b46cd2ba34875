"""Command-line interface: config parsing, exit codes, artifacts."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from cavitystream.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    MAX_MESSAGE,
    ConfigError,
    RunConfig,
    build_stream_function,
    parse_config,
    run,
)
from cavitystream.solver import IncompatibleStress, format_float
from cavitystream.polyalg import poly_vars

X, Y, A = poly_vars()

LINEAR_STRESS_DOC = {
    "stress": {
        "kind": "polynomial",
        "terms": [
            {"i": 0, "j": 1, "coefficient": 16},
            {"i": 0, "j": 0, "coefficient": -8},
        ],
    }
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.a == 1.0
        assert cfg.stress.kind == "builtin"
        assert cfg.grid_n == 101

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"aa": 1.0})

    def test_unknown_stress_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"stress": {"kind": "cosine", "A": 1.0, "m": 3, "phase": 0.1}})

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"a": float("inf")})

    def test_negative_a_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"a": -2.0})

    def test_polynomial_terms_validated(self):
        with pytest.raises(ConfigError):
            parse_config({"stress": {"kind": "polynomial", "terms": []}})
        with pytest.raises(ConfigError):
            parse_config({"stress": {"kind": "polynomial", "terms": [{"i": -1, "j": 0, "coefficient": 1}]}})

    def test_builtin_names(self):
        for name in ("linear", "sinusoidal", "realistic"):
            cfg = parse_config({"stress": {"kind": "builtin", "name": name}})
            assert cfg.stress.name == name
        with pytest.raises(ConfigError):
            parse_config({"stress": {"kind": "builtin", "name": "cubic"}})

    @pytest.mark.parametrize("doc, message", [
        ({"grid_n": 1002}, "grid_n must be at most 1001"),
        ({"streamlines": {"max_steps": 1_000_001}}, "streamlines.max_steps must be at most 1000000"),
        ({"seeds_per_axis": 102}, "seeds_per_axis must be at most 101"),
        ({"stress": {"kind": "polynomial", "terms": [{"i": 1, "j": 1, "coefficient": 1},
                                                     {"i": 60, "j": 5, "coefficient": 1}]}},
         "stress.terms[1]: i + j must be at most 64"),
        ({"stress": {"kind": "polynomial", "terms": [{"i": 1200, "j": 0, "coefficient": 1}]}},
         "stress.terms[0]: i + j must be at most 64"),
    ])
    def test_size_upper_bounds(self, tmp_path, capsys, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)
        cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / "o")})
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("doc, key", [
        ({"n_sweep": 3}, "n_sweep"),
        ({"tolerances": {"compat": 1}}, "tolerances"),
        ({"quadrature": {"order": 12}}, "quadrature"),
        ({"quadrature": {"subdivision": 8}}, "quadrature"),
        ({"verify_lattice": 32}, "verify_lattice"),
    ])
    def test_removed_tuning_keys_are_unknown(self, tmp_path, capsys, doc, key):
        # the code decides these: the admissibility sweep, its tolerance,
        # the quadrature rule and the verify lattice
        doc = {**doc, "stress": {"kind": "cosine", "A": 1, "m": 4}, "out": str(tmp_path / "o")}
        assert run(["check", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: unknown key(s) in config: {key}\n"

    def test_size_bounds_are_inclusive(self):
        cfg = parse_config({"grid_n": 1001, "streamlines": {"max_steps": 1_000_000}, "seeds_per_axis": 101})
        assert (cfg.grid_n, cfg.max_steps, cfg.seeds_per_axis) == (1001, 1_000_000, 101)
        terms = [{"i": 64, "j": 0, "coefficient": 1}, {"i": 30, "j": 34, "coefficient": 1},
                 {"i": 0, "j": 64, "coefficient": 1}]
        cfg = parse_config({"stress": {"kind": "polynomial", "terms": terms}})
        assert [i + j for i, j, _ in cfg.stress.terms] == [64, 64, 64]

    def test_harmonic_upper_bound(self, tmp_path, capsys):
        assert parse_config({"stress": {"kind": "cosine", "A": 1, "m": 200}}).stress.harmonic == 200
        doc = {"stress": {"kind": "cosine", "A": 1, "m": 201}, "out": str(tmp_path / "o")}
        assert run(["solve", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: stress.m must be at most 200\n"

    def test_subdivision_follows_the_harmonic(self):
        cosine = {"kind": "cosine", "A": 1, "m": 61}
        assert build_stream_function(parse_config({"stress": cosine})).spec.subdivision == 31
        assert build_stream_function(parse_config({"stress": {**cosine, "m": 15}})).spec.subdivision == 8

    def test_grid_flag_upper_bound(self, tmp_path):
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(tmp_path / "o")})
        assert run(["solve", "--config", cfg, "--grid", "1002", "--quiet"]) == EXIT_USAGE

    def test_seed_pairs(self):
        cfg = parse_config({"streamlines": {"seeds": [[1.0, 0.5], [0.7, 0.2]]}})
        assert cfg.seeds == ((1.0, 0.5), (0.7, 0.2))
        with pytest.raises(ConfigError):
            parse_config({"streamlines": {"seeds": [[1.0]]}})

    @pytest.mark.parametrize("seeds, flags, message", [
        ([[1.0, 0.3], [5, 5]], [], "streamlines.seeds[1] (5, 5) is not inside the cavity (a = 1)"),
        ([[1.0, 0.3], [1.0, 0.0]], [], "streamlines.seeds[1] (1, 0) is not inside the cavity (a = 1)"),
        ([[0.5, 0.2], [1.0, 0.3]], ["--a", "0.5"], "streamlines.seeds[1] (1, 0.3) is not inside the cavity (a = 0.5)"),
    ])
    def test_seed_outside_the_cavity(self, tmp_path, capsys, seeds, flags, message):
        # checked against the final a, before any output directory is made
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"streamlines": {"seeds": seeds}, "out": str(out)})
        assert run(["flow", "--config", cfg, "--quiet", *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestCheckCommand:
    def test_admissible_linear_family(self, tmp_path):
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(tmp_path / "o")})
        assert run(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        doc = json.loads((tmp_path / "o" / "compat.json").read_text())
        assert doc["verdict"] == "compatible"
        assert doc["exact_constraints"] == "0"

    def test_even_cosine_harmonic_fails(self, tmp_path):
        cfg = write_config(tmp_path, {"stress": {"kind": "cosine", "A": 1.0, "m": 2}, "out": str(tmp_path / "o")})
        assert run(["check", "--config", cfg, "--quiet"]) == EXIT_DOMAIN

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["check", "--config", str(bad), "--quiet"]) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        assert run(["check", "--config", str(tmp_path / "nope.json"), "--quiet"]) == EXIT_USAGE

    def test_line_names_the_exact_constraint(self, tmp_path, capsys):
        # at a = 1e-200 every float sweep residual of x^2 underflows to 0
        doc = {"a": 1e-200, "stress": {"kind": "polynomial", "terms": [{"i": 2, "j": 0, "coefficient": 1}]},
               "out": str(tmp_path / "o")}
        assert run(["check", "--config", write_config(tmp_path, doc)]) == EXIT_DOMAIN
        assert capsys.readouterr().out == "check: incompatible (exact constraint nonzero; max residual 0.000e+00)\n"
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(tmp_path / "p")})
        assert run(["check", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.startswith("check: compatible (exact constraint zero; max residual ")
        doc = {"stress": {"kind": "cosine", "A": 5.0, "m": 3}, "out": str(tmp_path / "q")}
        assert run(["check", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        assert re.fullmatch(r"check: compatible \(max residual [^;]*\)\n", capsys.readouterr().out)

    def test_odd_cosine_harmonic_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"stress": {"kind": "cosine", "A": 5.0, "m": 3}, "out": str(tmp_path / "o")})
        assert run(["check", "--config", cfg, "--quiet"]) == EXIT_OK


class TestSolveCommand:
    def test_linear_grid_matches_closed_form(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(out), "grid_n": 21})
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
        rows = (out / "psi.csv").read_text().splitlines()
        assert rows[0] == "x,y,psi"
        for line in rows[1:]:
            x, y, v = (float(t) for t in line.split(","))
            expected = 2 * y**3 - 2 * x * x * y - 4 * y * y + 4 * x * y
            assert v == pytest.approx(expected, abs=1e-14)
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["overall_pass"] is True

    def test_zero_stress_zero_grid(self, tmp_path):
        out = tmp_path / "o"
        doc = {
            "stress": {"kind": "polynomial", "terms": [{"i": 0, "j": 0, "coefficient": 0}]},
            "out": str(out),
            "grid_n": 11,
        }
        cfg = write_config(tmp_path, doc)
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
        for line in (out / "psi.csv").read_text().splitlines()[1:]:
            assert line.endswith(",0")

    def test_incompatible_stress_exits_one(self, tmp_path):
        doc = {
            "stress": {"kind": "polynomial", "terms": [{"i": 0, "j": 0, "coefficient": 1}]},
            "out": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_DOMAIN

    @pytest.mark.parametrize("doc, long", [
        ({**LINEAR_STRESS_DOC, "a": 1e300}, True),
        ({"stress": {"kind": "polynomial", "terms": [{"i": 0, "j": 0, "coefficient": 1}]}}, False),
    ])
    def test_error_line_counts_what_it_leaves_out(self, tmp_path, capsys, doc, long):
        # 16y - 8 at a = 1e300: the constraint polynomial runs to about a thousand characters
        doc = {**doc, "out": str(tmp_path / "o"), "grid_n": 11}
        with pytest.raises(IncompatibleStress) as exc:
            build_stream_function(parse_config(doc))
        full = str(exc.value)
        assert (len(full) > MAX_MESSAGE) == long
        assert run(["solve", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        if long:
            assert err == f"error: {full[:MAX_MESSAGE]}... ({len(full) - MAX_MESSAGE} more characters)\n"
        else:
            assert err == f"error: {full}\n"
        # compat.json keeps every digit of the constraints
        assert run(["check", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_DOMAIN
        constraints = json.loads((tmp_path / "o" / "compat.json").read_text())["exact_constraints"]
        assert constraints in full

    def test_cosine_solve_verifies(self, tmp_path):
        out = tmp_path / "o"
        doc = {
            "stress": {"kind": "cosine", "A": 5.0, "m": 3},
            "out": str(out),
            "grid_n": 9,
        }
        cfg = write_config(tmp_path, doc)
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["overall_pass"] is True
        assert verdict["quadrature_vs_riemann"] is not None

    def test_cosine_psi_is_pinned(self, tmp_path):
        # recorded with the lattice's cells integrated by the ridge rule
        # of integrate_rect, one cell per diagonal
        out = tmp_path / "o"
        doc = {"a": 1, "stress": {"kind": "cosine", "A": 10, "m": 3}, "grid_n": 101, "out": str(out)}
        assert run(["solve", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_OK
        assert hashlib.sha256((out / "psi.csv").read_bytes()).hexdigest() == \
            "9908606d6941b292bbe1ae327d7ffd19c501bfbcde6eb0b67ed5db2f2c15529e"

    def test_high_harmonic_solves(self, tmp_path):
        out = tmp_path / "o"
        doc = {"a": 1, "stress": {"kind": "cosine", "A": 1, "m": 61}, "grid_n": 21, "out": str(out)}
        assert run(["solve", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_OK
        rows = np.loadtxt(out / "psi.csv", delimiter=",", skiprows=1)
        k = 61 * math.pi
        x, y, psi = rows.T
        want = -(np.cos(k * y) + np.cos(k * (x - y) / 2) - np.cos(k * (x + y) / 2) - 1) / k**2
        assert np.max(np.abs(psi - want)) <= 1e-9 * np.max(np.abs(want))

    def test_grid_override_flag(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(out)})
        assert run(["solve", "--config", cfg, "--grid", "5", "--quiet"]) == EXIT_OK
        n_rows = len((out / "psi.csv").read_text().splitlines()) - 1
        assert n_rows == 13  # 5x5 bounding-box lattice clipped to the triangle


class TestFlowCommand:
    def test_linear_flow_artifacts(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"stress": {"kind": "builtin", "name": "linear"}, "out": str(out)})
        assert run(["flow", "--config", cfg, "--quiet"]) == EXIT_OK
        stag = (out / "stagnation.csv").read_text().splitlines()
        assert stag[0] == "x,y,class,speed"
        centers = [line for line in stag[1:] if ",center," in line]
        assert len(centers) == 1
        x, y = (float(t) for t in centers[0].split(",")[:2])
        assert (x, y) == (pytest.approx(1.0, abs=1e-9), pytest.approx(1 / 3, abs=1e-9))
        svg = (out / "flow.svg").read_text()
        assert svg.count("<circle") == 1  # one recirculation-center marker
        assert "<polygon" in svg and "<polyline" in svg
        lines = (out / "streamlines.csv").read_text().splitlines()
        assert lines[0] == "trace_id,step,x,y,psi"
        assert len(lines) > 10

    def test_null_field_flow(self, tmp_path):
        out = tmp_path / "o"
        doc = {
            "stress": {"kind": "polynomial", "terms": [{"i": 0, "j": 0, "coefficient": 0}]},
            "out": str(out),
            "seeds_per_axis": 4,
        }
        cfg = write_config(tmp_path, doc)
        assert run(["flow", "--config", cfg, "--quiet"]) == EXIT_OK
        stag = (out / "stagnation.csv").read_text().splitlines()
        assert len(stag) > 1
        assert all(",degenerate," in line for line in stag[1:])
        # no recirculation centers -> no auto seeds -> header-only streamlines
        assert (out / "streamlines.csv").read_text().splitlines() == ["trace_id,step,x,y,psi"]

    def test_explicit_seeds(self, tmp_path):
        out = tmp_path / "o"
        doc = {
            "stress": {"kind": "builtin", "name": "linear"},
            "out": str(out),
            "streamlines": {"seeds": [[1.0, 0.5]], "step": 1e-3, "max_steps": 20000},
        }
        cfg = write_config(tmp_path, doc)
        assert run(["flow", "--config", cfg, "--quiet"]) == EXIT_OK
        ids = {line.split(",")[0] for line in (out / "streamlines.csv").read_text().splitlines()[1:]}
        assert ids == {"0"}


    def test_cosine_flow(self, tmp_path):
        # a quadrature-backed field: every difference stencil must stay in the cavity
        out = tmp_path / "o"
        doc = {"a": 1, "stress": {"kind": "cosine", "A": 10, "m": 3}, "seeds_per_axis": 3,
               "streamlines": {"seeds": [[1.0, 0.2]], "max_steps": 400}, "out": str(out)}
        assert run(["flow", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_OK
        rows = np.array([[float(t) for t in line.split(",")]
                         for line in (out / "streamlines.csv").read_text().splitlines()[1:]])
        assert len(rows) > 1

        def closed_form(x, y):
            k = 3 * math.pi
            return -(10 / k**2) * (np.cos(k * y) + np.cos(k * (x - y) / 2) - np.cos(k * (x + y) / 2) - 1)

        gx, gy = np.meshgrid(np.linspace(0, 2, 101), np.linspace(0, 1, 101))
        inside = (gy <= gx) & (gx + gy <= 2)
        scale = np.max(np.abs(closed_form(gx[inside], gy[inside])))
        err = np.max(np.abs(rows[:, 4] - closed_form(rows[:, 2], rows[:, 3])))
        assert err <= 1e-5 * scale


    @pytest.mark.parametrize("doc", [
        # step 0.5 sends the second seed across the wall: a projected vertex
        {"stress": {"kind": "builtin", "name": "sinusoidal"},
         "streamlines": {"seeds": [[1.0, 0.5], [1.3, 0.65]], "step": 0.5, "max_steps": 400}},
        {"stress": {"kind": "cosine", "A": 10, "m": 3}, "seeds_per_axis": 3,
         "streamlines": {"seeds": [[1.0, 0.2]], "max_steps": 400}},
    ])
    def test_streamline_psi_is_psi_at_each_vertex(self, tmp_path, doc):
        out = tmp_path / "o"
        assert run(["flow", "--config", write_config(tmp_path, {**doc, "out": str(out)}), "--quiet"]) == EXIT_OK
        psi = build_stream_function(parse_config(doc))
        rows = [line.split(",") for line in (out / "streamlines.csv").read_text().splitlines()[1:]]
        assert len(rows) > 2
        for _, _, x, y, value in rows:
            assert value == format_float(psi.evaluate(float(x), float(y)))


# sha256 of the polynomial cases of `examples --a 1`, recorded before the
# velocity of the non-polynomial backings became exact; the exact
# polynomial path must keep producing these bytes (the two verify.json
# re-pinned when every verify tolerance came from one error model)
POLYNOMIAL_EXAMPLE_DIGESTS = {
    "linear/compat.json": "64c295223d2f03793ce21757fa78d1eaf4728c8f28e7fe154ddb15c89c48c62d",
    "linear/flow.svg": "e4fb82c1659b66d9e1b5098195ac51afbf40b8522d4c6c03fa54361a03e6d168",
    "linear/psi.csv": "dd1edfec133fea447841e6d52bc2c4e7247f937bf755577c244efbbda4b8bcca",
    "linear/stagnation.csv": "938100031f923e0a74a314693a9aa70d9a1fa12679fae11a8b5b44e40bcd363d",
    "linear/streamlines.csv": "771c0abcdd0b5c23c32e3152fcbaff8aeada85da4c7dd9947434b882ac8fe857",
    "linear/verify.json": "cc4fca46d7c9f5d6f27073fa6cd16499061a9e1c3fb9b8c99819e95c6d1d2d21",
    "realistic/compat.json": "04f62f3c055fee0561019eb2305b8fbebe69c91c1d74bb19030c0e77310a8d32",
    "realistic/flow.svg": "0e9b698cb8ca9bc86381649a83b73dd25487cd3b372d9b5de74a5b81d587717c",
    "realistic/psi.csv": "a8dde85d28a71b35b5f0c2731557bd0f14e24928a72b50900b06f7e553e9d711",
    "realistic/stagnation.csv": "44e843ceaf23ca7e9edd399fc812b09d5586abf5b3e5dbdf6d5fbd93716171c4",
    "realistic/streamlines.csv": "95bea2cd612475eb22940a07ba22a6cc15529911eed1a0ec5813180072eb4afb",
    "realistic/verify.json": "961bf83f6b2f179c5f4aeeb65663ae7c26aa7674b8c172e003d15ee3e849d735",
    "fig7_shear_profile.csv": "ed1c8087f0a62dce4aa67475f9329a8eac36c84b1663e95cf7653624f0642999",
}


@pytest.fixture(scope="module")
def examples_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("examples") / "all"
    assert run(["examples", "--a", "1", "--out", str(out), "--quiet"]) == EXIT_OK
    return out


class TestExamplesCommand:
    def test_full_regeneration(self, examples_out):
        out = examples_out
        for name in ("linear", "sinusoidal", "realistic"):
            for artifact in ("compat.json", "psi.csv", "verify.json", "streamlines.csv", "stagnation.csv", "flow.svg"):
                assert (out / name / artifact).exists(), f"{name}/{artifact} missing"
        fig6 = (out / "fig6_u_profiles.csv").read_text().splitlines()
        assert fig6[0] == "y,u_linear,u_sinusoidal"
        # u(a, 0) = 2 for the linear case
        first = fig6[1].split(",")
        assert float(first[1]) == pytest.approx(2.0, abs=1e-12)
        fig7 = (out / "fig7_shear_profile.csv").read_text().splitlines()
        assert fig7[0] == "x,u"
        assert all(float(line.split(",")[1]) > 0 for line in fig7[2:-1])

    def test_polynomial_cases_are_pinned(self, examples_out):
        files = [examples_out / "fig7_shear_profile.csv"]
        files += [p for case in ("linear", "realistic") for p in (examples_out / case).iterdir()]
        got = {p.relative_to(examples_out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert got == POLYNOMIAL_EXAMPLE_DIGESTS

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # a path through a regular file cannot be created
        assert run(["examples", "--out", str(blocker / "sub"), "--quiet"]) == EXIT_USAGE
