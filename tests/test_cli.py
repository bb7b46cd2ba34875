"""Command-line interface: config parsing, exit codes, artifacts."""

import json
import math
import os

import numpy as np
import pytest

from cavitystream.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    parse_config,
    run,
)
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
        ({"quadrature": {"order": 65}}, "quadrature.order must be at most 64"),
        ({"quadrature": {"subdivision": 1001}}, "quadrature.subdivision must be at most 1000"),
        ({"streamlines": {"max_steps": 1_000_001}}, "streamlines.max_steps must be at most 1000000"),
    ])
    def test_size_upper_bounds(self, tmp_path, capsys, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)
        cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / "o")})
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_size_bounds_are_inclusive(self):
        cfg = parse_config({"grid_n": 1001, "quadrature": {"order": 64, "subdivision": 1000},
                            "streamlines": {"max_steps": 1_000_000}})
        assert (cfg.grid_n, cfg.quad_order, cfg.quad_subdivision, cfg.max_steps) == (1001, 64, 1000, 1_000_000)

    def test_grid_flag_upper_bound(self, tmp_path):
        cfg = write_config(tmp_path, {**LINEAR_STRESS_DOC, "out": str(tmp_path / "o")})
        assert run(["solve", "--config", cfg, "--grid", "1002", "--quiet"]) == EXIT_USAGE

    def test_seed_pairs(self):
        cfg = parse_config({"streamlines": {"seeds": [[1.0, 0.5], [0.7, 0.2]]}})
        assert cfg.seeds == ((1.0, 0.5), (0.7, 0.2))
        with pytest.raises(ConfigError):
            parse_config({"streamlines": {"seeds": [[1.0]]}})


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

    def test_cosine_solve_verifies(self, tmp_path):
        out = tmp_path / "o"
        doc = {
            "stress": {"kind": "cosine", "A": 5.0, "m": 3},
            "out": str(out),
            "grid_n": 9,
            "verify_lattice": 8,
        }
        cfg = write_config(tmp_path, doc)
        assert run(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["overall_pass"] is True
        assert verdict["quadrature_vs_riemann"] is not None

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


class TestExamplesCommand:
    def test_full_regeneration(self, tmp_path):
        out = tmp_path / "all"
        assert run(["examples", "--out", str(out), "--quiet"]) == EXIT_OK
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

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # a path through a regular file cannot be created
        assert run(["examples", "--out", str(blocker / "sub"), "--quiet"]) == EXIT_USAGE
