"""The CLI contract, swept with hypothesis: `check` and `solve` on every
stress kind at the extremes of the unit of length, from a = 1e-300,
where the verify step h = 1e-4 a squares to zero, through a = 1e100,
where a polynomial psi overflows, to a = 1e300, where (2a)^2 and the
coefficients of a polynomial psi leave the float range.

Each config is run twice in-process through ``cli.run`` with
``--grid 11``.  The exit code must be 0, 1 or 2, nothing may escape as
a traceback, no numpy RuntimeWarning may reach stderr, and the two runs
must write byte-identical files.  Configs found to break the contract
outside this sweep keep a test of their own below.

`flow` runs on every stress at a = 1e-3, 1 and 1e3 under the same
contract: its streamlines are traced under an error tolerance that is a
fraction of a, so an orbit costs the same steps at each of them.  The
extremes, where the field over- or underflows, have tests of their own
below.
"""

import io
import itertools
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from cavitystream.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, run

STRESSES = [
    {"kind": "builtin", "name": "linear"},
    {"kind": "builtin", "name": "sinusoidal"},
    {"kind": "builtin", "name": "realistic"},
    {"kind": "cosine", "A": 1, "m": 3},
    {"kind": "cosine", "A": 1, "m": 2},
    {"kind": "polynomial", "terms": [{"i": 0, "j": 1, "coefficient": 16}, {"i": 0, "j": 0, "coefficient": -8}]},
]
A_VALUES = [1e-300, 1e-3, 1.0, 1e3, 1e100, 1e300]
COMMANDS = ["check", "solve"]
CASES = list(itertools.product(COMMANDS, range(len(STRESSES)), A_VALUES))
FLOW_A_VALUES = [1e-3, 1.0, 1e3]


def _run(command: str, doc: dict, work: str, tag: str) -> tuple[int, str, dict]:
    """Exit code, stderr and the written files of one in-process run;
    the warnings it raises count as stderr, where a run outside the
    test runner would print them."""
    config = os.path.join(work, f"{tag}.json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(work, tag)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([command, "--config", config, "--out", out, "--grid", "11", "--quiet"])
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return rc, err.getvalue(), files


def _assert_contract(command: str, doc: dict) -> None:
    with tempfile.TemporaryDirectory() as work:
        first = _run(command, doc, work, "first")
        second = _run(command, doc, work, "second")
    rc, err, files = first
    assert rc in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE)
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert rc != EXIT_OK or files, "a successful run wrote nothing"
    assert second == first


@settings(max_examples=2 * len(CASES), deadline=None)
@given(st.sampled_from(CASES))
def test_check_and_solve_keep_the_contract(case):
    command, stress, a = case
    _assert_contract(command, {"a": a, "stress": STRESSES[stress]})


@pytest.mark.parametrize("a", FLOW_A_VALUES)
@pytest.mark.parametrize("stress", range(len(STRESSES)))
def test_flow_keeps_the_contract(stress, a):
    _assert_contract("flow", {"a": a, "stress": STRESSES[stress]})


def test_flow_on_an_overflowing_field_fails_in_one_line():
    # past a = 1e100 the realistic builtin's velocity is nan: no
    # stagnation search or streamline can mean anything there
    for a in (1e100, 1e300):
        with tempfile.TemporaryDirectory() as work:
            rc, err, _ = _run("flow", {"a": a, "stress": STRESSES[2]}, work, "flow")
        assert rc == EXIT_DOMAIN
        assert len(err.splitlines()) == 1 and err.startswith("error: the velocity is not finite")
        assert "Traceback" not in err


def test_flow_on_an_underflowed_field_fails_in_one_line():
    # at a = 1e-300 the velocities of the linear and realistic builtins
    # underflow to 0 while their stress does not vanish: that is no null
    # field, and `solve` fails on the same configs.  A subnormal speed
    # scale has too few digits for the stagnation search: the linear
    # builtin at a = 1e-160 (speed scale 1.46e-320) and the realistic one
    # at a = 1e-80 would find 1 of their 4 and of their 15 points
    cases = [(stress, 1e-300) for stress in (STRESSES[0], STRESSES[2])] + [(STRESSES[0], 1e-160), (STRESSES[2], 1e-80)]
    for stress, a in cases:
        with tempfile.TemporaryDirectory() as work:
            rc, err, _ = _run("flow", {"a": a, "stress": stress}, work, "flow")
        assert rc == EXIT_DOMAIN
        assert len(err.splitlines()) == 1 and err.startswith("error: the velocity underflows to zero")


@pytest.mark.parametrize("a", [1e-162, 1e-250])
def test_flow_on_the_sinusoidal_builtin_where_its_psi_underflows(a):
    # psi ~ a^2 underflows, but the speed ~ a is formed so that it stays
    # normal: all 13 stagnation points are found
    with tempfile.TemporaryDirectory() as work:
        rc, err, files = _run("flow", {"a": a, "stress": STRESSES[1]}, work, "flow")
    assert rc == EXIT_OK and not err
    assert len(files["stagnation.csv"].decode().splitlines()) == 1 + 13


@pytest.mark.parametrize("a", [1e-308, 1e-310])
@pytest.mark.parametrize("command", ["check", "solve", "flow"])
@pytest.mark.parametrize("stress", [1, 3], ids=["sinusoidal", "cosine"])
def test_an_overflowing_wavenumber_fails_in_one_line(stress, command, a):
    # 3 pi / a is inf from a = 5.2e-308 down: the cosine has no value
    with tempfile.TemporaryDirectory() as work:
        rc, err, _ = _run(command, {"a": a, "stress": STRESSES[stress]}, work, command)
    assert rc == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: a={a:g} is too small: the wavenumber m*pi/a")


def test_huge_constraint_coefficients_fail_in_one_line():
    # Fraction(1.19e-174) has a 578-digit denominator, and its powers in
    # the constraint polynomial pass the interpreter's int -> str limit;
    # those coefficients are written rounded and marked with ~
    doc = {"a": 1.19e-174, "stress": {"kind": "polynomial", "terms": [{"i": 38, "j": 6, "coefficient": -15}]}}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as work:
            rc, err, files = _run(command, doc, work, command)
        assert rc == EXIT_DOMAIN
        assert "Traceback" not in err
        if command == "check":
            # the verdict goes to compat.json, not to stderr
            assert err == ""
            assert b'"exact_constraints": "-~' in files["compat.json"]
        else:
            assert len(err.splitlines()) == 1
            assert err.startswith("error: stress fails the admissibility condition; constraint polynomial: -~")
