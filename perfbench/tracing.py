"""Span wrappers for the traced pass.

The program is not instrumented.  For the traced pass the benchmark
replaces the public functions of each module with wrappers, in every
``cavitystream`` module namespace that bound them by name at import
(``cli`` imports ``compat_check``, ``stagnation_points`` and others
that way), and on the classes that define the wrapped methods.  The
originals are put back when the pass ends.

A timed span records calls, inclusive time (outermost activation only)
and self time (inclusive minus the time of directly nested spans).  A
counter records calls only; it is used for functions cheap enough that
two clock reads would distort them.  Counts are deterministic for a
fixed workload and seed; times are not.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.minima: dict = {}
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span name, seconds of nested spans]

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, on_result=None):
        stack, active = self._stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if not active[name]:
                    self.total[name] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_result=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper


class Patches:
    """Replaces functions and methods and remembers how to undo it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, orig, new) -> None:
        for key, val in list(vars(owner).items()):
            if val is orig:
                self._undo.append((owner, key, val))
                setattr(owner, key, new)

    def function(self, module: str, attr: str, wrap) -> None:
        orig = getattr(importlib.import_module(module), attr)
        new = wrap(orig)
        for name, mod in list(sys.modules.items()):
            if name == "cavitystream" or name.startswith("cavitystream."):
                self._replace(mod, orig, new)

    def method(self, cls: type, attr: str, wrap) -> None:
        """Wrap ``attr`` on cls and on every subclass that overrides it;
        aliases in the same class body (``__rmul__ = __mul__``) follow."""
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            orig = klass.__dict__.get(attr)
            if orig is not None:
                self._replace(klass, orig, wrap(orig))

    def restore(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()


def _install(t: Tracer, p: Patches) -> None:
    from cavitystream.kinematics import CLOSED, VelocityField
    from cavitystream.polyalg import BivariatePoly
    from cavitystream.solver import StreamFunction

    def span(name, on_result=None):
        return lambda fn: t.span(name, fn, on_result)

    def counter(name, on_result=None):
        return lambda fn: t.counter(name, fn, on_result)

    def node_counting(name, key):
        # the first argument is the integrand; count the points it sees
        def wrap(fn):
            def inner(integrand, *args, **kwargs):
                def counted(T, S):
                    t.counts[key] += np.size(T)
                    return integrand(T, S)
                return fn(counted, *args, **kwargs)
            return t.span(name, functools.wraps(fn)(inner))
        return wrap

    def counting_evaluator(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            g = fn(*args, **kwargs)

            def counted(tt, ss):
                t.counts["quadrature.stress_evals"] += np.broadcast(tt, ss).size
                return g(tt, ss)
            return counted
        return inner

    def grid_points(args, rows):
        t.counts["solver.grid_points"] += len(rows)

    def stagnation_found(args, points):
        t.counts["kinematics.stagnation_found"] += len(points)

    def lattice(args, points):
        if t.top() == "kinematics.stagnation":
            t.counts["kinematics.newton_seeds"] += len(points)

    def velocity(fn):
        inner = t.counter("kinematics.velocity", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.active["kinematics.stagnation"]:
                t.counts["kinematics.stagnation_velocity_evals"] += 1
            return inner(*args, **kwargs)
        return wrapper

    def streamline(args, line):
        t.counts["kinematics.streamlines"] += 1
        t.counts["kinematics.rk4_steps"] += len(line.vertices) - 1
        t.counts["kinematics.closed"] += line.termination == CLOSED
        t.maxima["kinematics.psi_drift"] = max(t.maxima["kinematics.psi_drift"], line.psi_drift)

    def headroom(args, report):
        for check in report.checks.values():
            if check["value"] > 0:
                h = check["tol"] / check["value"]
                t.minima["verify.headroom"] = min(t.minima.get("verify.headroom", h), h)

    p.function("cavitystream.quadrature", "integrate_rect", node_counting("quadrature.integrate", "quadrature.nodes"))
    p.function("cavitystream.quadrature", "riemann_rect", node_counting("quadrature.riemann", "quadrature.riemann_nodes"))
    p.function("cavitystream.compatibility", "stress_char_evaluator", counting_evaluator)
    p.function("cavitystream.compatibility", "compat_check", span("compatibility.check"))
    p.function("cavitystream.compatibility", "exact_residual_poly", span("compatibility.exact_residual"))
    p.function("cavitystream.compatibility", "compat_constraints", span("compatibility.constraints"))
    p.function("cavitystream.solver", "write_grid_csv", span("solver.grid"))
    p.function("cavitystream.solver", "grid_rows", counter("solver.grid_rows", grid_points))
    p.function("cavitystream.solver", "solve_exact_poly", span("solver.exact_solve"))
    p.function("cavitystream.solver", "residual", counter("verify.residual"))
    p.function("cavitystream.verify", "riemann_psi", counter("verify.riemann_psi"))
    p.function("cavitystream.verify", "verify_solution", span("verify.solution", headroom))
    p.function("cavitystream.kinematics", "stagnation_points", span("kinematics.stagnation", stagnation_found))
    p.function("cavitystream.kinematics", "trace_streamline", span("kinematics.stream", streamline))
    p.function("cavitystream.kinematics", "u_profile", span("kinematics.profile"))
    p.function("cavitystream.geometry", "classify", counter("geometry.classify"))
    p.function("cavitystream.geometry", "interior_lattice", counter("geometry.interior_lattice", lattice))
    p.function("cavitystream.cli", "run", span("cli.run"))
    p.method(StreamFunction, "evaluate", span("solver.evaluate"))
    p.method(StreamFunction, "scale", span("solver.scale"))
    p.method(StreamFunction, "check_boundary", span("solver.check_boundary"))
    p.method(VelocityField, "_eval_raw", velocity)
    p.method(VelocityField, "jacobian", span("kinematics.jacobian"))
    p.method(VelocityField, "speed_scale", span("kinematics.speed_scale"))
    p.method(BivariatePoly, "__mul__", span("polyalg.mul"))
    p.method(BivariatePoly, "compose", span("polyalg.compose"))
    p.method(BivariatePoly, "diff", span("polyalg.diff"))
    p.method(BivariatePoly, "float_evaluator", counter("polyalg.float_evaluator"))


@contextlib.contextmanager
def traced():
    """Install the wrappers for the duration of the block."""
    t, p = Tracer(), Patches()
    try:
        _install(t, p)
        yield t
    finally:
        p.restore()


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics that come from the wrappers alone."""
    found = t.counts["kinematics.stagnation_found"]
    lines = t.counts["kinematics.streamlines"]
    return {
        "quadrature.integrate_calls": t.calls["quadrature.integrate"],
        "quadrature.nodes": t.counts["quadrature.nodes"],
        "quadrature.integrate_s": t.total["quadrature.integrate"],
        "quadrature.stress_evals": t.counts["quadrature.stress_evals"],
        "quadrature.riemann_nodes": t.counts["quadrature.riemann_nodes"],
        "quadrature.riemann_s": t.total["quadrature.riemann"],
        "solver.psi_evals": t.calls["solver.evaluate"],
        "solver.psi_eval_self_s": t.self_time["solver.evaluate"],
        "solver.grid_s": t.total["solver.grid"],
        "solver.grid_points": t.counts["solver.grid_points"],
        "solver.scale_s": t.total["solver.scale"],
        "solver.check_boundary_s": t.total["solver.check_boundary"],
        "solver.exact_solves": t.calls["solver.exact_solve"],
        "solver.exact_solve_s": t.total["solver.exact_solve"],
        "polyalg.mul_calls": t.calls["polyalg.mul"],
        "polyalg.mul_s": t.total["polyalg.mul"],
        "polyalg.compose_calls": t.calls["polyalg.compose"],
        "polyalg.compose_s": t.total["polyalg.compose"],
        "polyalg.diff_calls": t.calls["polyalg.diff"],
        "polyalg.diff_s": t.total["polyalg.diff"],
        "polyalg.float_evaluator_calls": t.calls["polyalg.float_evaluator"],
        "compatibility.check_s": t.total["compatibility.check"],
        "compatibility.exact_residual_calls": t.calls["compatibility.exact_residual"],
        "compatibility.exact_residual_s": t.total["compatibility.exact_residual"],
        "compatibility.constraints_s": t.total["compatibility.constraints"],
        "kinematics.velocity_evals": t.calls["kinematics.velocity"],
        "kinematics.jacobian_calls": t.calls["kinematics.jacobian"],
        "kinematics.jacobian_s": t.total["kinematics.jacobian"],
        "kinematics.stagnation_s": t.total["kinematics.stagnation"],
        "kinematics.newton_seeds": t.counts["kinematics.newton_seeds"],
        "kinematics.stagnation_found": found,
        "kinematics.velocity_evals_per_root":
            t.counts["kinematics.stagnation_velocity_evals"] / found if found else 0.0,
        "kinematics.stream_s": t.total["kinematics.stream"],
        "kinematics.rk4_steps": t.counts["kinematics.rk4_steps"],
        "kinematics.closed_frac": t.counts["kinematics.closed"] / lines if lines else 0.0,
        "kinematics.psi_drift_max": t.maxima["kinematics.psi_drift"],
        "kinematics.profile_s": t.total["kinematics.profile"],
        "geometry.classify_calls": t.calls["geometry.classify"],
        "verify.solution_s": t.total["verify.solution"],
        "verify.residual_calls": t.calls["verify.residual"],
        "verify.riemann_psi_calls": t.calls["verify.riemann_psi"],
        "verify.min_headroom": t.minima.get("verify.headroom", 0.0),
        "cli.self_s": t.self_time["cli.run"],
    }


def span_table(t: Tracer) -> dict:
    names = sorted(set(t.calls) | set(t.total))
    return {n: {"calls": t.calls[n], "total_s": t.total.get(n, 0.0), "self_s": t.self_time.get(n, 0.0)}
            for n in names}
