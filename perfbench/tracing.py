"""Spans and counters wrapped around tribvp's public functions from outside.

Nothing in the package is edited: `Tracer.installed()` swaps module and class
attributes for timing wrappers and puts the originals back in `finally`.
A function that another tribvp module imported by name (solver imports
`fixed_point_map`, `nemytskii` and `residual`; cli imports `check_problem`,
...) is replaced in every module that holds it, otherwise those calls would
bypass the wrapper.  The user's right-hand side is wrapped separately, per
problem, with `dataclasses.replace(spec, rhs=...)` (see `traced_spec`).

Every wrapped call is timed and charged to its caller, so each name gets
calls, total time and self time (total minus the time of wrapped calls made
inside it).  Calls at coarse layer boundaries are also kept as individual
spans (name, start, end, parent span, operation id) in memory and written
out once, at the end of the run; the hot inner calls (f, the operators,
phi^{-1}, GridFunction) are only aggregated, since a single cross-validation
makes several hundred thousand of them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from collections import Counter

import numpy as np

from tribvp import (cli, degree, grid, homeomorphisms, hypotheses, operators,
                    problem_file, solver)
from tribvp.errors import RangeViolation, StepRejected

_MODULES = [sys.modules[name] for name in sorted(sys.modules)
            if name == "tribvp" or name.startswith("tribvp.")]

# (owner, attribute, metric prefix, kept as individual spans)
_TARGETS = [
    (cli, "main", "cli.main", True),
    (problem_file, "loads", "problem_file.loads", True),
    (operators, "fixed_point_map", "operators.fixed_point_map", False),
    (operators, "nemytskii", "operators.nemytskii", False),
    (operators, "running_integral", "operators.running_integral", False),
    (operators, "residual", "operators.residual", False),
    (operators, "balancing_shift", "operators.balancing_shift", False),
    (homeomorphisms.Homeomorphism, "inverse", "homeomorphisms.inverse", False),
    (grid.GridFunction, "__post_init__", "grid.GridFunction", False),
    (solver, "solve_fixed_point", "solver.solve_fixed_point", True),
    (solver, "solve_shooting", "solver.solve_shooting", True),
    (solver, "cross_validate", "solver.cross_validate", True),
    (solver, "shoot_ivp", "solver.shoot_ivp", True),
    (hypotheses, "check_problem", "hypotheses.check_problem", True),
    (hypotheses, "check_sign_condition", "hypotheses.check_sign_condition", True),
    (hypotheses, "compute_bounds_p1", "hypotheses.compute_bounds_p1", True),
    (hypotheses, "check_bound_p2", "hypotheses.check_bound_p2", True),
    (degree, "degree_for_problem", "degree.degree_for_problem", True),
    (degree, "boundary_polygon", "degree.boundary_polygon", True),
    (degree, "winding_degree", "degree.winding_degree", True),
    (degree.PlanarMap, "__call__", "degree.map", False),
]


# per-layer metrics: "<name>.<stat>" from the timers ...
_REPORTED = [
    ("problem_file.loads", ("calls", "s")),
    ("expressions.f", ("s",)),
    ("operators.fixed_point_map", ("calls", "self_s")),
    ("operators.nemytskii", ("calls", "self_s")),
    ("operators.running_integral", ("calls", "s")),
    ("operators.residual", ("calls", "s")),
    ("operators.balancing_shift", ("calls", "self_s")),
    ("homeomorphisms.inverse", ("calls", "s")),
    ("grid.GridFunction", ("calls", "s")),
    ("solver.solve_fixed_point", ("calls", "self_s")),
    ("solver.shoot_ivp", ("calls", "s")),
    ("hypotheses.check_sign_condition", ("s",)),
    ("hypotheses.compute_bounds_p1", ("s",)),
    ("hypotheses.check_bound_p2", ("s",)),
    ("degree.boundary_polygon", ("s",)),
    ("degree.winding_degree", ("self_s",)),
    ("degree.map", ("calls", "s")),
]
# ... and straight from the counters
_COUNTS = [
    "expressions.f.calls_scalar", "expressions.f.calls_array",
    "operators.range_violations", "solver.picard_iters", "solver.newton_calls",
    "solver.crossval.flagged", "hypotheses.samples", "hypotheses.verdicts.pass",
    "hypotheses.verdicts.sampled_only", "hypotheses.verdicts.fail",
    "degree.refined",
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.agreement_max = 0.0
        self.spans: list[tuple] = []     # (id, parent id, op id, name, start, end)
        self._stack: list[list] = []     # [name, start, child time, span id]
        self._active: Counter = Counter()
        self._op_id = 0
        self._traced_specs: dict[int, tuple] = {}

    # ---------------------------------------------------------------- timing
    def _enter(self, name: str, keep: bool) -> list:
        span_id = None
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)      # filled in on exit
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        self._active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, parent, self._op_id, name, start, end)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """The benchmark's own span around one operation."""
        self._op_id += 1
        frame = self._enter(f"op.{kind}", True)
        try:
            yield
        finally:
            self._exit(frame)

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # -------------------------------------------------------------- wrappers
    def _wrap(self, fn, name: str, keep: bool):
        tracer = self

        def wrapped(*args, **kwargs):
            frame = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            except RangeViolation:
                if name == "operators.fixed_point_map":
                    tracer.counters["operators.range_violations"] += 1
                raise
            except StepRejected:
                if name == "solver.shoot_ivp":
                    tracer.counters["solver.shoot_ivp.rejected"] += 1
                raise
            finally:
                tracer._exit(frame)
            tracer._observe(name, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe(self, name: str, result) -> None:
        """Counters read off the return values of a few layers."""
        c = self.counters
        if name == "operators.fixed_point_map" and self.active("solver.solve_fixed_point"):
            c["operators.fixed_point_map.calls_in_solve"] += 1
        elif name == "solver.solve_fixed_point":
            c["solver.picard_iters"] += sum(s.iterations for s in result.lambda_path)
            c["solver.newton_calls"] += sum(s.newton_calls for s in result.lambda_path)
        elif name == "solver.cross_validate":
            c["solver.crossval.flagged"] += int(result.disagreement_flagged)
            self.agreement_max = max(self.agreement_max, result.backend_agreement)
        elif name == "hypotheses.check_problem":
            for verdict in result.verdicts.values():
                c["hypotheses.samples"] += verdict.samples
                c["hypotheses.verdicts." + verdict.status.name.lower()] += 1
        elif name == "degree.winding_degree":
            c["degree.refined"] += int(result.refined)

    def traced_spec(self, spec):
        """spec with its right-hand side counted and timed (scalar calls come
        from shooting, array calls from the operators, sampler and degree)."""
        key = id(spec)
        if key not in self._traced_specs:
            fn = spec.rhs.fn
            tracer = self

            def f(t, u, v):
                scalar = not isinstance(t, np.ndarray)
                tracer.counters["expressions.f.calls_scalar" if scalar
                                else "expressions.f.calls_array"] += 1
                frame = tracer._enter("expressions.f", False)
                try:
                    return fn(t, u, v)
                finally:
                    tracer._exit(frame)

            traced = dataclasses.replace(spec, rhs=dataclasses.replace(spec.rhs, fn=f))
            self._traced_specs[key] = (spec, traced)   # pin spec: ids stay unique
        return self._traced_specs[key][1]

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore all of them on exit."""
        saved = []
        try:
            for owner, attr, name, keep in _TARGETS:
                original = owner.__dict__[attr]
                wrapped = self._wrap(original, name, keep)
                holders = [owner] if isinstance(owner, type) else [
                    m for m in _MODULES if m.__dict__.get(attr) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    # --------------------------------------------------------------- results
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass of the workload's mix."""
        k = 1.0 / max(passes, 1)
        c = self.counters
        stats = {"calls": self.calls, "s": self.total, "self_s": self.self_time}
        m = {f"{name}.{stat}": stats[stat][name] * k
             for name, wanted in _REPORTED for stat in wanted}
        m["cli.main_s"] = self.total["cli.main"] * k
        for name in _COUNTS:
            m[name] = c[name] * k
        in_solve = c["operators.fixed_point_map.calls_in_solve"]
        m["solver.useful_map_frac"] = c["solver.picard_iters"] / in_solve if in_solve else 0.0
        shots = self.calls["solver.shoot_ivp"]
        m["solver.shoot_ivp.reject_frac"] = (
            c["solver.shoot_ivp.rejected"] / shots if shots else 0.0)
        m["solver.crossval.agreement_max"] = self.agreement_max
        return m

    def write_spans(self, path) -> int:
        """One JSON object per kept span; times in seconds from the first."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][4] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": round(start - t0, 9), "end": round(end - t0, 9)}) + "\n")
        return len(spans)
