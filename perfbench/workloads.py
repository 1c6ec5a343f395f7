"""The four workloads: what each runs, why it was chosen, and how every
operation's result is checked.

A workload is built as a short list of passes.  A pass is one round of the
workload's operation mix; the runner repeats the passes in order (closed
loop, one client) until its time is up.  Library workloads draw every problem
from `problems` with the run's seed and hand it to tribvp only as
problem-file text through `tribvp.loads`.

Every operation either returns normally or raises; anything raised, a
correctness check included, is a failed operation.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tribvp
import tribvp.cli
from tribvp import grid, solver

import problems

STEEP = "demos/problems/steep_slope.prob"
BOUNDED = "demos/problems/bounded_forcing.prob"
CLI_TIMEOUT_S = 120
SCALING_N = (200, 800)


class CheckFailed(Exception):
    """An operation ran but its result is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str          # the per-kind timing it feeds, e.g. "solve_s.n200"
    label: str         # the problem or command line, for failure listings
    n: int             # grid intervals of the problem it runs
    run: Callable      # run(tracer or None) -> dict of observations or None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_solution(report, tol: float, bound: float) -> None:
    """Converged fixed-point report, boundary condition met, inside the
    a priori bound the checker derives for the problem."""
    res = report.residuals
    _require(res.c1 <= tol, f"residual {res.c1:.3g} > tol {tol:g}")
    _require(max(res.bc_defects) <= 10.0 * tol,
             f"bc defect {max(res.bc_defects):.3g} > 10*tol")
    size = grid.norm_c1(report.solution)
    _require(size < bound, f"||u||_C1 = {size:.6g} >= a priori bound {bound:.6g}")


def _spec(doc, tracer):
    return doc.spec if tracer is None else tracer.traced_spec(doc.spec)


def _loaded(pool: list[problems.Problem]) -> list[tuple]:
    return [(p, tribvp.loads(p.text)) for p in pool]


# ------------------------------------------------------------------ cli_demos

def _csv_rows(stdout: str) -> list[list[float]]:
    lines = stdout.strip().splitlines()
    _require(lines and lines[0] == tribvp.cli.CSV_HEADER, "no CSV header")
    return [[float(x) for x in line.split(",")] for line in lines[1:-1]]


def _expect_steep_solution(stdout: str) -> None:
    # f = exp(4v) - e vanishes only at slope 1/4: u = (1 + t)/4 exactly
    rows = _csv_rows(stdout)
    err = max(abs(u - (1.0 + t) / 4.0) for t, u, *_ in rows)
    _require(len(rows) == 401 and err < 1e-6, f"steep solution off by {err:.3g}")


def _expect_bounded_solution(stdout: str) -> None:
    # |f| <= 0.4 < 1/(2T) on T = 1 gives ||u||_C1 <= 4
    rows = _csv_rows(stdout)
    size = max(abs(r[1]) for r in rows) + max(abs(r[2]) for r in rows)
    _require(len(rows) == 401 and size < 4.0, f"||u||_C1 = {size:.6g} >= 4")


def _cli_op(kind: str, argv: list[str], n: int, root: Path, in_process: bool,
            expect_out: Callable[[str], None]) -> Op:
    full = [str(root / a) if a.endswith(".prob") else a for a in argv]

    def run(tracer):
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = tribvp.cli.main(full)
                except SystemExit as exc:
                    code = exc.code
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "tribvp", *full],
                                  cwd=root, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        _require(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
        expect_out(stdout)

    return Op(kind, " ".join(argv), n, run)


def _solve_ok(expect_solution):
    def check(stdout: str) -> None:
        last = stdout.strip().splitlines()[-1]
        _require(last.startswith("status=ok"), f"summary {last!r}")
        expect_solution(stdout)
    return check


def _check_ok(stdout: str) -> None:
    failing = [line for line in stdout.splitlines() if ": fail -" in line]
    _require(not failing, f"failing verdicts {failing}")


def _degree_ok(stdout: str) -> None:
    last = stdout.strip().splitlines()[-1]
    _require(last.startswith("degree=-1 "), f"summary {last!r}")


def build_cli_demos(seed: int, root: Path, in_process: bool) -> list[list[Op]]:
    """Fresh `python -m tribvp` processes, one at a time, over a fixed mix on
    the two demo files (in-process `tribvp.cli.main` when traced).

    Why: the only workload where interpreter start and imports dominate,
    about 1.1 s of import (1.0 s of it scipy.stats) against 3-450 ms of math
    per call, so removing scipy shows here and nowhere else.  The seed
    drives `check --seed`.
    """
    n = {path: tribvp.load_problem(root / path).spec.grid.n for path in (STEEP, BOUNDED)}
    check_seed = str(seed % 2**31)
    steep, bounded = _solve_ok(_expect_steep_solution), _solve_ok(_expect_bounded_solution)
    mix = [
        ("cli_solve_s", ["solve", STEEP], steep),
        ("cli_solve_s", ["solve", STEEP, "--backend", "both"], steep),
        ("cli_check_s", ["check", STEEP, "--seed", check_seed], _check_ok),
        ("cli_degree_s", ["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"], _degree_ok),
        ("cli_solve_s", ["solve", BOUNDED], bounded),
        ("cli_solve_s", ["solve", BOUNDED, "--backend", "both"], bounded),
        ("cli_check_s", ["check", BOUNDED, "--seed", check_seed], _check_ok),
    ]
    return [[_cli_op(kind, argv, n[argv[1]], root, in_process, expect)
             for kind, argv, expect in mix]]


# ----------------------------------------------------------------- p1_scaling

SCALING_POOL = 8


def build_p1_scaling(seed: int, root: Path, in_process: bool) -> list[list[Op]]:
    """Fixed-point solves of generated p1 problems at n=200 and n=800.

    Why: the O(n^2) finite-difference Jacobian and the O(n^3) dense solve
    carry the cost (0.37 s -> 2.45 s for 4x n), so solver work such as
    Anderson acceleration shows here.  No shooting, sampling or degree runs.
    """
    pools = {n: _loaded(problems.generate(seed, "p1_scaling", "p1", SCALING_POOL, n))
             for n in SCALING_N}

    def solve_op(n, prob, doc):
        def run(tracer):
            rep = solver.solve_fixed_point(_spec(doc, tracer), doc.options)
            _check_solution(rep, doc.options.tol, prob.bound)
        return Op(f"solve_s.n{n}", prob.name, doc.spec.grid.n, run)

    return [[solve_op(n, *pools[n][i]) for n in SCALING_N]
            for i in range(SCALING_POOL)]


# --------------------------------------------------------------- crossval_bcs

CROSSVAL_PASSES = 4
CROSSVAL_P2_PER_PASS = 3   # p2 is ~10x cheaper and its cost varies most


def build_crossval_bcs(seed: int, root: Path, in_process: bool) -> list[list[Op]]:
    """cross_validate on generated p1, p1t and p2 problems at the problem-file
    default n.

    Why: the pure-Python scalar RK4 sweep dominates, so batched shooting
    shows here and not on p1_scaling.  The only workload covering p1t, p2
    and balancing_shift.  Flagged disagreements are counted, not failed.
    """
    per_pass = {"p1": 1, "p1t": 1, "p2": CROSSVAL_P2_PER_PASS}
    pools = {bc: _loaded(problems.generate(seed, "crossval_bcs", bc, k * CROSSVAL_PASSES))
             for bc, k in per_pass.items()}

    def crossval_op(prob, doc):
        def run(tracer):
            rep = solver.cross_validate(_spec(doc, tracer), doc.options)
            _check_solution(rep, doc.options.tol, prob.bound)
            return {"flagged": rep.disagreement_flagged}
        return Op(f"crossval_s.{prob.bc}", prob.name, doc.spec.grid.n, run)

    return [[crossval_op(*pools[bc][i * k + j]) for bc, k in per_pass.items()
             for j in range(k)]
            for i in range(CROSSVAL_PASSES)]


# -------------------------------------------------------------------- certify

CERTIFY_POOL = 8


def build_certify(seed: int, root: Path, in_process: bool) -> list[list[Op]]:
    """check_problem (default 100k-sample box) on generated p1, p1t and p2
    problems; degree_for_problem on the p1/p1t ones with kappa and rho taken
    from the check's report.

    Why: sampling and the winding walk do nearly all the work here and
    almost none elsewhere; sampler and interval-enclosure changes land here.
    """
    pools = {bc: _loaded(problems.generate(seed, "certify", bc, CERTIFY_POOL))
             for bc in ("p1", "p1t", "p2")}

    def check_op(prob, doc, reports):
        def run(tracer):
            reports.pop(prob.name, None)
            rep = tribvp.hypotheses.check_problem(_spec(doc, tracer), doc.hypothesis_data)
            _require(rep.passed, "hypothesis report did not pass")
            got = rep.solution_bound if prob.bc == "p2" else rep.rho_min
            _require(got is not None and math.isclose(got, prob.bound, rel_tol=1e-9),
                     f"a priori bound {got!r}, expected {prob.bound!r}")
            reports[prob.name] = rep
        kind = "check_s.p2" if prob.bc == "p2" else "check_s.anchored"
        return Op(kind, prob.name, doc.spec.grid.n, run)

    def degree_op(prob, doc, reports):
        def run(tracer):
            rep = reports.get(prob.name)
            _require(rep is not None, "no hypothesis report to take kappa and rho from")
            lo, hi = rep.kappa_range
            res = tribvp.degree.degree_for_problem(
                _spec(doc, tracer), rho=1.05 * rep.rho_min, kappa=0.5 * (lo + hi))
            _require(res.degree != 0, "degree is zero")
        return Op("degree_s", prob.name, doc.spec.grid.n, run)

    passes = []
    for i in range(CERTIFY_POOL):
        reports: dict = {}
        ops = []
        for bc in ("p1", "p1t"):
            prob, doc = pools[bc][i]
            ops += [check_op(prob, doc, reports), degree_op(prob, doc, reports)]
        ops.append(check_op(*pools["p2"][i], reports))
        passes.append(ops)
    return passes


# name -> build(seed, root, in_process) -> list of passes
WORKLOADS = {
    "cli_demos": build_cli_demos,
    "p1_scaling": build_p1_scaling,
    "crossval_bcs": build_crossval_bcs,
    "certify": build_certify,
}
