"""Command line front end: solve / check / degree over INI problem files.

Exit codes are part of the interface and disjoint by construction; the
failures among them come from one table per subcommand, `EXIT_CODES`:

    0   success (solve converged / all checks passed / degree nonzero)
    1   check found a failing condition, or the degree is zero
    2   no convergence or a non-finite f (solve), or an uncertifiable
        boundary or a non-finite f (degree)
    3   hypothesis hard-failure under --require-hypotheses, or seeding failure
    4   unreadable input: bad command line, file, expression, option or
        domain errors, M1 >= M2; an --out file solve cannot write; a grid
        or sample count too large to allocate (a MemoryError); or, from a
        `tribvp` process, a stdout closed before its output was written
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace

import numpy as np

from .degree import degree_for_problem
from .errors import (BvpError, EmptyDomain, HypothesisFailed,
                     PreconditionViolated, ProblemFileError)
from .hypotheses import check_problem
from .operators import nemytskii
from .problem_file import load_problem
from .solver import BACKENDS, solve

__all__ = ["main", "entry"]

CSV_HEADER = "t,u,du,phi_du,f"

# Exit code of every BvpError, per subcommand.  The nearest class in the
# exception's MRO picks the row, so an error not named here gets the
# subcommand's BvpError row.  Exit 1 is check's verdict and is printed on
# stdout with the other verdict lines; every other failure goes to stderr.
EXIT_CODES: dict[str, dict[type, int]] = {
    "solve": {BvpError: 2, HypothesisFailed: 3, ProblemFileError: 4},
    "check": {BvpError: 1, ProblemFileError: 4},
    "degree": {BvpError: 2, EmptyDomain: 4, PreconditionViolated: 4,
               ProblemFileError: 4},
}


def entry() -> None:
    # The imported objects live until the process ends: frozen, neither the
    # collections during the command nor those at exit walk them.  Only here,
    # so that in-process callers of main() keep their collector as it was.
    gc.freeze()
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader is gone; pointed at devnull, the flush at exit
        # cannot fail on what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 4
    sys.exit(code)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, load_problem(args.file))
    except BvpError as exc:
        table = EXIT_CODES[args.command]
        code = next(table[cls] for cls in type(exc).__mro__ if cls in table)
        if code == 1:
            print(f"fail: {exc}")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


class _Parser(argparse.ArgumentParser):
    """Command line errors exit 4, with the other unreadable input, instead of
    argparse's 2, which here means no convergence.  Subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tribvp",
        description="Solve, check, and certify three-point boundary value "
                    "problems with a bounded flux nonlinearity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, emit CSV")
    p_solve.add_argument("file")
    p_solve.add_argument("--out", default=None, help="write the CSV here "
                         "instead of stdout")
    p_solve.add_argument("--backend", default=None, choices=BACKENDS)
    p_solve.add_argument("--require-hypotheses", action="store_true",
                         help="refuse to solve unless the hypothesis report "
                              "has no failing condition")
    p_solve.set_defaults(handler=_run_solve)

    p_check = sub.add_parser("check", help="run the hypothesis checker")
    p_check.add_argument("file")
    p_check.add_argument("--seed", type=_non_negative_int, default=0,
                         help="seed for the sampling sequence")
    p_check.set_defaults(handler=_run_check)

    p_deg = sub.add_parser("degree", help="topological degree of the reduced "
                           "plane map on a disk-with-walls domain")
    p_deg.add_argument("file")
    p_deg.add_argument("--rho", type=float, required=True)
    p_deg.add_argument("--kappa", type=float, required=True)
    p_deg.add_argument("--samples", type=int, default=512,
                       help="equally spaced angles on the circle (at least "
                            "64): samples are at most 2 pi rho / SAMPLES "
                            "apart, plus the corners where a wall meets it")
    p_deg.set_defaults(handler=_run_degree)
    return parser


# -------------------------------------------------------------------- solve

def _run_solve(args, doc) -> int:
    opts = doc.options
    if args.backend is not None:
        opts = replace(opts, backend=args.backend)

    if args.require_hypotheses:
        report = check_problem(doc.spec, doc.hypothesis_data)
        if not report.passed:
            raise HypothesisFailed("hypotheses failed: " + "; ".join(
                f"{name}: {verdict.detail}"
                for name, verdict in report.verdicts.items() if not verdict.ok))

    try:
        result = solve(doc.spec, opts)
    except BvpError as exc:
        print(_summary("fail", getattr(exc, "best_residual", float("nan")),
                       getattr(exc, "iterations", 0), opts.backend))
        raise

    table = _csv_table(doc.spec, result.solution)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(table)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(table)
    if result.disagreement_flagged:
        print(f"warning: backends disagree by {result.backend_agreement:.6g} "
              f"(over 100x the tolerance)", file=sys.stderr)
    print(_summary("ok", result.residuals.c1, result.iterations, result.backend))
    return 0


def _summary(status: str, residual: float, iters: int, backend: str) -> str:
    return (f"status={status} residual={residual:.6e} "
            f"iters={iters} backend={backend}")


def _csv_table(spec, u) -> str:
    t = spec.grid.nodes
    f_vals = nemytskii(spec, u)
    phi_du = spec.phi.forward(u.derivs)
    columns = (t, u.values, u.derivs, np.atleast_1d(phi_du), f_vals)
    lines = [CSV_HEADER]
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(f"{value:.17g}" for value in row))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- check

def _run_check(args, doc) -> int:
    report = check_problem(doc.spec, doc.hypothesis_data, args.seed)
    for name, verdict in report.verdicts.items():
        line = f"{name}: {verdict.status.value} - {verdict.detail}"
        if verdict.counterexample is not None:
            t, x, y = verdict.counterexample
            line += f" at (t, x, y) = ({t:.6g}, {x:.6g}, {y:.6g})"
        print(line)
    for label, value in (("M1", report.m1), ("M2", report.m2),
                         ("L", report.L), ("r", report.r),
                         ("||c-||_1", report.c_minus_l1),
                         ("c_bound", report.c_bound),
                         ("solution_bound", report.solution_bound),
                         ("rho_min", report.rho_min)):
        if value is not None:
            print(f"{label}={value:.10g}")
    if report.kappa_range is not None:
        lo, hi = report.kappa_range
        print(f"kappa_range=({lo:.10g}, {hi:.10g})")
    return 0 if report.passed else 1


# ------------------------------------------------------------------- degree

def _run_degree(args, doc) -> int:
    result = degree_for_problem(doc.spec, rho=args.rho, kappa=args.kappa,
                                m=args.samples)
    print(f"degree={result.degree} "
          f"min_boundary_norm={result.min_boundary_norm:.10g} "
          f"samples={result.samples_used}")
    return 0 if result.degree != 0 else 1
