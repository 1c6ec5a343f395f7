"""Bounded forcing under periodic-style conditions u(0) = u(T) = u'(T).

f = 0.4 cos(u) with |f| <= 0.4 < 1/(2T): small enough that the flux argument
can never reach the wall of (-a, a), which yields unconditional solvability
and explicit caps on the solution.  The demo verifies both against the
computed solution.
"""

from pathlib import Path

from tribvp import check_problem, cross_validate, norm_c1, norm_sup
from tribvp.problem_file import load_problem

doc = load_problem(Path(__file__).parent / "problems" / "bounded_forcing.prob")

print("== hypotheses ==")
report = check_problem(doc.spec, doc.hypothesis_data)
for name, verdict in report.verdicts.items():
    print(f"  {name:18s} {verdict.status.value:12s} {verdict.detail}")

# the certified chain: |phi(u')| <= 2cT = 0.8, so |u'| <= r = phi^{-1}(0.8) = 4/3
# and ||u||_C1 <= r(2+T) = 4
r, bound = report.r, report.solution_bound
print("== solve, both backends ==")
both = cross_validate(doc.spec, doc.options)
u = both.solution
print(f"  residual              : {both.residuals.c1:.3e}")
print(f"  backend disagreement  : {both.backend_agreement:.3e}")
print(f"  sup |u'| = {norm_sup(u.derivs):.6f}   (cap {r:.6f})")
print(f"  ||u||_C1 = {norm_c1(u):.6f}   (cap {bound:.6f})")
print(f"  u(0) - u(T)  = {u.values[0] - u.values[-1]:+.3e}")
print(f"  u'(T) - u(T) = {u.derivs[-1] - u.values[-1]:+.3e}")

if both.disagreement_flagged:
    print()
    print("  note: the informational disagreement flag fires at the strict")
    print("  default tolerance because the two backends discretize")
    print("  differently (trapezoid operators vs RK4); the gap above is")
    print("  discretization-level, far below any solution-level ambiguity.")
