"""Seeded generators of admissible problems, emitted as problem-file text.

Two families, both written out with repr-exact floats so that the program
sees exactly the numbers drawn here:

* anchored (p1 / p1t): the steep-slope template

      f = gamma*atan(v - y0) + delta*cos(2*pi*t/T)*(1 + 0.1*sin(u))

  The atan term keeps strict opposite signs below M1 = y0 - s and above
  M2 = y0 + s; delta stays under gamma*atan(s)/1.65, so the oscillation
  cannot break them; T is short enough for the width condition
  L + 2*||c-||_1 < 1 with the constant envelope c = -(gamma*pi/2 + 1.1*delta).

* p2: the bounded cosine family f = c*cos(k*u + w*t + s*atan(v)) with
  c < a/(2T), asserted as c_bound = c.

Each problem also carries the a priori constants the checker must derive
(computed here from the closed-form curvature flux, independently of the
program), which the benchmark uses as the correctness bound on ||u||_C1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Problem:
    name: str        # e.g. "p1t-3", unique within a workload
    bc: str          # p1 | p1t | p2
    text: str        # the problem file
    bound: float     # rho_min (p1/p1t) or solution_bound (p2)


def _phi(s: float) -> float:
    return s / math.hypot(1.0, s)


def _phi_inv(y: float) -> float:
    return y / math.sqrt(1.0 - y * y)


def _signed(x: float) -> str:
    """' + 0.25' or ' - 0.25': the parser reads '-0.25' as unary minus, so
    negative constants are written as a subtraction of their magnitude."""
    return f" - {-x!r}" if x < 0.0 else f" + {x!r}"


def _problem_section(T: float, f: str, bc: str, n: int | None) -> str:
    lines = ["[problem]", f"T = {T!r}"]
    if n is not None:
        lines.append(f"n = {n}")
    lines += ["phi = curvature", f"f = {f}", f"bc = {bc}"]
    return "\n".join(lines) + "\n"


def anchored(rng: random.Random, bc: str, name: str, n: int | None = None) -> Problem:
    """One criterion-7 template problem under p1 or p1t."""
    T = rng.uniform(0.005, 0.02)
    gamma = rng.uniform(0.5, 2.0)
    y0 = rng.uniform(-0.25, 0.25)
    s = rng.uniform(0.3, 0.6)
    m1, m2 = y0 - s, y0 + s
    delta = rng.uniform(0.0, gamma * math.atan(s) / (1.1 * 1.5))
    omega = 2.0 * math.pi / T
    c_lower = -(gamma * math.pi / 2.0 + 1.1 * delta)

    f = (f"{gamma!r}*atan(v{_signed(-y0)}) "
         f"+ {delta!r}*cos({omega!r}*t)*(1 + 0.1*sin(u))")
    threshold = max(abs(_phi(m1)), abs(_phi(m2))) + 2.0 * T * -c_lower
    r = _phi_inv(threshold)
    rho_min = r * (2.0 + T)
    kappa = 0.5 * (threshold + 1.0)
    rho = 1.05 * rho_min
    text = (_problem_section(T, f, bc, n)
            + "\n[hypotheses]\n"
            + f"M1 = {m1!r}\nM2 = {m2!r}\nc_lower = {c_lower!r}\n"
            + f"kappa = {kappa!r}\nrho = {rho!r}\n")
    return Problem(name, bc, text, rho_min)


def bounded_cosine(rng: random.Random, name: str, n: int | None = None) -> Problem:
    """One p2 problem f = c*cos(k*u + w*t + s*atan(v)) with c < 1/(2T)."""
    T = rng.uniform(0.5, 1.5)
    c = rng.uniform(0.3, 0.8) / (2.0 * T)
    k = rng.uniform(0.5, 1.5)
    w = rng.uniform(0.0, 2.0 * math.pi / T)
    s = rng.uniform(-1.0, 1.0)
    f = f"{c!r}*cos({k!r}*u + {w!r}*t{_signed(s)}*atan(v))"
    cap = 2.0 * c * T
    bound = _phi_inv(cap) * (2.0 + T)
    text = (_problem_section(T, f, "p2", n)
            + f"\n[hypotheses]\nc_bound = {c!r}\n")
    return Problem(name, "p2", text, bound)


def generate(seed: int, stream: str, bc: str, count: int,
             n: int | None = None) -> list[Problem]:
    """`count` problems of one boundary condition.  Each (seed, stream, bc)
    triple has its own random stream, so adding a family to a workload does
    not change the problems drawn for another."""
    rng = random.Random(f"{seed}/{stream}/{bc}")
    out = []
    for i in range(count):
        name = f"{bc}-{i}" if n is None else f"{bc}-n{n}-{i}"
        if bc == "p2":
            out.append(bounded_cosine(rng, name, n))
        else:
            out.append(anchored(rng, bc, name, n))
    return out
