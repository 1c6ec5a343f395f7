"""Solvability hypotheses: sampled checks and the a priori constants.

Two kinds of verdict are possible and the distinction is kept explicit.
Arithmetic facts about user-supplied constants (a width inequality, a bound
comparison) are certified and may carry PASS.  Anything established by probing
f at finitely many points is at best SAMPLED_ONLY and never upgrades: a clean
sample of a sign condition is evidence, not proof.

For the slope-anchored conditions (p1/p1t) the checked hypothesis set is

  * sign:      f has one strict sign for slopes y >= M2 and the opposite
               strict sign for y <= M1 (a pointwise sufficient version of the
               mean-value condition the solver's seeding relies on);
  * envelope:  f(t, x, y) >= c(t) for a supplied lower envelope c;
  * width:     L + 2 * ||c^-||_1 < a, with L the flux cap at the thresholds.

For p2 the hypothesis is a global bound |f| <= c with c < a / (2 T).

Either case bounds the flux of a solution, |phi(u')| <= l < a, and with it
the slope by r and the solution norm by r * (2 + T); see `HypothesisReport`.

Sampled conditions probe f at N = SAMPLES = 100,000 points per probe, with t
in [0, T] and x in [-X_HALFWIDTH, X_HALFWIDTH] = [-10, 10]; y runs over a
slab Y_SPAN = 10 wide beyond each threshold (sign condition), over
[min(0, M1) - 10, max(0, M2) + 10] (envelope) or over [-10, 10] (p2 bound).
The points are i = 1..N of the R_3 Kronecker sequence
(shift + i * (g^-1, g^-2, g^-3)) mod 1, g the real root of x^4 = x + 1, mapped
affinely onto that box; the Cranley-Patterson shift is drawn from the seed,
the checker's one setting, as numpy's default_rng would draw it but without
importing numpy.random.
A probe walks the points in blocks of `operators.BLOCK`, building each block
one contiguous coordinate at a time (a float `%` over the strided (N, 3)
layout took two thirds of a probe) and calling f once per block, so that no
temporary is large enough to be mapped and page-faulted afresh.  Each check
folds its verdict over the blocks in order and gets the verdict and
counterexample of one pass over all N points: the first non-finite value or
envelope dip ends the probe at its block, a slab's sign is read off its least
and largest f, and the least |f| of a sign failure and the largest |f| of the
p2 bound are the first such over all blocks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import HypothesisFailed, InvalidThresholds
from .grid import integer_at_least
from .operators import BLOCK, BoundaryCondition, ProblemSpec, mean_value

__all__ = [
    "Verdict", "ConditionVerdict", "HypothesisData",
    "HypothesisReport", "check_sign_condition", "compute_bounds_p1",
    "check_bound_p2", "check_problem",
]


class Verdict(enum.Enum):
    PASS = "pass"                  # certified arithmetic fact
    FAIL = "fail"
    SAMPLED_ONLY = "sampled-only"  # held on every sample; not a proof


@dataclass(frozen=True)
class ConditionVerdict:
    status: Verdict
    detail: str
    samples: int = 0
    counterexample: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status is not Verdict.FAIL


@dataclass(frozen=True)
class HypothesisData:
    """User-supplied hypothesis constants, all optional."""

    m1: float | None = None
    m2: float | None = None
    c_lower: Callable | float | None = None
    c_bound: float | None = None
    kappa: float | None = None
    rho: float | None = None


@dataclass(frozen=True)
class HypothesisReport:
    """The verdicts, by condition name in the order checked, and the a priori
    constants; a constant is None where the case has none or its check fails.

    m1, m2          the slope thresholds M1 < M2 (p1/p1t)
    c_minus_l1      ||c^-||_1, trapezoid norm of the envelope's negative part
    L               the flux cap max(|phi(M1)|, |phi(M2)|) (p1/p1t)
    c_bound         the bound c on |f|: asserted, else the sampled max (p2)
    r               the slope bound phi^{-1}(l) of the flux bound l < a, where
                    l = L + 2 ||c^-||_1 (p1/p1t) or l = 2 c T (p2)
    rho_min         r (2 + T), the bound on ||u||_C1 and so the least
                    degree-domain rho (p1/p1t)
    kappa_range     (l, a), the admissible degree-domain kappa (p1/p1t)
    solution_bound  r (2 + T), the bound on ||u||_C1 (p2)
    """

    bc_case: BoundaryCondition
    verdicts: dict[str, ConditionVerdict] = field(default_factory=dict)
    m1: float | None = None
    m2: float | None = None
    c_minus_l1: float | None = None
    L: float | None = None
    r: float | None = None
    rho_min: float | None = None
    kappa_range: tuple[float, float] | None = None
    c_bound: float | None = None
    solution_bound: float | None = None

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(v.ok for v in self.verdicts.values())


SAMPLES = 100_000   # points per probe
X_HALFWIDTH = 10.0  # x in [-X_HALFWIDTH, X_HALFWIDTH]
Y_SPAN = 10.0       # width of the slope slab beyond each threshold

_R3_ALPHA = 1.2207440846057596 ** -np.arange(1.0, 4.0)  # root of x^4 = x + 1


def _pcg64_uniforms(seed: int, count: int) -> list[float]:
    """np.random.default_rng(seed).random(count), bit for bit, for a seed >= 0:
    numpy's SeedSequence (a pool of 4 uint32 words) seeds PCG64 (O'Neill,
    XSL-RR 128/64), and a double is its output's top 53 bits times 2^-53.
    Importing numpy.random (with hashlib, hmac and secrets) for three
    doubles cost a `check` process 10-13 ms."""
    m32, m64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF

    def hasher(hash_const: int, mult: int) -> Callable[[int], int]:
        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * mult & m32
            value = value * hash_const & m32
            return value ^ value >> 16
        return hashmix

    def mix(x: int, y: int) -> int:
        value = 0xca01f9dd * x - 0x4973f715 * y & m32
        return value ^ value >> 16

    entropy = [seed >> s & m32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    hashmix = hasher(0x8b51f9dd, 0x58f38ded)  # generate_state(4, uint64)
    words = [hashmix(pool[i % 4]) for i in range(8)]  # low word first
    w0, w1, w2, w3 = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))
    mult, m128 = 0x2360ed051fc65da44385df649fccf645, (1 << 128) - 1
    inc = ((w2 << 64 | w3) << 1 | 1) & m128
    state = ((inc + (w0 << 64 | w1)) * mult + inc) & m128
    out = []
    for _ in range(count):
        state = (state * mult + inc) & m128
        value, rot = (state >> 64 ^ state) & m64, state >> 122
        value = (value >> rot | value << (-rot & 63)) & m64
        out.append((value >> 11) * 2.0 ** -53)
    return out


def _quasi_random(shift: Sequence[float], start: int, stop: int) -> list[np.ndarray]:
    """Points start + 1..stop of the R_3 sequence shifted by `shift`, as three
    contiguous coordinate arrays, bit-identical to (shift + i * _R3_ALPHA) % 1.0
    on an (N, 3) array (x - floor(x) is exact for x >= 0) without that strided
    float `%`, which took two thirds of a probe."""
    i = np.arange(start + 1, stop + 1, dtype=float)
    cols = [i * a + s for a, s in zip(_R3_ALPHA, shift)]
    for u in cols:
        u -= np.floor(u)
    return cols


def _probe(spec: ProblemSpec, seed: int, y_lo: float, y_hi: float,
           seed_shift: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The SAMPLES points in order, as blocks (t, x, y, f) of at most BLOCK
    points: block k holds points k BLOCK + 1..(k + 1) BLOCK of the sequence,
    with the shift drawn from seed + seed_shift, and y in [y_lo, y_hi)."""
    shift = _pcg64_uniforms(integer_at_least("seed", seed, 0) + seed_shift, 3)
    for start in range(0, SAMPLES, BLOCK):
        t, x, y = _quasi_random(shift, start, min(start + BLOCK, SAMPLES))
        t *= spec.grid.T
        x = (2.0 * x - 1.0) * X_HALFWIDTH
        y = y_lo + y * (y_hi - y_lo)
        yield t, x, y, spec.rhs(t, x, y)


def _point(t: np.ndarray, x: np.ndarray, y: np.ndarray, j: int) -> tuple:
    """Sample j of a block as a counterexample (t, x, y)."""
    return float(t[j]), float(x[j]), float(y[j])


def check_sign_condition(spec: ProblemSpec, m1: float, m2: float,
                         seed: int = 0) -> ConditionVerdict:
    """Sampled check that f has opposite strict signs beyond the thresholds.

    A counterexample here only disproves the pointwise form; an f that
    satisfies the weaker mean-value condition without pointwise sign control
    is reported as a failure with that caveat in the detail text.
    """
    if not m1 < m2:
        raise InvalidThresholds(f"need M1 < M2, got M1={m1!r} M2={m2!r}")
    total = 2 * SAMPLES
    positive = []
    for name, y_lo, y_hi, seed_shift in (("y >= M2", m2, m2 + Y_SPAN, 1),
                                         ("y <= M1", m1 - Y_SPAN, m1, 2)):
        lo, hi, least, where = math.inf, -math.inf, math.inf, None
        for t, x, y, f in _probe(spec, seed, y_lo, y_hi, seed_shift):
            finite = np.isfinite(f)
            if not finite.all():  # the slab's first: every earlier block was finite
                return ConditionVerdict(
                    Verdict.FAIL, f"f not finite on {name}", total,
                    _point(t, x, y, int(np.argmin(finite))))
            lo, hi = min(lo, f.min()), max(hi, f.max())
            a = np.abs(f)
            j = int(np.argmin(a))
            if a[j] < least:  # strictly: the slab's first least |f|
                least, where = float(a[j]), _point(t, x, y, j)
        if not (lo > 0.0 or hi < 0.0):
            return ConditionVerdict(
                Verdict.FAIL,
                f"no strict constant sign on {name} (pointwise condition "
                "violated; the integral form remains undetermined)",
                total, where)
        positive.append(lo > 0.0)
    if positive[0] == positive[1]:
        return ConditionVerdict(
            Verdict.FAIL,
            "same strict sign on both slope ranges; opposite signs required",
            total)
    return ConditionVerdict(
        Verdict.SAMPLED_ONLY,
        f"opposite strict signs across the thresholds on {total} samples",
        total)


def _apriori_bound(spec: ProblemSpec, ell: float) -> tuple[float | None, float | None]:
    """A flux bound |phi(u')| <= ell gives the slope bound r = phi^{-1}(ell)
    and the solution bound ||u||_C1 <= r (2 + T); (None, None) unless ell < a."""
    phi = spec.phi
    if not ell < phi.a:
        return None, None
    r = max(abs(phi.inverse(ell)), abs(phi.inverse(-ell)))
    return r, r * (2.0 + spec.grid.T)


def compute_bounds_p1(spec: ProblemSpec, m1: float, m2: float,
                      c_lower: Callable | float,
                      seed: int = 0) -> HypothesisReport:
    """Envelope check plus the a priori constants for the p1/p1t case."""
    if not m1 < m2:
        raise InvalidThresholds(f"need M1 < M2, got M1={m1!r} M2={m2!r}")
    if c_lower is None:
        raise HypothesisFailed("insufficient data: a lower envelope c(t) is required")
    grid = spec.grid

    def envelope(t: np.ndarray) -> np.ndarray:
        """c(t) as floats of t's shape, inf or NaN where c cannot evaluate."""
        with np.errstate(all="ignore"):
            c = c_lower(t) if callable(c_lower) else c_lower
            return np.broadcast_to(np.asarray(c, dtype=float), t.shape)

    verdicts: dict[str, ConditionVerdict] = {}
    for t, x, y, f in _probe(spec, seed, -Y_SPAN + min(0.0, m1),
                             Y_SPAN + max(0.0, m2), seed_shift=3):
        c_at = envelope(t)
        bad = ~(f >= c_at)  # a NaN in f or c(t) fails too
        if bad.any():  # the slab's first dip: every earlier block passed
            j = int(np.argmax(bad))
            finite = np.isfinite(f[j]) and np.isfinite(c_at[j])
            verdicts["envelope"] = ConditionVerdict(
                Verdict.FAIL,
                f"f = {f[j]:.6g} dips below c = {c_at[j]:.6g}" if finite else
                f"f or c(t) not finite: f = {f[j]:.6g}, c = {c_at[j]:.6g}",
                SAMPLES, _point(t, x, y, j))
            break
    else:
        verdicts["envelope"] = ConditionVerdict(
            Verdict.SAMPLED_ONLY, f"f >= c(t) on {SAMPLES} samples", SAMPLES)

    c_minus_l1 = grid.T * mean_value(grid, np.maximum(-envelope(grid.nodes), 0.0))
    phi = spec.phi
    L = max(abs(phi.forward(m2)), abs(phi.forward(m1)))
    ell = L + 2.0 * c_minus_l1
    r, rho_min = _apriori_bound(spec, ell)
    if r is not None:
        verdicts["width"] = ConditionVerdict(
            Verdict.PASS, f"L + 2||c-||_1 = {ell:.10g} < a = {phi.a:.10g}")
    else:
        verdicts["width"] = ConditionVerdict(
            Verdict.FAIL,
            f"L + 2||c-||_1 = {ell:.10g} >= a = {phi.a:.10g}; "
            "no admissible slope bound exists")
    return HypothesisReport(
        bc_case=spec.bc, verdicts=verdicts, m1=m1, m2=m2,
        c_minus_l1=c_minus_l1, L=L, r=r, rho_min=rho_min,
        kappa_range=None if r is None else (ell, phi.a))


def check_bound_p2(spec: ProblemSpec, c_bound: float | None = None,
                   seed: int = 0) -> HypothesisReport:
    """Bound check c < a / (2T) for the p2 case.

    With a user-asserted global bound the comparison is certified (and the
    assertion itself is spot-checked by sampling).  Without one, the empirical
    max of |f| over the box stands in for c and everything is sampled-only.
    """
    grid = spec.grid
    limit = spec.phi.a / (2.0 * grid.T)
    verdicts: dict[str, ConditionVerdict] = {}
    emp_max, where = -math.inf, None
    for t, x, y, f in _probe(spec, seed, -Y_SPAN, Y_SPAN, seed_shift=4):
        finite = np.isfinite(f)
        if not finite.all():  # the box's first: every earlier block was finite
            verdicts["bound"] = ConditionVerdict(
                Verdict.FAIL, "f not finite on the sampling box", SAMPLES,
                _point(t, x, y, int(np.argmin(finite))))
            return HypothesisReport(bc_case=spec.bc, verdicts=verdicts, c_bound=c_bound)
        a = np.abs(f)
        j = int(np.argmax(a))
        if a[j] > emp_max:  # strictly: the box's first largest |f|
            emp_max, where = float(a[j]), _point(t, x, y, j)

    if c_bound is not None:
        c_eff = float(c_bound)
        ok = c_eff < limit
        verdicts["bound"] = ConditionVerdict(
            Verdict.PASS if ok else Verdict.FAIL,
            f"{c_eff:.10g} {'<' if ok else '>='} {limit:.10g}")
        if emp_max > c_eff:
            verdicts["bound_consistency"] = ConditionVerdict(
                Verdict.FAIL,
                f"sampled |f| reached {emp_max:.6g}, above the asserted bound",
                SAMPLES, where)
        else:
            verdicts["bound_consistency"] = ConditionVerdict(
                Verdict.SAMPLED_ONLY,
                f"max sampled |f| = {emp_max:.6g} within the asserted bound",
                SAMPLES)
    else:
        c_eff = emp_max
        status = Verdict.SAMPLED_ONLY if c_eff < limit else Verdict.FAIL
        verdicts["bound"] = ConditionVerdict(
            status,
            f"max sampled |f| = {c_eff:.10g} vs limit {limit:.10g}",
            SAMPLES)

    r, solution_bound = _apriori_bound(spec, 2.0 * c_eff * grid.T)
    return HypothesisReport(
        bc_case=spec.bc, verdicts=verdicts, c_bound=c_eff, r=r,
        solution_bound=solution_bound)


def check_problem(spec: ProblemSpec, data: HypothesisData,
                  seed: int = 0) -> HypothesisReport:
    """Full hypothesis report for a problem, dispatching on its boundary case."""
    if spec.bc is BoundaryCondition.P2:
        return check_bound_p2(spec, data.c_bound, seed)
    if data.m1 is None or data.m2 is None or data.c_lower is None:
        raise HypothesisFailed(
            "insufficient data: the slope-anchored cases need M1, M2 and "
            "a lower envelope c(t)")
    report = compute_bounds_p1(spec, data.m1, data.m2, data.c_lower, seed)
    verdicts = {"sign": check_sign_condition(spec, data.m1, data.m2, seed),
                **report.verdicts}
    if data.kappa is not None and report.kappa_range is not None:
        lo, hi = report.kappa_range
        ok = lo < data.kappa < hi
        verdicts["kappa_in_range"] = ConditionVerdict(
            Verdict.PASS if ok else Verdict.FAIL,
            f"kappa = {data.kappa:.10g} vs admissible ({lo:.10g}, {hi:.10g})")
    if data.rho is not None and report.rho_min is not None:
        ok = data.rho > report.rho_min
        verdicts["rho_in_range"] = ConditionVerdict(
            Verdict.PASS if ok else Verdict.FAIL,
            f"rho = {data.rho:.10g} vs minimum {report.rho_min:.10g}")
    return replace(report, verdicts=verdicts)
