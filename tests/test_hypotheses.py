import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tribvp.hypotheses
from tribvp import (BoundaryCondition, Grid, HypothesisData, HypothesisFailed,
                    InvalidThresholds, ProblemSpec, RightHandSide, Verdict,
                    check_problem, curvature, load_problem, scaled_atan)
from tribvp.degree import degree_for_problem
from tribvp.hypotheses import (_R3_ALPHA, _probe, _quasi_random,
                               check_bound_p2, check_sign_condition, compute_bounds_p1)
from tribvp.operators import BLOCK

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


@pytest.fixture
def box(monkeypatch):
    """Sets the probe's box for one test: SAMPLES points per probe, x in
    [-x_halfwidth, x_halfwidth], and slope slabs y_span wide."""
    def set_box(samples, x_halfwidth=10.0, y_span=10.0):
        monkeypatch.setattr(tribvp.hypotheses, "SAMPLES", samples)
        monkeypatch.setattr(tribvp.hypotheses, "X_HALFWIDTH", x_halfwidth)
        monkeypatch.setattr(tribvp.hypotheses, "Y_SPAN", y_span)
    return set_box


@pytest.fixture
def small_box(box):
    box(20_000)  # smaller box keeps the suite fast


def steep_spec(n=100):
    rhs = RightHandSide(fn=lambda t, u, v: np.exp(4 * v) - np.e)
    return ProblemSpec(Grid(0.01, n), curvature(), rhs, BoundaryCondition.P1)


def cosine_spec(beta, n=100):
    rhs = RightHandSide(fn=lambda t, u, v: beta * np.cos(u))
    return ProblemSpec(Grid(1.0, n), curvature(), rhs, BoundaryCondition.P2)


def counting(spec):
    """spec with f wrapped to record the number of points of each call."""
    sizes = []

    def fn(t, u, v):
        sizes.append(np.size(np.broadcast(t, u, v)))
        return spec.rhs.fn(t, u, v)
    return replace(spec, rhs=RightHandSide(fn=fn)), sizes


def blocks(samples):
    """The block sizes of one probe of `samples` points."""
    return [BLOCK] * (samples // BLOCK) + [samples % BLOCK] * (samples % BLOCK > 0)


def shift_of(seed):
    """The first three doubles of random.Random(seed)."""
    draw = random.Random(seed).random
    return np.array([draw(), draw(), draw()])


def probed(spec, seed, y_lo, y_hi, seed_shift):
    """A probe's blocks (t, x, y, f), concatenated."""
    return [np.concatenate(cols) for cols in zip(*_probe(spec, seed, y_lo, y_hi, seed_shift))]


def reference_probe(spec, seed, y_lo, y_hi, seed_shift):
    """The probe's points and f from the whole (N, 3) point array at once."""
    shift = shift_of(seed + seed_shift)
    i = np.arange(1, tribvp.hypotheses.SAMPLES + 1, dtype=float)[:, None]
    pts = (shift + i * _R3_ALPHA) % 1.0
    t = pts[:, 0] * spec.grid.T
    x = (2.0 * pts[:, 1] - 1.0) * tribvp.hypotheses.X_HALFWIDTH
    y = y_lo + pts[:, 2] * (y_hi - y_lo)
    return t, x, y, spec.rhs(t, x, y)


class TestSampler:
    @staticmethod
    def unit_points(box, seed, samples=100_000):
        # T = 1, x in [-1/2, 1/2), y in [0, 1): the probe's map is a shift
        spec = ProblemSpec(Grid(1.0, 10), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t),
                           BoundaryCondition.P2)
        box(samples, x_halfwidth=0.5)
        t, x, y, _ = probed(spec, seed, 0.0, 1.0, seed_shift=0)
        return np.column_stack([t, x + 0.5, y])

    def test_points_in_unit_cube_and_seeded(self, box):
        pts = self.unit_points(box, 3, samples=1000)
        assert pts.shape == (1000, 3)
        assert ((pts >= 0.0) & (pts < 1.0)).all()
        assert np.array_equal(pts, self.unit_points(box, 3, samples=1000))
        assert not np.array_equal(pts, self.unit_points(box, 4, samples=1000))

    @pytest.mark.parametrize("seed", range(10))
    def test_low_discrepancy_cell_counts(self, box, seed):
        # 100k points in 1000 cells: 100 each on average.  A pseudo-random
        # sample of this size spreads to roughly 61..143 over a few seeds.
        cells = np.minimum((self.unit_points(box, seed) * 10).astype(int), 9)
        counts = np.bincount(np.ravel_multi_index(cells.T, (10, 10, 10)),
                             minlength=1000)
        assert 75 <= counts.min() and counts.max() <= 130

    @pytest.mark.parametrize("count", [1, 2, 1000, 100_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_the_remainder_of_the_point_array(self, seed, count):
        # block by block: points start + 1..stop of the sequence each time
        shift = shift_of(seed)
        i = np.arange(1, count + 1, dtype=float)[:, None]
        reference = (shift + i * _R3_ALPHA) % 1.0
        for start in range(0, count, BLOCK):
            stop = min(start + BLOCK, count)
            cols = _quasi_random(shift, start, stop)
            assert len(cols) == 3
            for k, col in enumerate(cols):
                assert col.flags.c_contiguous and col.shape == (stop - start,)
                want = np.ascontiguousarray(reference[start:stop, k])
                assert col.tobytes() == want.tobytes()

    def test_probe_box_map_is_bit_identical_to_the_reference(self, box):
        spec = ProblemSpec(Grid(0.37, 10), curvature(),
                           RightHandSide(fn=lambda t, u, v: t * u - v),
                           BoundaryCondition.P1)
        seed, samples = 5, 1000
        box(samples, x_halfwidth=3.3)
        shift = shift_of(seed + 2)
        i = np.arange(1, samples + 1, dtype=float)[:, None]
        pts = (shift + i * _R3_ALPHA) % 1.0
        t = pts[:, 0] * 0.37
        x = (2.0 * pts[:, 1] - 1.0) * 3.3
        y = -1.7 + pts[:, 2] * (0.9 - -1.7)
        got = probed(spec, seed, -1.7, 0.9, seed_shift=2)
        for a, b in zip(got, (t, x, y, t * x - y)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed_shift", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**200 + 12345],
                             ids=["0", "2^32-1", "2^32", "2^200+12345"])
    def test_shift_is_the_first_three_draws_of_random_Random(
            self, monkeypatch, box, seed, seed_shift):
        shifts = []

        def spy(shift, start, stop):
            shifts.append(tuple(shift))
            return _quasi_random(shift, start, stop)
        monkeypatch.setattr(tribvp.hypotheses, "_quasi_random", spy)
        box(2 * BLOCK + 1)
        for _ in _probe(steep_spec(), seed, 0.0, 1.0, seed_shift):
            pass
        draw = random.Random(seed + seed_shift).random
        assert shifts == [(draw(), draw(), draw())] * 3


class TestSeed:
    CHECKS = {
        "sign": lambda spec, seed: check_sign_condition(spec, 0.0, 0.5, seed),
        "p1": lambda spec, seed: compute_bounds_p1(spec, 0.0, 0.5, -3.0, seed),
        "p2": lambda spec, seed: check_bound_p2(spec, 0.4, seed),
        "problem": lambda spec, seed: check_problem(
            spec, HypothesisData(m1=0.0, m2=0.5, c_lower=-3.0), seed=seed),
    }

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS)
    @pytest.mark.parametrize("seed", [-2, 2.5, 5.0])
    def test_rejects_unusable_seed_before_calling_f(self, check, seed):
        spec, sizes = counting(steep_spec())
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            check(spec, seed)
        assert sizes == []

    def test_numpy_integers_are_seeds(self, box):
        box(1000)
        spec = steep_spec()
        got = [check(spec, np.uint8(2)) for check in self.CHECKS.values()]
        assert repr(got) == repr([check(spec, 2) for check in self.CHECKS.values()])
        assert repr(got) != repr([check(spec, 3) for check in self.CHECKS.values()])
        v = got[0]
        assert v.samples == 2000 and "on 2000 samples" in v.detail

    def test_smallest_usable_box(self, box):
        box(1, x_halfwidth=1e-300, y_span=1e-300)
        v = check_sign_condition(steep_spec(), 0.0, 0.5, seed=0)
        assert v.status is Verdict.SAMPLED_ONLY and v.samples == 2


class TestProbeCount:
    """f is called once per block of a probe: BLOCK points at a time, and
    the rest of the box's samples last."""

    @pytest.mark.parametrize("name, calls", [("steep_slope.prob", 3),
                                             ("bounded_forcing.prob", 1)])
    def test_block_calls_per_check_problem(self, name, calls):
        doc = load_problem(PROBLEMS / name)
        spec, sizes = counting(doc.spec)
        assert check_problem(spec, doc.hypothesis_data).passed
        samples = tribvp.hypotheses.SAMPLES
        assert blocks(samples) == [8192] * 12 + [1696]
        assert sizes == blocks(samples) * calls  # never more than BLOCK

    @pytest.mark.parametrize("f", [None, lambda t, u, v: np.sin(40 * v)],
                             ids=["demo", "refining"])
    def test_degree_never_calls_f_on_more_than_a_block(self, f):
        # the demo's rho and kappa; sin(40 v) makes the walk bisect
        spec = load_problem(PROBLEMS / "steep_slope.prob").spec
        if f is not None:
            spec = replace(spec, rhs=RightHandSide(fn=f))
        spec, sizes = counting(spec)
        res = degree_for_problem(spec, 1.2, 0.9)
        assert res.refined == (f is not None)
        lines = BLOCK // (spec.grid.n + 1)
        assert lines == 20 and max(sizes) == lines * (spec.grid.n + 1) <= BLOCK
        assert sum(sizes) == res.samples_used * (spec.grid.n + 1)


def spikes(base, at):
    """f = base everywhere but at the probe points whose t is a key of `at`,
    where it is that key's value."""
    def fn(t, u, v):
        out = np.full(np.shape(t), base)
        for tk, value in at.items():
            out[t == tk] = value
        return out
    return fn


def probe_t(seed, seed_shift):
    """t of a probe's points in order, for T = 1."""
    shift = shift_of(seed + seed_shift)
    return _quasi_random(shift, 0, tribvp.hypotheses.SAMPLES)[0]


class TestBlockEdges:
    """The folds over blocks give what one pass over the whole probe gives."""

    SAMPLES, SEED = 4 * BLOCK + 1000, 3  # 5 blocks, the last short

    @pytest.fixture(autouse=True)
    def five_blocks(self, box):
        box(self.SAMPLES)

    @staticmethod
    def spec(fn, bc=BoundaryCondition.P1):
        return ProblemSpec(Grid(1.0, 20), curvature(), RightHandSide(fn=fn), bc)

    @staticmethod
    def verdicts(spec, seed):
        if spec.bc is BoundaryCondition.P2:
            return [check_bound_p2(spec, c, seed) for c in (None, 0.3)]
        return [check_sign_condition(spec, -0.2, 0.3, seed),
                compute_bounds_p1(spec, -0.2, 0.3, -0.4, seed)]

    @pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 100_000])
    @pytest.mark.parametrize("fn, bc", [
        (lambda t, u, v: np.sin(7 * v + u) + 0.5 * t, BoundaryCondition.P1),
        (lambda t, u, v: np.exp(2 * v) - 1.0 + 0.0 * u, BoundaryCondition.P1),
        (lambda t, u, v: np.log(v + 0.9) + u, BoundaryCondition.P1),
        (lambda t, u, v: 0.4 * np.cos(3 * u + t) * np.round(v), BoundaryCondition.P2),
        (lambda t, u, v: np.sqrt(u + 9.0) * v, BoundaryCondition.P2),
    ], ids=["sin", "exp", "log", "round", "sqrt"])
    def test_points_values_and_verdicts_equal_the_unblocked_pass(
            self, monkeypatch, box, fn, bc, samples):
        spec = self.spec(fn, bc)
        box(samples, x_halfwidth=10.0)
        for y_lo, y_hi, shift in ((0.3, 10.3, 1), (-10.2, -0.2, 2), (-10.2, 10.3, 3)):
            got = probed(spec, 1, y_lo, y_hi, shift)
            for a, b in zip(got, reference_probe(spec, 1, y_lo, y_hi, shift)):
                assert a.tobytes() == b.tobytes()
        blocked = self.verdicts(spec, 1)
        monkeypatch.setattr(tribvp.hypotheses, "BLOCK", samples)  # one block
        assert repr(blocked) == repr(self.verdicts(spec, 1))

    def test_sign_counterexample_is_the_first_least_f_of_all_blocks(self):
        # |f| = 0.25 at a point of block 2 and again at one of block 4,
        # below the 0.5 of block 1: the tie goes to block 2
        t = probe_t(self.SEED, 1)
        at = {t[10]: 0.5, t[BLOCK + 7]: -0.25, t[3 * BLOCK + 1]: 0.25}
        spec, sizes = counting(self.spec(spikes(1.0, at)))
        v = check_sign_condition(spec, -0.2, 0.3, self.SEED)
        assert v.status is Verdict.FAIL and v.detail.startswith(
            "no strict constant sign on y >= M2")
        assert v.counterexample[0] == t[BLOCK + 7]
        assert sizes == blocks(self.SAMPLES)  # the y <= M1 slab is skipped

    def test_blocks_of_opposite_strict_signs_fail(self):
        # f = 1 on blocks 1-2 and -1 on blocks 3-5 of the y >= M2 slab: each
        # block has one strict sign, the slab has none
        t = probe_t(self.SEED, 1)
        late = t[2 * BLOCK:]
        spec = self.spec(lambda t, u, v: np.where(np.isin(t, late), -1.0, 1.0))
        v = check_sign_condition(spec, -0.2, 0.3, self.SEED)
        assert v.status is Verdict.FAIL and v.detail.startswith(
            "no strict constant sign on y >= M2")
        assert v.counterexample[0] == t[0]  # every |f| is 1: the first point

    @pytest.mark.parametrize("first, second", [
        (4 * BLOCK + 2, 4 * BLOCK + 9),  # both in the last block
        (BLOCK + 3, 3 * BLOCK + 8),      # in blocks 2 and 4
    ], ids=["last-block", "across-blocks"])
    def test_p2_consistency_counterexample_is_the_first_largest_f(self, first, second):
        t = probe_t(self.SEED, 4)
        at = {t[5]: 0.3, t[first]: -0.45, t[second]: 0.45}
        spec = self.spec(spikes(0.1, at), BoundaryCondition.P2)
        rep = check_bound_p2(spec, 0.2, self.SEED)
        v = rep.verdicts["bound_consistency"]
        assert v.status is Verdict.FAIL and "reached 0.45" in v.detail
        assert v.counterexample[0] == t[first]
        assert rep.c_bound == 0.2

    def test_nan_first_seen_in_block_3_returns_there(self):
        t = probe_t(self.SEED, 1)
        j = 2 * BLOCK + 100
        spec, sizes = counting(self.spec(spikes(1.0, {t[j]: math.nan})))
        v = check_sign_condition(spec, -0.2, 0.3, self.SEED)
        assert v.detail == "f not finite on y >= M2"
        assert v.counterexample[0] == t[j]
        assert sizes == [BLOCK] * 3

    def test_nan_in_block_3_outranks_a_sign_failure_in_block_1(self):
        # f = -1 on the y >= M2 slab; on the y <= M1 slab a +1 in block 1
        # breaks the sign and a NaN in block 3 comes later
        t = probe_t(self.SEED, 2)
        j = 2 * BLOCK + 100
        at = {t[5]: 1.0, t[j]: math.nan, t[j + 1]: math.nan}
        spec, sizes = counting(self.spec(spikes(-1.0, at)))
        v = check_sign_condition(spec, -0.2, 0.3, self.SEED)
        assert v.detail == "f not finite on y <= M1"
        assert v.counterexample[0] == t[j]
        assert sizes == blocks(self.SAMPLES) + [BLOCK] * 3

    def test_envelope_dip_first_seen_in_block_3_returns_there(self):
        t = probe_t(self.SEED, 3)
        j = 3 * BLOCK - 1  # the last point of block 3
        spec, sizes = counting(self.spec(spikes(0.0, {t[j]: -2.0, t[j + 1]: -3.0})))
        rep = compute_bounds_p1(spec, -0.2, 0.3, -1.0, self.SEED)
        v = rep.verdicts["envelope"]
        assert v.detail == "f = -2 dips below c = -1"
        assert v.counterexample[0] == t[j]
        assert sizes == [BLOCK] * 3

    def test_p2_nan_first_seen_in_block_3_returns_there(self):
        t = probe_t(self.SEED, 4)
        j = 2 * BLOCK
        spec, sizes = counting(self.spec(spikes(0.1, {t[j]: math.inf}),
                                         BoundaryCondition.P2))
        rep = check_bound_p2(spec, None, self.SEED)
        v = rep.verdicts["bound"]
        assert v.detail == "f not finite on the sampling box"
        assert v.counterexample[0] == t[j]
        assert sizes == [BLOCK] * 3


@pytest.mark.usefixtures("small_box")
class TestSignCondition:
    def test_opposite_signs_is_sampled_only_never_pass(self):
        v = check_sign_condition(steep_spec(), 0.0, 0.5)
        assert v.status is Verdict.SAMPLED_ONLY
        assert v.ok
        assert v.samples == 2 * 20_000

    def test_same_sign_fails(self):
        spec = ProblemSpec(Grid(1.0, 50), curvature(),
                           RightHandSide(fn=lambda t, u, v: 1.0 + v * v),
                           BoundaryCondition.P1)
        v = check_sign_condition(spec, -1.0, 1.0)
        assert v.status is Verdict.FAIL

    def test_oscillating_sign_fails_with_caveat(self):
        spec = ProblemSpec(Grid(1.0, 50), curvature(),
                           RightHandSide(fn=lambda t, u, v: np.sin(3 * v)),
                           BoundaryCondition.P1)
        v = check_sign_condition(spec, -1.0, 1.0)
        assert v.status is Verdict.FAIL
        # only the pointwise sufficient condition is refuted by a sample
        assert "integral form" in v.detail
        assert v.counterexample is not None

    def test_f_not_finite_on_a_slab_fails_with_a_counterexample(self):
        # sqrt(v) is NaN on the whole slab y <= M1 < 0
        spec = ProblemSpec(Grid(1.0, 50), curvature(),
                           RightHandSide(fn=lambda t, u, v: np.sqrt(v)),
                           BoundaryCondition.P1)
        v = check_sign_condition(spec, -1.0, 1.0)
        assert v.status is Verdict.FAIL
        assert v.detail == "f not finite on y <= M1"
        t, x, y = v.counterexample
        assert 0.0 <= t <= 1.0 and y <= -1.0

    @pytest.mark.parametrize("fn, detail, calls", [
        # a sign failure waits for every block (a later NaN would outrank
        # it); a NaN returns at the first block
        (lambda t, u, v: np.sin(3 * v), "no strict constant sign on y >= M2",
         [8192, 8192, 3616]),
        (lambda t, u, v: np.sqrt(-v), "f not finite on y >= M2", [8192]),
    ], ids=["sign", "nan"])
    def test_failure_on_y_ge_m2_skips_the_y_le_m1_probe(self, fn, detail, calls):
        spec, sizes = counting(ProblemSpec(Grid(1.0, 50), curvature(),
                                           RightHandSide(fn=fn),
                                           BoundaryCondition.P1))
        v = check_sign_condition(spec, -1.0, 1.0)
        assert v.status is Verdict.FAIL
        assert v.detail.startswith(detail)
        assert v.samples == 2 * 20_000
        assert v.counterexample[2] >= 1.0
        assert sizes == calls

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(InvalidThresholds):
            check_sign_condition(steep_spec(), 0.5, 0.5)
        with pytest.raises(InvalidThresholds):
            check_sign_condition(steep_spec(), 1.0, -1.0)

    def test_deterministic_for_fixed_seed(self):
        a = check_sign_condition(steep_spec(), 0.0, 0.5)
        b = check_sign_condition(steep_spec(), 0.0, 0.5)
        assert a == b


@pytest.mark.usefixtures("small_box")
class TestBoundsP1:
    def test_flagship_constants(self):
        rep = compute_bounds_p1(steep_spec(), 0.0, 0.5, -3.0)
        assert rep.passed
        # L = phi(1/2) = 1/sqrt(5) for the curvature flux
        assert rep.L == pytest.approx(1 / math.sqrt(5), abs=1e-12)
        assert rep.c_minus_l1 == pytest.approx(0.03, abs=1e-12)
        assert rep.r == pytest.approx(0.5885374805, abs=1e-9)
        assert rep.rho_min == pytest.approx(rep.r * 2.01, abs=1e-12)
        lo, hi = rep.kappa_range
        assert lo == pytest.approx(rep.L + 0.06, abs=1e-12)
        assert hi == 1.0
        assert rep.verdicts["width"].status is Verdict.PASS
        assert rep.verdicts["envelope"].status is Verdict.SAMPLED_ONLY

    def test_envelope_violation_reports_counterexample(self):
        spec = ProblemSpec(Grid(1.0, 50), curvature(),
                           RightHandSide(fn=lambda t, u, v: v),
                           BoundaryCondition.P1)
        rep = compute_bounds_p1(spec, -1.0, 1.0, -1.0)
        bad = rep.verdicts["envelope"]
        assert bad.status is Verdict.FAIL
        t, x, y = bad.counterexample
        assert y < -1.0  # the sampled slope that dipped below the envelope

    def test_width_failure_from_negative_envelope_mass(self):
        # the flux bound alone keeps L < a, so only the envelope's negative
        # part can sink the width inequality: 2 * 30 * 0.01 = 0.6 pushes the
        # threshold to 1.047 >= 1
        rep = compute_bounds_p1(steep_spec(), 0.0, 0.5, -30.0)
        assert rep.verdicts["width"].status is Verdict.FAIL
        assert rep.r is None and rep.kappa_range is None

    def test_thresholds_must_be_ordered(self):
        for m1, m2 in ((0.5, 0.5), (1.0, -1.0)):
            with pytest.raises(InvalidThresholds, match="need M1 < M2"):
                compute_bounds_p1(steep_spec(), m1, m2, -3.0)

    def test_envelope_is_required(self):
        with pytest.raises(HypothesisFailed, match="a lower envelope c"):
            compute_bounds_p1(steep_spec(), 0.0, 0.5, None)

    def test_callable_envelope(self):
        rep = compute_bounds_p1(steep_spec(), 0.0, 0.5,
                                lambda t: -3.0 + 0.0 * t)
        assert rep.c_minus_l1 == pytest.approx(0.03, abs=1e-12)


@pytest.mark.usefixtures("small_box")
class TestBoundP2:
    def test_asserted_bound_passes_and_is_certified(self):
        rep = check_bound_p2(cosine_spec(0.4), 0.4)
        v = rep.verdicts["bound"]
        assert v.status is Verdict.PASS  # arithmetic comparison, certified
        assert "0.4 < 0.5" in v.detail
        assert rep.r == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert rep.L is None  # the flux cap belongs to p1/p1t only
        assert rep.solution_bound == pytest.approx(4.0, abs=1e-12)
        assert rep.verdicts["bound_consistency"].status is Verdict.SAMPLED_ONLY

    def test_asserted_bound_fails_at_limit(self):
        rep = check_bound_p2(cosine_spec(0.6), 0.6)
        assert rep.verdicts["bound"].status is Verdict.FAIL
        assert not rep.passed

    def test_lying_assertion_is_caught_by_sampling(self):
        spec = cosine_spec(0.45)
        rep = check_bound_p2(spec, 0.1)  # |f| actually reaches 0.45
        assert rep.verdicts["bound"].status is Verdict.PASS
        assert rep.verdicts["bound_consistency"].status is Verdict.FAIL
        assert not rep.passed

    def test_bound_at_the_rounding_edge_has_no_slope_bound(self):
        # c < a/(2T) holds in floats, yet 2cT rounds up to a: there is no
        # admissible slope bound, and the checker says so instead of raising
        a, T = 3.0, 0.1
        c = float(np.nextafter(a / (2.0 * T), 0.0))
        assert c < a / (2.0 * T) and 2.0 * c * T >= a
        spec = ProblemSpec(Grid(T, 50), scaled_atan(a),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t),
                           BoundaryCondition.P2)
        rep = check_bound_p2(spec, c)
        assert rep.verdicts["bound"].status is Verdict.PASS
        assert rep.r is None and rep.solution_bound is None

    def test_without_assertion_everything_is_sampled(self):
        rep = check_bound_p2(cosine_spec(0.4), None)
        v = rep.verdicts["bound"]
        assert v.status is Verdict.SAMPLED_ONLY
        assert rep.solution_bound is not None


@pytest.mark.usefixtures("small_box")
class TestCheckProblem:
    def test_p1_merges_all_verdicts(self):
        data = HypothesisData(m1=0.0, m2=0.5, c_lower=-3.0, kappa=0.9, rho=1.2)
        rep = check_problem(steep_spec(), data)
        assert set(rep.verdicts) == {"sign", "envelope", "width",
                                     "kappa_in_range", "rho_in_range"}
        assert rep.passed

    def test_kappa_rho_out_of_range_fail(self):
        data = HypothesisData(m1=0.0, m2=0.5, c_lower=-3.0, kappa=0.4, rho=0.5)
        rep = check_problem(steep_spec(), data)
        assert rep.verdicts["kappa_in_range"].status is Verdict.FAIL
        assert rep.verdicts["rho_in_range"].status is Verdict.FAIL

    def test_missing_data_raises(self):
        with pytest.raises(HypothesisFailed, match="insufficient data"):
            check_problem(steep_spec(), HypothesisData())

    def test_p2_dispatch(self):
        rep = check_problem(cosine_spec(0.4), HypothesisData(c_bound=0.4))
        assert rep.passed
        assert rep.bc_case is BoundaryCondition.P2
