import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tribvp import (BoundaryCondition, DomainDelta, EmptyDomain, Grid,
                    Homeomorphism, NonFinite, PlanarMap, ProblemSpec, RefinementExhausted,
                    RightHandSide, ZeroOnBoundary, boundary_polygon, curvature,
                    degree_for_problem, load_problem, loads, reduction_map,
                    winding_degree)
from tribvp.degree import MAX_DEPTH
from tribvp.errors import PreconditionViolated
from tribvp.solver import _seed

PROBLEMS = Path(__file__).parent.parent / "demos" / "problems"
BOUNDED = PROBLEMS / "bounded_forcing.prob"
STEEP = PROBLEMS / "steep_slope.prob"
# a p1t problem whose lambda = 0 line k (1 + t - T) differs from p1's k (1 + t)
LINEAR_P1T = ("[problem]\nT = 1\nn = 400\nphi = curvature\n"
              "f = v - 0.6666666666666666*u + 0.1\nbc = p1t\n")


def circle_domain():
    # kappa = 0.9 puts the walls at |x| = 2.06, outside the unit ball: the
    # boundary is the plain circle
    return DomainDelta(1.0, 0.9, curvature())


def test_domain_validation():
    with pytest.raises(EmptyDomain):
        DomainDelta(0.0, 0.5, curvature())
    with pytest.raises(EmptyDomain):
        DomainDelta(1.0, 0.0, curvature())
    with pytest.raises(EmptyDomain):
        DomainDelta(1.0, 1.0, curvature())  # kappa must stay below a
    with pytest.raises(PreconditionViolated):
        boundary_polygon(circle_domain(), 32)
    # a float count, even of integral value, is refused as a count below 64 is
    for m in (512.0, np.float64(512.0), 100.5):
        with pytest.raises(PreconditionViolated, match="must be an integer >= 64"):
            boundary_polygon(circle_domain(), m)


def test_polygon_is_closed_and_ccw():
    for kappa in (0.9, 0.5, 0.2):
        poly = boundary_polygon(DomainDelta(1.0, kappa, curvature()), 256)
        assert np.array_equal(poly[0], poly[-1])
        # shoelace area positive for counterclockwise orientation
        x, y = poly[:-1, 0], poly[:-1, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0.0


def test_polygon_walls_sit_at_exact_flux_level():
    phi = curvature()
    delta = DomainDelta(1.0, 0.5, phi)
    poly = boundary_polygon(delta, 256)
    x_hi = phi.inverse(0.5)
    assert poly[:, 0].max() == pytest.approx(x_hi, abs=1e-15)
    assert poly[:, 0].min() == pytest.approx(-x_hi, abs=1e-15)
    # every point is on the circle or on a wall
    on_circle = np.abs(np.hypot(poly[:, 0], poly[:, 1]) - 1.0) < 1e-12
    on_wall = np.abs(np.abs(poly[:, 0]) - x_hi) < 1e-12
    assert np.all(on_circle | on_wall)


def lopsided() -> Homeomorphism:
    """tanh(s) for s >= 0 and tanh(2s) for s < 0: walls at different |x|."""
    return Homeomorphism(
        "lopsided", 1.0,
        fwd_fn=lambda s: np.where(s >= 0.0, np.tanh(s), np.tanh(2.0 * s)),
        inv_fn=lambda y: np.where(y >= 0.0, np.arctanh(y), 0.5 * np.arctanh(y)))


def test_one_wall_polygon_under_an_asymmetric_flux():
    # rho = 0.4 and kappa = 0.5: the left wall at x = atanh(-0.5)/2 = -0.2747
    # cuts the circle, the right one at atanh(0.5) = 0.549 misses it
    phi = lopsided()
    x_lo, x_hi = phi.inverse(-0.5), phi.inverse(0.5)
    assert -0.4 < x_lo < 0.0 and x_hi > 0.4
    poly = boundary_polygon(DomainDelta(0.4, 0.5, phi), 256)
    assert np.array_equal(poly[0], poly[-1])
    x, y = poly[:-1, 0], poly[:-1, 1]
    assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0.0
    on_circle = np.abs(np.hypot(x, y) - 0.4) < 1e-12
    on_wall = np.abs(x - x_lo) < 1e-12
    assert np.all(on_circle | on_wall)
    assert on_wall.sum() > 2 and x.min() == x_lo
    assert winding_degree(PlanarMap(lambda x, y: (x, y)), poly).degree == 1


def test_corners_are_vertices():
    x_hi = curvature().inverse(0.5)
    y_c = math.sqrt(1.0 - x_hi * x_hi)
    poly = boundary_polygon(DomainDelta(1.0, 0.5, curvature()), 256)
    for corner in ((x_hi, y_c), (-x_hi, y_c), (-x_hi, -y_c), (x_hi, -y_c)):
        assert np.hypot(*(poly - corner).T).min() < 1e-15


@pytest.mark.parametrize("m", [64, 500, 512])
def test_circle_polygon_is_the_sampled_circle(m):
    theta = np.linspace(0.0, 2.0 * math.pi, m + 1)[:-1]
    poly = boundary_polygon(circle_domain(), m)
    assert np.array_equal(poly[:-1], np.column_stack([np.cos(theta), np.sin(theta)]))
    assert np.array_equal(poly[-1], poly[0])


def union1d_polygon(delta, m):
    """boundary_polygon by the np.union1d formula for its angles."""
    x_lo, x_hi = delta.phi.inverse(-delta.kappa), delta.phi.inverse(delta.kappa)
    corners = [math.acos(x / delta.rho) for x in (x_lo, x_hi) if abs(x) < delta.rho]
    theta = np.union1d(np.linspace(0.0, 2.0 * math.pi, m + 1)[:-1],
                       corners + [2.0 * math.pi - c for c in corners])
    poly = np.column_stack([np.clip(delta.rho * np.cos(theta), x_lo, x_hi),
                            delta.rho * np.sin(theta)])
    return np.vstack([poly, poly[:1]])


def walls_at(x_lo, x_hi) -> Homeomorphism:
    """A flux whose walls sit exactly at x_lo and x_hi for every kappa."""
    return Homeomorphism("walls", 1.0, fwd_fn=np.tanh,
                         inv_fn=lambda y: np.where(y > 0.0, x_hi, x_lo))


def sample_cosine(j, m=256):
    return math.cos(np.linspace(0.0, 2.0 * math.pi, m + 1)[j])


@pytest.mark.parametrize("delta, m, corners", [
    (circle_domain(), 64, 0), (circle_domain(), 500, 0), (circle_domain(), 512, 0),
    (DomainDelta(1.0, 0.5, curvature()), 256, 4),
    (DomainDelta(0.4, 0.5, lopsided()), 256, 2),
    (DomainDelta(2.5, 0.3, curvature()), 1000, 4),
    # all four corners fall on sample angles: the union drops them
    (DomainDelta(1.0, 0.5, walls_at(sample_cosine(96), sample_cosine(32))), 256, 0),
    (DomainDelta(1.0, 0.5, walls_at(sample_cosine(104), 2.0)), 256, 0),
], ids=["circle-64", "circle-500", "circle-512", "strip", "lopsided", "wide",
        "corners-on-samples", "one-wall-on-samples"])
def test_polygon_is_the_union1d_formula(delta, m, corners):
    want = union1d_polygon(delta, m)
    got = boundary_polygon(delta, m)
    assert want.shape == (m + corners + 1, 2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

def test_strip_off_the_origin_is_refused():
    # phi(0) = tanh(-1) < -kappa: both walls lie right of x = 0
    shifted = Homeomorphism("shifted", 1.0, fwd_fn=lambda s: np.tanh(s - 1.0),
                            inv_fn=lambda y: 1.0 + np.arctanh(y))
    with pytest.raises(PreconditionViolated, match="must contain x = 0"):
        boundary_polygon(DomainDelta(1.0, 0.5, shifted), 128)


def test_identity_swap_and_square_degrees():
    poly = boundary_polygon(circle_domain(), 512)
    assert winding_degree(PlanarMap(lambda x, y: (x, y)), poly).degree == 1
    assert winding_degree(PlanarMap(lambda x, y: (y, x)), poly).degree == -1
    # complex square doubles the winding
    sq = PlanarMap(lambda x, y: (x * x - y * y, 2 * x * y))
    assert winding_degree(sq, poly).degree == 2


def test_linear_maps_match_determinant_sign():
    rng = np.random.default_rng(17)
    poly = boundary_polygon(circle_domain(), 128)
    for _ in range(60):
        A = rng.normal(size=(2, 2))
        det = np.linalg.det(A)
        if abs(det) < 1e-2:
            continue
        gm = PlanarMap(lambda x, y, A=A: (A[0, 0] * x + A[0, 1] * y,
                                          A[1, 0] * x + A[1, 1] * y))
        assert winding_degree(gm, poly).degree == int(np.sign(det))


def test_constant_map_has_degree_zero():
    poly = boundary_polygon(circle_domain(), 128)
    res = winding_degree(PlanarMap(lambda x, y: (-1.0, 0.0)), poly)
    assert res.degree == 0
    assert res.min_boundary_norm == 1.0


def test_excision_degree_stable_under_domain_growth():
    """No zeros between the two boundaries => same degree on both domains."""
    gm = PlanarMap(lambda x, y: (x, y))  # only zero is the origin
    for rho in (0.5, 1.0, 3.0):
        poly = boundary_polygon(DomainDelta(rho, 0.9, curvature()), 128)
        assert winding_degree(gm, poly).degree == 1


def test_perturbation_stability():
    # degree is locally constant: a perturbation far smaller than the
    # boundary norm floor cannot change it
    rng = np.random.default_rng(5)
    poly = boundary_polygon(circle_domain(), 128)
    base = PlanarMap(lambda x, y: (x * x - y * y, 2 * x * y))
    floor = winding_degree(base, poly).min_boundary_norm
    for _ in range(10):
        dx, dy = rng.uniform(-0.01, 0.01, size=2) * floor
        pert = PlanarMap(lambda x, y, dx=dx, dy=dy: (x * x - y * y + dx,
                                                     2 * x * y + dy))
        assert winding_degree(pert, poly).degree == 2


def test_zero_on_boundary_detected():
    # the diagonal zero set of (x - y, y - x) passes through the boundary
    # sample at the pi/4 vertex (present whenever 8 divides m)
    diag = PlanarMap(lambda x, y: (x - y, y - x))
    with pytest.raises(ZeroOnBoundary) as info:
        winding_degree(diag, boundary_polygon(circle_domain(), 512))
    assert info.value.norm < 1e-12
    px, py = info.value.point
    assert abs(math.atan2(py, px) - math.pi / 4) < 1e-9


def test_zero_found_by_refinement():
    # with 500 samples no vertex lies on the diagonal, but bisection walks
    # into the crossing and still reports the boundary zero
    diag = PlanarMap(lambda x, y: (x - y, y - x))
    with pytest.raises(ZeroOnBoundary):
        winding_degree(diag, boundary_polygon(circle_domain(), 500))


def test_refinement_exhausted_on_jump():
    """A discontinuous flip across a line through the boundary can never be
    certified; the walk must give up rather than guess."""
    flip = PlanarMap(lambda x, y: (np.where(x + math.sqrt(2) * y > 0.3, 1.0, -1.0),
                                   0.0))
    with pytest.raises(RefinementExhausted) as info:
        winding_degree(flip, boundary_polygon(circle_domain(), 512))
    assert info.value.norm == 1.0


def test_refinement_exhausted_at_a_pole_reports_its_norm():
    # f = 1/(v - 0.25) has a pole on the line y = 0.25, which crosses the
    # boundary: |g| grows on both sides of it instead of vanishing, and the
    # error says so rather than blaming a zero
    rhs = RightHandSide(fn=lambda t, u, v: 1.0 / (v - 0.25) + 0 * t)
    spec = ProblemSpec(Grid(0.5, 400), curvature(), rhs, BoundaryCondition.P1)
    with pytest.raises(RefinementExhausted) as info:
        degree_for_problem(spec, rho=1.2, kappa=0.9)
    assert info.value.norm > 1e3
    assert info.value.point[1] == pytest.approx(0.25, abs=1e-6)
    assert "jumps across it" in str(info.value)


def test_near_zero_off_boundary_still_certifies():
    # a map passing within 1.4e-11 of zero: above the hard zero tolerance,
    # so refinement digs through and certifies degree 0 (the map has no zero)
    near = PlanarMap(lambda x, y: (x - y + 1e-11, y - x + 1e-11))
    res = winding_degree(near, boundary_polygon(circle_domain(), 500))
    assert res.degree == 0
    assert res.refined
    assert 1e-12 < res.min_boundary_norm < 1e-10


def test_winding_rejects_open_polyline():
    gm = PlanarMap(lambda x, y: (x, y))
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        winding_degree(gm, pts)


@pytest.mark.parametrize("pts", [
    np.zeros(8),                                      # not (N, 2)
    np.zeros((5, 3)),                                 # points of 3 coordinates
    np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),   # closed, but N = 3 < 4
], ids=["flat", "3-column", "too-few"])
def test_winding_rejects_a_boundary_of_the_wrong_shape(pts):
    with pytest.raises(ValueError, match=r"boundary must be an \(N, 2\) array"):
        winding_degree(PlanarMap(lambda x, y: (x, y)), pts)


def test_nonfinite_map_rejected():
    gm = PlanarMap(lambda x, y: (float("nan"), 0.0))
    with pytest.raises(NonFinite):
        gm(0.0, 0.0)


def test_map_broadcasts_and_names_first_nonfinite_point():
    gm = PlanarMap(lambda x, y: (np.where(x > 0.5, np.inf, 1.0), 0.0))
    gx, gy = gm(np.array([0.0, 0.25]), 0.5)
    assert gx.shape == gy.shape == (2,)
    assert np.array_equal(gy, [0.0, 0.0])
    with pytest.raises(NonFinite, match=r"at \(1, 0.5\)"):
        gm(np.array([0.0, 1.0, 2.0]), 0.5)


def power_map(k, shift=0.0):
    """z -> z^k + shift by repeated multiplication, the same floats in any batch."""
    def fn(x, y):
        gx, gy = x, y
        for _ in range(k - 1):
            gx, gy = gx * x - gy * y, gx * y + gy * x
        return gx + shift, gy
    return PlanarMap(fn)


def reference_walk(gmap, pts):
    """The point-by-point recursive walk that the batched one replaced:
    (degree, least |g|, samples, refined)."""
    norms = []

    def g_at(p):
        gx, gy = (float(v) for v in gmap(p[0], p[1]))
        norms.append(math.hypot(gx, gy))
        return gx, gy

    def angle(p0, p1, g0, g1, depth):
        d = math.atan2(g0[0] * g1[1] - g0[1] * g1[0], g0[0] * g1[0] + g0[1] * g1[1])
        if abs(d) < 0.5 * math.pi:
            return d
        assert depth < MAX_DEPTH
        pm = 0.5 * (p0 + p1)
        gm = g_at(pm)
        return angle(p0, pm, g0, gm, depth + 1) + angle(pm, p1, gm, g1, depth + 1)

    g = [g_at(p) for p in pts[:-1]]
    g.append(g[0])
    total = sum(angle(pts[i], pts[i + 1], g[i], g[i + 1], 0) for i in range(len(pts) - 1))
    return round(total / (2.0 * math.pi)), min(norms), len(norms), len(norms) > len(pts) - 1


def steep_map():
    rhs = RightHandSide(fn=lambda t, u, v: np.exp(4 * v) - np.e)
    return reduction_map(ProblemSpec(Grid(0.01, 400), curvature(), rhs, BoundaryCondition.P1))


class CountedMap:
    """A planar map that records how many points each call receives."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, x, y):
        self.sizes.append(np.size(x))
        return self.fn(x, y)


def test_vertices_mapped_in_one_call():
    counted = CountedMap(lambda x, y: (x, y))
    res = winding_degree(PlanarMap(counted), boundary_polygon(circle_domain(), 512))
    assert res.degree == 1 and not res.refined
    assert counted.sizes == [512]


def test_bisections_batched():
    counted = CountedMap(power_map(20, 0.3))
    res = winding_degree(PlanarMap(counted), boundary_polygon(circle_domain(), 64))
    assert (res.degree, res.samples_used, res.refined) == (20, 120, True)
    assert counted.sizes == [64, 56]


@pytest.mark.parametrize("gmap,delta,m", [
    (power_map(20, 0.3), circle_domain(), 64),
    (power_map(40), circle_domain(), 64),
    (power_map(97), circle_domain(), 128),
    (PlanarMap(lambda x, y: (x - y + 1e-11, y - x + 1e-11)), circle_domain(), 500),
    (steep_map(), DomainDelta(1.2, 0.9, curvature()), 512),
    (steep_map(), DomainDelta(0.5, 0.5, curvature()), 256),
], ids=["z20+0.3", "z40", "z97", "near-zero", "steep", "steep-walls"])
def test_matches_pointwise_reference_walk(gmap, delta, m):
    poly = boundary_polygon(delta, m)
    degree, least, samples, refined = reference_walk(gmap, poly)
    res = winding_degree(gmap, poly)
    assert (res.degree, res.samples_used, res.refined) == (degree, samples, refined)
    # np.abs of a complex value and math.hypot may differ in the last bit
    assert res.min_boundary_norm == pytest.approx(least, rel=1e-15, abs=0.0)


def test_exhaustion_stays_within_batch_and_call_budget():
    # a pseudo-random quarter turn at every point: no segment ever settles,
    # so the walk bisects down to MAX_DEPTH and gives up
    def quarter(x, y):
        h = np.sin(x * 12.9898 + y * 78.233) * 43758.5453
        k = np.floor(4.0 * (h - np.floor(h)))
        return np.cos(0.5 * np.pi * k), np.sin(0.5 * np.pi * k)

    poly = boundary_polygon(circle_domain(), 512)
    counted = CountedMap(quarter)
    with pytest.raises(RefinementExhausted) as info:
        winding_degree(PlanarMap(counted), poly)
    assert info.value.norm == pytest.approx(1.0)
    assert max(counted.sizes) <= len(poly) - 1
    assert len(counted.sizes) <= 2 * (MAX_DEPTH + 1)


def test_reduction_map_of_flagship_problem():
    g = Grid(0.01, 400)
    rhs = RightHandSide(fn=lambda t, u, v: np.exp(4 * v) - np.e)
    spec = ProblemSpec(g, curvature(), rhs, BoundaryCondition.P1)
    gm = reduction_map(spec)
    # at the solution parameters (x, y) = (1/4, 1/4) both components vanish
    gx, gy = gm(0.25, 0.25)
    assert gx == 0.0 and gy == 0.0
    res = degree_for_problem(spec, rho=1.2, kappa=0.9, m=512)
    assert res.degree == -1
    assert res.min_boundary_norm > 0.1


def test_degree_zero_when_rhs_is_constant_one():
    g = Grid(1.0, 100)
    spec = ProblemSpec(g, curvature(), RightHandSide(fn=lambda t, u, v: 1.0 + 0 * t),
                       BoundaryCondition.P1)
    res = degree_for_problem(spec, rho=1.0, kappa=0.9, m=256)
    assert res.degree == 0  # first component is identically -1: no zero
    with pytest.raises(PreconditionViolated, match="got 512.0"):
        degree_for_problem(spec, rho=1.0, kappa=0.9, m=512.0)


def test_p2_has_no_plane_reduction():
    spec = load_problem(BOUNDED).spec
    with pytest.raises(PreconditionViolated, match="bc = p1 or p1t"):
        degree_for_problem(spec, rho=1.0, kappa=0.3)


def test_boundary_through_known_zero_raises():
    g = Grid(0.01, 400)
    rhs = RightHandSide(fn=lambda t, u, v: np.exp(4 * v) - np.e)
    spec = ProblemSpec(g, curvature(), rhs, BoundaryCondition.P1)
    with pytest.raises(ZeroOnBoundary):
        degree_for_problem(spec, rho=math.hypot(0.25, 0.25), kappa=0.9, m=512)


def test_p1t_degree_is_taken_on_the_p1t_family():
    # along u = x + y (t - 1) the map is (2x/3 - 4y/3 - 0.1, y - x), with
    # Jacobian determinant -2/3 and its zero at the seed x = y = -0.15; along
    # p1's lines u = x + y t it would be (2(x - y)/3 - 0.1, y - x), which
    # has no zero at all
    spec = loads(LINEAR_P1T).spec
    res = degree_for_problem(spec, rho=3.0, kappa=0.9)
    assert res.degree == -1


@pytest.mark.parametrize("spec", [
    load_problem(STEEP).spec,
    replace(load_problem(STEEP).spec, bc=BoundaryCondition.P1T),
    loads(LINEAR_P1T).spec,
], ids=["steep-p1", "steep-p1t", "linear-p1t"])
def test_seed_is_a_zero_of_the_reduction_map(spec):
    k = float(_seed(spec).derivs[0])
    gx, gy = reduction_map(spec)(k, k)
    assert math.hypot(float(gx), float(gy)) <= 1e-15
