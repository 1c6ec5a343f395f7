import math

import numpy as np
import pytest

from tribvp import RangeViolation, by_name, curvature, scaled_atan


def test_curvature_known_values():
    phi = curvature()
    assert phi.a == 1.0
    assert phi.forward(0.0) == 0.0
    assert phi.forward(1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert phi.inverse(0.6) == pytest.approx(0.75, abs=1e-15)


def test_scaled_atan_range():
    phi = scaled_atan(2.0)
    assert phi.a == 2.0
    assert phi.forward(0.0) == 0.0
    assert phi.forward(1e12) < 2.0
    assert phi.inverse(1.0) == pytest.approx(math.tan(math.pi / 4), abs=1e-12)


def test_scaled_atan_at_the_largest_floats():
    # 2 a / pi overflows for a > 8.99e307; a / (pi / 2) is finite for every a
    for a in (1e308, np.finfo(float).max):
        phi = scaled_atan(a)
        assert phi.forward(0.0) == 0.0
        assert phi.forward(1.0) == pytest.approx(0.5 * a, rel=1e-15)
        assert phi.inverse(0.5 * a) == pytest.approx(1.0, rel=1e-12)


def test_scaled_atan_scale_is_unchanged_where_it_was_finite():
    rng = np.random.default_rng(11)
    for a in np.concatenate([10.0 ** rng.uniform(-300, 307.9, 2000),
                             rng.uniform(0.1, 10.0, 2000)]):
        assert scaled_atan(a).fwd_fn(1.0) == 2.0 * a / np.pi * np.arctan(1.0)


@pytest.mark.parametrize("make", [curvature, lambda: scaled_atan(1.0),
                                  lambda: scaled_atan(0.3)])
def test_roundtrip_random(make):
    phi = make()
    rng = np.random.default_rng(4)
    s = rng.uniform(-50, 50, size=500)
    back = phi.inverse(phi.forward(s))
    assert np.max(np.abs(back - s) / (1 + np.abs(s))) < 1e-9


def test_forward_is_strictly_inside_open_interval():
    # the limit value a must never be reached, even for huge arguments where
    # the formula rounds onto it
    phi = curvature()
    for s in (1e8, 1e16, -1e300):
        y = phi.forward(s)
        assert abs(y) < 1.0
    arr = phi.forward(np.array([1e8, -1e9, 1e300]))
    assert np.all(np.abs(arr) < 1.0)


def test_inverse_rejects_out_of_range():
    phi = curvature()
    with pytest.raises(RangeViolation):
        phi.inverse(1.0)
    with pytest.raises(RangeViolation):
        phi.inverse(-1.0)
    with pytest.raises(RangeViolation) as info:
        phi.inverse(np.array([0.0, 0.5, 1.2, 0.1]))
    assert info.value.node == 2
    assert info.value.worst == pytest.approx(1.2)


@pytest.mark.parametrize("phi", [curvature(), scaled_atan(1.0), scaled_atan(2.0)],
                         ids=["curvature", "atan1", "atan2"])
def test_inv_fn_is_never_finite_outside_the_range(phi):
    # the shooting stage relies on this instead of masking its input
    a = phi.a
    outside = np.array([a, -a, 1.5 * a, -1.5 * a, np.inf, -np.inf, np.nan])
    with np.errstate(all="ignore"):
        assert not np.isfinite(phi.inv_fn(outside)).any()
        for y in outside:
            assert not np.isfinite(phi.inv_fn(y))
    inside = np.array([np.nextafter(a, 0.0), -np.nextafter(a, 0.0), 0.5 * a, 0.0])
    assert np.isfinite(phi.inv_fn(inside)).all()
    assert np.array_equal(phi.inv_fn(inside), phi.inverse(inside))


def test_monotone_on_random_pairs():
    rng = np.random.default_rng(9)
    for phi in (curvature(), scaled_atan(0.7)):
        s = np.sort(rng.uniform(-20, 20, size=200))
        y = phi.forward(s)
        assert np.all(np.diff(y) > 0)


def test_by_name():
    assert by_name("curvature", 1.0).name == "curvature"
    assert by_name("atan", 1.5).a == 1.5
    with pytest.raises(ValueError):
        by_name("curvature", 2.0)  # that family has a = 1 built in
    with pytest.raises(ValueError):
        by_name("sigmoid", 1.0)
    with pytest.raises(ValueError):
        by_name("atan", -1.0)
