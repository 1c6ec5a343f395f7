import numpy as np
import pytest

from tribvp import Grid, GridFunction, norm_c1, norm_sup


def test_grid_basics():
    g = Grid(2.0, 8)
    assert g.h == 0.25
    assert len(g.nodes) == 9
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Grid(0.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 10)
    with pytest.raises(ValueError):
        Grid(float("inf"), 10)
    with pytest.raises(ValueError):
        Grid(1.0, 1)
    with pytest.raises(ValueError):
        Grid(1.0, 2.5)


def test_nodes_are_read_only():
    g = Grid(1.0, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


def test_gridfunction_shape_and_finiteness():
    g = Grid(1.0, 4)
    ok = np.zeros(5)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4), ok)
    with pytest.raises(ValueError):
        GridFunction(g, ok, np.zeros(6))
    bad = ok.copy()
    bad[2] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, bad, ok)


def test_gridfunction_locks_copies():
    g = Grid(1.0, 3)
    vals = np.ones(4)
    u = GridFunction(g, vals, vals)
    vals[0] = 99.0  # caller's array, not ours
    assert u.values[0] == 1.0
    with pytest.raises(ValueError):
        u.values[0] = 5.0


def test_norms():
    g = Grid(1.0, 4)
    u = GridFunction(g, np.array([0.0, -3.0, 1.0, 0.5, 2.0]),
                     np.array([1.0, 1.0, -4.0, 0.0, 0.0]))
    assert norm_sup(u.values) == 3.0
    assert norm_c1(u) == 7.0


@pytest.mark.parametrize("n", [400.0, 2.5, float("inf"), "400", None])
def test_grid_takes_integer_n_only(n):
    with pytest.raises(ValueError, match="interval count must be an integer"):
        Grid(1.0, n)


def test_grid_numpy_integer_n_becomes_an_int():
    g = Grid(1.0, np.int64(4))
    assert g.n == 4 and type(g.n) is int
    assert len(g.nodes) == 5
