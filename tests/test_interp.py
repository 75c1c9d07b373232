"""The numpy periodic cubic-spline evaluator against scipy.ndimage, its
reference (cubic spline prefilter and ``map_coordinates``, both in
``grid-wrap`` mode)."""

import re

import numpy as np
import pytest

from mhd2d.grid import RealField, make_grid
from mhd2d.interp import PeriodicInterpolator
from mhd2d.lagrangian import compose

ndimage = pytest.importorskip("scipy.ndimage")


def _scipy_spline(field: RealField, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    g = field.grid
    coeffs = ndimage.spline_filter(field.samples, order=3, mode="grid-wrap")
    coords = np.stack(np.broadcast_arrays(x1 / g.dx, x2 / g.dy))
    return ndimage.map_coordinates(coeffs, coords, order=3, mode="grid-wrap", prefilter=False)


@pytest.fixture()
def box():
    """A non-square grid on a non-square box, six random fields on it, and
    points: uniform in [-3 L, 3 L) per axis (negative, and beyond one
    period), plus every node exactly."""
    g = make_grid(64, 48, 2.0 * np.pi, 3.0)
    rng = np.random.default_rng(3)
    fields = [RealField(g, rng.standard_normal(g.shape)) for _ in range(6)]
    x1 = np.concatenate([rng.uniform(-3.0 * g.lx, 3.0 * g.lx, 4000), np.broadcast_to(g.x1, g.shape).ravel()])
    x2 = np.concatenate([rng.uniform(-3.0 * g.ly, 3.0 * g.ly, 4000), np.broadcast_to(g.x2, g.shape).ravel()])
    return g, fields, x1, x2


def test_stack_matches_six_single_field_scipy_calls(box):
    g, fields, x1, x2 = box
    got = PeriodicInterpolator(*fields)(x1, x2)
    assert got.shape == (6, x1.size)
    for k, f in enumerate(fields):
        assert np.max(np.abs(got[k] - _scipy_spline(f, x1, x2))) <= 1e-13 * np.max(np.abs(f.samples))


def test_nodes_return_the_samples(box):
    g, fields, _, _ = box
    got = PeriodicInterpolator(*fields)(g.x1, g.x2)
    assert got.shape == (6, *g.shape)
    for k, f in enumerate(fields):
        assert np.max(np.abs(got[k] - f.samples)) <= 1e-13 * np.max(np.abs(f.samples))


def test_single_field_returns_the_broadcast_point_shape(box):
    g, fields, x1, x2 = box
    pts1, pts2 = x1[:60].reshape(3, 20), x2[:20]
    got = PeriodicInterpolator(fields[0])(pts1, pts2)
    assert got.shape == (3, 20)
    want = _scipy_spline(fields[0], pts1, np.broadcast_to(pts2, pts1.shape))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(fields[0].samples))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_raise(box, bad):
    """A point with a non-finite coordinate is an error, not a value read at
    some node; the message counts the bad points."""
    g, fields, x1, x2 = box
    x1, x2 = x1.copy(), x2.copy()
    x1[[5, 17]] = bad
    x2[17] = np.nan
    x2[30] = bad
    with pytest.raises(ValueError, match="^3 non-finite interpolation points"):
        PeriodicInterpolator(fields[0])(x1, x2)
    with pytest.raises(ValueError, match="^3 non-finite interpolation points"):
        PeriodicInterpolator(*fields[:2])(x1, x2)


def test_no_fields_raise():
    with pytest.raises(ValueError, match="^no fields to interpolate"):
        PeriodicInterpolator()


@pytest.mark.parametrize(
    "other", [make_grid(64, 48, 2.0 * np.pi, 4.0), make_grid(32, 48, 2.0 * np.pi, 3.0)], ids=["other-box", "other-shape"]
)
def test_fields_on_another_grid_raise(box, other):
    """Same shape on another box would be read on the first field's nodes;
    another shape would fail inside numpy.  Both grids are named."""
    g, fields, _, _ = box
    message = re.escape(f"fields on {g} and {other}: all must lie on one grid")
    with pytest.raises(ValueError, match=message):
        PeriodicInterpolator(fields[0], RealField(other, np.zeros(other.shape)), fields[1])


@pytest.fixture()
def displaced_box():
    """A 200 x 96 grid, whose row blocks of at most 8192 points are 85, 85
    and 30 rows, three random fields and a random displacement of up to
    three cells per axis."""
    g = make_grid(200, 96, 2.0 * np.pi, 3.0)
    rng = np.random.default_rng(5)
    fields = [RealField(g, rng.standard_normal(g.shape)) for _ in range(3)]
    d1 = rng.uniform(-3.0 * g.dx, 3.0 * g.dx, g.shape)
    d2 = rng.uniform(-3.0 * g.dy, 3.0 * g.dy, g.shape)
    return g, fields, d1, d2


@pytest.mark.parametrize("k", [1, 3])
def test_at_displaced_is_the_whole_field_call_bit_for_bit(displaced_box, k):
    g, fields, d1, d2 = displaced_box
    i = PeriodicInterpolator(*fields[:k])
    got = i.at_displaced((RealField(g, d1), RealField(g, d2)))
    want = i(g.x1 + d1, g.x2 + d2).reshape(k, *g.shape)
    assert len(got) == k
    for a, b in zip(got, want):
        assert a.shape == g.shape and a.tobytes() == b.tobytes()


def test_displaced_covers_each_row_once_in_order(displaced_box):
    g, fields, d1, d2 = displaced_box
    blocks = [(rows, v.shape) for rows, v in PeriodicInterpolator(*fields).displaced(d1, d2)]
    assert [range(g.nx)[rows] for rows, _ in blocks] == [range(0, 85), range(85, 170), range(170, 200)]
    assert [shape for _, shape in blocks] == [(3, 85, 96), (3, 85, 96), (3, 30, 96)]


def test_displaced_reads_d_as_it_stands_when_each_block_is_taken(displaced_box):
    """A caller that updates d on the rows it was given, as the Newton and
    Picard loops do, gets every block at d as it stood before the update;
    a change to rows not yet given is read by their block."""
    g, fields, d1, d2 = displaced_box
    i = PeriodicInterpolator(*fields)
    want = i(g.x1 + d1, g.x2 + d2)
    e1, e2 = d1.copy(), d2.copy()
    for rows, v in i.displaced(e1, e2):
        assert v.tobytes() == want[:, rows].tobytes()
        e1[rows] += 0.5
        e2[rows] -= 0.25
    assert e1.tobytes() == (d1 + 0.5).tobytes()
    blocks = i.displaced(e1, e2)
    next(blocks)
    e1[85:] += 0.125
    rows, v = next(blocks)
    assert v.tobytes() == i(g.x1[rows] + e1[rows], g.x2 + e2[rows]).tobytes()
    assert v.tobytes() != want[:, rows].tobytes()


def test_compose_is_the_whole_field_formula_bit_for_bit(displaced_box):
    g, fields, _, _ = displaced_box
    x1, x2 = np.broadcast_arrays(g.x1, g.x2)
    disp = (RealField(g, 0.05 * np.sin(x1) * np.cos(2.0 * np.pi * x2 / g.ly)), RealField(g, 0.04 * np.cos(x1)))
    got = compose(fields[0], disp)
    want = PeriodicInterpolator(fields[0])(g.x1 + disp[0].samples, g.x2 + disp[1].samples)
    assert got.grid == g and got.samples.tobytes() == want.tobytes()
