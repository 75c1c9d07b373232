"""The numpy periodic cubic-spline evaluator against scipy.ndimage, its
reference (cubic spline prefilter and ``map_coordinates``, both in
``grid-wrap`` mode)."""

import re

import numpy as np
import pytest

from mhd2d.grid import RealField, make_grid
from mhd2d.interp import PeriodicInterpolator

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
