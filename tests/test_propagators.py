"""The exact mode propagator against the two-branch formula it replaced.

``mode_exponential`` does the t-independent algebra once per stack and runs
each branch only on its own modes; ``_expm2_two_branch`` is the former
``expm2``, kept verbatim, which evaluated both branches on every mode and
selected with ``np.where``.  The two must agree bit for bit, sign bits
included.
"""

import re

import numpy as np
import pytest

from mhd2d.grid import RealField, half_spectrum, make_grid
from mhd2d.linear import _flow_map_matrix, evolve_linear, mode_solution
from mhd2d.propagators import mode_exponential

TWO_PI = 2.0 * np.pi
_SMALL = 0.5


def _expm2_two_branch(m: np.ndarray, t: float) -> np.ndarray:
    """exp(m * t) for a stack of real 2x2 matrices, shape (..., 2, 2)."""
    m = np.asarray(m, dtype=float)
    mu = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    nusq = mu * mu - det
    nu = np.sqrt(nusq.astype(complex))
    z = nu * t
    big = np.abs(z) >= _SMALL
    lam_plus = (mu - nu) * t
    # mu + nu cancels for strongly damped slow branches; rationalize via
    # lam_- lam_+ = det  (exact when mu - nu != 0)
    denom = mu - nu
    safe = np.abs(denom) > 0
    lam_minus = np.where(safe, det * t / np.where(safe, denom, 1.0), (mu + nu) * t)
    # large |nu t|: difference quotient of well-separated exponentials
    c_big = 0.5 * (np.exp(lam_minus) + np.exp(lam_plus))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_big = np.where(big, (np.exp(lam_minus) - np.exp(lam_plus)) / np.where(big, 2.0 * nu, 1.0), 0.0)
    # small |nu t|: exp(mu t) (cosh z, t sinch z); sinch by series near 0
    e_mu = np.exp(np.clip(mu * t, -745.0, 50.0))
    zs = np.where(big, 0.0, z)
    zsq = zs * zs
    tiny = np.abs(zs) < 1e-2
    denom = np.where(tiny, 1.0, zs)
    sinch = np.where(tiny, 1.0 + zsq / 6.0 + zsq * zsq / 120.0, np.sinh(denom) / denom)
    c_small = e_mu * np.cosh(zs)
    s_small = e_mu * t * sinch
    c = np.where(big, c_big, c_small)
    s = np.where(big, s_big, s_small)
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = c + s * (m[..., 0, 0] - mu)
    out[..., 0, 1] = s * m[..., 0, 1]
    out[..., 1, 0] = s * m[..., 1, 0]
    out[..., 1, 1] = c + s * (m[..., 1, 1] - mu)
    return np.real(out)


def _flow_map_stack(n: int) -> np.ndarray:
    c = half_spectrum(make_grid(n, n, TWO_PI, TWO_PI))
    return _flow_map_matrix(c.k1, c.ksq)


def _stacks() -> dict:
    rng = np.random.default_rng(2024)
    damped = rng.standard_normal((6, 5, 2, 2))
    damped[..., 1, 1] -= 1e4  # one fast and one slow real branch per matrix
    return {
        "flow-map-32": _flow_map_stack(32),
        "flow-map-128": _flow_map_stack(128),
        "double-root": _flow_map_matrix(1.0, 2.0),  # xi = (1, 1): nu^2 = 0 exactly
        "random": rng.standard_normal((40, 2, 2)),
        "damped": damped,
    }


STACKS = _stacks()
# 0 and the 120 geometric times of the block-energy experiment at t_end = 20
BLOCK_TIMES = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 120)]))


def _branch_edges(m: np.ndarray) -> list[float]:
    """t = 0.5 / |nu| for a few modes, and one ulp either side."""
    mu = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    nu_abs = np.abs(np.sqrt((mu * mu - det).astype(complex))).ravel()
    nu_abs = np.unique(nu_abs[nu_abs > 0])
    edges = [_SMALL / a for a in nu_abs[[0, nu_abs.size // 2, -1]]] if nu_abs.size else []
    return [s for t in edges for s in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))]


@pytest.mark.parametrize("name", list(STACKS))
def test_mode_exponential_matches_the_two_branch_formula_bit_for_bit(name):
    m = STACKS[name]
    prop = mode_exponential(m)
    times = [0.0, 1e-12, 1e-4, *BLOCK_TIMES, *_branch_edges(m)]
    for t in map(float, times):
        got, ref = prop(t), _expm2_two_branch(m, t)
        assert got.shape == ref.shape == m.shape
        assert np.array_equal(got, ref), (name, t)
        assert np.array_equal(np.signbit(got), np.signbit(ref)), (name, t)


def test_branch_edges_cover_both_branches():
    """The ulp-either-side times put a mode on each side of |nu t| = 1/2."""
    m = STACKS["flow-map-32"]
    below, at, above = _branch_edges(m)[:3]
    mu = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    nu = np.sqrt((mu * mu - det).astype(complex))
    counts = [np.count_nonzero(np.abs(nu * t) >= _SMALL) for t in (below, at, above)]
    assert counts[0] < counts[2]


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4, 2), (2,), ()])
def test_mode_exponential_rejects_a_stack_not_of_2x2_matrices(shape):
    with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
        mode_exponential(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mode_exponential_rejects_non_finite_entries(bad):
    m = _flow_map_stack(32)
    m[3, 4, 1, 0] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        mode_exponential(m)
    m[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="2 non-finite"):
        mode_exponential(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolve_linear_rejects_non_finite_times(grid32, bad):
    zero = RealField(grid32, np.zeros(grid32.shape))
    pair = (zero, zero)
    with pytest.raises(ValueError, match=f"t = {bad!r}"):
        evolve_linear(pair, pair, [0.0, bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mode_solution_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match=f"t = {bad!r}"):
        mode_solution((1.0, 2.0), 1.0, 0.0, [0.5, bad])
    with pytest.raises(ValueError, match=f"t = {bad!r}"):
        mode_solution((1.0, 2.0), 1.0, 0.0, bad)
