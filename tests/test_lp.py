import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd2d import lp
from mhd2d.fields import random_band_field
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid, spectral_derivative

from full_lattice import dealiased_product, single_mode

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def test_partition_of_unity_pointwise():
    cut = lp.make_cutoffs()
    taus = np.geomspace(0.05, 200.0, 500)
    total = np.zeros_like(taus)
    for j in range(-12, 14):
        total += cut.phi(taus * 2.0 ** (-j))
    assert np.max(np.abs(total - 1.0)) < 1e-12
    # inhomogeneous variant: chi + sum_{j >= 0} phi(2^-j tau) = 1
    total2 = cut.chi(taus)
    for j in range(0, 14):
        total2 += cut.phi(taus * 2.0 ** (-j))
    assert np.max(np.abs(total2 - 1.0)) < 1e-12


def test_cutoff_supports():
    cut = lp.make_cutoffs()
    assert cut.chi(2.0) == 0.0
    assert cut.phi(0.5) == 0.0
    assert cut.phi(0.74) == 0.0
    assert cut.phi(8.0 / 3.0 + 1e-9) == 0.0
    assert cut.chi(4.0 / 3.0 + 1e-9) == 0.0
    mid = cut.phi(1.0)
    assert 0.0 < mid < 1.0


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_mode_two_block_cover(grid64):
    """|xi| = 2 lands exactly in blocks j = 0, 1 and they sum back to u."""
    u = single_mode(grid64, 2, 0)
    hit = []
    acc = np.zeros(grid64.shape)
    for j in range(-3, 7):
        b = lp.block_iso(u, j)
        if l2_norm(b) > 1e-14:
            hit.append(j)
        acc += b.samples
    assert hit == [0, 1]
    assert np.max(np.abs(acc - u.samples)) < 1e-12


def test_almost_orthogonality(grid64, rng):
    f = random_band_field(grid64, rng, 1.0, 20.0)
    for j in (0, 2, 3):
        far = lp.block_iso(lp.block_iso(f, j + 5), j)
        assert l2_norm(far) < 1e-14
        near = lp.block_iso(lp.block_iso(f, j), j)
        assert l2_norm(near) >= 0.0


def test_block_h_constant_in_x1(grid64):
    f = RealField.from_function(grid64, lambda x, y: np.cos(3 * y))
    for k in range(-2, 5):
        assert l2_norm(lp.block_h(f, k)) < 1e-14


def test_out_of_range_blocks_are_zero(grid64, rng):
    f = random_band_field(grid64, rng, 1.0, 20.0)
    assert l2_norm(lp.block_iso(f, 40)) == 0.0
    assert l2_norm(lp.block_iso(f, -30)) == 0.0
    # the block families are "iso" and "h"; any other kind is rejected by name
    for kind in ("v", "vertical"):
        with pytest.raises(ValueError, match=repr(kind)):
            lp.resolved_range(grid64, kind)


def test_blockset_reconstruction(grid64, rng):
    f = random_band_field(grid64, rng, 1.0, 20.0)
    j0, j1 = lp.resolved_range(f.grid, "iso")
    total = sum(lp.block_iso(f, j).samples for j in range(j0, j1 + 1))
    err = np.max(np.abs(total - f.samples))
    assert err < 1e-10


@pytest.mark.parametrize(
    "shape", [(64, 64, TWO_PI, TWO_PI), (32, 48, 2.0 * TWO_PI, 1.5 * TWO_PI), (128, 128, TWO_PI, TWO_PI)]
)
@pytest.mark.parametrize("aniso", [False, True])
def test_block_sq_norms_matches_per_block_sums(shape, aniso, rng):
    """One product with the cached block-weight matrix equals the written-out
    per-block Plancherel sum norm_sq(mask^2 w), for one density and a stack."""
    g = make_grid(*shape)
    c = half_spectrum(g)
    dens = np.stack([np.abs(c.fwd(rng.standard_normal(g.shape))) ** 2 for _ in range(3)])
    keys, one = lp.block_sq_norms(g, dens[0], aniso)
    keys_stack, stack = lp.block_sq_norms(g, dens, aniso)
    j0, j1 = lp.resolved_range(g, "iso")
    k0, k1 = lp.resolved_range(g, "h")
    if aniso:
        want = [(j, k) for j in range(j0, j1 + 1) for k in range(k0, k1 + 1) if j >= k - lp.ANISO_N0]
    else:
        want = list(range(j0, j1 + 1))
    assert list(keys) == want and keys_stack == keys
    assert one.shape == (len(keys),) and stack.shape == (len(keys), 3)
    for row, key in enumerate(keys):
        j, k = key if aniso else (key, None)
        m = lp._mask(g, "iso", j, low=False)
        if aniso:
            m = m * lp._mask(g, "h", k, low=False)
        ref = np.array([c.norm_sq(m**2 * d) for d in dens])
        assert np.all(np.abs(stack[row] - ref) <= 1e-13 * ref)
        assert abs(one[row] - ref[0]) <= 1e-13 * ref[0]


def test_aniso_block_tables_hold_under_1_mb(rng):
    """At 128^2 the per-grid tables behind anisotropic block norms (the
    isotropic block weights, 8 x 8320, and the squared horizontal masks on the
    1-D xi_1 axis) hold under 1 MB: no (j, k) x modes matrix is built, and the
    masks of the build stay out of ``_mask``'s cache."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    w = np.abs(c.fwd(rng.standard_normal(g.shape))) ** 2
    c.k1, c.ksq  # the half-spectrum tables are not block tables: read them first
    for cache in (lp._mask, lp._block_weights, lp._aniso_weights):
        cache.cache_clear()
    tracemalloc.start()
    try:
        lp.block_sq_norms(g, w, aniso=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6


def test_aniso_n0_vanishing(grid64, rng):
    """D_j D_k^h == 0 whenever j < k - N0 (mask-level enumeration)."""
    j0, j1 = lp.resolved_range(grid64, "iso")
    k0, k1 = lp.resolved_range(grid64, "h")
    for j in range(j0, j1 + 1):
        mj = lp._mask(grid64, "iso", j, low=False)
        for k in range(k0, k1 + 1):
            if j < k - lp.ANISO_N0:
                mk = lp._mask(grid64, "h", k, low=False)
                assert not np.any(mj * mk > 0.0)


# ---------------------------------------------------------------------------
# Sobolev / Besov norms
# ---------------------------------------------------------------------------


def test_sobolev_single_modes(grid64):
    u = single_mode(grid64, 1, 0)
    u = RealField(grid64, u.samples / l2_norm(u))
    for s in (-0.5, 0.0, 1.0, 2.5):
        assert lp.sobolev_norm(u, s) == pytest.approx(1.0, rel=1e-12)
    v = single_mode(grid64, 0, 2)
    v = RealField(grid64, v.samples / l2_norm(v))
    assert lp.sobolev_norm(v, 2.0) == pytest.approx(4.0, rel=1e-12)


def test_sobolev_rejects_deep_negative(grid32):
    f = single_mode(grid32, 1, 0)
    with pytest.raises(ValueError):
        lp.sobolev_norm(f, -1.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_h1_equals_gradient_l2(seed):
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    f = random_band_field(g, np.random.default_rng(seed), 1.0, 10.0)
    h1_sq = lp.sobolev_norm(f, 1.0) ** 2
    grad_sq = (
        l2_norm(spectral_derivative(f, 1)) ** 2 + l2_norm(spectral_derivative(f, 2)) ** 2
    )
    assert h1_sq == pytest.approx(grad_sq, rel=1e-10)


def test_besov_single_mode_two_block_value(grid64):
    """|xi| = 1 is shared by two blocks; the (2,2)-Besov norm equals the
    exact two-weight value sqrt(phi_-1^2 + phi_0^2), not plain L2."""
    cut = lp.make_cutoffs()
    u = single_mode(grid64, 1, 0)
    u = RealField(grid64, u.samples / l2_norm(u))
    w = [float(cut.phi(2.0 ** (-j))) for j in (-1, 0)]
    expected = math.sqrt(w[0] ** 2 + w[1] ** 2)
    assert lp.besov_norm(u, 0.0, 2) == pytest.approx(expected, abs=1e-10)
    assert 0.70 < expected < 1.0


def test_besov_zero_field(grid32):
    assert lp.besov_norm(RealField(grid32, np.zeros(grid32.shape)), 0.7, 1) == 0.0


def test_besov_interpolation_ratio_bounded(grid64):
    """Ratio against the log-convexity bound stays bounded over 100 fields."""
    rng = np.random.default_rng(5)
    s1, s, s2 = 0.0, 0.5, 1.0
    theta = (s2 - s) / (s2 - s1)
    worst = 0.0
    for _ in range(100):
        f = random_band_field(grid64, rng, 1.0, 20.0)
        b = lp.besov_norm(f, s, 1)
        h1 = lp.sobolev_norm(f, s1)
        h2 = lp.sobolev_norm(f, s2)
        worst = max(worst, b / (h1**theta * h2 ** (1.0 - theta)))
    assert worst < 20.0


def test_l2_block_sum_two_sided(grid64, rng):
    """Two-block overlap: ||u||^2 / 2 <= sum_j ||D_j u||^2 <= ||u||^2."""
    for _ in range(10):
        f = random_band_field(grid64, rng, 1.0, 20.0)
        total = sum(
            l2_norm(lp.block_iso(f, j)) ** 2
            for j in range(*[b + o for b, o in zip(lp.resolved_range(grid64), (0, 1))])
        )
        ref = l2_norm(f) ** 2
        assert 0.5 * ref - 1e-12 <= total <= ref * (1.0 + 1e-12)


def test_besov22_equivalent_to_sobolev(grid64, rng):
    ratios = []
    for _ in range(100):
        f = random_band_field(grid64, rng, 1.0, 20.0)
        ratios.append(lp.besov_norm(f, 0.7, 2) / lp.sobolev_norm(f, 0.7))
    lo, hi = min(ratios), max(ratios)
    # two-block overlap and 2^j vs |xi| distortion bound the ratio
    assert 0.2 < lo <= hi < 4.0


# ---------------------------------------------------------------------------
# anisotropic norm
# ---------------------------------------------------------------------------


def test_aniso_single_mode_brute_force(grid64):
    """xi = (4, 0): enumerate the <= 4 overlapping (j, k) pairs explicitly."""
    cut = lp.make_cutoffs()
    u = single_mode(grid64, 4, 0)
    s1, s2 = 0.3, 0.2
    expected = 0.0
    for j in range(-2, 8):
        wj = float(cut.phi(4.0 * 2.0 ** (-j)))
        if wj == 0.0:
            continue
        for k in range(-2, 8):
            wk = float(cut.phi(4.0 * 2.0 ** (-k)))
            if wk == 0.0:
                continue
            expected += 2.0 ** (j * s1 + k * s2) * wj * wk * l2_norm(u)
    got = lp.aniso_norm(u, s1, s2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_aniso_embedding_ratio(grid64, rng):
    worst = 0.0
    for _ in range(20):
        f = random_band_field(grid64, rng, 1.0, 20.0)
        ratio = lp.aniso_norm(f, 0.25, 0.25) / lp.besov_norm(f, 0.5, 1)
        worst = max(worst, ratio)
    assert worst < 15.0


def test_aniso_no_horizontal_content(grid64):
    f = RealField.from_function(grid64, lambda x, y: np.sin(2 * y))
    assert lp.aniso_norm(f, 0.5, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Chemin-Lerner norms
# ---------------------------------------------------------------------------


def _block_table(fields):
    """Isotropic keys and the (blocks x times) table of squared L2 block
    norms of a series of fields."""
    c = half_spectrum(fields[0].grid)
    return lp.block_sq_norms(c.grid, np.stack([np.abs(c.fwd(f.samples)) ** 2 for f in fields]))


def test_chemin_lerner_time_constant():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    u = single_mode(g, 2, 1)
    times = np.linspace(0.0, 3.0, 61)
    keys, tab = _block_table([u] * times.size)
    got = lp.chemin_lerner_norm(keys, times, tab, lam=2.0, s=0.5, r=1)
    expected = 3.0 ** (1.0 / 2.0) * lp.besov_norm(u, 0.5, 1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_chemin_lerner_exponential_decay():
    """u(t) = exp(-t) u0, lam = 1: norm -> (1 - e^-20) ||u0||_B within 1e-6."""
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    u0 = single_mode(g, 2, 1)
    u0 = RealField(g, u0.samples / l2_norm(u0))
    times = np.linspace(0.0, 20.0, 20001)
    keys, tab = _block_table([RealField(g, math.exp(-t) * u0.samples) for t in times])
    got = lp.chemin_lerner_norm(keys, times, tab, lam=1.0, s=0.5, r=1)
    expected = (1.0 - math.exp(-20.0)) * lp.besov_norm(u0, 0.5, 1)
    assert abs(got - expected) < 1e-6


def test_chemin_lerner_rejects_short_series(grid32):
    keys, tab = _block_table([single_mode(grid32, 1, 0)])
    with pytest.raises(ValueError):
        lp.chemin_lerner_norm(keys, [0.0], tab, lam=1.0, s=0.0)


def test_chemin_lerner_zero_series(grid32):
    z = RealField(grid32, np.zeros(grid32.shape))
    keys, tab = _block_table([z, z])
    assert lp.chemin_lerner_norm(keys, [0.0, 1.0], tab, lam=2.0, s=0.3) == 0.0


# ---------------------------------------------------------------------------
# weighted-column norm
# ---------------------------------------------------------------------------


def _aks_gaussian(grid):
    gnorm = math.sqrt(math.pi)
    return RealField.from_function(
        grid,
        lambda x, y: np.exp(-((x - grid.lx / 2.0) ** 2)) * np.cos(y) / gnorm,
    )


def test_a_ks_gaussian_k0(grid64):
    """max (1 + t^2) e^{-2 t^2 ...}: the weighted column peak is 1 at centre."""
    f = _aks_gaussian(grid64)
    assert lp.a_ks_norm(f, 0, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_a_ks_zero(grid32):
    assert lp.a_ks_norm(RealField(grid32, np.zeros(grid32.shape)), 2, 1.5) == 0.0


def test_a_ks_k1_dense_scan_oracle(grid64):
    """k = 1 against an independent scan of all three derivative columns.

    The sup over grid columns is compared with the same quantity evaluated
    from the closed forms at the grid abscissae (exact match), and with the
    continuum dense-scan maximum 4/e attained by the d1 column (up to column
    sampling of the peak)."""
    f = _aks_gaussian(grid64)
    xg = grid64.x1[:, 0] - np.pi
    col0 = (1.0 + xg**2) * np.exp(-(xg**2))
    col_d1 = (1.0 + xg**2) * 2.0 * np.abs(xg) * np.exp(-(xg**2))
    expected_grid = max(col0.max(), col_d1.max())
    got = lp.a_ks_norm(f, 1, 2.0)
    assert got == pytest.approx(expected_grid, rel=1e-4)
    x = np.linspace(-np.pi, np.pi, 200001)
    dense = np.max((1.0 + x**2) * 2.0 * np.abs(x) * np.exp(-(x**2)))
    assert dense == pytest.approx(4.0 / math.e, rel=1e-9)
    assert got == pytest.approx(dense, rel=2e-3)


def test_a_ks_boundary_warning(grid32):
    f = RealField.from_function(grid32, lambda x, y: np.cos(x) * np.cos(y))
    with pytest.warns(UserWarning):
        lp.a_ks_norm(f, 0, 1.0)


# ---------------------------------------------------------------------------
# Bernstein inequalities (grid-exact)
# ---------------------------------------------------------------------------


def test_bernstein_exact(grid64, rng):
    for _ in range(50):
        f = random_band_field(grid64, rng, 0.0, 20.0)
        for k in (-1, 0, 2, 3):
            ball = lp.low_pass_h(f, k + 1)  # supp in |xi1| <= (8/3) 2^k
            if l2_norm(ball) > 0:
                assert l2_norm(spectral_derivative(ball, 1)) <= (8.0 / 3.0) * 2.0**k * l2_norm(ball) * (1 + 1e-13)
            ring = lp.block_h(f, k)  # supp in |xi1| >= (3/4) 2^k
            if l2_norm(ring) > 0:
                assert l2_norm(ring) <= (4.0 / 3.0) * 2.0 ** (-k) * l2_norm(spectral_derivative(ring, 1)) * (1 + 1e-13)


# ---------------------------------------------------------------------------
# Bony decomposition
# ---------------------------------------------------------------------------


def test_bony_constant_times_field(grid64, rng):
    b = random_band_field(grid64, rng, 1.0, 15.0)
    a = RealField(grid64, 3.0 * np.ones(grid64.shape))
    t, tbar, r = lp.bony_decompose(a, b)
    high = b.samples - np.mean(b.samples)
    assert np.max(np.abs(t.samples - 3.0 * high)) < 1e-10
    assert l2_norm(tbar) < 1e-12
    total = t.samples + tbar.samples + r.samples
    assert np.max(np.abs(total - 3.0 * b.samples)) < 1e-10


@pytest.mark.parametrize("direction", ["iso", "horizontal"])
def test_bony_reconstruction(direction, grid64, rng):
    for _ in range(5):
        a = random_band_field(grid64, rng, 0.0, 20.0)
        b = random_band_field(grid64, rng, 0.0, 20.0)
        t, tbar, r = lp.bony_decompose(a, b, direction)
        prod = dealiased_product(a, b)
        err = l2_norm(RealField(grid64, t.samples + tbar.samples + r.samples - prod.samples))
        assert err < 1e-10 * max(1.0, l2_norm(prod))


def test_mask_cache_holds_one_grid_and_stays_bounded(rng):
    """A second bony_decompose in both directions at 128^2 computes no mask,
    and masks of many grids do not accumulate beyond the cache bound."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    a, b = (random_band_field(g, rng, 1.0, 32.0) for _ in range(2))
    lp._mask.cache_clear()
    for direction in ("iso", "horizontal"):
        lp.bony_decompose(a, b, direction)
    misses = lp._mask.cache_info().misses
    for direction in ("iso", "horizontal"):
        lp.bony_decompose(a, b, direction)
    assert lp._mask.cache_info().misses == misses
    maxsize = lp._mask.cache_info().maxsize
    for n in range(8, 8 + 2 * (maxsize + 8), 2):
        lp._mask(make_grid(n, 8, TWO_PI, TWO_PI), "iso", 0, low=False)
    assert lp._mask.cache_info().currsize == maxsize


def test_paraproduct_support(grid64, rng):
    """D_k(S_{j-1} a D_j b) = 0 when |k - j| >= 5."""
    a = random_band_field(grid64, rng, 1.0, 20.0)
    b = random_band_field(grid64, rng, 1.0, 20.0)
    for j, k in ((0, 5), (0, 6), (5, 0), (4, -1)):
        piece = RealField(grid64, lp.low_pass(a, j - 1).samples * lp.block_iso(b, j).samples)
        assert l2_norm(lp.block_iso(piece, k)) < 1e-12


# ---------------------------------------------------------------------------
# misc utilities
# ---------------------------------------------------------------------------


def test_oversample_exact(grid32):
    f = RealField.from_function(grid32, lambda x, y: np.sin(3 * x) * np.cos(2 * y) + np.cos(16 * x))
    c = half_spectrum(grid32)
    fine = c.inv_fine(c.fwd(f.samples))
    g2 = make_grid(2 * grid32.nx, 2 * grid32.ny, grid32.lx, grid32.ly)
    expected = np.sin(3 * g2.x1) * np.cos(2 * g2.x2) + np.cos(16 * g2.x1) + 0 * g2.x2
    assert np.max(np.abs(fine - expected)) < 1e-12
