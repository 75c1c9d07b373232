import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd2d.fields import random_band_field
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid, spectral_derivative

import full_lattice as fl

TWO_PI = 2.0 * np.pi


def test_make_grid_frequency_set():
    c = half_spectrum(make_grid(8, 8, TWO_PI, TWO_PI))
    assert sorted(c.m1[:, 0]) == list(range(-4, 4))
    assert list(c.m2[0]) == list(range(0, 5))
    c64 = half_spectrum(make_grid(64, 64, TWO_PI, TWO_PI))
    assert np.max(np.abs(c64.k1)) == 32.0 and np.max(c64.k2) == 32.0


@pytest.mark.parametrize("nx,ny,lx,ly", [(9, 8, 1, 1), (8, 6, 1, 1), (8, 8, 0, 1), (4, 8, 1, 1)])
def test_make_grid_rejects(nx, ny, lx, ly):
    with pytest.raises(ValueError):
        make_grid(nx, ny, lx, ly)


def test_pure_mode_coefficients(grid64):
    """sin(x1) = (exp(i x1) - exp(-i x1)) / 2i: coefficient -i/2 at (1, 0) and
    i/2 at (-1, 0), both stored, once divided by nx ny."""
    hs = half_spectrum(grid64)
    f = RealField.from_function(grid64, lambda x, y: np.sin(x))
    c = hs.fwd(f.samples) / (grid64.nx * grid64.ny)
    i, j, _ = hs.mode_index(1, 0)
    im, jm, _ = hs.mode_index(-1, 0)
    assert abs(c[i, j] - (-0.5j)) < 1e-14
    assert abs(c[im, jm] - 0.5j) < 1e-14
    mask = np.ones(c.shape, bool)
    mask[i, j] = mask[im, jm] = False
    assert np.max(np.abs(c[mask])) < 1e-14


def test_mode_index_reads_negative_n_from_the_mirror(grid32):
    hs = half_spectrum(grid32)
    assert hs.mode_index(3, 2) == (3, 2, False)
    assert hs.mode_index(3, -2) == (29, 2, True)
    assert hs.mode_index(-16, -16) == (16, 16, False)  # the Nyquist column is stored
    for m, n in ((16, 0), (0, 16), (-17, 0)):
        with pytest.raises(ValueError, match=re.escape(f"({m}, {n})")):
            hs.mode_index(m, n)


def test_constant_field_coefficient(grid64):
    c = half_spectrum(grid64).fwd(np.ones(grid64.shape)) / (grid64.nx * grid64.ny)
    assert abs(c[0, 0] - 1.0) < 1e-14


def test_roundtrip_random(grid64, rng):
    f = random_band_field(grid64, rng, 0.0, 30.0)
    hs = half_spectrum(grid64)
    back = hs.inv(hs.fwd(f.samples))
    assert np.max(np.abs(back - f.samples)) < 1e-12 * max(1.0, np.max(np.abs(f.samples)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_plancherel_property(seed):
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    f = random_band_field(g, np.random.default_rng(seed), 0.0, 10.0)
    hs = half_spectrum(g)
    phys = np.sqrt(g.cell_area * np.sum(f.samples**2))
    spec = np.sqrt(hs.norm_sq(np.abs(hs.fwd(f.samples)) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)


def test_derivative_single_modes(grid64):
    f = RealField.from_function(grid64, lambda x, y: np.sin(x))
    d = spectral_derivative(f, 1)
    assert np.max(np.abs(d.samples - np.cos(grid64.x1 + 0 * grid64.x2))) < 1e-12
    h = RealField.from_function(grid64, lambda x, y: np.cos(x + 2 * y))
    lap = RealField(
        grid64,
        spectral_derivative(h, 1, 2).samples + spectral_derivative(h, 2, 2).samples,
    )
    assert np.max(np.abs(lap.samples + 5.0 * h.samples)) < 1e-11


def test_derivative_matches_finite_difference():
    """Second x2-derivative agrees with a second difference at rate O(h^2)."""
    errs = []
    for n in (32, 64, 128):
        g = make_grid(n, n, TWO_PI, TWO_PI)
        f = RealField.from_function(g, lambda x, y: np.sin(3 * x + 2 * y) + np.cos(5 * y - x))
        d2 = spectral_derivative(f, 2, 2).samples
        fd = (np.roll(f.samples, -1, 1) - 2 * f.samples + np.roll(f.samples, 1, 1)) / g.dy**2
        errs.append(np.max(np.abs(fd - d2)))
    assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.1)
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.1)


def test_derivative_nyquist_zeroed(grid32):
    f = RealField.from_function(grid32, lambda x, y: np.cos(16.0 * x))
    d = spectral_derivative(f, 1, 1)
    assert np.max(np.abs(d.samples)) < 1e-12


def _inverse_laplacian(u):
    """Zero-mean v with Lap(v) = u - mean(u), as the library solves it inline."""
    c = half_spectrum(u.grid)
    return RealField(u.grid, c.inv(-c.fwd(u.samples) * c.inv_ksq))


def test_inverse_laplacian_modes(grid64):
    h = RealField.from_function(grid64, lambda x, y: np.cos(x + 2 * y))
    out = _inverse_laplacian(RealField(grid64, -5.0 * h.samples))
    assert np.max(np.abs(out.samples - h.samples)) < 1e-12
    zero = _inverse_laplacian(RealField(grid64, np.zeros(grid64.shape)))
    assert np.max(np.abs(zero.samples)) == 0.0
    f = RealField.from_function(grid64, lambda x, y: np.cos(3 * x))
    out = _inverse_laplacian(f)
    assert np.max(np.abs(out.samples + f.samples / 9.0)) < 1e-13


def test_inverse_laplacian_inverts_laplacian(grid64, rng):
    f = random_band_field(grid64, rng, 1.0, 20.0)
    lap = RealField(
        grid64,
        spectral_derivative(f, 1, 2).samples + spectral_derivative(f, 2, 2).samples,
    )
    back = _inverse_laplacian(lap)
    assert l2_norm(RealField(grid64, back.samples - f.samples)) < 1e-12 * l2_norm(f)


def test_derivative_commutes_with_roundtrip(grid32, rng):
    f = random_band_field(grid32, rng, 1.0, 10.0)
    hs = half_spectrum(grid32)
    a = spectral_derivative(RealField(grid32, hs.inv(hs.fwd(f.samples))), 1)
    b = hs.inv(hs.fwd(spectral_derivative(f, 1).samples))
    assert np.max(np.abs(a.samples - b)) < 1e-12


def test_dealias_mask_boundaries(grid64):
    hs = half_spectrum(grid64)
    c = np.zeros(hs.ksq.shape, complex)
    c[hs.mode_index(22, 0)[:2]] = 1.0
    c[hs.mode_index(10, 10)[:2]] = 1.0
    out = c * hs.deal
    assert out[hs.mode_index(22, 0)[:2]] == 0.0
    assert out[hs.mode_index(10, 10)[:2]] == 1.0


def test_dealiased_product_matches_fine_grid(rng):
    """The half spectrum's 2/3-rule product equals the exact product computed
    on a 2x finer grid."""
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    fine = make_grid(128, 128, TWO_PI, TWO_PI)
    a = random_band_field(g, rng, 0.0, 21.0)
    b = random_band_field(g, rng, 0.0, 21.0)

    def lift(f):
        c = np.zeros(fine.shape, complex)
        cf = fl.fwd(g, f.samples)
        for m in range(-32, 32):
            for n in range(-32, 32):
                v = cf[fl.mode_index(g, m, n)]
                if v != 0:
                    c[fl.mode_index(fine, m, n)] = v
        return fl.inv(fine, c)

    prod_fine = fl.fwd(fine, lift(a) * lift(b))
    hs = half_spectrum(g)
    coarse = hs.dh(a.samples * b.samples) / (g.nx * g.ny)
    err = 0.0
    for m in range(-21, 22):
        for n in range(-21, 22):
            if abs(m) > 64 / 3 or abs(n) > 64 / 3:
                continue
            i, j, mirrored = hs.mode_index(m, n)
            v = np.conj(coarse[i, j]) if mirrored else coarse[i, j]
            err = max(err, abs(v - prod_fine[fl.mode_index(fine, m, n)]))
    assert err < 1e-12


def test_half_spectrum_context_is_shared_and_bounded():
    a = half_spectrum(make_grid(16, 16, TWO_PI, TWO_PI))
    assert half_spectrum(make_grid(16, 16, TWO_PI, TWO_PI)) is a
    bound = half_spectrum.cache_info().maxsize
    assert bound is not None
    for n in range(bound + 2):
        half_spectrum(make_grid(8, 8 + 2 * n, TWO_PI, 1.0 + n))
    assert half_spectrum.cache_info().currsize <= bound


def test_half_spectrum_lattice_sum_is_plancherel(grid32, rng):
    """sum |rfft2|^2 over the full lattice equals sum |fft2|^2."""
    c = half_spectrum(grid32)
    a = random_band_field(grid32, rng, 0.0, 16.0).samples
    full = float(np.sum(np.abs(np.fft.fft2(a)) ** 2))
    assert c.lattice_sum(np.abs(c.fwd(a)) ** 2) == pytest.approx(full, rel=1e-13)
    assert np.max(np.abs(c.inv(c.fwd(a)) - a)) < 1e-13


@pytest.mark.parametrize("op", [lambda f: spectral_derivative(f, 1)])
def test_half_spectrum_operators_reject_nonfinite(grid32, op):
    bad = np.zeros(grid32.shape)
    bad[3, 3] = np.inf
    with pytest.raises(ValueError):
        op(RealField(grid32, bad))
