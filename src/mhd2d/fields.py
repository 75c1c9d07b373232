"""Initial-data recipes shared by experiments and tests (spectral ones on the half spectrum)."""

from __future__ import annotations

import numpy as np

from mhd2d.grid import Grid, RealField, half_spectrum, l2_norm

__all__ = [
    "gaussian_bump",
    "bump_dx1",
    "random_band_field",
    "random_solenoidal",
    "mode_field",
]


def _envelope(grid: Grid, center: tuple[float, float] | None, width: float):
    """The wrapped x1 offset from ``center`` (the box centre when None) and
    the Gaussian envelope exp(-(|x - center|^2) / (2 width^2)), argument wrapped."""
    if center is None:
        center = (0.5 * grid.lx, 0.5 * grid.ly)
    dx1 = np.mod(grid.x1 - center[0] + 0.5 * grid.lx, grid.lx) - 0.5 * grid.lx
    dx2 = np.mod(grid.x2 - center[1] + 0.5 * grid.ly, grid.ly) - 0.5 * grid.ly
    d1, d2 = dx1 + 0.0 * dx2, dx2 + 0.0 * dx1
    return d1, np.exp(-(d1**2 + d2**2) / (2.0 * width**2))


def gaussian_bump(grid: Grid, amplitude: float, center: tuple[float, float] | None = None, width: float = 0.5) -> RealField:
    """amplitude times the Gaussian envelope of ``width`` about ``center``."""
    return RealField(grid, amplitude * _envelope(grid, center, width)[1])


def bump_dx1(grid: Grid, amplitude: float, center: tuple[float, float] | None = None, width: float = 0.5) -> RealField:
    """x1-derivative-shaped bump: zero x1-integral along every row."""
    d1, env = _envelope(grid, center, width)
    return RealField(grid, -amplitude * d1 / width * env)


def mode_field(grid: Grid, m: int, n: int, coeff: complex) -> RealField:
    """Real field whose spectral coefficient at (m, n) is ``coeff`` (and the
    conjugate at the mirror mode)."""
    c = half_spectrum(grid)
    i, j, mirrored = c.mode_index(m, n)
    if mirrored:
        coeff = np.conj(coeff)
    ch = np.zeros(c.shape, dtype=complex)
    ch[i, j] = grid.nx * grid.ny * coeff
    if j in (0, grid.ny // 2):  # the mirror lies in the same column
        ch[-i % grid.nx, j] = grid.nx * grid.ny * np.conj(coeff)
    return RealField(grid, c.inv(ch))


def random_band_field(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float = 8.0,
    amplitude: float = 1.0,
    decay: float = 0.0,
) -> RealField:
    """Zero-mean random field band-limited to kmin <= |m| <= kmax, with L2 norm ``amplitude``
    (ValueError if the band holds no nonzero mode); ``decay`` applies a spectral envelope exp(-decay |m|^2)."""
    c = half_spectrum(grid)
    ch = c.fwd(rng.standard_normal(grid.shape))
    mm = np.sqrt(c.m1.astype(float) ** 2 + c.m2.astype(float) ** 2)
    mask = (mm >= kmin) & (mm <= kmax)
    ch = np.where(mask, ch * np.exp(-decay * mm**2), 0.0)
    ch[0, 0] = 0.0
    f = RealField(grid, c.inv(ch))
    scale = l2_norm(f)
    if scale == 0.0:
        raise ValueError(f"kmin = {kmin}, kmax = {kmax}: the band holds no nonzero mode of the {grid.nx} x {grid.ny} grid")
    return RealField(grid, amplitude * f.samples / scale)


def random_solenoidal(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float = 8.0,
    amplitude: float = 1.0,
    decay: float = 0.0,
) -> tuple[RealField, RealField]:
    """Divergence-free pair from a random stream function: (d2 chi, -d1 chi);
    ValueError if the band holds no mode with a nonzero derivative."""
    chi = random_band_field(grid, rng, kmin, kmax, 1.0, decay)
    c = half_spectrum(grid)
    ch = c.fwd(chi.samples)
    u1 = RealField(grid, c.inv(c.ik2 * ch))
    u2 = RealField(grid, c.inv(-c.ik1 * ch))
    scale = float(np.sqrt(l2_norm(u1) ** 2 + l2_norm(u2) ** 2))
    if scale == 0.0:  # the band holds only Nyquist modes, whose derivatives are zeroed
        raise ValueError(f"kmin = {kmin}, kmax = {kmax}: no band mode of the {grid.nx} x {grid.ny} grid has a derivative")
    return (
        RealField(grid, amplitude * u1.samples / scale),
        RealField(grid, amplitude * u2.samples / scale),
    )
