"""Full-lattice reference formulas that the tests compare the library against.

The library runs every spectral operation on the ``rfft2`` half spectrum
(``mhd2d.grid.half_spectrum``).  This module keeps the full-complex formulas
over the whole ``nx x ny`` lattice in FFT order: the 1/N-normalised transforms
(a pure mode ``exp(i xi . x)`` has coefficient 1), the mode-index and
wavenumber tables, the 2/3 mask, the dealiased product and the per-mode
companion matrices of the linear flow-map system, and the closed-form real
mode ``single_mode`` sampled at the nodes.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from mhd2d.grid import Grid, RealField


def fwd(g: Grid, a: np.ndarray) -> np.ndarray:
    """Coefficients ``chat`` of ``a = sum chat exp(i xi . x)`` (``fft2 / N``)."""
    return np.fft.fft2(a) / (g.nx * g.ny)


def inv(g: Grid, c: np.ndarray) -> np.ndarray:
    """Real part of the samples of ``sum c exp(i xi . x)`` (``ifft2 * N``)."""
    return np.real(np.fft.ifft2(c * (g.nx * g.ny)))


@lru_cache(maxsize=8)
def lattice(g: Grid) -> SimpleNamespace:
    """Tables of the full lattice: integer modes ``m1`` (nx, 1) and ``m2``
    (1, ny), frequencies ``k1``/``k2``, ``k_sq``, ``k_mag``, and the 2/3 mask
    ``dealias_mask`` (|m1| <= nx/3 and |m2| <= ny/3)."""
    m1 = np.fft.fftfreq(g.nx, d=1.0 / g.nx).astype(int)[:, None]
    m2 = np.fft.fftfreq(g.ny, d=1.0 / g.ny).astype(int)[None, :]
    k1 = 2.0 * np.pi / g.lx * m1.astype(float)
    k2 = 2.0 * np.pi / g.ly * m2.astype(float)
    k_sq = k1**2 + k2**2
    mask = (np.abs(m1) <= g.nx / 3.0) & (np.abs(m2) <= g.ny / 3.0)
    return SimpleNamespace(m1=m1, m2=m2, k1=k1, k2=k2, k_sq=k_sq, k_mag=np.sqrt(k_sq), dealias_mask=mask)


def mode_index(g: Grid, m: int, n: int) -> tuple[int, int]:
    """Array index of the integer mode (m, n) on the full lattice."""
    if not (-g.nx // 2 <= m < g.nx // 2 and -g.ny // 2 <= n < g.ny // 2):
        raise ValueError(f"mode ({m}, {n}) not representable on {g.nx}x{g.ny} grid")
    return m % g.nx, n % g.ny


def dealias(g: Grid, a: np.ndarray) -> np.ndarray:
    """The samples ``a`` with every coefficient outside the 2/3 mask zeroed."""
    return inv(g, fwd(g, a) * lattice(g).dealias_mask)


def dealiased_product(a: RealField, b: RealField) -> RealField:
    """The 2/3-rule product of two fields on one grid."""
    return RealField(a.grid, dealias(a.grid, a.samples * b.samples))


def companion_matrices(g: Grid) -> np.ndarray:
    """Per-mode matrices ``[[0, 1], [-xi1^2, -|xi|^2]]``, shape (nx, ny, 2, 2)."""
    t = lattice(g)
    m = np.zeros(g.shape + (2, 2))
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = -(t.k1**2)
    m[..., 1, 1] = -t.k_sq
    return m


def single_mode(grid: Grid, m: int, n: int) -> RealField:
    """Real mode cos(xi . x) at integer mode (m, n)."""
    k1 = 2.0 * np.pi * m / grid.lx
    k2 = 2.0 * np.pi * n / grid.ly
    return RealField(grid, np.cos(k1 * grid.x1 + k2 * grid.x2))
