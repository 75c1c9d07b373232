"""Periodic-box spectral substrate.

A field lives on a uniform ``nx x ny`` grid over ``[0, lx) x [0, ly)`` and is
expanded as ``u(x) = sum_xi chat(xi) exp(i xi . x)`` with frequencies
``xi = (2 pi m / lx, 2 pi n / ly)``.  With this normalization a pure mode
``exp(i xi0 . x)`` has ``chat(xi0) = 1`` and Plancherel reads
``||u||_{L2}^2 = lx * ly * sum |chat|^2``.

All operations are pure functions of immutable inputs.  The solvers work on
the real-to-half-spectrum (``rfft2``) representation instead, through one
``HalfSpectrum`` context per grid from ``half_spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "make_grid",
    "to_spectral",
    "from_spectral",
    "spectral_derivative",
    "inverse_laplacian",
    "dealias",
    "l2_norm",
    "mean_value",
    "HalfSpectrum",
    "half_spectrum",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; hashable on its scalar signature.

    Derived arrays (nodes, wavenumbers, masks) are cached properties so the
    instance stays cheap to compare and to use as a cache key.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        if self.nx % 2 or self.ny % 2:
            raise ValueError("grid sizes must be even")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid sizes must be >= 8")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("box lengths must be positive")

    @cached_property
    def dx(self) -> float:
        return self.lx / self.nx

    @cached_property
    def dy(self) -> float:
        return self.ly / self.ny

    @cached_property
    def x1(self) -> np.ndarray:
        """Node coordinates along axis 0, shape (nx, 1)."""
        return (self.dx * np.arange(self.nx))[:, None]

    @cached_property
    def x2(self) -> np.ndarray:
        """Node coordinates along axis 1, shape (1, ny)."""
        return (self.dy * np.arange(self.ny))[None, :]

    @cached_property
    def m1(self) -> np.ndarray:
        """Integer mode indices along axis 0 in FFT order, shape (nx, 1)."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(int)[:, None]

    @cached_property
    def m2(self) -> np.ndarray:
        return np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(int)[None, :]

    @cached_property
    def k1(self) -> np.ndarray:
        """Physical frequency xi_1 = 2 pi m / lx, shape (nx, 1)."""
        return 2.0 * np.pi / self.lx * self.m1.astype(float)

    @cached_property
    def k2(self) -> np.ndarray:
        return 2.0 * np.pi / self.ly * self.m2.astype(float)

    @cached_property
    def k_sq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def k_mag(self) -> np.ndarray:
        return np.sqrt(self.k_sq)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep |m| <= nx/3 and |n| <= ny/3."""
        return (np.abs(self.m1) <= self.nx / 3.0) & (np.abs(self.m2) <= self.ny / 3.0)

    @cached_property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def mode_index(self, m: int, n: int) -> tuple[int, int]:
        """Array index of the integer mode (m, n)."""
        if not (-self.nx // 2 <= m < self.nx // 2 and -self.ny // 2 <= n < self.ny // 2):
            raise ValueError(f"mode ({m}, {n}) not representable on {self.nx}x{self.ny} grid")
        return (m % self.nx, n % self.ny)


@dataclass(frozen=True)
class RealField:
    """Real samples on a grid, row-major in (x1, x2)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.samples.shape != self.grid.shape:
            raise ValueError("sample array shape does not match grid")

    @staticmethod
    def from_function(grid: Grid, fn) -> "RealField":
        return RealField(grid, np.asarray(fn(grid.x1 + 0 * grid.x2, grid.x2 + 0 * grid.x1), dtype=float))

    @staticmethod
    def zeros(grid: Grid) -> "RealField":
        return RealField(grid, np.zeros(grid.shape))


@dataclass(frozen=True)
class SpectralField:
    """Complex coefficients chat(xi) of ``sum chat exp(i xi . x)``."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError("coefficient array shape does not match grid")


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a grid; rejects odd or undersized sample counts."""
    return Grid(int(nx), int(ny), float(lx), float(ly))


def to_spectral(f: RealField) -> SpectralField:
    if not np.all(np.isfinite(f.samples)):
        raise ValueError("non-finite samples")
    return SpectralField(f.grid, np.fft.fft2(f.samples) / (f.grid.nx * f.grid.ny))


def from_spectral(s: SpectralField) -> RealField:
    return RealField(s.grid, np.real(np.fft.ifft2(s.coeffs * (s.grid.nx * s.grid.ny))))


def _deriv_symbol(grid: Grid, axis: int, order: int) -> np.ndarray:
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if order < 1:
        raise ValueError("order must be a positive integer")
    k = grid.k1 if axis == 1 else grid.k2
    sym = (1j * k) ** order
    if order % 2:
        # kill the unpaired Nyquist mode so real fields stay real
        m = grid.m1 if axis == 1 else grid.m2
        n = grid.nx if axis == 1 else grid.ny
        sym = np.where(m == -n // 2, 0.0, sym)
    return sym


def spectral_derivative(u, axis: int, order: int = 1):
    """d^order/dx_axis^order by multiplication with (i xi_axis)^order.

    Accepts and returns the same flavour (RealField or SpectralField).
    Odd-order derivatives zero the Nyquist mode.
    """
    if isinstance(u, RealField):
        s = to_spectral(u)
        return from_spectral(SpectralField(u.grid, s.coeffs * _deriv_symbol(u.grid, axis, order)))
    return SpectralField(u.grid, u.coeffs * _deriv_symbol(u.grid, axis, order))


def inverse_laplacian(u, mean_tolerance: float | None = None):
    """Solve ``Lap(v) = u - mean(u)`` with zero-mean ``v``.

    If ``mean_tolerance`` is given, a mean exceeding it raises (caller
    asserted solvability of the unmodified problem).
    """
    spectral_in = isinstance(u, SpectralField)
    s = u if spectral_in else to_spectral(u)
    mean = s.coeffs[0, 0]
    if mean_tolerance is not None and abs(mean) > mean_tolerance:
        raise ValueError(f"field mean {abs(mean):.3e} exceeds tolerance {mean_tolerance:.3e}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s.grid.k_sq > 0, -s.coeffs / s.grid.k_sq, 0.0)
    res = SpectralField(s.grid, out)
    return res if spectral_in else from_spectral(res)


def dealias(s: SpectralField) -> SpectralField:
    """Zero every coefficient with |m| > nx/3 or |n| > ny/3 (2/3 rule)."""
    return SpectralField(s.grid, np.where(s.grid.dealias_mask, s.coeffs, 0.0))


def l2_norm(u) -> float:
    """L2 norm over the box, via Plancherel for spectral input."""
    if isinstance(u, SpectralField):
        return float(np.sqrt(u.grid.lx * u.grid.ly * np.sum(np.abs(u.coeffs) ** 2)))
    return float(np.sqrt(u.grid.cell_area * np.sum(u.samples.astype(float) ** 2)))


def mean_value(u) -> float:
    if isinstance(u, SpectralField):
        return float(np.real(u.coeffs[0, 0]))
    return float(np.mean(u.samples))


class HalfSpectrum:
    """Half-spectrum work context of one grid, shared by both solvers.

    Coefficients are the unnormalised ``rfft2`` output (``nx * ny`` times
    ``chat``) on the ``ny // 2 + 1`` non-negative x2 frequencies.  Every table
    has that full shape: ``k1``/``k2``; ``ik1``/``ik2`` with the unpaired
    Nyquist modes zeroed; ``ksq``; ``inv_ksq`` (zero at the mean mode); the
    2/3 mask ``deal``; and the solenoidal unit vector ``e = (-xi2, xi1)/|xi|``
    as ``e1``/``e2`` (zero at the mean mode).
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        m1 = np.fft.fftfreq(nx, d=1.0 / nx).astype(int)[:, None]
        m2 = np.arange(ny // 2 + 1)[None, :]
        k1 = 2.0 * np.pi / grid.lx * m1.astype(float) + 0.0 * m2
        k2 = 2.0 * np.pi / grid.ly * m2.astype(float) + 0.0 * m1
        self.k1, self.k2 = k1, k2
        self.ik1 = np.where(m1 == -nx // 2, 0.0, 1j * k1)
        self.ik2 = np.where(m2 == ny // 2, 0.0, 1j * k2)
        self.ksq = k1**2 + k2**2
        kmag = np.sqrt(self.ksq)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.inv_ksq = np.where(self.ksq > 0, 1.0 / self.ksq, 0.0)
            inv_kmag = np.where(kmag > 0, 1.0 / kmag, 0.0)
        self.e1 = -k2 * inv_kmag
        self.e2 = k1 * inv_kmag
        self.deal = (np.abs(m1) <= nx / 3.0) & (m2 <= ny / 3.0)

    def fwd(self, a: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(a)

    def inv(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(ah, s=self.grid.shape)

    def pdh(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dealiased product of two physical fields, as half-spectrum coefficients."""
        return self.fwd(a * b) * self.deal

    def pd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dealiased pointwise product of two physical fields."""
        return self.inv(self.pdh(a, b))

    def lattice_sum(self, w: np.ndarray) -> float:
        """Sum over the full lattice of a Hermitian-symmetric weight w given
        on the half spectrum: interior x2 columns count twice."""
        ny_half = w.shape[1] - 1
        return float(np.sum(w[:, 0]) + np.sum(w[:, ny_half]) + 2.0 * np.sum(w[:, 1:ny_half]))


@lru_cache(maxsize=8)
def half_spectrum(grid: Grid) -> HalfSpectrum:
    """The cached half-spectrum context of ``grid`` (equal grids share one)."""
    return HalfSpectrum(grid)
