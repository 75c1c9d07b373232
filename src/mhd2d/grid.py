"""Periodic-box spectral substrate.

A field lives on a uniform ``nx x ny`` grid over ``[0, lx) x [0, ly)`` and is
expanded as ``u(x) = sum_xi chat(xi) exp(i xi . x)`` with frequencies
``xi = (2 pi m / lx, 2 pi n / ly)``.  With this normalization a pure mode
``exp(i xi0 . x)`` has ``chat(xi0) = 1`` and Plancherel reads
``||u||_{L2}^2 = lx * ly * sum |chat|^2``.

Every transform of the package runs here.  Spectral operations on real
fields run on the real-to-half-spectrum (``rfft2``) coefficients ``nx ny chat``
of the ``ny // 2 + 1`` non-negative x2 frequencies (``d2_columns`` on x2
columns), through one ``HalfSpectrum`` context per grid from
``half_spectrum``; Plancherel sums them over the full lattice (``lattice_sum``,
``norm_sq``) and quadrature sums the samples (``l2_norm``).  Each quadratic
sum is dealiased once (``dh``) and nested products at each level; sup norms
are sampled on the 2x finer grid by zero padding (``inv_fine``), with the
unpaired Nyquist modes split evenly.  The ``HalfSpectrum`` owns every
wavenumber and mode-index table; ``Grid`` holds only the nodes.  The mode
indices, the wavenumbers and the derivative symbols ``ik1``/``ik2`` are 1-D
axes (shapes (nx, 1) and (1, ny // 2 + 1)), so products with them broadcast;
the other tables have the full half-spectrum shape; each is built on its
first read.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "make_grid",
    "spectral_derivative",
    "l2_norm",
    "HalfSpectrum",
    "half_spectrum",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; hashable on its scalar signature.

    The node arrays are cached properties so the instance stays cheap to
    compare and to use as a cache key; wavenumber tables live on its
    ``HalfSpectrum``.
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
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)


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


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a grid; rejects odd or undersized sample counts."""
    return Grid(int(nx), int(ny), float(lx), float(ly))


def _deriv_symbol(c: HalfSpectrum, axis: int, order: int) -> np.ndarray:
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if order < 1:
        raise ValueError("order must be a positive integer")
    # odd orders kill the unpaired Nyquist mode (as ik1/ik2 do) so real fields stay real
    if order % 2:
        return (c.ik1 if axis == 1 else c.ik2) ** order
    return (1j * (c.k1 if axis == 1 else c.k2)) ** order


def _finite_fwd(u: RealField) -> np.ndarray:
    """Half-spectrum coefficients of ``u``; non-finite samples raise."""
    if not np.all(np.isfinite(u.samples)):
        raise ValueError("non-finite samples")
    return half_spectrum(u.grid).fwd(u.samples)


def spectral_derivative(u: RealField, axis: int, order: int = 1) -> RealField:
    """d^order/dx_axis^order by multiplication with (i xi_axis)^order on the
    half spectrum.  Odd-order derivatives zero the Nyquist mode."""
    c = half_spectrum(u.grid)
    return RealField(u.grid, c.inv(_finite_fwd(u) * _deriv_symbol(c, axis, order)))


def l2_norm(u: RealField) -> float:
    """L2 norm over the box by quadrature of the samples."""
    return float(np.sqrt(u.grid.cell_area * np.sum(np.square(u.samples, dtype=float))))


class HalfSpectrum:
    """Half-spectrum work context of one grid, shared by every layer.

    Coefficients are the unnormalised ``rfft2`` output (``nx * ny`` times
    ``chat``) on the ``ny // 2 + 1`` non-negative x2 frequencies.  The integer
    mode indices ``m1`` (FFT order, shape (nx, 1)) and ``m2`` (shape
    (1, ny // 2 + 1)) label them.  The wavenumbers ``k1``/``k2`` and the
    derivative symbols ``ik1``/``ik2`` (with the unpaired Nyquist modes
    zeroed) are held on the same 1-D axes: a product with them broadcasts,
    and each element is the same complex multiply as with a full table.
    Every other table has the full ``shape``: ``ksq``; ``inv_ksq`` (zero at
    the mean mode); the 2/3 mask ``deal`` (complex 1 or 0); the solenoidal
    unit vector ``e = (-xi2, xi1)/|xi|`` as complex ``e1``/``e2`` (zero at
    the mean mode); and the weights ``wd``/``w12`` of
    ``e . div S = wd (S11 - S22) + w12 S12`` for a symmetric tensor S, which
    holds wherever ``e . ik = 0``: everywhere but the Nyquist modes outside
    the 2/3 set (the trace of S, a gradient, drops out).  Each table is built
    on its first read, so a context holds only the tables its workload uses.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.m1 = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx).astype(int)[:, None]
        self.m2 = np.arange(grid.ny // 2 + 1)[None, :]

    @property
    def shape(self) -> tuple[int, int]:
        """(nx, ny // 2 + 1), the shape of the full tables; builds none."""
        return (self.grid.nx, self.grid.ny // 2 + 1)

    @cached_property
    def k1(self) -> np.ndarray:
        return 2.0 * np.pi / self.grid.lx * self.m1.astype(float)

    @cached_property
    def k2(self) -> np.ndarray:
        return 2.0 * np.pi / self.grid.ly * self.m2.astype(float)

    # 1j times the axis, not plus 0j: that would flip -0.0 real parts.
    @cached_property
    def ik1(self) -> np.ndarray:
        return np.where(self.m1 == -self.grid.nx // 2, 0.0, 1j * self.k1)

    @cached_property
    def ik2(self) -> np.ndarray:
        return np.where(self.m2 == self.grid.ny // 2, 0.0, 1j * self.k2)

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(self.ksq > 0, 1.0 / self.ksq, 0.0)

    def _over_kmag(self, k: np.ndarray) -> np.ndarray:
        """``k / |xi|`` (zero at the mean mode), complex like every coefficient
        array it multiplies: no cast per product."""
        kmag = np.sqrt(self.ksq)
        with np.errstate(divide="ignore"):
            return (k * np.where(kmag > 0, 1.0 / kmag, 0.0)).astype(complex)

    @cached_property
    def e1(self) -> np.ndarray:
        return self._over_kmag(-self.k2)

    @cached_property
    def e2(self) -> np.ndarray:
        return self._over_kmag(self.k1)

    @cached_property
    def deal(self) -> np.ndarray:
        nx, ny = self.grid.shape
        return ((np.abs(self.m1) <= nx / 3.0) & (self.m2 <= ny / 3.0)).astype(complex)

    @cached_property
    def wd(self) -> np.ndarray:
        return 0.5 * (self.e1 * self.ik1 - self.e2 * self.ik2)

    @cached_property
    def w12(self) -> np.ndarray:
        return self.e1 * self.ik2 + self.e2 * self.ik1

    def mode_index(self, m: int, n: int) -> tuple[int, int, bool]:
        """Index ``(i, j, mirrored)`` of the integer mode (m, n) in the half
        spectrum.  A mode with ``-ny/2 < n < 0`` is not stored: ``(i, j)`` then
        holds its mirror (-m, -n), whose coefficient is the conjugate, and
        ``mirrored`` is true."""
        nx, ny = self.grid.shape
        if not (-nx // 2 <= m < nx // 2 and -ny // 2 <= n < ny // 2):
            raise ValueError(f"mode ({m}, {n}) not representable on {nx}x{ny} grid")
        if -ny // 2 < n < 0:
            return -m % nx, -n, True
        return m % nx, n % ny, False

    def fwd(self, a: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(a)

    def inv(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(ah, s=self.grid.shape)

    def d2_columns(self, cols: np.ndarray) -> np.ndarray:
        """Spectral x2-derivative of a column or a stack of columns (periodic,
        Nyquist mode zeroed), by one real transform along x2."""
        return np.fft.irfft(self.ik2[0] * np.fft.rfft(cols), n=self.grid.ny)

    def grad(self, fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d1 f and d2 f at the nodes from the half-spectrum coefficients of f."""
        return self.inv(self.ik1 * fh), self.inv(self.ik2 * fh)

    def inv_fine(self, ah: np.ndarray) -> np.ndarray:
        """Real samples on the 2-times finer grid of a stack of half-spectrum
        coefficient arrays ``(..., nx, ny // 2 + 1)``, by zero padding: the
        unpaired Nyquist row ``m1 = -nx/2`` is split evenly across ``+-nx/2``
        and the Nyquist column ``ny/2`` is halved.  The all-zero upper x2
        columns are never transformed."""
        nx, ny = self.grid.shape
        h, fx = nx // 2, 2 * nx
        a = 4 * ah
        rows = np.zeros(ah.shape[:-2] + (fx, ny // 2 + 1), dtype=complex)
        rows[..., :h, :] = a[..., :h, :]
        rows[..., fx - h :, :] = a[..., h:, :]
        rows[..., fx - h, :] *= 0.5
        rows[..., h, :] = rows[..., fx - h, :]
        rows[..., -1] *= 0.5
        return np.fft.irfft(np.fft.ifft(rows, axis=-2), n=2 * ny, axis=-1)

    def dh(self, a: np.ndarray) -> np.ndarray:
        """Dealiased half-spectrum coefficients of a physical sum of products
        (one transform suffices: the 2/3 truncation is a linear projection),
        masked in place."""
        ah = self.fwd(a)
        ah *= self.deal
        return ah

    def lattice_sum(self, w: np.ndarray) -> float:
        """Sum over the full lattice of a Hermitian-symmetric weight w given
        on the half spectrum: interior x2 columns count twice."""
        ny_half = w.shape[1] - 1
        return float(np.sum(w[:, 0]) + np.sum(w[:, ny_half]) + 2.0 * np.sum(w[:, 1:ny_half]))

    def norm_sq(self, w: np.ndarray) -> float:
        """Plancherel: the squared L2 norm over the box of a real field whose
        weighted squared coefficients ``w`` (e.g. ``ksq * |fh|^2``) are given
        on the half spectrum."""
        g = self.grid
        return g.lx * g.ly * self.lattice_sum(w) / (g.nx * g.ny) ** 2


@lru_cache(maxsize=8)
def half_spectrum(grid: Grid) -> HalfSpectrum:
    """The cached half-spectrum context of ``grid`` (equal grids share one)."""
    return HalfSpectrum(grid)
