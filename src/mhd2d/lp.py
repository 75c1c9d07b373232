"""Dyadic frequency analysis on the periodic grid.

The radial cutoffs (phi, chi) are built from one closed-form smooth step so
that the partition of unity telescopes algebraically:

    chi(tau) = S((4/3 - tau) * 12/7),   phi(tau) = chi(tau/2) - chi(tau),

with S the standard C-infinity step (0 below 0, 1 above 1).  Then
``supp chi  in [0, 4/3]``, ``supp phi in [3/4, 8/3]``, and for every tau > 0

    sum_j phi(2^-j tau) = chi(2^-(b+1) tau) - chi(2^-a tau)  ->  1,

exactly once the dyadic range [a, b] brackets tau.  Blocks are coefficient
masks on the half spectrum: ``D_j u = inv(phi(2^-j |xi|) fwd(u))`` with a
mask of shape ``(nx, ny // 2 + 1)``, and the horizontal variants use |xi_1|,
with masks of shape ``(nx, 1)`` on the 1-D xi_1 axis that broadcast over the
half spectrum.  Out-of-range indices give the zero field.

Norm conventions: L2 norms by Plancherel (``HalfSpectrum.norm_sq``);
homogeneous norms drop the mean (the torus surrogate of "modulo constants";
phi(0) = 0, so every dyadic block does); block norms are L2 norms.  Every
per-block squared L2 norm, here and in ``linear`` and ``diagnostics``, is
taken from a per-mode density on the half spectrum (``block_sq_norms``) by
one product with the cached isotropic block-weight matrix (squared masks
times the Plancherel lattice weights).  An anisotropic block's mask
phi(2^-j |xi|) phi(2^-k |xi_1|) is that isotropic mask times a factor of the
row m1 alone, so its norms are the isotropic per-row sums weighted by the
squared horizontal masks on the 1-D xi_1 axis: no (j, k) x modes matrix is
built.  The Chemin-Lerner norms are taken from the (blocks x times) tables
of those products (``chemin_lerner_norm``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, _deriv_symbol, _finite_fwd, half_spectrum

__all__ = [
    "CutoffPair",
    "make_cutoffs",
    "block_iso",
    "block_h",
    "low_pass",
    "low_pass_h",
    "resolved_range",
    "block_sq_norms",
    "sobolev_norm",
    "sobolev_norm_hat",
    "besov_norm",
    "aniso_norm",
    "chemin_lerner_norm",
    "a_ks_norm",
    "bony_decompose",
    "ANISO_N0",
]

# smallest integer N0 with D_j D_k^h == 0 whenever j < k - N0, for the
# supports above (verified in the test suite by direct mask enumeration)
ANISO_N0 = 2


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class CutoffPair:
    """The radial profiles (phi, chi); supp chi in [0, 4/3], supp phi in [3/4, 8/3]."""

    phi: Callable[[np.ndarray], np.ndarray]
    chi: Callable[[np.ndarray], np.ndarray]


def make_cutoffs() -> CutoffPair:
    """Canonical cutoff pair used by every block operator in the package."""

    def chi(tau):
        return _smooth_step((4.0 / 3.0 - np.asarray(tau, dtype=float)) * (12.0 / 7.0))

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        return chi(tau / 2.0) - chi(tau)

    return CutoffPair(phi=phi, chi=chi)


_CUTOFFS = make_cutoffs()


def _tau(grid: Grid, kind: str) -> np.ndarray:
    """|xi| or |xi_1| on the half spectrum."""
    c = half_spectrum(grid)
    if kind == "iso":
        return np.sqrt(c.ksq)
    if kind == "h":
        return np.abs(c.k1)  # (nx, 1): a horizontal mask is a factor of the row m1
    raise ValueError(f"unknown block kind {kind!r}")


# bony_decompose in both directions reads 36 distinct masks at 128^2; the
# bound keeps one grid's working set without growing across the grids of a
# sweep (the block-weight matrix computes its masks without it)
@lru_cache(maxsize=64)
def _mask(grid: Grid, kind: str, j: int, low: bool) -> np.ndarray:
    """phi (or chi when ``low``) of 2^-j tau on the half spectrum."""
    tau = _tau(grid, kind) * 2.0 ** (-float(j))
    return _CUTOFFS.chi(tau) if low else _CUTOFFS.phi(tau)


def resolved_range(grid: Grid, kind: str = "iso") -> tuple[int, int]:
    """Dyadic index bracket [j_min, j_max] covering every nonzero grid tau.

    Chosen so the telescoping sum of phi over the bracket is exactly 1 on all
    resolved magnitudes: chi(2^-j_min tau) = 0 and chi(2^-(j_max+1) tau) = 1.
    """
    tau = _tau(grid, kind)  # ValueError naming an unknown kind
    tau_min = 2.0 * math.pi * min(1.0 / grid.lx, 1.0 / grid.ly) if kind == "iso" else 2.0 * math.pi / grid.lx
    tau_max = float(np.max(tau))
    j_min = math.floor(math.log2(0.75 * tau_min) + 1e-12)
    j_max = math.ceil(math.log2(4.0 / 3.0 * tau_max) - 1e-12) - 1
    # guard against float-boundary misses, then trust the telescoping
    while _CUTOFFS.chi(tau_min * 2.0 ** (-j_min)) != 0.0:
        j_min -= 1
    while _CUTOFFS.chi(tau_max * 2.0 ** (-(j_max + 1))) != 1.0:
        j_max += 1
    return j_min, j_max


def _apply_mask(u: RealField, kind: str, j: int, low: bool) -> RealField:
    c = half_spectrum(u.grid)
    return RealField(u.grid, c.inv(c.fwd(u.samples) * _mask(u.grid, kind, j, low)))


def block_iso(u: RealField, j: int) -> RealField:
    """Isotropic dyadic block on |xi| ~ 2^j; zero field when out of range."""
    return _apply_mask(u, "iso", j, low=False)


def block_h(u: RealField, k: int) -> RealField:
    """Horizontal block on |xi_1| ~ 2^k."""
    return _apply_mask(u, "h", k, low=False)


def low_pass(u: RealField, j: int) -> RealField:
    """Isotropic low-pass on |xi| <~ 2^j (mean mode included)."""
    return _apply_mask(u, "iso", j, low=True)


def low_pass_h(u: RealField, k: int) -> RealField:
    return _apply_mask(u, "h", k, low=True)


# one matrix per grid, 8 x 8320 (0.5 MiB) at 128^2; it holds its squared
# masks, so they are computed uncached and not held twice
@lru_cache(maxsize=4)
def _block_weights(grid: Grid) -> tuple[tuple, np.ndarray]:
    """Isotropic block keys j and the (blocks x modes) matrix whose row for
    block j is its squared mask times the Plancherel weights of
    ``HalfSpectrum.norm_sq`` (1 on columns 0 and ny/2, 2 elsewhere, times
    lx ly / (nx ny)^2)."""
    j0, j1 = resolved_range(grid, "iso")
    keys = tuple(range(j0, j1 + 1))
    lattice = np.full((grid.nx, grid.ny // 2 + 1), 2.0 * grid.lx * grid.ly / (grid.nx * grid.ny) ** 2)
    lattice[:, [0, -1]] *= 0.5
    mat = np.empty((len(keys), lattice.size))
    for row, j in zip(mat, keys):
        row[:] = (_mask.__wrapped__(grid, "iso", j, low=False) ** 2 * lattice).ravel()
    mat.flags.writeable = False
    return keys, mat


@lru_cache(maxsize=4)
def _aniso_weights(grid: Grid) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The anisotropic block keys (j, k) with j >= k - ANISO_N0, the
    (isotropic x horizontal blocks) mask of those pairs, and the (horizontal
    blocks x nx) table phi(2^-k |xi_1|)^2 on the 1-D xi_1 axis."""
    (j0, j1), (k0, k1) = resolved_range(grid, "iso"), resolved_range(grid, "h")
    keys = tuple((j, k) for j in range(j0, j1 + 1) for k in range(k0, k1 + 1) if j >= k - ANISO_N0)
    pairs = np.subtract.outer(range(j0, j1 + 1), range(k0, k1 + 1)) >= -ANISO_N0
    tau = _tau(grid, "h")[:, 0]
    hsq = np.stack([_CUTOFFS.phi(tau * 2.0 ** (-float(k))) ** 2 for k in range(k0, k1 + 1)])
    hsq.flags.writeable = False
    return keys, pairs, hsq


def block_sq_norms(grid: Grid, w: np.ndarray, aniso: bool = False) -> tuple[tuple, np.ndarray]:
    """Squared L2 norms of the dyadic blocks of a real field, from its
    per-mode density ``w`` on the half spectrum (``|fh|^2``, summed over the
    components of a vector), as (keys, table).

    Keys are the isotropic j over ``resolved_range(grid, "iso")``, or the
    pairs (j, k) with j >= k - ANISO_N0 when ``aniso``; zero blocks keep their
    row.  A density of shape ``(nx, ny // 2 + 1)`` gives one value per block,
    a stack ``(m, nx, ny // 2 + 1)`` a table of shape (blocks, m).

    An anisotropic norm sums each row m1 of the isotropic block's weighted
    density, then weights the rows by the squared horizontal mask of m1.
    """
    keys, mat = _block_weights(grid)
    if not aniso:
        return keys, mat @ w.reshape(w.shape[:-2] + (-1,)).T
    keys, pairs, hsq = _aniso_weights(grid)
    per_row = np.einsum("jab,...ab->j...a", mat.reshape(-1, *w.shape[-2:]), w)
    return keys, np.moveaxis(per_row @ hsq.T, -1, 1)[pairs]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def sobolev_norm(u: RealField, s: float, homogeneous: bool = True) -> float:
    """Sobolev norm via quadrature of |xi|^2s |chat|^2 over resolved modes.

    Homogeneous norms exclude the zero mode; s <= -1 is rejected because the
    box surrogate cannot control the low-frequency tail there.
    """
    c = half_spectrum(u.grid)
    return sobolev_norm_hat(c, c.fwd(u.samples), s, homogeneous)


def _homogeneous_weight(c: HalfSpectrum, s: float) -> np.ndarray:
    """|xi|^2s on the half spectrum, 0 at the mean mode: homogeneous norms drop it."""
    with np.errstate(divide="ignore"):
        return np.where(c.ksq > 0, c.ksq ** float(s), 0.0)


def sobolev_norm_hat(c: HalfSpectrum, uh: np.ndarray, s: float, homogeneous: bool = True) -> float:
    """``sobolev_norm`` of the real field with half-spectrum coefficients ``uh``."""
    if homogeneous:
        if s <= -1.0:
            raise ValueError("homogeneous exponent s <= -1 is unreliable on the periodic box")
        w = _homogeneous_weight(c, s)
    else:
        w = (1.0 + c.ksq) ** float(s)
    return math.sqrt(c.norm_sq(w * np.abs(uh) ** 2))


def _ell_r(values: np.ndarray, r: float) -> float:
    if r == math.inf:
        return float(np.max(values)) if values.size else 0.0
    return float(np.sum(values**r) ** (1.0 / r))


def besov_norm(u: RealField, s: float, r: float = 1) -> float:
    """Homogeneous Besov norm B^s_{2,r}: ell^r over j of 2^{js} ||D_j u||_{L2}."""
    c = half_spectrum(u.grid)
    keys, tab = block_sq_norms(u.grid, np.abs(c.fwd(u.samples)) ** 2)
    return _ell_r(np.array([2.0 ** (j * s) for j in keys]) * np.sqrt(tab), r)


def aniso_norm(u: RealField, s1: float, s2: float) -> float:
    """Double dyadic sum: sum_{j,k} 2^{j s1} 2^{k s2} ||D_j D_k^h u||_{L2}.

    Pairs with j < k - N0 carry identically zero blocks and have no row.
    """
    c = half_spectrum(u.grid)
    keys, tab = block_sq_norms(u.grid, np.abs(c.fwd(u.samples)) ** 2, aniso=True)
    return sum(2.0 ** (j * s1) * 2.0 ** (k * s2) * math.sqrt(v) for (j, k), v in zip(keys, tab))


def chemin_lerner_norm(
    keys: tuple, times: Sequence[float], tab: np.ndarray, lam: float, s: float, r: float = 1
) -> float:
    """r-th power of the Chemin-Lerner norm of u in L~^lam_T(B^s_{2,r}), the
    time norm taken inside the block sum,

        sum_j (2^{js} ||D_j u||_{L^lam_T L2})^r,

    from the (blocks x times) table ``tab`` of squared block norms
    ||D_j u(t)||_{L2}^2 over the isotropic ``keys`` j (``block_sq_norms``).

    The time norm runs over the squared table: by trapezoid over
    ``tab ** (lam / 2)``, or as the max of ``tab`` when lam = inf.  r = 2 gives
    the squared norm, with no square root taken and one numpy sum over the
    blocks; other r add the blocks one at a time in key order.
    """
    if np.ndim(tab) != 2 or np.shape(tab)[1] < 2:
        raise ValueError("need at least two time samples")
    if lam == math.inf:
        sq = np.max(tab, axis=1)
    else:
        sq = np.trapezoid(tab ** (lam / 2.0), times, axis=1) ** (2.0 / lam)
    w = np.array([2.0 ** (r * j * s) for j in keys])
    if r == 2:
        return float(np.sum(w * sq))
    return float(sum(w * np.sqrt(sq) ** r))


def a_ks_norm(f: RealField, k: int, s: float) -> float:
    """Weighted-column norm: max over |alpha| <= k of
    sup_x1 <x1 - lx/2>^s ||d^alpha f(x1, .)||_{L2 in x2}.

    ``f`` is transformed once and each d^alpha f is one inverse transform
    of the product symbol.  The weight is centred at the box midpoint; a
    warning fires when the outermost columns carry more than 1e-8 of the
    total mass (the compact-support surrogate is then invalid).
    """
    g = f.grid
    x1t = (g.x1[:, 0] - 0.5 * g.lx)
    weight = (1.0 + x1t**2) ** (0.5 * s)
    col_mass = np.sum(f.samples**2, axis=1)
    total = float(np.sum(col_mass))
    if total > 0:
        edge = float(col_mass[:2].sum() + col_mass[-2:].sum())
        if edge > 1e-8 * total:
            warnings.warn(
                f"boundary columns carry {edge / total:.2e} of the field mass; "
                "weighted-column norm truncation is unreliable",
                stacklevel=2,
            )
    c = half_spectrum(g)
    fh = _finite_fwd(f)
    best = 0.0
    for a1 in range(k + 1):
        for a2 in range(k + 1 - a1):
            sym = _deriv_symbol(c, 1, a1) if a1 else 1.0
            if a2:
                sym = sym * _deriv_symbol(c, 2, a2)
            d = c.inv(fh * sym) if a1 or a2 else f.samples
            cols = np.sqrt(g.dy * np.sum(d**2, axis=1))
            best = max(best, float(np.max(weight * cols)))
    return best


# ---------------------------------------------------------------------------
# Bony paraproduct decomposition
# ---------------------------------------------------------------------------


def bony_decompose(a: RealField, b: RealField, direction: str = "iso"):
    """Paraproduct split a*b = T(a,b) + Tbar(a,b) + R(a,b), dealiased.

    T sums low(a) x block(b) over blocks, Tbar is its transpose, and R holds
    the diagonal interactions.  On the box the product of the two mean parts
    (x1-mean parts for the horizontal direction) has no dyadic home; it is
    assigned to R so the three parts reconstruct the product exactly.
    """
    if direction not in ("iso", "horizontal"):
        raise ValueError("direction must be 'iso' or 'horizontal'")
    g = a.grid
    if b.grid != g:
        raise ValueError("fields must share a grid")
    kind = "iso" if direction == "iso" else "h"
    j0, j1 = resolved_range(g, kind)
    c = half_spectrum(g)
    ca, cb = c.fwd(a.samples), c.fwd(b.samples)

    def blk(ch, j, low=False):
        return c.inv(ch * _mask(g, kind, j, low=low))

    t_part = np.zeros(g.shape)
    tbar_part = np.zeros(g.shape)
    r_part = np.zeros(g.shape)
    blocks_a = {j: blk(ca, j) for j in range(j0 - 1, j1 + 2)}
    blocks_b = {j: blk(cb, j) for j in range(j0 - 1, j1 + 2)}
    for j in range(j0, j1 + 1):
        t_part += blk(ca, j - 1, low=True) * blocks_b[j]
        tbar_part += blk(cb, j - 1, low=True) * blocks_a[j]
        r_part += blocks_a[j] * (blocks_b[j - 1] + blocks_b[j] + blocks_b[j + 1])
    if direction == "iso":
        r_part += np.mean(a.samples) * np.mean(b.samples)
    else:
        r_part += np.mean(a.samples, axis=0, keepdims=True) * np.mean(b.samples, axis=0, keepdims=True)

    def finish(arr):
        return RealField(g, c.inv(c.dh(arr)))

    return finish(t_part), finish(tbar_part), finish(r_part)
