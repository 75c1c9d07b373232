"""Constructive admissible initial data.

Pipeline: given a compactly concentrated scalar bump psi0,

1. march the companion potential psitilde0 in x1 from the quiet edge of the
   support window so that the matrix

       U0 = [[1 + d2 psi0, d2 psitilde0], [-d1 psi0, 1 - d1 psitilde0]]

   has unit determinant (the marched transport equation
   ``(1 + d2 psi0) d1 psitilde0 - d1 psi0 d2 psitilde0 = d2 psi0`` with zero
   data on the starting column is exactly that constraint);
2. solve the pointwise fixed point
   ``Y0 = (psitilde0(y + Y0), -psi0(y + Y0))`` by Picard iteration with
   bicubic interpolation, giving the flow-map seed with
   ``det(I + grad Y0) = 1``;
3. transport the Eulerian velocity: ``Y1 = u0(y + Y0)``.

The box is a surrogate for the plane: fields must be concentrated away from
the marching seam.  Residual norms therefore exclude a few columns around the
seam, where the x1-constant wake of the marched solution meets the zero
boundary data; the solver reports the wake size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, _deriv_symbol, _finite_fwd, half_spectrum, spectral_derivative
from mhd2d.interp import PeriodicInterpolator
from mhd2d.lp import a_ks_norm, sobolev_norm, sobolev_norm_hat

__all__ = [
    "InitialDatum",
    "CompanionInfo",
    "FlowMapSeedInfo",
    "solve_companion_potential",
    "build_flow_map_initial",
    "seed_lagrangian_velocity",
    "smallness_report",
    "window_derivative_x1",
]


class ConstructionError(RuntimeError):
    pass


def window_derivative_x1(arr: np.ndarray, dx: float) -> np.ndarray:
    """Sixth-order x1-derivative treating axis 0 as non-periodic.

    Used on marched quantities whose wake breaks periodicity at the seam;
    near the ends it falls back to one-sided second order (the fields are
    locally constant there by construction).  Needs at least 6 rows.
    """
    n = arr.shape[0]
    out = np.empty_like(arr)
    c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    out[3 : n - 3] = sum(c[m] * arr[m : n - 6 + m] for m in range(7)) / dx
    out[:3] = (-3.0 * arr[:3] + 4.0 * arr[1:4] - arr[2:5]) / (2.0 * dx)
    out[n - 3 :] = (3.0 * arr[n - 3 :] - 4.0 * arr[n - 4 : n - 1] + arr[n - 5 : n - 2]) / (2.0 * dx)
    return out


def quiet_column(psi0: RealField) -> int:
    """Column whose neighbourhood (4 columns on each side) carries the least
    mass; the march starts there so the zero boundary data sits in the quiet
    part of the box."""
    mass = np.sum(psi0.samples**2, axis=1)
    kernel = np.ones(9)
    smeared = np.array([np.dot(kernel, np.take(mass, range(i - 4, i + 5), mode="wrap")) for i in range(mass.size)])
    return int(np.argmin(smeared))


def _column_d2(cols: np.ndarray, c: HalfSpectrum) -> np.ndarray:
    """Spectral x2-derivative of a column or a stack of columns (periodic,
    Nyquist mode zeroed), by one real transform along x2."""
    return np.fft.irfft(c.ik2[0] * np.fft.rfft(cols), n=c.grid.ny)


@dataclass(frozen=True)
class CompanionInfo:
    start_column: int
    det_residual_max: float
    wake_max: float


def solve_companion_potential(psi0: RealField, tol: float = 1e-6) -> tuple[RealField, CompanionInfo]:
    """March the companion potential across the box from its quiet column
    and verify det U0 = 1.

    The march is fourth-order in x1 (one grid column per step, spectral in
    x2); the returned residual is measured with an independent sixth-order
    x1 difference inside the marching window.  psi0 is transformed once:
    its gradient and the gradient's half-cell x1 translate all come from
    those coefficients.
    """
    g = psi0.grid
    c = half_spectrum(g)
    psih = _finite_fwd(psi0)
    d1psi, d2psi = c.grad(psih)
    if float(np.max(np.hypot(d1psi, d2psi))) >= 0.5:
        raise ConstructionError("companion march requires max |grad psi0| < 1/2")
    # half-cell x1 translate by a spectral phase; the unpaired Nyquist row,
    # split evenly across +-nx/2, keeps the real part
    phase = np.exp(1j * c.k1 * (0.5 * g.dx))
    phase[g.nx // 2] = phase[g.nx // 2].real
    d1psi_h, d2psi_h = c.grad(psih * phase)
    i0 = quiet_column(psi0)

    def rhs(col_idx_times2: int, tilde_col: np.ndarray) -> np.ndarray:
        # col_idx_times2 counts half-columns from the start of the march
        whole, half = divmod(col_idx_times2, 2)
        i = (i0 + whole) % g.nx
        a = (d1psi_h if half else d1psi)[i]
        b = (d2psi_h if half else d2psi)[i]
        return (b + a * _column_d2(tilde_col, c)) / (1.0 + b)

    tilde = np.zeros(g.shape)
    col = np.zeros(g.ny)
    h = g.dx
    for s in range(g.nx - 1):
        k1 = rhs(2 * s, col)
        k2 = rhs(2 * s + 1, col + 0.5 * h * k1)
        k3 = rhs(2 * s + 1, col + 0.5 * h * k2)
        k4 = rhs(2 * s + 2, col + h * k3)
        col = col + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tilde[(i0 + s + 1) % g.nx] = col
    # reorder into march order for the window derivative
    order = [(i0 + s) % g.nx for s in range(g.nx)]
    marched = tilde[order]
    d1tilde_win = window_derivative_x1(marched, g.dx)
    d2tilde = _column_d2(tilde, c)
    det_win = (1.0 + d2psi[order]) * (1.0 - d1tilde_win) + d2tilde[order] * d1psi[order]
    det_residual = float(np.max(np.abs(det_win - 1.0)))
    wake = float(np.max(np.abs(marched[-1])))
    info = CompanionInfo(start_column=i0, det_residual_max=det_residual, wake_max=wake)
    if det_residual > tol:
        raise ConstructionError(
            f"det U0 residual {det_residual:.3e} exceeds tolerance {tol:.1e}; refine the grid"
        )
    return RealField(g, tilde), info


@dataclass(frozen=True)
class FlowMapSeedInfo:
    iterations: int
    final_increment: float
    gradient_residuals_linf: tuple[float, float, float, float]
    gradient_residuals_l2: tuple[float, float, float, float]
    seam_margin: int


def _seam_mask(grid: Grid, i0: int, margin: int) -> np.ndarray:
    """Row mask excluding ``margin`` columns on each side of the seam at i0."""
    idx = (np.arange(grid.nx) - i0) % grid.nx
    keep = (idx >= margin) & (idx <= grid.nx - margin)
    return keep[:, None] & np.ones((1, grid.ny), dtype=bool)


def build_flow_map_initial(
    psi0: RealField, psitilde0: RealField
) -> tuple[tuple[RealField, RealField], FlowMapSeedInfo]:
    """Picard iteration for Y0 = (psitilde0(y + Y0), -psi0(y + Y0)).

    Needs max |grad psi0| + max |grad psitilde0| <= 0.1, and converges when
    successive iterates differ by less than 1e-12 in sup norm (at most 60
    iterations); a non-finite iterate raises ConstructionError at once,
    naming its iteration.  Also returns the residuals of the four gradient
    relations (second-order centred differences against interpolated
    gradients of the potentials), measured away from the marching seam at
    the quiet column of psi0.

    It runs in a bounded working set.  psi0 and psitilde0 are transformed
    once each for their gradients, whose four relation planes are
    prefiltered one at a time before the iteration starts, and the
    gradients are dropped.  Each Picard iterate is updated in place, one
    row block (``PeriodicInterpolator.displaced``) at a time, which is exact
    because the fixed point is pointwise; the residual planes are filled
    block by block, the centred x1 differences reading the wrap rows.  No
    whole-field points exist.
    """
    g = psi0.grid
    c = half_spectrum(g)
    d1p, d2p = c.grad(_finite_fwd(psi0))
    d1t, d2t = c.grad(_finite_fwd(psitilde0))
    size = float(np.max(np.hypot(d1p, d2p))) + float(np.max(np.hypot(d1t, d2t)))
    if size > 0.1:
        raise ConstructionError(f"gradient size {size:.3e} exceeds contraction threshold 0.1")
    del d1t

    # gradient relations: d1 Y0^1 = d2psi0 o X0, d2 Y0^1 = d2psitilde0 o X0,
    #                     d1 Y0^2 = -d1psi0 o X0, d2 Y0^2 = -d1psitilde0 o X0
    # d1 psitilde0 through the transport relation (seam-safe closed form)
    def relations():
        yield from (d2p, d2t, d1p)
        yield (d2p + d1p * d2t) / (1.0 + d2p)

    # the fourth plane is made only once the first three are prefiltered
    grads = PeriodicInterpolator(planes=(g, 4, relations()))
    del d1p, d2p, d2t, relations
    potentials = PeriodicInterpolator(psitilde0, psi0)
    y = np.zeros((2,) + g.shape)
    prev_inc = math.inf
    grow = 0
    iterations = 0
    for iterations in range(1, 61):
        peaks = []
        for b, v in potentials.displaced(y[0], y[1]):
            np.negative(v[1], out=v[1])
            peaks.append(np.max(np.abs(v - y[:, b])))
            y[:, b] = v
        # a NaN anywhere is its own max
        inc = float(np.max(peaks))
        if not math.isfinite(inc):
            raise ConstructionError(f"Picard iteration {iterations}: non-finite iterate")
        if inc < 1e-12:
            break
        grow = grow + 1 if inc > prev_inc else 0
        if grow >= 3:
            raise ConstructionError("fixed point diverges; smallness precondition violated")
        prev_inc = inc
    else:
        raise ConstructionError(f"no convergence within 60 iterations (inc={inc:.2e})")
    del potentials

    y1, y2 = y
    rows = np.arange(g.nx)
    r = np.empty((4,) + g.shape)
    for b, at_x0 in grads.displaced(y1, y2):
        nxt, prv = (rows[b] + 1) % g.nx, (rows[b] - 1) % g.nx
        r[0, b] = (y1[nxt] - y1[prv]) / (2.0 * g.dx) - at_x0[0]
        r[1, b] = (np.roll(y1[b], -1, 1) - np.roll(y1[b], 1, 1)) / (2.0 * g.dy) - at_x0[1]
        r[2, b] = (y2[nxt] - y2[prv]) / (2.0 * g.dx) + at_x0[2]
        r[3, b] = (np.roll(y2[b], -1, 1) - np.roll(y2[b], 1, 1)) / (2.0 * g.dy) + at_x0[3]
    del grads
    # fixed physical width: the wake wiggle of the spline prefilter decays
    # per CELL, so a cell-count margin would shrink physically
    seam_margin = max(6, g.nx // 16)
    mask = _seam_mask(g, quiet_column(psi0), seam_margin)
    linf = tuple(float(np.max(np.abs(ri[mask]))) for ri in r)
    l2 = tuple(float(np.sqrt(g.cell_area * np.sum(ri[mask] ** 2))) for ri in r)
    info = FlowMapSeedInfo(
        iterations=iterations,
        final_increment=float(inc),
        gradient_residuals_linf=linf,
        gradient_residuals_l2=l2,
        seam_margin=seam_margin,
    )
    return (RealField(g, y1), RealField(g, y2)), info


def seed_lagrangian_velocity(
    u0: tuple[RealField, RealField], Y0: tuple[RealField, RealField]
) -> tuple[tuple[RealField, RealField], float]:
    """Y1 = u0(y + Y0), with the transported-divergence residual
    ||div(A_{Y0} Y1)||_{L2} reported (zero for exact data).

    u0 is evaluated at y + Y0 in row blocks (``PeriodicInterpolator.at_displaced``).
    Y0 is transformed once per component, and the rows w1, w2 of A_{Y0} Y1
    are formed one after the other, each from the two grad Y0 planes it
    reads, in the order of ``adj.b11 * v1 + adj.b12 * v2``: neither grad Y0
    nor the adjugate is held whole."""
    g = u0[0].grid
    c = half_spectrum(g)
    v1, v2 = PeriodicInterpolator(*u0).at_displaced(Y0)
    y1h, y2h = c.fwd(Y0[0].samples), c.fwd(Y0[1].samples)
    # A_{Y0} = [[1 + d2 Y0^2, -d2 Y0^1], [-d1 Y0^2, 1 + d1 Y0^1]]
    w1 = (1.0 + c.inv(c.ik2 * y2h)) * v1 + (-c.inv(c.ik2 * y1h)) * v2
    div = spectral_derivative(RealField(g, w1), 1).samples
    del w1
    w2 = (-c.inv(c.ik1 * y2h)) * v1 + (1.0 + c.inv(c.ik1 * y1h)) * v2
    del y1h, y2h
    div += spectral_derivative(RealField(g, w2), 2).samples
    del w2
    return (RealField(g, v1), RealField(g, v2)), float(np.sqrt(g.cell_area * np.sum(div**2)))


@dataclass(frozen=True)
class InitialDatum:
    psi0: RealField
    psitilde0: RealField
    u0: tuple[RealField, RealField]
    Y0: tuple[RealField, RealField]
    Y1: tuple[RealField, RealField]


def smallness_report(datum: InitialDatum, k: int, s: float, s1: float, s2: float) -> dict:
    """All hypothesis norms of the smallness assumptions, bundled as a dict.

    The psi0 and psitilde0 norms run first; then u0, Y0 and Y1 are
    transformed once each, one vector at a time, and each vector's
    coefficients are dropped once its norms are taken (the d1 Y0 and Lap Y0
    norms come from Y0's), so at most one vector's coefficients are held."""
    c = half_spectrum(datum.Y0[0].grid)
    psi_a = a_ks_norm(datum.psi0, k + 1, s)
    til_hk = sobolev_norm(datum.psitilde0, float(k), homogeneous=False)

    def vec_hdot(v, *norms):
        """For each (exponent, symbol) in ``norms``, the homogeneous norm of the
        vector field ``v`` with its coefficients multiplied by the symbol."""
        vh = [c.fwd(f.samples) for f in v]
        return [math.hypot(*(sobolev_norm_hat(c, symbol * h, expo) for h in vh)) for expo, symbol in norms]

    u0_km1, u0_s2 = vec_hdot(datum.u0, (float(k - 1), 1.0), (s2, 1.0))
    lap = _deriv_symbol(c, 1, 2) + _deriv_symbol(c, 2, 2)
    d1y0_s2, lapy0_s1, lapy0_s2 = vec_hdot(datum.Y0, (s2, c.ik1), (s1, lap), (s2, lap))
    del lap
    y1_s1p1, y1_s2 = vec_hdot(datum.Y1, (s1 + 1.0, 1.0), (s2, 1.0))
    rep = {
        "psi0_A_k1_s": psi_a,
        "psitilde0_Hk": til_hk,
        "companion_ratio_Hk_over_A": (til_hk / psi_a if psi_a > 0 else 0.0),
        "u0_Hdot_km1": u0_km1,
        "u0_Hdot_s2": u0_s2,
        "d1Y0_Hdot_s2": d1y0_s2,
        "lapY0_Hdot_s1": lapy0_s1,
        "lapY0_Hdot_s2": lapy0_s2,
        "Y1_Hdot_s1p1": y1_s1p1,
        "Y1_Hdot_s2": y1_s2,
    }
    rep["hypothesis_sum_flowmap"] = rep["d1Y0_Hdot_s2"] + rep["lapY0_Hdot_s1"] + rep["lapY0_Hdot_s2"] + rep["Y1_Hdot_s1p1"] + rep["Y1_Hdot_s2"]
    rep["hypothesis_sum_scalar"] = rep["psi0_A_k1_s"] + rep["u0_Hdot_km1"] + rep["u0_Hdot_s2"]
    return rep
