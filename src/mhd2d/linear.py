"""Exact per-mode theory of the damped dispersive operator.

The linear flow-map system ``Y_tt - Lap(Y_t) - d1^2 Y = f`` closes per Fourier
mode on the companion system

    d/dt (yhat, vhat) = [[0, 1], [-xi1^2, -|xi|^2]] (yhat, vhat) + (0, fhat),

whose symbol ``lam^2 + |xi|^2 lam + xi1^2 = 0`` has roots

    lam_pm = -(|xi|^2 +- sqrt(|xi|^4 - 4 xi1^2)) / 2.

Low frequencies (|xi|^2 <= 2 |xi1|) carry a conjugate pair decaying like
exp(-t |xi|^2 / 2); high frequencies split into a fast branch ~ exp(-t |xi|^2)
and a slow branch whose rate ~ xi1^2 / |xi|^2 degenerates as xi1 -> 0.

Trajectories hold half-spectrum coefficients (``grid.half_spectrum``), the
Lagrangian stepper's layout; block energies are the product of ``lp``'s
anisotropic block-weight matrix with a per-mode density (``lp.block_sq_norms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, half_spectrum
from mhd2d.lp import block_sq_norms
from mhd2d.propagators import apply2, mode_exponential

__all__ = [
    "ModeEigen",
    "LinearTrajectory",
    "eigenvalues",
    "regime",
    "mode_solution",
    "evolve_linear",
    "block_energy_series",
    "measured_decay_rate",
]


@dataclass(frozen=True)
class ModeEigen:
    xi: tuple[float, float]
    lambda_plus: complex
    lambda_minus: complex
    regime: str  # "parabolic_pair" (low) or "slow_fast" (high)


def regime(xi: tuple[float, float]) -> str:
    """Frequency-split label: 'low' iff |xi|^2 <= 2 |xi1| (boundary inclusive)."""
    x1, x2 = xi
    if x1 == 0.0 and x2 == 0.0:
        raise ValueError("zero frequency has no regime")
    return "low" if x1 * x1 + x2 * x2 <= 2.0 * abs(x1) else "high"


def eigenvalues(xi: tuple[float, float]) -> ModeEigen:
    """Roots of lam^2 + |xi|^2 lam + xi1^2, exact complex branch.

    For real roots the slow one is computed in the rationalized form
    ``lam_- = -2 xi1^2 / (|xi|^2 + sqrt(|xi|^4 - 4 xi1^2))`` (no cancellation
    when xi1^2 << |xi|^4); the fast branch has no cancellation as written.
    """
    x1, x2 = float(xi[0]), float(xi[1])
    if x1 == 0.0 and x2 == 0.0:
        raise ValueError("zero frequency rejected")
    ksq = x1 * x1 + x2 * x2
    disc = ksq * ksq - 4.0 * x1 * x1
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam_p = complex(-(ksq + root) / 2.0)
        lam_m = complex(-2.0 * x1 * x1 / (ksq + root))
    else:
        root = 1j * math.sqrt(-disc)
        lam_p = -(ksq + root) / 2.0
        lam_m = -(ksq - root) / 2.0
    kind = "parabolic_pair" if regime(xi) == "low" else "slow_fast"
    return ModeEigen((x1, x2), lam_p, lam_m, kind)


def _flow_map_matrix(k1, ksq) -> np.ndarray:
    """Stack of flow-map mode matrices [[0, 1], [-xi1^2, -|xi|^2]] over the
    broadcast shape of ``k1`` and ``ksq``, shape (..., 2, 2)."""
    k1, ksq = np.broadcast_arrays(np.asarray(k1, dtype=float), np.asarray(ksq, dtype=float))
    m = np.zeros(k1.shape + (2, 2))
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = -k1**2
    m[..., 1, 1] = -ksq
    return m


def _check_times(t: np.ndarray) -> None:
    """ValueError naming the first time that is not finite or is negative."""
    bad = t[~(np.isfinite(t) & (t >= 0))]
    if bad.size:
        raise ValueError(f"t = {float(bad[0])!r}: times must be finite and nonnegative")


def mode_solution(xi: tuple[float, float], y0: complex, y1: complex, t) -> tuple[np.ndarray, np.ndarray]:
    """Unforced mode evolution (yhat(t), yhat_t(t)); t may be an array of
    finite nonnegative times.  The mode's propagator is set up once
    (``mode_exponential``) and evaluated at each t."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(t_arr)
    prop = mode_exponential(_flow_map_matrix(xi[0], xi[0] ** 2 + xi[1] ** 2))
    y = np.empty(t_arr.shape, dtype=complex)
    v = np.empty(t_arr.shape, dtype=complex)
    for i, ti in enumerate(t_arr):
        y[i], v[i] = apply2(prop(float(ti)), y0, y1)
    if np.isscalar(t) or np.ndim(t) == 0:
        return y[0], v[0]
    return y, v


@dataclass(frozen=True)
class LinearTrajectory:
    """Stored spectral evolution of a vector field pair (Y, Y_t), as
    half-spectrum coefficients (``HalfSpectrum.fwd`` of each component)."""

    grid: Grid
    times: np.ndarray  # (M,)
    yhat: np.ndarray  # (M, 2, nx, ny // 2 + 1) complex
    vhat: np.ndarray  # (M, 2, nx, ny // 2 + 1) complex


def evolve_linear(
    Y0: tuple[RealField, RealField],
    Y1: tuple[RealField, RealField],
    times: Sequence[float],
) -> LinearTrajectory:
    """Evolve the unforced linear system, storing states at the requested times.

    Every stored state is the exact per-mode propagator ``exp(M t)`` applied
    to the initial data, so it carries no time-step error.  The propagator of
    the whole mode stack is set up once (``mode_exponential``) and evaluated
    at each of the (finite, nonnegative) times.
    """
    g = Y0[0].grid
    c = half_spectrum(g)
    times = np.asarray(sorted(float(t) for t in times))
    _check_times(times)
    prop = mode_exponential(_flow_map_matrix(c.k1, c.ksq))
    y0 = np.stack([c.fwd(f.samples) for f in Y0])
    v0 = np.stack([c.fwd(f.samples) for f in Y1])
    ny = np.empty((times.size, 2) + c.ksq.shape, dtype=complex)
    nv = np.empty_like(ny)
    for i, t in enumerate(times):
        p = prop(float(t))
        for comp in range(2):
            ny[i, comp], nv[i, comp] = apply2(p, y0[comp], v0[comp])
    return LinearTrajectory(g, times, ny, nv)


# ---------------------------------------------------------------------------
# block energies
# ---------------------------------------------------------------------------


def _gsq_density(c: HalfSpectrum, yh, vh) -> np.ndarray:
    """Per-mode density of g^2 = 1/2 (||w_t||^2 + ||d1 w||^2 + 1/4 ||Lap w||^2)
    - 1/4 (w_t | Lap w) on the half spectrum.  It is nonnegative mode by mode,
    so a block's weighted sum keeps its relative accuracy deep in the decay."""
    y_sq = np.abs(yh[0]) ** 2 + np.abs(yh[1]) ** 2
    v_sq = np.abs(vh[0]) ** 2 + np.abs(vh[1]) ** 2
    cross = np.real(vh[0] * np.conj(yh[0]) + vh[1] * np.conj(yh[1]))
    return 0.5 * (v_sq + (c.k1**2 + 0.25 * c.ksq**2) * y_sq) + 0.25 * c.ksq * cross


def block_energy_series(traj: LinearTrajectory) -> dict[tuple[int, int], np.ndarray]:
    """g_{j,k}^2 over stored times for every resolved (j, k) pair with a
    nonzero series; one block-table product per stored time."""
    c = half_spectrum(traj.grid)
    dens = (_gsq_density(c, yh, vh) for yh, vh in zip(traj.yhat, traj.vhat))
    keys, cols = zip(*(block_sq_norms(c.grid, d, aniso=True) for d in dens))
    return {key: row for key, row in zip(keys[0], np.column_stack(cols)) if row.max() > 0.0}


@dataclass(frozen=True)
class DecayFit:
    rate: float
    window_ok: bool


def measured_decay_rate(traj: LinearTrajectory, xi_mode: tuple[int, int]) -> DecayFit:
    """Least-squares tail slope of log |yhat^1(t)| at one integer mode.

    Uses the last half of the stored samples (past the fast transient) and
    flags windows that span less than one e-folding of decay.  A mode with
    n < 0 is read off the half spectrum as the conjugate of (-m, -n).
    """
    i, j, _ = half_spectrum(traj.grid).mode_index(*xi_mode)
    series = np.abs(traj.yhat[:, 0, i, j])
    # discard the round-off floor left by branch contamination at eps level
    keep = series > max(1e-300, float(series.max()) * 1e-13)
    t, s = traj.times[keep], series[keep]
    if t.size < 3:
        return DecayFit(rate=float("nan"), window_ok=False)
    half = t.size // 2
    t_fit, s_fit = t[half:], s[half:]
    if s_fit.min() <= 0 or np.allclose(s_fit, s_fit[0], rtol=1e-13, atol=0.0):
        return DecayFit(rate=0.0, window_ok=True)
    rate = float(np.polyfit(t_fit, np.log(s_fit), 1)[0])
    efold = math.log(s_fit[0] / s_fit[-1]) if s_fit[-1] > 0 else math.inf
    return DecayFit(rate=rate, window_ok=bool(efold >= 1.0 or abs(rate) < 1e-8))

