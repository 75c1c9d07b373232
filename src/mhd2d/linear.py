"""Exact per-mode theory of the damped dispersive operator.

The linear flow-map system ``Y_tt - Lap(Y_t) - d1^2 Y = f`` closes per Fourier
mode on the companion system

    d/dt (yhat, vhat) = [[0, 1], [-xi1^2, -|xi|^2]] (yhat, vhat) + (0, fhat),

whose symbol ``lam^2 + |xi|^2 lam + xi1^2 = 0`` has roots

    lam_pm = -(|xi|^2 +- sqrt(|xi|^4 - 4 xi1^2)) / 2.

Low frequencies (|xi|^2 <= 2 |xi1|) carry a conjugate pair decaying like
exp(-t |xi|^2 / 2); high frequencies split into a fast branch ~ exp(-t |xi|^2)
and a slow branch whose rate ~ xi1^2 / |xi|^2 degenerates as xi1 -> 0.

A trajectory holds the initial half-spectrum coefficients
(``grid.half_spectrum``, the Lagrangian stepper's layout) and its times, and
makes the state at each time from the exact propagator as it is read
(``LinearTrajectory.states``), so no stack of states is ever stored.  The
propagator is set up and evaluated on blocks of whole rows of the mode stack,
so its working arrays span one block, not the stack.  Block energies reduce
each state as it arrives to its anisotropic block norms
(``lp.block_sq_norms``); a decay fit propagates only its own mode.
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
    return ModeEigen((x1, x2), lam_p, lam_m)


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


# rows of the mode stack per propagator block: the propagator's set-up and
# each evaluation hold about a dozen complex arrays over one block, not over
# the whole stack.  At 128^2, 16-row blocks made block_energy_series about
# 15 % slower than 32-row ones, and 64-row blocks, whose (2, 64, 65) complex
# temporaries pass 128 KiB, made six times the page faults in a fresh process.
_PROP_ROWS = 32


def _states(k1, ksq, y0h: np.ndarray, v0h: np.ndarray, times: np.ndarray):
    """Yield (yh, vh) at each of ``times``: the exact propagator of the mode
    stack (k1, ksq), set up once per block of ``_PROP_ROWS`` rows (axis -2)
    and applied block by block to both components of (y0h, v0h).  A mode's
    bits do not depend on the other modes of its block (``propagators``), so
    they are those of the whole stack's propagator."""
    blocks = [slice(r, r + _PROP_ROWS) for r in range(0, y0h.shape[-2], _PROP_ROWS)]
    props = [mode_exponential(_flow_map_matrix(k1[b], ksq[b])) for b in blocks]
    for t in times:
        yh, vh = np.empty_like(y0h), np.empty_like(v0h)
        for b, prop in zip(blocks, props):
            yh[:, b], vh[:, b] = apply2(prop(float(t)), y0h[:, b], v0h[:, b])
        yield yh, vh
        del yh, vh  # a consumer that let this state go holds one state, not two


@dataclass(frozen=True)
class LinearTrajectory:
    """Unforced linear evolution of a vector field pair (Y, Y_t) at the stored
    times, held as the initial half-spectrum coefficients (``HalfSpectrum.fwd``
    of each component); the states are made as ``states`` is read."""

    grid: Grid
    times: np.ndarray  # (M,) sorted, finite, nonnegative
    y0h: np.ndarray  # (2, nx, ny // 2 + 1) complex
    v0h: np.ndarray  # (2, nx, ny // 2 + 1) complex

    def states(self):
        """Yield (yh, vh), each (2, nx, ny // 2 + 1) complex, at each stored
        time in order.  Each pass sets up the propagator once per block of
        rows of the mode stack (``mode_exponential``), fills each state block
        by block and holds one state at a time."""
        c = half_spectrum(self.grid)
        return _states(c.k1, c.ksq, self.y0h, self.v0h, self.times)


def evolve_linear(
    Y0: tuple[RealField, RealField],
    Y1: tuple[RealField, RealField],
    times: Sequence[float],
) -> LinearTrajectory:
    """The unforced linear evolution of (Y0, Y1) at the requested times.

    The times are checked (finite, nonnegative) and sorted, and the data
    transformed once; every state the trajectory yields is the exact per-mode
    propagator ``exp(M t)`` applied to the initial data, so it carries no
    time-step error.
    """
    g = Y0[0].grid
    c = half_spectrum(g)
    times = np.asarray(sorted(float(t) for t in times))
    _check_times(times)
    y0 = np.stack([c.fwd(f.samples) for f in Y0])
    v0 = np.stack([c.fwd(f.samples) for f in Y1])
    return LinearTrajectory(g, times, y0, v0)


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
    nonzero series; one ``lp.block_sq_norms`` per stored time, taken as the
    trajectory yields each state.  An empty trajectory gives ``{}``."""
    c = half_spectrum(traj.grid)
    # map keeps no state once its density is made, so the next state is made
    # with the last one freed
    dens = map(lambda state: _gsq_density(c, *state), traj.states())
    norms = [block_sq_norms(c.grid, d, aniso=True) for d in dens]
    if not norms:
        return {}
    keys, cols = zip(*norms)
    return {key: row for key, row in zip(keys[0], np.column_stack(cols)) if row.max() > 0.0}


@dataclass(frozen=True)
class DecayFit:
    rate: float
    window_ok: bool


def measured_decay_rate(traj: LinearTrajectory, xi_mode: tuple[int, int]) -> DecayFit:
    """Least-squares tail slope of log |yhat^1(t)| at one integer mode.

    Only that mode is propagated: the trajectory's states restricted to the
    one-mode slice of its stack, whose bits are those of the full stack.
    Uses the last half of the stored samples (past the fast transient) and
    flags windows that span less than one e-folding of decay; fewer than 3
    samples above the round-off floor (an empty trajectory included) give
    ``DecayFit(nan, False)``.  A mode with n < 0 is read off the half spectrum
    as the conjugate of (-m, -n).
    """
    c = half_spectrum(traj.grid)
    i, j, _ = c.mode_index(*xi_mode)
    one = (..., slice(i, i + 1), slice(j, j + 1))
    states = _states(np.broadcast_to(c.k1, c.shape)[one], c.ksq[one], traj.y0h[one], traj.v0h[one], traj.times)
    series = np.abs(np.array([yh[0, 0, 0] for yh, _ in states], dtype=complex))
    # discard the round-off floor left by branch contamination at eps level
    keep = series > max(1e-300, float(series.max(initial=0.0)) * 1e-13)
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

