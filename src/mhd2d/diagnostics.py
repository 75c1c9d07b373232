"""Energy-functional bookkeeping over stored trajectories.

The composite functional for exponent s collects eleven squared channels of
the flow-map solution (time-sup norms are of Chemin-Lerner type: the sup is
taken per dyadic block before the weighted block sum):

    E_T^s = ||Y_t||^2_{CL-inf, H^s} + ||Y_t||^2_{CL-inf, H^{s+1}}
          + ||d1 Y||^2_{CL-inf, H^s} + ||Y^2||^2_{CL-inf, H^{s+1}}
          + ||Y||^2_{CL-inf, H^{s+2}}
          + ||Y_t||^2_{L2_T H^{s+1}} + ||Y_t||^2_{L2_T H^{s+2}}
          + ||d1 Y||^2_{L2_T H^{s+1}} + ||Y^2||^2_{L2_T H^{s+2}}
          + ||grad q||^2_{L2_T H^s} + ||grad q||^2_{L1_T H^s},

and the two-exponent functional is E_T^{s1} + E_T^{s2} with the matching
initial quantity E_0^s = ||Y1||^2_{H^s} + ||Y1||^2_{H^{s+1}}
+ ||d1 Y0||^2_{H^s} + ||Y0||^2_{H^{s+2}}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from mhd2d.grid import Grid, spectral_derivative, to_spectral
from mhd2d.linear import LinearTrajectory, block_energy_series, eigenvalues
from mhd2d.lp import _mask, resolved_range, sobolev_norm

__all__ = [
    "EnergyLedger",
    "functional_E",
    "functional_script_E",
    "initial_energy",
    "smallness_margin",
    "decay_table",
    "DecayRow",
]


@dataclass
class EnergyLedger:
    """Named time series of norms and functionals; append-only."""

    times: np.ndarray
    channels: dict = field(default_factory=dict)

    def add(self, name: str, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.times.shape:
            raise ValueError(f"channel {name!r} length mismatch")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"channel {name!r} contains non-finite entries")
        self.channels[name] = arr

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "channel", "value"])
            for name in sorted(self.channels):
                for t, v in zip(self.times, self.channels[name]):
                    w.writerow([float(t), name, float(v)])

    def summary(self) -> dict:
        return {
            name: {"initial": float(v[0]), "final": float(v[-1]), "max": float(np.max(v))}
            for name, v in sorted(self.channels.items())
        }


# ---------------------------------------------------------------------------
# flow-map energy functionals
# ---------------------------------------------------------------------------


def _block_l2_table(grid: Grid, coeff_stack: list[np.ndarray]) -> np.ndarray:
    """Per-block L2 norms: rows = blocks j, cols = entries of the stack.

    Each stack entry is a tuple of spectral component arrays (vector norm is
    the root of the component sum).
    """
    j0, j1 = resolved_range(grid, "iso")
    area = grid.lx * grid.ly
    out = np.empty((j1 - j0 + 1, len(coeff_stack)))
    for i, j in enumerate(range(j0, j1 + 1)):
        msq = _mask(grid, "iso", j, low=False) ** 2
        for n, comps in enumerate(coeff_stack):
            s = 0.0
            for ch in comps:
                s += float(np.sum(msq * np.abs(ch) ** 2))
            out[i, n] = area * s
    return out


def _weights(grid: Grid, s: float) -> np.ndarray:
    j0, j1 = resolved_range(grid, "iso")
    return np.array([2.0 ** (2.0 * j * s) for j in range(j0, j1 + 1)])


def _cl_inf_sq(block_sq: np.ndarray, w: np.ndarray) -> float:
    """Chemin-Lerner L-inf norm squared: block-wise time sup, then weighted sum."""
    return float(np.sum(w * np.max(block_sq, axis=1)))


def _quad_sq(block_sq: np.ndarray, w: np.ndarray, times: np.ndarray) -> float:
    """int_0^T ||.||^2_{H^s-type} dt from the per-block table."""
    series = w @ block_sq
    return float(np.trapezoid(series, times))


def _l1_sq(block_sq: np.ndarray, w: np.ndarray, times: np.ndarray) -> float:
    series = np.sqrt(w @ block_sq)
    return float(np.trapezoid(series, times)) ** 2


def functional_E(states, s: float, return_breakdown: bool = False):
    """E_T^s over a stored flow-map trajectory (list of FlowMapState)."""
    if len(states) < 2:
        raise ValueError("need at least two stored states")
    for st in states:
        if st.q is None:
            raise ValueError("trajectory is missing the pressure channel")
    grid = states[0].Y[0].grid
    times = np.array([st.t for st in states])
    yt_stack, y_stack, d1y_stack, y2_stack, gq_stack = [], [], [], [], []
    for st in states:
        yh = [to_spectral(c).coeffs for c in st.Y]
        vh = [to_spectral(c).coeffs for c in st.Y_t]
        qh = to_spectral(st.q).coeffs
        k1 = grid.k1
        d1y = [1j * k1 * c for c in yh]
        gq = [1j * grid.k1 * qh, 1j * grid.k2 * qh]
        yt_stack.append(tuple(vh))
        y_stack.append(tuple(yh))
        d1y_stack.append(tuple(d1y))
        y2_stack.append((yh[1],))
        gq_stack.append(tuple(gq))
    tabs = {
        "yt": _block_l2_table(grid, yt_stack),
        "y": _block_l2_table(grid, y_stack),
        "d1y": _block_l2_table(grid, d1y_stack),
        "y2": _block_l2_table(grid, y2_stack),
        "gq": _block_l2_table(grid, gq_stack),
    }

    def w(expo):
        return _weights(grid, expo)

    parts = {
        "yt_clinf_s": _cl_inf_sq(tabs["yt"], w(s)),
        "yt_clinf_s1": _cl_inf_sq(tabs["yt"], w(s + 1)),
        "d1y_clinf_s": _cl_inf_sq(tabs["d1y"], w(s)),
        "y2_clinf_s1": _cl_inf_sq(tabs["y2"], w(s + 1)),
        "y_clinf_s2": _cl_inf_sq(tabs["y"], w(s + 2)),
        "yt_l2_s1": _quad_sq(tabs["yt"], w(s + 1), times),
        "yt_l2_s2": _quad_sq(tabs["yt"], w(s + 2), times),
        "d1y_l2_s1": _quad_sq(tabs["d1y"], w(s + 1), times),
        "y2_l2_s2": _quad_sq(tabs["y2"], w(s + 2), times),
        "gradq_l2_s": _quad_sq(tabs["gq"], w(s), times),
        "gradq_l1_s": _l1_sq(tabs["gq"], w(s), times),
    }
    total = float(sum(parts.values()))
    if return_breakdown:
        return total, parts
    return total


def functional_script_E(states, s1: float, s2: float) -> float:
    return functional_E(states, s1) + functional_E(states, s2)


def initial_energy(Y0, Y1, s: float) -> float:
    """E_0^s from the data alone."""
    g = Y0[0].grid
    d1y0 = tuple(spectral_derivative(c, 1) for c in Y0)

    def vec_sq(v, expo):
        return sum(sobolev_norm(c, expo) ** 2 for c in v)

    return (
        vec_sq(Y1, s)
        + vec_sq(Y1, s + 1.0)
        + vec_sq(d1y0, s)
        + vec_sq(Y0, s + 2.0)
    )


def _cl_besov_inf(grid: Grid, stacks: list[tuple[np.ndarray, ...]], s: float) -> float:
    """Tilde L-inf in time of the homogeneous Besov (2,1) norm."""
    tab = _block_l2_table(grid, stacks)
    j0, j1 = resolved_range(grid, "iso")
    total = 0.0
    for i, j in enumerate(range(j0, j1 + 1)):
        total += 2.0 ** (j * s) * math.sqrt(float(np.max(tab[i])))
    return total


def smallness_margin(states, s1: float, s2: float) -> dict:
    """Sup-in-time functionals and the bootstrap-inequality bookkeeping.

    Records the empirical counterparts of the absorption argument: the
    two-exponent functional, its data value, the four gradient norms used as
    working assumptions, and the implied constant in
    E_T <= C (E_0 + (E_0^{1/2} + E_T^{1/2} + E_T) E_T).
    """
    grid = states[0].Y[0].grid
    script_e = functional_script_E(states, s1, s2)
    e0 = initial_energy(states[0].Y, states[0].Y_t, s1) + initial_energy(states[0].Y, states[0].Y_t, s2)
    grad_stacks = []
    y_stacks = []
    for st in states:
        yh = [to_spectral(c).coeffs for c in st.Y]
        grads = []
        for ch in yh:
            grads.append(1j * grid.k1 * ch)
            grads.append(1j * grid.k2 * ch)
        grad_stacks.append(tuple(grads))
        y_stacks.append(tuple(yh))
    rep = {
        "script_E_T": script_e,
        "script_E_0": e0,
        "ratio_E_T_over_E_0": script_e / e0 if e0 > 0 else 0.0,
        "gradY_clinf_B1": _cl_besov_inf(grid, grad_stacks, 1.0),
        "gradY_clinf_B2": _cl_besov_inf(grid, grad_stacks, 2.0),
        "Y_clinf_Hs1p2": math.sqrt(_cl_inf_sq(_block_l2_table(grid, y_stacks), _weights(grid, s1 + 2.0))),
        "Y_clinf_Hs2p2": math.sqrt(_cl_inf_sq(_block_l2_table(grid, y_stacks), _weights(grid, s2 + 2.0))),
    }
    denom = e0 + (math.sqrt(e0) + math.sqrt(script_e) + script_e) * script_e
    rep["bootstrap_constant"] = script_e / denom if denom > 0 else 0.0
    return rep


# ---------------------------------------------------------------------------
# regime-resolved decay table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayRow:
    j: int
    k: int
    regime: str  # block regime: low iff j <= (k + 1) / 2
    fitted_rate: float  # of g_{j,k}(t) ~ exp(fitted_rate * t), <= 0 for decay
    dyadic_scale: float  # 2^{2j} (low) or 2^{2(k-j)} (high)
    rate_constant: float  # |fitted_rate| / dyadic_scale
    lambda_minus_center: float
    initial_gsq: float


def decay_table(traj: LinearTrajectory, mass_floor: float = 1e-14) -> list[DecayRow]:
    """Fit per-block decay rates of g_{j,k} and compare with the regime law.

    The fit window adapts to the block speed: samples after the first
    measurable decay and before underflow; blocks with less than one
    e-folding over the whole record fall back to the last half of samples.
    """
    table = block_energy_series(traj)
    rows: list[DecayRow] = []
    for (j, k), gsq in sorted(table.items()):
        g0 = gsq[0]
        if g0 < mass_floor:
            continue
        t = traj.times
        rel = gsq / g0
        lo, hi = 1e-20, math.exp(-0.4)
        sel = (rel > lo) & (rel < hi)
        if np.count_nonzero(sel) < 4:
            sel = np.zeros_like(sel)
            sel[t.size // 2 :] = True
            sel &= rel > 0
        tt, gg = t[sel], gsq[sel]
        if tt.size < 2 or np.any(gg <= 0):
            continue
        slope = np.polyfit(tt, np.log(gg), 1)[0]
        rate = 0.5 * float(slope)  # g ~ exp(rate t)
        low = j <= (k + 1) / 2.0
        scale = 2.0 ** (2 * j) if low else 2.0 ** (2 * (k - j))
        xi1 = 2.0**k
        xi_sq = max(4.0**j, xi1 * xi1)
        xi2 = math.sqrt(max(xi_sq - xi1 * xi1, 0.0))
        lam = eigenvalues((xi1, xi2)).lambda_minus.real
        rows.append(
            DecayRow(
                j=j,
                k=k,
                regime="low" if low else "high",
                fitted_rate=rate,
                dyadic_scale=scale,
                rate_constant=abs(rate) / scale,
                lambda_minus_center=lam,
                initial_gsq=float(g0),
            )
        )
    return rows


def decay_table_csv(rows: list[DecayRow], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "k", "regime", "fitted_rate", "dyadic_scale", "rate_constant", "lambda_minus_center", "initial_gsq"])
        for r in rows:
            w.writerow([r.j, r.k, r.regime, r.fitted_rate, r.dyadic_scale, r.rate_constant, r.lambda_minus_center, r.initial_gsq])
