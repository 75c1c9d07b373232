"""Energy-functional bookkeeping over stored trajectories.

The composite functional for exponent s collects eleven squared channels of
the flow-map solution (time-sup norms are of Chemin-Lerner type: the sup is
taken per dyadic block before the weighted block sum, ``lp.chemin_lerner_norm``
on the per-block tables):

    E_T^s = ||Y_t||^2_{CL-inf, H^s} + ||Y_t||^2_{CL-inf, H^{s+1}}
          + ||d1 Y||^2_{CL-inf, H^s} + ||Y^2||^2_{CL-inf, H^{s+1}}
          + ||Y||^2_{CL-inf, H^{s+2}}
          + ||Y_t||^2_{L2_T H^{s+1}} + ||Y_t||^2_{L2_T H^{s+2}}
          + ||d1 Y||^2_{L2_T H^{s+1}} + ||Y^2||^2_{L2_T H^{s+2}}
          + ||grad q||^2_{L2_T H^s} + ||grad q||^2_{L1_T H^s},

and the two-exponent functional is E_T^{s1} + E_T^{s2} with the matching
initial quantity E_0^s = ||Y1||^2_{H^s} + ||Y1||^2_{H^{s+1}}
+ ||d1 Y0||^2_{H^s} + ||Y0||^2_{H^{s+2}}.  Each stored Y, Y_t and q is
transformed once per call onto the half spectrum, with the Nyquist-zeroing
derivative symbols ``HalfSpectrum.ik1``/``ik2``; the per-block tables of every
channel are one product per state with ``lp``'s isotropic block-weight matrix
(``lp.block_sq_norms``), and E_0 is a Plancherel sum (``HalfSpectrum.norm_sq``)
of the t = 0 coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mhd2d.grid import HalfSpectrum, half_spectrum
from mhd2d.io import write_rows_csv
from mhd2d.linear import eigenvalues
from mhd2d.lp import _homogeneous_weight, block_sq_norms, chemin_lerner_norm

__all__ = [
    "EnergyLedger",
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
        """Long format: one (t, channel, value) row per channel and time."""
        rows = ((float(t), name, float(v)) for name in sorted(self.channels) for t, v in zip(self.times, self.channels[name]))
        write_rows_csv(path, rows, ["t", "channel", "value"])


# ---------------------------------------------------------------------------
# flow-map energy functionals
# ---------------------------------------------------------------------------


def _weights(keys: tuple, s: float) -> np.ndarray:
    return np.array([2.0 ** (2.0 * j * s) for j in keys])


def _quad_sq(block_sq: np.ndarray, w: np.ndarray, times: np.ndarray) -> float:
    """int_0^T ||.||^2_{H^s-type} dt from the per-block table."""
    series = w @ block_sq
    return float(np.trapezoid(series, times))


def _l1_sq(block_sq: np.ndarray, w: np.ndarray, times: np.ndarray) -> float:
    series = np.sqrt(w @ block_sq)
    return float(np.trapezoid(series, times)) ** 2


def _block_tables(states):
    """(block keys, times, per-block tables, t = 0 coefficients) of a stored
    flow-map trajectory.

    Each stored Y, Y_t and q is transformed once, one state at a time; the
    tables ``yt``, ``y``, ``d1y``, ``y2``, ``gq`` and ``grad_y`` hold the
    per-block squared L2 norms of Y_t, Y, d1 Y, Y^2, grad q and grad Y
    (rows = isotropic blocks j, cols = states).  The last entry holds the
    half-spectrum coefficients (Y, Y_t) of the first state.
    """
    for st in states:
        if st.q is None:
            raise ValueError("trajectory is missing the pressure channel")
    c = half_spectrum(states[0].Y[0].grid)
    ik1, ik2 = c.ik1, c.ik2
    cols = []
    for n, st in enumerate(states):
        yh = [c.fwd(f.samples) for f in st.Y]
        vh = [c.fwd(f.samples) for f in st.Y_t]
        qh = c.fwd(st.q.samples)
        if n == 0:
            first = (yh, vh)
        vectors = {
            "yt": vh,
            "y": yh,
            "d1y": [ik1 * h for h in yh],
            "y2": [yh[1]],
            "gq": [ik1 * qh, ik2 * qh],
            "grad_y": [ik1 * yh[0], ik2 * yh[0], ik1 * yh[1], ik2 * yh[1]],
        }
        dens = np.stack([sum(np.abs(h) ** 2 for h in comps) for comps in vectors.values()])
        keys, tab = block_sq_norms(c.grid, dens)
        cols.append(tab)
    tabs = np.stack(cols, axis=-1)  # (blocks, channels, states)
    times = np.array([st.t for st in states])
    return keys, times, {name: tabs[:, i] for i, name in enumerate(vectors)}, first


def _functional(keys: tuple, times: np.ndarray, tabs: dict, s: float) -> tuple[float, dict]:
    """E_T^s and its eleven channels from the per-block tables."""

    def w(expo):
        return _weights(keys, expo)

    def clinf_sq(tab, expo):
        return chemin_lerner_norm(keys, times, tab, math.inf, expo, 2)

    parts = {
        "yt_clinf_s": clinf_sq(tabs["yt"], s),
        "yt_clinf_s1": clinf_sq(tabs["yt"], s + 1),
        "d1y_clinf_s": clinf_sq(tabs["d1y"], s),
        "y2_clinf_s1": clinf_sq(tabs["y2"], s + 1),
        "y_clinf_s2": clinf_sq(tabs["y"], s + 2),
        "yt_l2_s1": _quad_sq(tabs["yt"], w(s + 1), times),
        "yt_l2_s2": _quad_sq(tabs["yt"], w(s + 2), times),
        "d1y_l2_s1": _quad_sq(tabs["d1y"], w(s + 1), times),
        "y2_l2_s2": _quad_sq(tabs["y2"], w(s + 2), times),
        "gradq_l2_s": _quad_sq(tabs["gq"], w(s), times),
        "gradq_l1_s": _l1_sq(tabs["gq"], w(s), times),
    }
    return float(sum(parts.values())), parts


def _initial_energy_hat(c: HalfSpectrum, y0h, y1h, s: float) -> float:
    """E_0^s from the half-spectrum coefficients of Y0 and Y1: homogeneous
    weights ksq^s (zero at the mean mode), and |ik1|^2 for d1 Y0."""
    w = _homogeneous_weight(c, s)
    y0_sq = np.abs(y0h[0]) ** 2 + np.abs(y0h[1]) ** 2
    y1_sq = np.abs(y1h[0]) ** 2 + np.abs(y1h[1]) ** 2
    return c.norm_sq(w * ((1.0 + c.ksq) * y1_sq + (np.abs(c.ik1) ** 2 + c.ksq**2) * y0_sq))


def smallness_margin(states, s1: float, s2: float) -> dict:
    """Sup-in-time functionals and the bootstrap-inequality bookkeeping.

    Records the empirical counterparts of the absorption argument: the
    two-exponent functional, its data value, the four gradient norms used as
    working assumptions, and the implied constant in
    E_T <= C (E_0 + (E_0^{1/2} + E_T^{1/2} + E_T) E_T).
    """
    keys, times, tabs, (y0h, y1h) = _block_tables(states)
    script_e = _functional(keys, times, tabs, s1)[0] + _functional(keys, times, tabs, s2)[0]
    c = half_spectrum(states[0].Y[0].grid)
    e0 = _initial_energy_hat(c, y0h, y1h, s1) + _initial_energy_hat(c, y0h, y1h, s2)
    rep = {
        "script_E_T": script_e,
        "script_E_0": e0,
        "ratio_E_T_over_E_0": script_e / e0 if e0 > 0 else 0.0,
        "gradY_clinf_B1": chemin_lerner_norm(keys, times, tabs["grad_y"], math.inf, 1.0),
        "gradY_clinf_B2": chemin_lerner_norm(keys, times, tabs["grad_y"], math.inf, 2.0),
        "Y_clinf_Hs1p2": math.sqrt(chemin_lerner_norm(keys, times, tabs["y"], math.inf, s1 + 2.0, 2)),
        "Y_clinf_Hs2p2": math.sqrt(chemin_lerner_norm(keys, times, tabs["y"], math.inf, s2 + 2.0, 2)),
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


def decay_table(times: np.ndarray, table: dict) -> list[DecayRow]:
    """Fit per-block decay rates of g_{j,k} and compare with the regime law,
    from a ``linear.block_energy_series`` table over the stored ``times``.

    The fit window adapts to the block speed: samples after the first
    measurable decay and before underflow; blocks with less than one
    e-folding over the whole record fall back to the last half of samples;
    blocks whose initial g^2 is below 1e-14 are skipped.
    """
    t = np.asarray(times)
    rows: list[DecayRow] = []
    for (j, k), gsq in sorted(table.items()):
        g0 = gsq[0]
        if g0 < 1e-14:
            continue
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

