"""Energy-functional bookkeeping over flow-map trajectories, sampled in the
march or stored.

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
+ ||d1 Y0||^2_{H^s} + ||Y0||^2_{H^{s+2}}.

``smallness_margin`` reads one ``MarginTables``: per channel a (blocks x
samples) table of squared block norms, and the t = 0 density of E_0.  One
kernel, ``_block_column``, makes a sample's column from the half-spectrum
coefficients of Y, Y_t and q (one product with ``lp``'s isotropic
block-weight matrix, ``lp.block_sq_norms``), with the Nyquist-zeroing
derivative symbols ``HalfSpectrum.ik1``/``ik2`` and no transform.
``run_lagrangian(margin_every=...)`` calls it on the coefficients its
stepper holds, so a march samples its margin without storing a state;
``_block_tables`` transforms each stored Y, Y_t and q once into it.  E_0 is
a Plancherel sum (``HalfSpectrum.norm_sq``) of the first sample's density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, half_spectrum
from mhd2d.io import write_rows_csv
from mhd2d.linear import eigenvalues
from mhd2d.lp import _block_weights, _homogeneous_weight, block_sq_norms, chemin_lerner_norm

__all__ = [
    "EnergyLedger",
    "smallness_margin",
    "MarginTables",
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


_CHANNELS = ("yt", "y", "d1y", "y2", "gq", "grad_y")


class MarginTables(NamedTuple):
    """The per-block tables of a flow-map trajectory (rows = isotropic blocks
    ``keys``, cols = sample ``times``) of the channels ``_CHANNELS``, and the
    weight-free E_0 density of the first sample on ``grid``'s half spectrum."""

    keys: tuple
    times: np.ndarray
    tabs: dict
    e0_density: np.ndarray
    grid: Grid


def _block_column(c: HalfSpectrum, yh, vh, qh: np.ndarray) -> np.ndarray:
    """Per-block squared L2 norms of Y_t, Y, d1 Y, Y^2, grad q and grad Y
    (``_CHANNELS``; shape blocks x channels) of one state held as
    half-spectrum coefficients; no transform."""
    ik1, ik2 = c.ik1, c.ik2
    vectors = (
        vh,
        yh,
        [ik1 * h for h in yh],
        [yh[1]],
        [ik1 * qh, ik2 * qh],
        [ik1 * yh[0], ik2 * yh[0], ik1 * yh[1], ik2 * yh[1]],
    )
    dens = np.stack([sum(np.abs(h) ** 2 for h in comps) for comps in vectors])
    return block_sq_norms(c.grid, dens)[1]


def _e0_density(c: HalfSpectrum, y0h, y1h) -> np.ndarray:
    """The per-mode density of E_0 from the coefficients of Y0 and Y1, before
    the homogeneous weight ksq^s: |ik1|^2 for d1 Y0."""
    y0_sq = np.abs(y0h[0]) ** 2 + np.abs(y0h[1]) ** 2
    y1_sq = np.abs(y1h[0]) ** 2 + np.abs(y1h[1]) ** 2
    return (1.0 + c.ksq) * y1_sq + (np.abs(c.ik1) ** 2 + c.ksq**2) * y0_sq


def _margin_tables(grid: Grid, times, columns, e0_density: np.ndarray) -> MarginTables:
    """``MarginTables`` from the sample times and one ``_block_column`` per sample."""
    keys = _block_weights(grid)[0]
    tabs = np.stack(list(columns), axis=-1)  # (blocks, channels, samples)
    tabs = {name: tabs[:, i] for i, name in enumerate(_CHANNELS)}
    return MarginTables(keys, np.asarray(times), tabs, e0_density, grid)


def _block_tables(states) -> MarginTables:
    """``MarginTables`` of a stored flow-map trajectory: each stored Y, Y_t and
    q is transformed once, one state at a time, into ``_block_column``."""
    for st in states:
        if st.q is None:
            raise ValueError("trajectory is missing the pressure channel")
    c = half_spectrum(states[0].Y[0].grid)
    cols = []
    for n, st in enumerate(states):
        yh = [c.fwd(f.samples) for f in st.Y]
        vh = [c.fwd(f.samples) for f in st.Y_t]
        if n == 0:
            e0 = _e0_density(c, yh, vh)
        cols.append(_block_column(c, yh, vh, c.fwd(st.q.samples)))
    return _margin_tables(c.grid, [st.t for st in states], cols, e0)


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


def _initial_energy(c: HalfSpectrum, e0_density: np.ndarray, s: float) -> float:
    """E_0^s: homogeneous weights ksq^s (zero at the mean mode) on ``_e0_density``."""
    return c.norm_sq(_homogeneous_weight(c, s) * e0_density)


def smallness_margin(tables: MarginTables, s1: float, s2: float) -> dict:
    """Sup-in-time functionals and the bootstrap-inequality bookkeeping, from
    the ``MarginTables`` of a trajectory (sampled in the march by
    ``run_lagrangian(margin_every=...)``, or ``_block_tables`` of stored states).

    Records the empirical counterparts of the absorption argument: the
    two-exponent functional, its data value, the four gradient norms used as
    working assumptions, and the implied constant in
    E_T <= C (E_0 + (E_0^{1/2} + E_T^{1/2} + E_T) E_T).
    """
    keys, times, tabs = tables.keys, tables.times, tables.tabs
    script_e = _functional(keys, times, tabs, s1)[0] + _functional(keys, times, tabs, s2)[0]
    c = half_spectrum(tables.grid)
    e0 = _initial_energy(c, tables.e0_density, s1) + _initial_energy(c, tables.e0_density, s2)
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

