"""Experiment driver: named recipes, JSON configs, machine-readable reports.

Usage:
    mhd2d <experiment> [--config cfg.json] [--set key=value ...] [--outdir DIR]
    mhd2d list-experiments
    mhd2d schema          # print the JSON schema for config files

Each experiment writes ``report.json`` ({assertion, expected, observed,
tolerance, pass} records), CSV ledgers under ``ledgers/`` and binary field
snapshots under ``fields/`` into the output directory.  Reruns with the same
config and seed are bit-identical.  Exit status: 0 every assertion passes, 1
one fails, 2 a rejected config, data or outdir, 3 a solver or construction failure.

Every config is checked against ``CONFIG_SCHEMA`` when it is built, by a
check of the keywords that schema uses (no schema library is imported); a
bad value is rejected as ``<key> = <value>: <reason>`` in JSON Schema's
wording.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Any

import numpy as np

import mhd2d.diagnostics as diag
import mhd2d.eulerian as eul
import mhd2d.lagrangian as lag
import mhd2d.linear as lin
from mhd2d import fields as recipes
from mhd2d import io as mio
from mhd2d import lp
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid, spectral_derivative
from mhd2d.initial_data import (
    ConstructionError,
    build_flow_map_initial,
    seed_lagrangian_velocity,
    smallness_report,
    solve_companion_potential,
    InitialDatum,
)
from mhd2d.propagators import MarchError

__all__ = ["ExperimentConfig", "CONFIG_SCHEMA", "EXPERIMENTS", "run", "main"]

# the scalar bump recipes of build-initial-data, by config name
_SHAPES = {"gaussian": recipes.gaussian_bump, "bump_dx1": recipes.bump_dx1}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "mhd2d experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "nx": {"type": "integer", "minimum": 8, "multipleOf": 2},
        "ny": {"type": "integer", "minimum": 8, "multipleOf": 2},
        "lx": {"type": "number", "exclusiveMinimum": 0},
        "ly": {"type": "number", "exclusiveMinimum": 0},
        "shape": {"type": "string", "enum": list(_SHAPES)},
        "amplitude": {"type": "number"},
        "center": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "t_end": {"type": "number", "exclusiveMinimum": 0},
        "k": {"type": "integer", "minimum": 1},
        "s": {"type": "number"},
        "s1": {"type": "number"},
        "s2": {"type": "number"},
        "kmin": {"type": "number"},
        "kmax": {"type": "number"},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number", "minimum": 0}},
        "outdir": {"type": "string"},
        "seed": {"type": "integer"},
    },
}


_IS_TYPE = {
    "integer": lambda v: not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _violations(value, schema: dict, path: tuple = ()):
    """(path, value, reason) for each keyword of ``schema`` that ``value``
    breaks, in schema order, with JSON Schema's wording.  Covers the keywords
    CONFIG_SCHEMA uses; a ``false`` additionalProperties is left to the
    key checks of load_config and the dataclass."""
    number, array = _IS_TYPE["number"](value), isinstance(value, list)
    for key, arg in schema.items():
        reason = None
        if key == "type" and not _IS_TYPE[arg](value):
            reason = f"{value!r} is not of type {arg!r}"
        elif key == "minimum" and number and value < arg:
            reason = f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and number and value <= arg:
            reason = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "multipleOf" and number and value % arg:
            reason = f"{value!r} is not a multiple of {arg}"
        elif key == "enum" and value not in arg:
            reason = f"{value!r} is not one of {arg!r}"
        elif key == "minItems" and array and len(value) < arg:
            reason = f"{value!r} is too short"
        elif key == "maxItems" and array and len(value) > arg:
            reason = f"{value!r} is too long"
        elif key == "items" and array:
            for i, item in enumerate(value):
                yield from _violations(item, arg, (*path, i))
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, (*path, name))
        elif key == "additionalProperties" and isinstance(arg, dict) and isinstance(value, dict):
            for name in value:
                if name not in schema.get("properties", {}):
                    yield from _violations(value[name], arg, (*path, name))
        if reason:
            yield path, value, reason


def _check_schema(data: dict) -> None:
    """Raise ``ValueError("<key> = <value>: <reason>")`` for the violation of
    CONFIG_SCHEMA that a reference JSON Schema validator reports as its best
    match: the shallowest, of those the greatest path, then the first keyword."""
    found = max(_violations(data, CONFIG_SCHEMA), key=lambda v: (-len(v[0]), v[0]), default=None)
    if found:
        path, value, reason = found
        key = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        raise ValueError(f"{key} = {value!r}: {reason}")


# marks a field the caller left unset: __post_init__ fills in the experiment's default
_UNSET: Any = object()
# defaults of the _UNSET fields; an experiment whose own checks fail at them
# (64^2, seed 0) has its own.  A value the caller sets always wins.
_DEFAULTS = {"shape": "gaussian", "amplitude": 1e-3, "dt": 0.01, "t_end": 2.0}
_EXPERIMENT_DEFAULTS = {
    "linear-decay": {"t_end": 20.0},  # slow-branch tail rates settle only by t ~ 20
    "energy-identity": {"dt": 2e-3},  # balance residual 5.4e-6 at dt = 0.01
    "eulerian-smalldata": {"t_end": 4.0},  # halving ratio 0.91 at t_end = 2
    "build-initial-data": {"shape": "bump_dx1", "amplitude": 1e-4},  # no gaussian passes the psi round trip
}


@dataclass
class ExperimentConfig:
    experiment: str
    nx: int = 64
    ny: int = 64
    lx: float = 2.0 * math.pi
    ly: float = 2.0 * math.pi
    shape: str = _UNSET
    amplitude: float = _UNSET
    center: tuple[float, float] | None = None
    width: float = 0.5
    dt: float = _UNSET
    t_end: float | None = _UNSET  # None also means the default
    k: int = 4
    s: float = 2.0
    s1: float = 1.5
    s2: float = -0.75
    kmin: float = 1.0
    kmax: float = 4.0
    tolerances: dict = field(default_factory=dict)
    outdir: str = "mhd2d_out"
    seed: int = 0

    def __post_init__(self) -> None:
        for key, value in {**_DEFAULTS, **_EXPERIMENT_DEFAULTS.get(self.experiment, {})}.items():
            if getattr(self, key) is _UNSET or (key == "t_end" and self.t_end is None):
                setattr(self, key, value)
        data = {key: value for key, value in vars(self).items() if key not in ("experiment", "center")}
        if self.center is not None:
            data["center"] = list(self.center)
        _check_schema(data)
        for key, value in [*data.items(), *((f"tolerances.{k}", v) for k, v in self.tolerances.items())]:
            if not all(math.isfinite(v) for v in (value if key == "center" else [value]) if isinstance(v, float)):
                raise ValueError(f"{key} = {value!r}: not a finite number")
        allowed = sorted(_TOLERANCES.get(self.experiment, {}))
        unknown = sorted(set(self.tolerances) - set(allowed))
        if unknown:
            raise ValueError(f"unknown tolerances {unknown} for {self.experiment!r}; allowed: {allowed}")
        if self.experiment in _THEOREM_FUNCTIONAL_EXPERIMENTS:
            if not self.s1 > 1.0:
                raise ValueError(f"s1 = {self.s1!r}: must exceed 1 for flow-map functionals")
            if not (-1.0 < self.s2 < -0.5):
                raise ValueError(f"s2 = {self.s2!r}: must lie in (-1, -1/2) for flow-map functionals")

    def grid(self):
        return make_grid(self.nx, self.ny, self.lx, self.ly)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, _TOLERANCES[self.experiment][name]))


# the tolerances each experiment reads, with defaults; a config may override only these
_TOLERANCES = {
    "dispersion": {"vieta": 1e-12, "mode_ode": 1e-10, "rate_fit": 1e-3},
    "linear-decay": {"monotone": 1e-10, "rate_fit": 1e-2},
    "energy-identity": {"balance": 1e-6},
    "lagrangian-smalldata": {"det": 1e-4, "constraint": 1e-4},
    "eulerian-smalldata": {"div": 1e-10, "cauchy": 0.9},
    "cross-validate": {"equivalence": 5e-3},
    "build-initial-data": {"det_u0": 1e-6, "app_grad": 1e-2, "roundtrip": 1e-4,
                           "roundtrip_psi": 1e-3, "roundtrip_div": 1e-4},
    "bony-selftest": {"bony": 1e-10},
}

_THEOREM_FUNCTIONAL_EXPERIMENTS = {"lagrangian-smalldata", "cross-validate", "build-initial-data"}


def _assert_rec(name: str, expected, observed, tolerance, ok: bool) -> dict:
    return {
        "assertion": name,
        "expected": expected,
        "observed": observed,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def _bounded(name: str, observed: float, bound: float) -> dict:
    return _assert_rec(name, f"<= {bound:g}", float(observed), bound, observed <= bound)


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------


def _exp_dispersion(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g = cfg.grid()
    # one pass over the full lattice in FFT order: the eigenvalue table and the Vieta residual
    # (rounded: fftfreq(n, 1/n) misses the integers by round-off for some n, e.g. 98)
    xi1 = 2.0 * math.pi / g.lx * np.fft.fftfreq(g.nx, 1.0 / g.nx).round()
    xi2 = 2.0 * math.pi / g.ly * np.fft.fftfreq(g.ny, 1.0 / g.ny).round()
    rows, vieta = [], 0.0
    for x1 in map(float, xi1):
        for x2 in map(float, xi2):
            if x1 == 0 and x2 == 0:
                continue
            e = lin.eigenvalues((x1, x2))
            lam_p, lam_m = e.lambda_plus, e.lambda_minus
            rows.append((x1, x2, lam_p.real, lam_p.imag, lam_m.real, lam_m.imag, lin.regime((x1, x2))))
            ksq = x1 * x1 + x2 * x2
            vieta = max(
                vieta,
                abs(lam_p + lam_m + ksq) / max(1.0, ksq),
                abs(lam_p * lam_m - x1 * x1) / max(1.0, x1 * x1),
            )
    header = ["xi1", "xi2", "lambda_plus_re", "lambda_plus_im", "lambda_minus_re", "lambda_minus_im", "regime"]
    mio.write_rows_csv(os.path.join(out["ledgers"], "eigenvalues.csv"), rows, header)
    recs = [_bounded("vieta_identities_relative", vieta, cfg.tol("vieta"))]
    lam_dev = 0.0
    for n in range(4, min(33, g.nx // 2)):
        lam = lin.eigenvalues((float(n), 0.0)).lambda_minus.real
        lam_dev = max(lam_dev, abs(lam + 1.0) * n * n / 2.0)
    recs.append(_bounded("lambda_minus_asymptote_scaled", lam_dev, 1.0))

    rng = cfg.rng()
    dev = 0.0
    for _ in range(12):
        m = int(rng.integers(-g.nx // 2 + 1, g.nx // 2))
        n = int(rng.integers(-g.ny // 2 + 1, g.ny // 2))
        if m == 0 and n == 0:
            m = 1
        xi = (2.0 * math.pi * m / g.lx, 2.0 * math.pi * n / g.ly)
        y0, y1v = complex(rng.standard_normal(), rng.standard_normal()), complex(rng.standard_normal(), rng.standard_normal())
        for t in (0.3, 1.7):
            y, v = lin.mode_solution(xi, y0, y1v, t)
            ode = _mode_ode_oracle(xi, y0, y1v, t)
            dev = max(dev, abs(y - ode[0]), abs(v - ode[1]))
    recs.append(_bounded("mode_solution_vs_ode_oracle", dev, cfg.tol("mode_ode")))
    # fitted tail rates against the analytic slow/fast eigenvalues
    fit_rows = []
    fit_dev = 0.0
    for m, n, branch in ((1, 2, "slow"), (4, 0, "slow"), (0, 3, "fast")):
        e = lin.eigenvalues((float(m), float(n)))
        lam = e.lambda_plus if branch == "fast" else e.lambda_minus
        y0f = recipes.mode_field(g, m, n, 1.0)
        v0f = recipes.mode_field(g, m, n, lam) if branch == "fast" else RealField.zeros(g)
        zero = RealField.zeros(g)
        traj = lin.evolve_linear((y0f, zero), (v0f, zero), np.linspace(0.0, 8.0, 60))
        fit = lin.measured_decay_rate(traj, (m, n))
        analytic = lam.real
        fit_rows.append((m, n, fit.rate, analytic))
        fit_dev = max(fit_dev, abs(fit.rate - analytic) / max(1.0, abs(analytic)))
    mio.write_rows_csv(
        os.path.join(out["ledgers"], "fitted_rates.csv"), fit_rows, ["xi1", "xi2", "fitted", "analytic"]
    )
    recs.append(_bounded("fitted_vs_analytic_rate", fit_dev, cfg.tol("rate_fit")))
    return recs


def _mode_ode_oracle(xi, y0, y1v, t):
    from scipy.integrate import solve_ivp

    x1, _ = xi
    ksq = xi[0] ** 2 + xi[1] ** 2

    def rhs(_t, z):
        return [z[2], z[3], -x1 * x1 * z[0] - ksq * z[2], -x1 * x1 * z[1] - ksq * z[3]]

    sol = solve_ivp(rhs, (0.0, t), [y0.real, y0.imag, y1v.real, y1v.imag], rtol=1e-12, atol=1e-13, method="DOP853")
    z = sol.y[:, -1]
    return complex(z[0], z[1]), complex(z[2], z[3])


def _linear_data(cfg: ExperimentConfig):
    g = cfg.grid()
    rng = cfg.rng()
    y0 = recipes.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude)
    y1 = recipes.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude)
    return g, y0, y1


def _linear_trajectory(cfg: ExperimentConfig):
    g = cfg.grid()
    rng = cfg.rng()
    y0 = (
        recipes.random_band_field(g, rng, 1.0, g.nx / 3.0, cfg.amplitude),
        recipes.random_band_field(g, rng, 1.0, g.nx / 3.0, cfg.amplitude),
    )
    y1 = (
        recipes.random_band_field(g, rng, 1.0, g.nx / 3.0, cfg.amplitude),
        recipes.random_band_field(g, rng, 1.0, g.nx / 3.0, cfg.amplitude),
    )
    times = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, cfg.t_end, 120)]))
    return g, lin.evolve_linear(y0, y1, times)


def _exp_linear_decay(cfg: ExperimentConfig, out: dict) -> list[dict]:
    """Zero-forcing run: monotone block energies and per-mode tail rates."""
    g, traj = _linear_trajectory(cfg)
    table = lin.block_energy_series(traj)
    worst = 0.0
    for series in table.values():
        if series[0] <= 0:
            continue
        worst = max(worst, float(np.max(np.diff(series) / np.maximum(series[:-1], 1e-300))))
    recs = [_bounded("block_energy_monotone_growth", worst, cfg.tol("monotone"))]
    rate_dev = 0.0
    rate_rows = []
    # distinct-real-root modes: clean exponential tails for the fit
    for m, n in ((2, 2), (2, 3), (5, 0), (0, 4)):
        fit = lin.measured_decay_rate(traj, (m, n))
        e = lin.eigenvalues((float(m), float(n)))
        analytic = max(e.lambda_plus.real, e.lambda_minus.real)
        rate_rows.append((m, n, fit.rate, analytic))
        rate_dev = max(rate_dev, abs(fit.rate - analytic) / max(1.0, abs(analytic)))
    mio.write_rows_csv(
        os.path.join(out["ledgers"], "mode_rates.csv"), rate_rows, ["xi1", "xi2", "fitted", "analytic"]
    )
    recs.append(_bounded("tail_rate_vs_slow_eigenvalue", rate_dev, cfg.tol("rate_fit")))
    return recs


def _exp_block_energy(cfg: ExperimentConfig, out: dict) -> list[dict]:
    """Regime-resolved g_{j,k} tables with fitted dyadic rate constants."""
    g, traj = _linear_trajectory(cfg)
    table = lin.block_energy_series(traj)
    series = ((float(t), j, k, float(v)) for (j, k), row in sorted(table.items()) for t, v in zip(traj.times, row))
    mio.write_rows_csv(os.path.join(out["ledgers"], "block_energy.csv"), series, ["t", "j", "k", "g_sq"])
    rows = diag.decay_table(traj.times, table)
    header = [f.name for f in fields(diag.DecayRow)]
    mio.write_rows_csv(os.path.join(out["ledgers"], "decay_table.csv"), map(astuple, rows), header)
    c_min = min((r.rate_constant for r in rows), default=0.0)
    low = [r for r in rows if r.regime == "low"]
    high = [r for r in rows if r.regime == "high"]
    return [
        _assert_rec("regime_rate_constant_positive", "> 0", c_min, 0.0, c_min > 0.0),
        _assert_rec("low_regime_blocks_present", ">= 1", len(low), 1, len(low) >= 1),
        _assert_rec("high_regime_blocks_present", ">= 1", len(high), 1, len(high) >= 1),
    ]


def _euler_data(cfg: ExperimentConfig):
    g = cfg.grid()
    rng = cfg.rng()
    psi0 = recipes.random_band_field(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude, decay=0.5)
    u0 = recipes.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, 0.3 * cfg.amplitude, decay=0.5)
    return g, psi0, u0


def _exp_energy_identity(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g, psi0, u0 = _euler_data(cfg)
    run = eul.run_euler(psi0, u0, cfg.dt, cfg.t_end)
    ledger = diag.EnergyLedger(run.times)
    ledger.add("energy", run.energy)
    ledger.add("dissipation", run.dissipation)
    ledger.to_csv(os.path.join(out["ledgers"], "energy.csv"))
    res = run.balance_residual_per_time()
    e0 = run.energy[0]
    recs = [_bounded("energy_balance_residual_per_time_over_E0", res / e0, cfg.tol("balance"))]
    run2 = eul.run_euler(psi0, u0, cfg.dt / 2.0, cfg.t_end)
    res2 = run2.balance_residual_per_time()
    ratio = res / max(res2, 1e-300)
    recs.append(_assert_rec("residual_drop_under_dt_halving", ">= 3.5", ratio, 3.5, ratio >= 3.5))
    return recs


def _exp_lagrangian_smalldata(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g, y0, y1 = _linear_data(cfg)
    zero = (RealField.zeros(g), RealField.zeros(g))
    n_steps = int(round(cfg.t_end / cfg.dt))
    run = lag.run_lagrangian(
        zero, y1, cfg.dt, cfg.t_end, store_every=n_steps, s2_plus_1=cfg.s2 + 1.0, margin_every=max(1, n_steps // 8)
    )
    ledger = diag.EnergyLedger(run.monitor_times)
    for name in (
        "det_err", "constraint_err", "grad_inf", "energy", "dissipation", "d1y_hs_sq", "d2y_hs_sq", "grad_yt_inf"
    ):
        ledger.add(name, getattr(run, name))
    ledger.to_csv(os.path.join(out["ledgers"], "monitors.csv"))
    mio.save_flow_snapshot(out["fields"], run.states[-1], prefix="final_")
    recs = [
        _bounded("max_abs_det_minus_one", float(np.max(run.det_err)), cfg.tol("det")),
        _bounded("max_constraint_residual_l2", float(np.max(run.constraint_err)), cfg.tol("constraint")),
        _bounded("max_grad_inf", float(np.max(run.grad_inf)), 0.5),
    ]
    margins = diag.smallness_margin(run.margin, cfg.s1, cfg.s2)
    # the a priori estimate: ||grad Y_t||_inf integrated in time, and the share of its late half
    yt_l1 = run.running_integral("grad_yt_inf")
    total = float(yt_l1[-1])
    late = total - float(np.interp(0.5 * run.monitor_times[-1], run.monitor_times, yt_l1))
    margins["Yt_L1_Lip"] = total
    margins["Yt_L1_Lip_late_half_fraction"] = late / total if total > 0 else 0.0
    mio.write_json(os.path.join(out["root"], "smallness_margin.json"), margins)
    recs.append(
        _assert_rec("script_E_finite", "finite", margins["script_E_T"], None, math.isfinite(margins["script_E_T"]))
    )
    return recs


def _exp_eulerian_smalldata(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g, psi0, u0 = _euler_data(cfg)
    run = eul.run_euler(psi0, u0, cfg.dt, cfg.t_end)
    ledger = diag.EnergyLedger(run.aux_times)
    ledger.add("div_u_linf", run.div_u_linf)
    ledger.add("blowup_integrand", run.blowup)
    ledger.to_csv(os.path.join(out["ledgers"], "eulerian_monitors.csv"))
    mio.save_euler_snapshot(out["fields"], run.states[-1], prefix="final_")
    integral = run.running_blowup_integral()
    half = np.searchsorted(run.aux_times, 0.5 * run.aux_times[-1])
    # convergence of the continuation integral: later halves contribute
    # strictly less (the grad-u part decays; frozen psi modes leave an
    # amplitude^2 floor, so the ratio tends to but stays below 1)
    increment = (integral[-1] - integral[half]) / max(integral[half], 1e-300)
    recs = [
        _bounded("div_u_linf_max", float(np.max(run.div_u_linf)), cfg.tol("div")),
        _bounded("blowup_integral_halving_ratio", float(increment), cfg.tol("cauchy")),
        _bounded("energy_nonincreasing_growth", float(np.max(np.diff(run.energy))), 1e-12),
    ]
    return recs


def _exp_cross_validate(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g, _, u0 = _euler_data(cfg)
    psi0 = RealField.zeros(g)
    zero = (RealField.zeros(g), RealField.zeros(g))
    erun = eul.run_euler(psi0, u0, cfg.dt, cfg.t_end)
    lrun = lag.run_lagrangian(zero, u0, cfg.dt, cfg.t_end, store_every=10**9, s2_plus_1=cfg.s2 + 1.0)
    est = erun.states[-1]
    lst, _, _ = lag.to_eulerian(lrun.states[-1])
    num = math.sqrt(
        l2_norm(RealField(g, lst.psi.samples - est.psi.samples)) ** 2
        + l2_norm(RealField(g, lst.u[0].samples - est.u[0].samples)) ** 2
        + l2_norm(RealField(g, lst.u[1].samples - est.u[1].samples)) ** 2
    )
    den = math.sqrt(l2_norm(est.psi) ** 2 + l2_norm(est.u[0]) ** 2 + l2_norm(est.u[1]) ** 2)
    rel = num / den
    mio.save_euler_snapshot(out["fields"], est, prefix="euler_")
    mio.save_euler_snapshot(out["fields"], lst, prefix="lagr_")
    return [_bounded("formulation_equivalence_rel_l2", rel, cfg.tol("equivalence"))]


def _exp_build_initial_data(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g = cfg.grid()

    # psi0 and u0 are deterministic in cfg; they are rebuilt after the round
    # trip rather than held through it
    def make_psi0() -> RealField:
        return _SHAPES[cfg.shape](g, cfg.amplitude, cfg.center, cfg.width)

    def make_u0() -> tuple[RealField, RealField]:
        return recipes.random_solenoidal(g, cfg.rng(), cfg.kmin, cfg.kmax, cfg.amplitude)

    psi0 = make_psi0()
    psitilde0, cinfo = solve_companion_potential(psi0, tol=cfg.tol("det_u0"))
    Y0, finfo = build_flow_map_initial(psi0, psitilde0)
    u0 = make_u0()
    Y1, div_res = seed_lagrangian_velocity(u0, Y0)
    datum = InitialDatum(psi0, psitilde0, u0, Y0, Y1)
    rep = smallness_report(datum, cfg.k, cfg.s, cfg.s1, cfg.s2)
    rep["companion_wake_max"] = cinfo.wake_max
    rep["seed_iterations"] = finfo.iterations
    rep["seed_gradient_residual_linf"] = max(finfo.gradient_residuals_linf)
    rep["Y1_transported_divergence_l2"] = div_res
    mio.write_json(os.path.join(out["root"], "smallness_report.json"), rep)
    for name, f in (("psi0", psi0), ("psitilde0", psitilde0), ("Y0_1", Y0[0]), ("Y0_2", Y0[1])):
        mio.save_field(os.path.join(out["fields"], name), f, name=name)
    del psi0, psitilde0, u0, datum  # nothing reads them during to_eulerian
    recs = [
        _bounded("companion_det_residual", cinfo.det_residual_max, cfg.tol("det_u0")),
        _assert_rec("seed_iterations", "<= 30", finfo.iterations, 30, finfo.iterations <= 30),
        _bounded("seed_gradient_residual_linf", max(finfo.gradient_residuals_linf), cfg.tol("app_grad")),
    ]
    # round trip: t = 0 flow-map state back to Eulerian variables
    est, psitilde_est, rinfo = lag.to_eulerian(lag.FlowMapState(Y0, Y1, RealField.zeros(g), 0.0))
    del Y0, Y1, psitilde_est
    u0 = make_u0()
    u_err = max(
        float(np.max(np.abs(est.u[0].samples - u0[0].samples))),
        float(np.max(np.abs(est.u[1].samples - u0[1].samples))),
    ) / max(float(np.max(np.abs(u0[0].samples))), 1e-300)
    del u0
    psi0 = make_psi0()
    psi_ref = psi0.samples - psi0.samples.mean()
    psi_err = float(np.max(np.abs(est.psi.samples - psi_ref))) / max(float(np.max(np.abs(psi_ref))), 1e-300)
    del psi0, psi_ref
    mio.save_euler_snapshot(out["fields"], est, prefix="roundtrip_")
    recs.append(_bounded("roundtrip_u_rel_sup", u_err, cfg.tol("roundtrip")))
    recs.append(_bounded("roundtrip_psi_rel_sup", psi_err, cfg.tol("roundtrip_psi")))
    recs.append(_bounded("roundtrip_div_u_l2", rinfo["div_u_l2"], cfg.tol("roundtrip_div")))
    return recs


def _exp_norms_selftest(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g = cfg.grid()
    rng = cfg.rng()
    cut = lp.make_cutoffs()
    taus = np.geomspace(2.0 * math.pi / max(g.lx, g.ly), float(np.max(np.abs(half_spectrum(g).k1))) * 1.4, 400)
    j0, j1 = lp.resolved_range(g, "iso")
    part = np.zeros_like(taus)
    for j in range(j0, j1 + 1):
        part += cut.phi(taus * 2.0 ** (-j))
    recs = [_bounded("partition_of_unity_residual", float(np.max(np.abs(part - 1.0))), 1e-12)]
    f = recipes.random_band_field(g, rng, 1.0, g.nx / 4.0)
    h1 = lp.sobolev_norm(f, 1.0)
    gr = math.sqrt(
        l2_norm(spectral_derivative(f, 1)) ** 2 + l2_norm(spectral_derivative(f, 2)) ** 2
    )
    recs.append(_bounded("h1_vs_gradient_l2", abs(h1 - gr) / gr, 1e-10))
    worst = 0.0
    for k in range(0, 4):
        blk = lp.block_h(f, k)
        lhs = l2_norm(spectral_derivative(blk, 1))
        rhs = (8.0 / 3.0) * 2.0**k * l2_norm(blk)
        if lhs > rhs * (1 + 1e-12):
            worst = max(worst, lhs / rhs - 1.0)
    recs.append(_bounded("bernstein_violation", worst, 0.0))
    records = [
        {"kind": "sobolev_hom", "exponents": {"s": 1.0}, "value": float(h1)},
        {"kind": "besov", "exponents": {"s": 0.5}, "p": 2, "r": 1, "value": float(lp.besov_norm(f, 0.5))},
        {"kind": "aniso", "exponents": {"s1": 0.25, "s2": 0.25}, "value": float(lp.aniso_norm(f, 0.25, 0.25))},
    ]
    mio.write_json(os.path.join(out["root"], "norms.json"), records)
    return recs


def _exp_bony_selftest(cfg: ExperimentConfig, out: dict) -> list[dict]:
    g = cfg.grid()
    c = half_spectrum(g)
    rng = cfg.rng()
    recs = []
    for direction in ("iso", "horizontal"):
        worst = 0.0
        for _ in range(5):
            a = recipes.random_band_field(g, rng, 0.0 if direction == "iso" else 1.0, g.nx / 4.0)
            b = recipes.random_band_field(g, rng, 0.0, g.nx / 4.0)
            t, tb, r = lp.bony_decompose(a, b, direction)
            prod = RealField(g, c.inv(c.dh(a.samples * b.samples)))
            err = l2_norm(RealField(g, t.samples + tb.samples + r.samples - prod.samples))
            worst = max(worst, err / max(l2_norm(prod), 1e-300))
        recs.append(_bounded(f"bony_reconstruction_{direction}", worst, cfg.tol("bony")))
    worst = 0.0
    a = recipes.random_band_field(g, rng, 1.0, g.nx / 4.0)
    b = recipes.random_band_field(g, rng, 1.0, g.nx / 4.0)
    for j in range(0, 3):
        piece = RealField(g, lp.low_pass(a, j - 1).samples * lp.block_iso(b, j).samples)
        for k in range(j + 5, j + 7):
            worst = max(worst, l2_norm(lp.block_iso(piece, k)))
    recs.append(_bounded("paraproduct_block_support", worst, 1e-12))
    return recs


EXPERIMENTS = {
    "dispersion": _exp_dispersion,
    "linear-decay": _exp_linear_decay,
    "block-energy": _exp_block_energy,
    "energy-identity": _exp_energy_identity,
    "lagrangian-smalldata": _exp_lagrangian_smalldata,
    "eulerian-smalldata": _exp_eulerian_smalldata,
    "cross-validate": _exp_cross_validate,
    "build-initial-data": _exp_build_initial_data,
    "norms-selftest": _exp_norms_selftest,
    "bony-selftest": _exp_bony_selftest,
}


def list_experiments() -> str:
    return "\n".join(sorted(EXPERIMENTS))


def run(cfg: ExperimentConfig) -> tuple[int, str]:
    """Execute one experiment; returns (exit status, artifact directory)."""
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {cfg.experiment!r}; available:\n{list_experiments()}"
        )
    root = cfg.outdir
    out = {
        "root": root,
        "fields": os.path.join(root, "fields"),
        "ledgers": os.path.join(root, "ledgers"),
    }
    made = [d for d in out.values() if not os.path.isdir(d)]
    try:
        for d in made:
            os.makedirs(d)
    except OSError as exc:
        raise ValueError(f"outdir = {root!r}: {exc.strerror}") from exc
    try:
        assertions = EXPERIMENTS[cfg.experiment](cfg, out)
    except BaseException:
        # a run that fails leaves no empty output tree behind
        for d in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(d)
        raise
    ok = all(a["pass"] for a in assertions)
    report = {
        "experiment": cfg.experiment,
        "config": _config_dict(cfg),
        "assertions": assertions,
        "pass": ok,
    }
    mio.write_json(os.path.join(root, "report.json"), report)
    return (0 if ok else 1), root


def _config_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d.pop("outdir", None)  # environment detail; keeps reruns bit-identical
    return d


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def load_config(experiment: str, config_path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if config_path:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"config file {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {config_path}: a JSON object is needed, not {type(data).__name__}")
    data.update(overrides)
    unknown = sorted(set(data) - set(CONFIG_SCHEMA["properties"]))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {sorted(CONFIG_SCHEMA['properties'])}")
    if "center" in data and data["center"] is not None:
        data["center"] = tuple(data["center"])
    return ExperimentConfig(experiment=experiment, **data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mhd2d", description=__doc__)
    parser.add_argument("experiment", help="experiment name, 'list-experiments', or 'schema'")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--outdir", default=None)
    args = parser.parse_args(argv)
    if args.experiment == "list-experiments":
        print(list_experiments())
        return 0
    if args.experiment == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return 0
    overrides = _parse_set(args.set)
    if args.outdir is not None:
        overrides["outdir"] = args.outdir
    try:
        cfg = load_config(args.experiment, args.config, overrides)
        status, root = run(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (MarchError, ConstructionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"report: {os.path.join(root, 'report.json')}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
