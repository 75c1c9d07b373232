"""Layer probes: public mhd2d functions timed in isolation, untraced.

Each timing is the median of several repetitions.  Step times come from the
difference between two marches of different lengths with monitors, stores
and diagnostics pushed to the ends, so their fixed costs cancel.  The
transform count per step comes from the same difference, measured once more
under the transform counter, and is exact.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import Tracer, instrument
from workloads import config_overrides

CLOCK = time.perf_counter
NEVER = 10**9  # a cadence no probe march reaches: only the end-of-run monitor and store


def median_seconds(fn, repeats: int):
    """(median seconds of ``repeats`` calls, last result)."""
    times = []
    out = None
    for _ in range(repeats):
        t0 = CLOCK()
        out = fn()
        times.append(CLOCK() - t0)
    return statistics.median(times), out


def _config(workload: str, seed: int):
    from mhd2d import cli

    experiment, overrides = config_overrides(workload, seed, outdir="unused")
    return cli.load_config(experiment, None, overrides)


def rfft_pair_us(n: int = 128, batches: int = 7, per_batch: int = 50) -> float:
    a = np.random.default_rng(0).standard_normal((n, n))

    def batch():
        for _ in range(per_batch):
            np.fft.irfft2(np.fft.rfft2(a), s=a.shape)

    batch()
    return median_seconds(batch, batches)[0] / per_batch * 1e6


def march_difference(run, n1: int, n2: int, repeats: int):
    """(ms per step, transform fields per step, result of the last, longer march)."""
    run(n1)  # pays one-off set-up such as the ETD tables for this dt
    times = {n1: [], n2: []}
    for _ in range(repeats):
        for n in (n1, n2):
            t0 = CLOCK()
            out = run(n)
            times[n].append(CLOCK() - t0)
    fields = {}
    with instrument(Tracer()) as tr:
        for n in (n1, n2):
            tr.reset()
            run(n)
            fields[n] = tr.counts["fft.fields"]
    ms = (statistics.median(times[n2]) - statistics.median(times[n1])) / (n2 - n1) * 1e3
    return ms, (fields[n2] - fields[n1]) / (n2 - n1), out


def lagrangian_probes(seed: int, final_state=None, repeats: int = 7) -> dict:
    """Step, pressure and forcing probes on the lagrangian-march inputs.

    The pressure and forcing probes act on the state one step after
    ``final_state`` (the workload's own final state when it ran the
    Lagrangian march, else the longer probe march's), warm-started from the
    pressure of ``final_state`` as inside the march.
    """
    from mhd2d import fields, lagrangian
    from mhd2d.grid import RealField

    cfg = _config("lagrangian-march", seed)
    g, rng = cfg.grid(), cfg.rng()
    fields.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude)  # Y0 draw of the recipe, unused there too
    y1 = fields.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude)
    zero = (RealField(g, np.zeros(g.shape)), RealField(g, np.zeros(g.shape)))

    def march(n):
        return lagrangian.run_lagrangian(
            zero, y1, cfg.dt, n * cfg.dt, store_every=NEVER, s2_plus_1=cfg.s2 + 1.0, monitor_every=NEVER
        )

    step_ms, step_fields, probe_run = march_difference(march, 2, 6, repeats=3)
    state = final_state if final_state is not None else probe_run.states[-1]
    nxt = lagrangian.step(state, cfg.dt)
    cold_s, (_, cold) = median_seconds(
        lambda: lagrangian.pressure_solve(nxt.Y, nxt.Y_t, check_identity=False), repeats
    )
    warm_s, (_, warm) = median_seconds(
        lambda: lagrangian.pressure_solve(nxt.Y, nxt.Y_t, q0=state.q, check_identity=False), repeats
    )
    rhs_s, _ = median_seconds(lambda: lagrangian.rhs_f(nxt.Y, nxt.Y_t, nxt.q), repeats)
    return {
        "lagrangian.step_ms": step_ms,
        "lagrangian.step_fft_fields": step_fields,
        "lagrangian.pressure_cold_ms": cold_s * 1e3,
        "lagrangian.pressure_warm_ms": warm_s * 1e3,
        "lagrangian.pressure_cold_iters": cold.iterations,
        "lagrangian.pressure_warm_iters": warm.iterations,
        "lagrangian.rhs_f_ms": rhs_s * 1e3,
    }


def euler_probes(seed: int) -> dict:
    """Step probe on the euler-march inputs."""
    from mhd2d import eulerian, fields

    cfg = _config("euler-march", seed)
    g, rng = cfg.grid(), cfg.rng()
    psi0 = fields.random_band_field(g, rng, cfg.kmin, cfg.kmax, cfg.amplitude, decay=0.5)
    u0 = fields.random_solenoidal(g, rng, cfg.kmin, cfg.kmax, 0.3 * cfg.amplitude, decay=0.5)

    def march(n):
        return eulerian.run_euler(
            psi0, u0, cfg.dt, n * cfg.dt, store_every=NEVER, monitor_every=NEVER, aux_every=NEVER
        )

    step_ms, step_fields, _ = march_difference(march, 10, 60, repeats=3)
    return {"eulerian.step_ms": step_ms, "eulerian.step_fft_fields": step_fields}


def all_probes(seed: int, final_state=None) -> dict:
    out = {"grid.rfft_pair_us": rfft_pair_us()}
    out.update(lagrangian_probes(seed, final_state))
    out.update(euler_probes(seed))
    return out

