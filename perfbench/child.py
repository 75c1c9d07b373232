"""One workload process of the mhd2d benchmark (started by run.py, one at a time).

    python3 perfbench/child.py {setup|run|trace} WORKLOAD SEED OUTDIR

``setup`` imports mhd2d and validates the config, ``run`` also makes the
``mhd2d.cli.run`` call untraced, and ``trace`` makes it traced, then runs the
layer probes.  The last line of standard output is a JSON record whose
``t_start`` is the CLOCK_MONOTONIC reading just before the experiment call,
so the parent can take set-up time from its own launch reading.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import SRC, config_overrides

sys.path.insert(0, str(SRC))

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with the parent


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def gradient_tensor_counts(tracer) -> dict:
    """Transform counts of one lagrangian.gradient_tensor call at 128^2."""
    import numpy as np
    from mhd2d import lagrangian
    from mhd2d.grid import RealField, make_grid
    from tracer import GRADIENT_TENSOR_COUNTS

    g = make_grid(128, 128, 1.0, 1.0)
    y = RealField(g, 1e-3 * np.random.default_rng(0).standard_normal(g.shape))
    tracer.reset()
    lagrangian.gradient_tensor((y, y))
    counts = {k: tracer.counts[k] for k in GRADIENT_TENSOR_COUNTS}
    tracer.reset()
    return counts


def traced_metrics(tracer, steps: int, outdir: str) -> dict:
    """Per-layer metrics of one traced experiment call."""
    st = tracer.stats()

    def rec(name, key):
        return st[name][key] if name in st else (0.0 if key.endswith("_s") else 0)

    marches = ("lagrangian.run_lagrangian", "eulerian.run_euler")
    march_fields = sum(rec(name, "fields") for name in marches)
    seed_info = tracer.last.get("initial_data.build_flow_map_initial")
    c = tracer.counts
    return {
        "grid.fft_fields_per_step": march_fields / steps if march_fields else 0.0,
        "grid.fft_fields": c["fft.fields"],
        "grid.fft_s": rec("grid.fft", "total_s"),
        "grid.fft_full_complex_fields": c["fft.full_complex_fields"],
        "grid.fft1d_lines": c["fft.lines"],
        "lagrangian.gradient_tensor_calls": rec("lagrangian.gradient_tensor", "calls"),
        "lagrangian.gradient_tensor_s": rec("lagrangian.gradient_tensor", "total_s"),
        "lagrangian.run_self_s": rec("lagrangian.run_lagrangian", "self_s"),
        "lagrangian.compose_s": rec("lagrangian.compose", "total_s"),
        "lagrangian.invert_flow_map_s": rec("lagrangian.invert_flow_map", "total_s"),
        "lagrangian.to_eulerian_s": rec("lagrangian.to_eulerian", "total_s"),
        "eulerian.run_self_s": rec("eulerian.run_euler", "self_s"),
        "eulerian.blowup_integrand_calls": rec("eulerian.blowup_integrand", "calls"),
        "eulerian.blowup_integrand_s": rec("eulerian.blowup_integrand", "total_s"),
        "eulerian.pressure_euler_s": rec("eulerian.pressure_euler", "total_s"),
        "propagators.apply2_calls": rec("propagators.apply2", "calls"),
        "propagators.apply2_s": rec("propagators.apply2", "total_s"),
        "propagators.etd_tables_s": rec("propagators.etd_tables", "total_s"),
        "propagators.expm2_calls": rec("propagators.expm2", "calls"),
        "propagators.expm2_s": rec("propagators.expm2", "total_s"),
        "linear.evolve_linear_s": rec("linear.evolve_linear", "total_s"),
        "linear.block_energy_series_calls": rec("linear.block_energy_series", "calls"),
        "linear.block_energy_series_s": rec("linear.block_energy_series", "total_s"),
        "diagnostics.decay_table_self_s": rec("diagnostics.decay_table", "self_s"),
        "diagnostics.smallness_margin_s": rec("diagnostics.smallness_margin", "total_s"),
        "lp.sobolev_norm_calls": rec("lp.sobolev_norm", "calls"),
        "lp.sobolev_norm_s": rec("lp.sobolev_norm", "total_s"),
        "lp.oversample_calls": rec("lp.oversample", "calls"),
        "lp.oversample_s": rec("lp.oversample", "total_s"),
        "lp.norms_s": tracer.total_where(
            lambda n: n.startswith("lp."), under=lambda n: n == "initial_data.smallness_report"
        ),
        "initial_data.companion_s": rec("initial_data.solve_companion_potential", "total_s"),
        "initial_data.seed_s": rec("initial_data.build_flow_map_initial", "total_s"),
        "initial_data.seed_iterations": seed_info[1].iterations if seed_info else 0,
        "initial_data.smallness_report_s": rec("initial_data.smallness_report", "total_s"),
        "interp.prefilter_s": rec("interp.prefilter", "total_s"),
        "interp.eval_calls": rec("interp.eval", "calls"),
        "interp.eval_points": c["interp.eval_points"],
        "interp.eval_s": rec("interp.eval", "total_s"),
        "fields.gen_s": tracer.total_where(lambda n: n.startswith("fields.")),
        "io.write_s": tracer.total_where(lambda n: n.startswith("io.")),
        "io.bytes_written": _bytes_under(outdir),
        "cli.run_self_s": rec("cli.run", "self_s"),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, outdir = argv[0], argv[1], int(argv[2]), argv[3]
    import mhd2d
    from mhd2d import cli

    if not os.path.abspath(mhd2d.__file__).startswith(str(SRC) + os.sep):
        raise RuntimeError(f"imported mhd2d from {mhd2d.__file__}, not from {SRC}")
    experiment, overrides = config_overrides(workload, seed, outdir)
    record: dict = {}
    if mode == "trace":
        from probes import all_probes
        from tracer import Tracer, instrument

        tracer = Tracer(keep=("lagrangian.run_lagrangian", "initial_data.build_flow_map_initial"))
        with instrument(tracer):
            record["transform_self_check"] = gradient_tensor_counts(tracer)
            cfg = cli.load_config(experiment, None, overrides)
            tracer.reset()
            t_start = CLOCK()
            cli.run(cfg)
            wall = CLOCK() - t_start
        steps = round(cfg.t_end / cfg.dt)
        metrics = traced_metrics(tracer, steps, outdir)
        lag_run = tracer.last.get("lagrangian.run_lagrangian")
        record["layer_self_s"] = tracer.layer_self_s()
        record["spans"] = len(tracer.spans)
        tracer.reset()
        metrics.update(all_probes(seed, lag_run.states[-1] if lag_run else None))
        record["metrics"] = metrics
    else:
        cfg = cli.load_config(experiment, None, overrides)
        t_start = CLOCK()
        wall = None
        if mode == "run":
            cli.run(cfg)
            wall = CLOCK() - t_start
    record.update(
        t_start=t_start,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
