"""Regenerate the benchmark's recorded data files.

    python3 perfbench/record.py reference   # perfbench/reference.json
    python3 perfbench/record.py trace       # perfbench/record.json

``reference`` runs every workload once per recorded seed and stores the
``observed`` value of each report assertion; the benchmark's output check
compares later runs against it.  Rerun it only when a change is meant to move
an acceptance observable.

``trace`` makes the benchmark's traced run (``--trace 1``) of every workload
at seed 0 and stores, per workload, the traced self-time share of every layer
(transforms count as ``grid``), which layers the workload loads and which it
bypasses, and the per-layer metrics including ``trace.overhead_frac``, with
the core count.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT_ROOT, TIME_LIMIT_S, run_child, trace
from workloads import DESIGN, HERE, REFERENCE_PATH, WORKLOADS, experiment_seed, load_reference, observables

LOAD_SHARE = 0.01  # a layer below this share of traced wall time counts as bypassed


def record_reference() -> None:
    out = {}
    for name in WORKLOADS:
        out[name] = {}
        for seed in range(DESIGN["reference_seeds"]):
            _, report = run_child("run", name, seed, TIME_LIMIT_S)
            if report["pass"] is not True:
                raise SystemExit(f"{name} seed {seed} fails its own assertions; choose other seeds")
            out[name][str(experiment_seed(seed))] = observables(report)
            print(name, seed, out[name][str(seed)], flush=True)
    REFERENCE_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def record_trace(seed: int = 0) -> None:
    out = {"cores": os.cpu_count(), "seed": seed, "load_share": LOAD_SHARE, "workloads": {}}
    reference = load_reference()
    for name in WORKLOADS:
        session, values, traced = trace(name, seed, reference)
        if session.failed:
            raise SystemExit(f"{name}: {session.failed} of {session.attempted} runs failed")
        shares = {layer: s / traced["wall_s"] for layer, s in traced["layer_self_s"].items()}
        out["workloads"][name] = {
            "traced_wall_s": traced["wall_s"],
            "spans": traced["spans"],
            "layer_self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "loads": sorted((layer for layer, v in shares.items() if v >= LOAD_SHARE), key=lambda k: -shares[k]),
            "bypasses": sorted(layer for layer, v in shares.items() if v < LOAD_SHARE),
            "per_layer": values,
        }
        print(name, out["workloads"][name]["loads"], flush=True)
    (HERE / "record.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    OUT_ROOT.mkdir(exist_ok=True)
    try:
        {"reference": record_reference, "trace": record_trace}[sys.argv[1]]()
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
