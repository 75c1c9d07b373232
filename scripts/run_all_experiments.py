#!/usr/bin/env python3
"""Run every named experiment into out/<name>/ and summarize pass/fail.

An experiment that raises (bad config, a failed march or construction) is
reported as ``[ERROR] <name>: <Type>: <message>`` and the sweep goes on;
the exit code is 1 unless every experiment ran and passed."""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mhd2d.cli import EXPERIMENTS, ExperimentConfig, run
from mhd2d.initial_data import ConstructionError
from mhd2d.propagators import MarchError

# per-experiment overrides keeping the full sweep under ~10 minutes
SIZES = {
    "dispersion": {"nx": 64, "ny": 64},
    "linear-decay": {"nx": 128, "ny": 128},
    "block-energy": {"nx": 128, "ny": 128, "t_end": 20.0},
    "energy-identity": {"nx": 128, "ny": 128, "dt": 1e-3, "t_end": 2.0, "kmax": 2.0},
    "lagrangian-smalldata": {"nx": 128, "ny": 128, "dt": 0.01, "t_end": 5.0},
    "eulerian-smalldata": {"nx": 128, "ny": 128, "dt": 2e-3, "t_end": 4.0},
    "cross-validate": {"nx": 128, "ny": 128, "dt": 2e-3, "t_end": 2.0},
    "build-initial-data": {"nx": 256, "ny": 256, "amplitude": 1e-4, "shape": "bump_dx1", "width": 0.6},
    "norms-selftest": {"nx": 64, "ny": 64},
    "bony-selftest": {"nx": 64, "ny": 64},
}


def main() -> int:
    base = sys.argv[1] if len(sys.argv) > 1 else "out"
    overall = True
    for name in sorted(EXPERIMENTS):
        cfg = ExperimentConfig(experiment=name, outdir=os.path.join(base, name), **SIZES.get(name, {}))
        t0 = time.time()
        try:
            status, root = run(cfg)
        except (ValueError, MarchError, ConstructionError) as exc:
            overall = False
            print(f"[ERROR] {name}: {type(exc).__name__}: {exc}")
            continue
        with open(os.path.join(root, "report.json")) as fh:
            report = json.load(fh)
        ok = report["pass"]
        overall &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name:24s} ({time.time() - t0:5.1f}s) -> {root}")
        if not ok:
            for a in report["assertions"]:
                if not a["pass"]:
                    print(f"    failed: {a['assertion']}: observed {a['observed']}")
    return 0 if overall else 1


if __name__ == "__main__":
    raise SystemExit(main())
