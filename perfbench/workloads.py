"""Workload recipes, seeds and the output check of the mhd2d benchmark."""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESIGN = json.loads((HERE / "design.json").read_text())
WORKLOADS = DESIGN["workloads"]
REFERENCE_PATH = HERE / "reference.json"


def experiment_seed(seed: int) -> int:
    """The ExperimentConfig seed for a benchmark seed: one whose observables are recorded."""
    return seed % DESIGN["reference_seeds"]


def config_overrides(workload: str, seed: int, outdir: str) -> tuple[str, dict]:
    """(experiment name, overrides for ``mhd2d.cli.load_config``)."""
    w = WORKLOADS[workload]
    return w["experiment"], dict(w["config"], seed=experiment_seed(seed), outdir=outdir)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def observables(report: dict) -> dict:
    return {a["assertion"]: a["observed"] for a in report["assertions"]}


def _close(observed, expected) -> bool:
    tol = DESIGN["reference_tolerance"]
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return observed == expected
    if isinstance(observed, bool) or not isinstance(observed, (int, float)):
        return False
    if not (math.isfinite(observed) and math.isfinite(expected)):
        return observed == expected
    return abs(observed - expected) <= tol["rel"] * abs(expected) + tol["abs"]


def report_problems(report: dict, reference: dict | None) -> list[str]:
    """Why a run's report fails the benchmark's output check; empty when it passes.

    A run fails if the experiment's own verdict is ``pass: false``, if an
    assertion is missing or extra, or if an observed value moved beyond
    round-off from the reference recorded for its seed.
    """
    problems = []
    if report.get("pass") is not True:
        problems.append("report.json has pass != true")
    failed = [a["assertion"] for a in report.get("assertions", []) if not a.get("pass")]
    if failed:
        problems.append(f"failed assertions: {failed}")
    if reference is None:
        problems.append("no reference observables recorded for this seed")
        return problems
    seen = observables(report)
    if set(seen) != set(reference):
        problems.append(f"assertions {sorted(seen)} differ from reference {sorted(reference)}")
    for name in sorted(set(seen) & set(reference)):
        if not _close(seen[name], reference[name]):
            problems.append(f"{name}: observed {seen[name]!r}, reference {reference[name]!r}")
    return problems


def reference_for(reference: dict, workload: str, seed: int):
    return reference.get(workload, {}).get(str(experiment_seed(seed)))
