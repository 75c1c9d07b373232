"""Benchmark driver for mhd2d.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ``src/``.  Each
workload is one ``mhd2d.cli.run(ExperimentConfig)`` call in a fresh
interpreter, one process at a time.  Untraced (``--trace 0``), the call is
repeated until ``--seconds`` have passed, with a set-up-only launch after each
run; the end-to-end metrics are medians over those processes.  Traced
(``--trace 1``), one untraced and one traced process run, and the per-layer
metrics come from the traced one and its layer probes.  Every run's
``report.json`` is checked against ``reference.json``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import GRADIENT_TENSOR_COUNTS
from workloads import HERE, ROOT, SRC, WORKLOADS, load_reference, reference_for, report_problems

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with child.py
MIN_SETUP_SAMPLES = 6
TIME_LIMIT_S = 170.0
OUT_ROOT = ROOT / ".perfbench_out"


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, timeout: float) -> tuple[dict, dict | None]:
    """Launch one child.py process; return (its record, its report.json or None)."""
    outdir = OUT_ROOT / f"{workload}-{os.getpid()}-{mode}"
    shutil.rmtree(outdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(outdir)]
    t_launch = CLOCK()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} {workload}: no result within {timeout:.0f} s")
    try:
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} {workload}: exit {proc.returncode}\n{err[-2000:]}")
        rec = json.loads(out.strip().splitlines()[-1])
        rec["setup_s"] = rec["t_start"] - t_launch
        report = None
        if mode != "setup":
            with open(outdir / "report.json") as fh:
                report = json.load(fh)
        return rec, report
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


class Session:
    """Runs children for one workload and tallies attempts and failures."""

    def __init__(self, workload: str, seed: int, reference: dict, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.reference = reference_for(reference, workload, seed)
        self.attempted = self.failed = 0

    def remaining(self) -> float:
        return self.deadline - CLOCK()

    def attempt(self, mode: str) -> dict | None:
        """One experiment run; its record, or None when it failed."""
        self.attempted += 1
        try:
            rec, report = run_child(mode, self.workload, self.seed, self.remaining())
        except ChildFailed as exc:
            print(str(exc), file=sys.stderr)
            self.failed += 1
            return None
        problems = report_problems(report, self.reference)
        if mode == "trace" and rec["transform_self_check"] != GRADIENT_TENSOR_COUNTS:
            problems.append(f"transform counter self-check {rec['transform_self_check']} != {GRADIENT_TENSOR_COUNTS}")
        if problems:
            print(f"{mode} {self.workload} seed {self.seed}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return rec

    def setup_only(self) -> float | None:
        try:
            return run_child("setup", self.workload, self.seed, self.remaining())[0]["setup_s"]
        except ChildFailed as exc:
            print(str(exc), file=sys.stderr)
            return None


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, reference: dict) -> tuple[Session, dict]:
    """Untraced runs: end-to-end metric values."""
    s = Session(workload, seed, reference, CLOCK() + TIME_LIMIT_S)
    s.setup_only()  # warm-up: byte-compiles the package and fills the file cache
    start = CLOCK()
    runs, setups = [], []
    while True:
        t0 = CLOCK()
        rec = s.attempt("run")
        if rec is None:
            break
        runs.append(rec)
        setups += [rec["setup_s"], s.setup_only()]  # set-up samples spread over the whole run
        if CLOCK() - start >= seconds or s.remaining() < 2.0 * (CLOCK() - t0) + 15.0:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(s.setup_only())
    setups = [x for x in setups if x is not None]
    values = {
        "wall_s": _median([r["wall_s"] for r in runs]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "pass_frac": (s.attempted - s.failed) / s.attempted,
    }
    return s, values


def trace(workload: str, seed: int, reference: dict) -> tuple[Session, dict, dict | None]:
    """One untraced and one traced run: per-layer metric values and the traced record."""
    s = Session(workload, seed, reference, CLOCK() + TIME_LIMIT_S)
    plain = s.attempt("run")
    traced = s.attempt("trace") if plain is not None else None
    if traced is None:
        return s, {}, None
    values = dict(traced["metrics"])
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return s, values, traced


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def result_line(session: Session, values: dict, units: dict) -> str:
    correct = session.failed == 0 and set(values) == set(units)
    if values and set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": correct, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    )


def summary(workload: str, session: Session, values: dict) -> str:
    return (
        f"{workload} seed {session.seed}: wall_s {values['wall_s']:.3f} s, setup_s {values['setup_s']:.3f} s, "
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB, "
        f"failed_frac {session.failed / session.attempted:g} ({session.failed}/{session.attempted} runs)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mhd2d" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no mhd2d package under {SRC} or no BENCHMARK.json in {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    units = declared_metrics()
    OUT_ROOT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            for name in WORKLOADS:
                print(summary(name, *measure(name, args.seed, args.seconds, reference)), flush=True)
            return 0
        if args.trace:
            session, values, _ = trace(args.workload, args.seed, reference)
            print(result_line(session, values, units["per_layer"]))
        else:
            session, values = measure(args.workload, args.seed, args.seconds, reference)
            print(summary(args.workload, session, values))
            print(result_line(session, values, units["end_to_end"]))
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
