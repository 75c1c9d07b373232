"""Tests of the benchmark itself: span arithmetic, transform counting, the
output check and the metric declarations.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from tracer import GRADIENT_TENSOR_COUNTS, Tracer, instrument, transform_units
from workloads import DESIGN, ROOT, SRC, WORKLOADS, experiment_seed, report_problems

sys.path.insert(0, str(SRC))

from mhd2d import eulerian, lagrangian, propagators  # noqa: E402
from mhd2d.grid import RealField, make_grid  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    tr = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))

    def inner():
        return None

    def outer():
        tr.call("lp.inner", inner, (), {})  # 1.0 .. 3.0
        tr.call("lp.inner", inner, (), {})  # 4.0 .. 4.5

    tr.call("cli.outer", outer, (), {})  # 0.0 .. 10.0
    st = tr.stats()
    assert st["cli.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.5, "fields": 0}
    assert st["lp.inner"]["calls"] == 2
    assert st["lp.inner"]["total_s"] == pytest.approx(2.5)
    assert st["lp.inner"]["self_s"] == pytest.approx(2.5)
    layers = tr.layer_self_s()
    assert (layers["cli"], layers["lp"], layers["grid"]) == (7.5, pytest.approx(2.5), 0.0)
    assert tr.total_where(lambda n: n == "lp.inner", under=lambda n: n == "cli.outer") == pytest.approx(2.5)
    assert tr.total_where(lambda n: n == "lp.inner", under=lambda n: n == "nothing") == 0.0


def test_recursive_span_counted_once_in_total():
    tr = Tracer(clock=FakeClock(0.0, 2.0, 3.0, 5.0))

    def rec(depth):
        if depth:
            tr.call("x.f", rec, (depth - 1,), {})

    tr.call("x.f", rec, (1,), {})  # 0 .. 5 containing 2 .. 3
    st = tr.stats()["x.f"]
    assert st["calls"] == 2
    assert st["total_s"] == 5.0
    assert st["self_s"] == 5.0


@pytest.mark.parametrize(
    "kind, shape, args, kwargs, expected",
    [
        (2, (16, 16), (), {}, (1, 0)),
        (2, (3, 16, 16), (), {}, (3, 0)),
        (2, (4, 2, 16, 10), (), {}, (8, 0)),
        (2, (3, 16, 16), (None, (0, 1)), {}, (16, 0)),
        (1, (16, 10), (), {}, (0, 16)),
        (1, (16, 10), (), {"axis": 0}, (0, 10)),
        ("n", (16, 16), (), {}, (1, 0)),
        ("n", (5, 16, 16), (), {"axes": (-2, -1)}, (5, 0)),
        ("n", (5, 16, 16), (None, (16, 16)), {}, (5, 0)),
    ],
)
def test_transform_units(kind, shape, args, kwargs, expected):
    a = np.zeros(shape)
    assert transform_units(kind, a, (a, *args), kwargs) == expected


def test_counter_counts_fields_in_batched_stacks_at_both_entry_points():
    a = np.random.default_rng(1).standard_normal((3, 32, 32))
    original = np.fft.rfft2
    with instrument(Tracer()) as tr:
        ah = np.fft.rfft2(a)
        np.fft.irfft2(ah, s=(32, 32))
        scipy.fft.rfft2(a, workers=2)
        np.fft.fft2(a[0])
        np.fft.fft(a[0], axis=0)
    c = tr.counts
    assert c["fft.fwd_fields"] == 3 + 3 + 1
    assert c["fft.inv_fields"] == 3
    assert c["fft.fields"] == 10
    assert c["fft.full_complex_fields"] == 1
    assert c["fft.lines"] == 32
    assert tr.stats()["grid.fft"]["calls"] == 5  # no double count through numpy's own internals
    assert np.fft.rfft2 is original  # restored on exit


def test_gradient_tensor_self_check():
    """One gradient_tensor call at 128^2: two forward and four inverse fields."""
    g = make_grid(128, 128, 1.0, 1.0)
    y = RealField(g, np.random.default_rng(0).standard_normal(g.shape))
    with instrument(Tracer()) as tr:
        lagrangian.gradient_tensor((y, y))
    assert tr.counts["fft.fwd_fields"] == 2
    assert tr.counts["fft.inv_fields"] == 4
    assert {k: tr.counts[k] for k in GRADIENT_TENSOR_COUNTS} == GRADIENT_TENSOR_COUNTS
    assert tr.stats()["lagrangian.gradient_tensor"]["fields"] == 6


def test_instrument_rebinds_imported_names_and_restores_them():
    original = propagators.apply2
    assert eulerian.apply2 is original
    with instrument(Tracer()):
        assert propagators.apply2 is not original
        assert eulerian.apply2 is propagators.apply2
        assert lagrangian.apply2 is propagators.apply2
    assert propagators.apply2 is original and eulerian.apply2 is original


REPORT = {
    "experiment": "x",
    "pass": True,
    "assertions": [
        {"assertion": "residual", "observed": 2.5e-8, "expected": "<= 1e-4", "tolerance": 1e-4, "pass": True},
        {"assertion": "blocks", "observed": 8, "expected": ">= 1", "tolerance": 1, "pass": True},
        {"assertion": "tiny", "observed": 3e-18, "expected": "<= 1e-10", "tolerance": 1e-10, "pass": True},
    ],
}
REFERENCE = {"residual": 2.5e-8, "blocks": 8, "tiny": 3e-18}


def doctored(**changes):
    rep = json.loads(json.dumps(REPORT))
    for name, value in changes.items():
        if name == "pass":
            rep["pass"] = value
        else:
            next(a for a in rep["assertions"] if a["assertion"] == name)["observed"] = value
    return rep


def test_output_check_accepts_round_off():
    assert report_problems(REPORT, REFERENCE) == []
    assert report_problems(doctored(residual=2.5e-8 * (1 + 1e-13), tiny=5e-18), REFERENCE) == []


@pytest.mark.parametrize(
    "changes",
    [{"pass": False}, {"residual": 2.5e-8 * (1 + 1e-6)}, {"blocks": 9}, {"tiny": 1e-13}, {"residual": float("nan")}],
)
def test_output_check_fires_on_doctored_report(changes):
    assert report_problems(doctored(**changes), REFERENCE)


def test_output_check_fires_without_reference_or_on_missing_assertion():
    assert report_problems(REPORT, None)
    assert report_problems(REPORT, dict(REFERENCE, extra=1.0))


def test_seeds_map_onto_recorded_seeds():
    n = DESIGN["reference_seeds"]
    assert [experiment_seed(s) for s in (0, n - 1, n, -1)] == [0, n - 1, 0, n - 1]


def test_declared_metrics_match_emitted_metrics(tmp_path):
    from child import traced_metrics
    from probes import all_probes

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    emitted = set(traced_metrics(Tracer(), 1, str(tmp_path))) | set(all_probes(0)) | {"trace.overhead_frac"}
    assert emitted == declared == set(DESIGN["layer_metrics"])
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(DESIGN["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euler-march", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
