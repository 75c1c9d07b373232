"""Tests of the scripts under scripts/: runs go in a fresh interpreter; the sweep's size table is only imported."""

import csv
import importlib.util
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mhd2d.cli import EXPERIMENTS, ExperimentConfig
from mhd2d.diagnostics import DecayRow
from mhd2d.initial_data import ConstructionError
from mhd2d.propagators import MarchError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_decay_portrait_writes_the_decay_table(tmp_path):
    out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "decay_portrait.py"), "32", str(out)], capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in fields(DecayRow)]
    assert len(rows) > 1


def _sweep():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPTS / "run_all_experiments.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_sizes_name_experiments_and_build_valid_configs(tmp_path):
    """Every SIZES entry of the sweep script names an experiment and makes a
    config that validates; nothing is run."""
    sweep = _sweep()
    assert set(sweep.SIZES) <= set(EXPERIMENTS)
    for name, sizes in sweep.SIZES.items():
        ExperimentConfig(experiment=name, outdir=str(tmp_path / name), **sizes)


def test_sweep_reports_each_raising_experiment_and_goes_on(tmp_path, monkeypatch, capsys):
    """An experiment whose run raises is an [ERROR] line naming the exception,
    the sweep runs the rest, and it exits 1; ``run`` is replaced, so no
    experiment runs."""
    sweep = _sweep()
    names = sorted(EXPERIMENTS)
    errors = {
        names[0]: ValueError("bad config"),
        names[2]: MarchError("step 3: non-finite state"),
        names[-1]: ConstructionError("no convergence"),
    }

    def run(cfg):
        if cfg.experiment in errors:
            raise errors[cfg.experiment]
        Path(cfg.outdir).mkdir(parents=True)
        Path(cfg.outdir, "report.json").write_text('{"pass": true, "assertions": []}')
        return 0, cfg.outdir

    monkeypatch.setattr(sweep, "run", run)
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", str(tmp_path)])
    assert sweep.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["[ERROR]" if n in errors else "[PASS]", f"{n}:" if n in errors else n] for n in names
    ]
    assert lines[0] == f"[ERROR] {names[0]}: ValueError: bad config"
    assert lines[2] == f"[ERROR] {names[2]}: MarchError: step 3: non-finite state"
    assert lines[-1] == f"[ERROR] {names[-1]}: ConstructionError: no convergence"


def _compare(a, b):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "output_tree.py"), "compare", str(a), str(b)],
        capture_output=True, text=True, timeout=60,
    )


def _tree(top, files):
    for rel, data in files.items():
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_bytes(data)
    return top


def test_output_tree_compare_names_each_differing_or_missing_file(tmp_path):
    files = {"report.json": b'{"pass": true}\n', "ledgers/energy.csv": b"t,value\n0.0,1.5\n"}
    a = _tree(tmp_path / "a", files)
    equal = _compare(a, _tree(tmp_path / "b", files))
    assert (equal.returncode, equal.stdout) == (0, "2 files, byte-identical\n")

    changed = _tree(tmp_path / "c", dict(files, **{"ledgers/energy.csv": b"t,value\n0.0,1.6\n"}))
    proc = _compare(a, changed)
    assert (proc.returncode, proc.stdout) == (1, "differs: ledgers/energy.csv\n")

    missing = _tree(tmp_path / "d", {"report.json": files["report.json"]})
    proc = _compare(a, missing)
    assert (proc.returncode, proc.stdout) == (1, f"only in {a}: ledgers/energy.csv\n")


@pytest.mark.parametrize("roundoff", [False, True], ids=["bytes", "roundoff"])
def test_output_tree_compare_exits_2_when_an_argument_is_not_a_directory(tmp_path, roundoff):
    """A missing tree is a usage error (2), not a difference (1)."""
    tree = _tree(tmp_path / "a", {"report.json": b"{}\n"})
    flag = ["--roundoff"] if roundoff else []
    for a, b in ((tmp_path / "none", tree), (tree, tree / "report.json")):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "output_tree.py"), "compare", *flag, str(a), str(b)],
            capture_output=True, text=True, timeout=60,
        )
        bad = b if a == tree else a
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"{bad}: not a directory\n")


def test_output_tree_roundoff_prints_each_numeric_files_drift(tmp_path):
    """Drift of B from A per numeric file, against the reference rule
    ``|b - a| <= 1e-9 |a| + 1e-15``; exit 0 whatever it finds."""
    field = np.array([0.0, 1.0, 2.0, -3.0])
    files = {
        "x/report.json": b'{"name": "x", "pass": true, "value": 1.0}',
        "x/ledgers/energy.csv": b"t,value\n0.0,1.5\n0.5,2.5\n",
        "x/fields/f.bin": field.astype("<f8").tobytes(),
        "x/fields/f.json": b'{"nx": 2, "name": "f"}',
    }
    a = _tree(tmp_path / "a", files)
    spoiled = dict(files)
    spoiled["x/ledgers/energy.csv"] = b"t,value\n0.0,1.5\n0.5,2.5000000000025\n"  # rel 1e-12: within
    spoiled["x/fields/f.bin"] = (field + np.array([0.0, 0.0, 1e-6, 0.0])).astype("<f8").tobytes()  # beyond
    spoiled["x/fields/f.json"] = b'{"nx": 2, "name": "g"}'  # not a number
    b = _tree(tmp_path / "b", spoiled)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_tree.py"), "compare", "--roundoff", str(a), str(b)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rule, head, *rows, tail = proc.stdout.splitlines()
    assert rule.startswith("rule: |b - a| <= 1e-09 |a| + 1e-15")
    assert head.split() == ["file", "values", "max_abs", "max_rel", "within"]
    table = {row.split()[0]: row.split()[1:] for row in rows if not row.startswith("differs")}
    assert table["x/report.json"] == ["1", "0", "0", "yes"]
    values, max_abs, max_rel, within = table["x/ledgers/energy.csv"]
    assert (values, within) == ("4", "yes") and 0 < float(max_abs) < 1e-11
    assert float(max_rel) == pytest.approx(1e-12, rel=1e-2)
    values, max_abs, max_rel, within = table["x/fields/f.bin"]
    assert (values, within) == ("4", "NO") and float(max_abs) == pytest.approx(1e-6, rel=1e-3)
    assert float(max_rel) == pytest.approx(5e-7, rel=1e-3)
    assert "differs beyond its numbers: x/fields/f.json" in rows
    assert tail == "3 numeric files, 1 beyond the rule; 1 other differences"


def _phase_memory(*args, workload="initial-data"):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "phase_memory.py"), workload, "--set", "nx=32", "--set", "ny=32", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_phase_memory_prints_each_phase_of_a_32_grid_build():
    """Every named phase appears, nested under the whole run; each traced
    peak is at least its entry and exit, and ru_maxrss never falls."""
    proc = _phase_memory()
    assert proc.returncode == 0, proc.stderr
    head, *rows, last = proc.stdout.splitlines()
    assert head.split() == ["phase", "entry_MiB", "peak_MiB", "exit_MiB", "rss_before_MB", "rss_after_MB"]
    assert last == "initial-data seed 3: exit 0"
    assert rows[0].startswith("cli.run build-initial-data ")
    names = {re.split(r"\s{2,}", row.strip())[0] for row in rows}
    for phase in (
        "solve_companion_potential", "build_flow_map_initial", "seed_lagrangian_velocity", "smallness_report",
        "to_eulerian", "_gradient_interpolator", "_invert", "_newton_step", "_check_invertible", "at_displaced",
        "interp build (4 fields)", "interp call (4 fields, 1024 points)",
    ):
        assert phase in names
    for row in rows:
        entry, peak, exit_, rss0, rss1 = map(float, row.split()[-5:])
        assert peak >= max(entry, exit_) and rss1 >= rss0
        assert row.startswith("  ") == (row is not rows[0])


def test_phase_memory_untraced_prints_only_rss():
    proc = _phase_memory("--untraced")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:-1]
    assert rows and all(row.split()[-5:-2] == ["-", "-", "-"] for row in rows)


def test_phase_memory_prints_the_lagrangian_march_and_its_margin():
    """On lagrangian-march, the march, the margin report and the final
    snapshot are rows of their own under the whole run."""
    proc = _phase_memory(workload="lagrangian-march")
    assert proc.returncode == 0, proc.stderr
    head, *rows, last = proc.stdout.splitlines()
    assert last == "lagrangian-march seed 3: exit 0"
    assert rows[0].startswith("cli.run lagrangian-smalldata ")
    names = [re.split(r"\s{2,}", row.strip())[0] for row in rows[1:]]
    assert names == ["run_lagrangian", "save_flow_snapshot", "smallness_margin"]
    for row in rows:
        entry, peak, exit_, rss0, rss1 = map(float, row.split()[-5:])
        assert peak >= max(entry, exit_) and rss1 >= rss0


def test_phase_memory_prints_the_linear_theory_phases():
    """On linear-blocks, the linear evolution, its block energies and the
    decay table are rows of their own under the whole run."""
    proc = _phase_memory(workload="linear-blocks")
    assert proc.returncode == 0, proc.stderr
    head, *rows, last = proc.stdout.splitlines()
    assert last == "linear-blocks seed 3: exit 0"
    assert rows[0].startswith("cli.run block-energy ")
    names = [re.split(r"\s{2,}", row.strip())[0] for row in rows[1:]]
    assert names == ["evolve_linear", "block_energy_series", "decay_table"]
    for row in rows:
        entry, peak, exit_, rss0, rss1 = map(float, row.split()[-5:])
        assert peak >= max(entry, exit_) and rss1 >= rss0
