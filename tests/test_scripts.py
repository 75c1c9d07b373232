"""Tests of the scripts under scripts/: runs go in a fresh interpreter; the sweep's size table is only imported."""

import csv
import importlib.util
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from mhd2d.cli import EXPERIMENTS, ExperimentConfig
from mhd2d.diagnostics import DecayRow

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


def test_sweep_sizes_name_experiments_and_build_valid_configs(tmp_path):
    """Every SIZES entry of the sweep script names an experiment and makes a
    config that validates; nothing is run."""
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPTS / "run_all_experiments.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert set(sweep.SIZES) <= set(EXPERIMENTS)
    for name, sizes in sweep.SIZES.items():
        ExperimentConfig(experiment=name, outdir=str(tmp_path / name), **sizes)
