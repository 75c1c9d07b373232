"""Smoke tests of the scripts under scripts/: each runs in a fresh interpreter."""

import csv
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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
