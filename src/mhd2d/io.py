"""Every file an experiment writes: flat-binary field snapshots with JSON
sidecars, CSV tables and JSON reports."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from mhd2d.grid import Grid, RealField

__all__ = ["save_field", "load_field", "save_flow_snapshot", "save_euler_snapshot", "write_rows_csv", "write_json"]


def save_field(path_base: str, field: RealField, **meta) -> None:
    """Write ``<base>.bin`` (little-endian float64, row-major) + ``<base>.json``."""
    g = field.grid
    np.ascontiguousarray(field.samples, dtype="<f8").tofile(path_base + ".bin")
    sidecar = {
        "nx": g.nx,
        "ny": g.ny,
        "lx": g.lx,
        "ly": g.ly,
        "dtype": "<f8",
        "order": "row-major (x1, x2)",
    }
    write_json(path_base + ".json", {**sidecar, **meta})


def load_field(path_base: str) -> tuple[RealField, dict]:
    with open(path_base + ".json") as fh:
        meta = json.load(fh)
    g = Grid(meta["nx"], meta["ny"], meta["lx"], meta["ly"])
    arr = np.fromfile(path_base + ".bin", dtype="<f8").reshape(g.shape)
    return RealField(g, arr.astype(float)), meta


def _save_snapshot(directory: str, prefix: str, t: float, names: tuple, fields: tuple) -> None:
    """Each field as ``<directory>/<prefix><name>``, with ``time`` and ``name`` in its sidecar."""
    os.makedirs(directory, exist_ok=True)
    for name, f in zip(names, fields, strict=True):
        save_field(os.path.join(directory, prefix + name), f, time=t, name=name)


def save_flow_snapshot(directory: str, state, prefix: str = "") -> None:
    _save_snapshot(directory, prefix, state.t, ("Y1", "Y2", "Yt1", "Yt2", "q"), (*state.Y, *state.Y_t, state.q))


def save_euler_snapshot(directory: str, state, prefix: str = "") -> None:
    _save_snapshot(directory, prefix, state.t, ("psi", "u1", "u2", "p"), (state.psi, *state.u, state.p))


def write_rows_csv(path: str, rows, header: list[str]) -> None:
    """One header line, then one line per row (a sequence in header order)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str, obj) -> None:
    """``obj`` as JSON, indent 2 and sorted keys, so equal objects give equal bytes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
