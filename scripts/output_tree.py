#!/usr/bin/env python3
"""Write the output tree of this checkout, or compare two trees byte for byte.

    python scripts/output_tree.py write DIR
    python scripts/output_tree.py compare A B
    python scripts/output_tree.py compare --roundoff A B

``write`` runs the four benchmark workloads at seed 3, with the configs of
``perfbench/workloads.py``, and every experiment of ``mhd2d.cli.EXPERIMENTS``
at 32 x 32 (``build-initial-data`` at 128 x 128, width 0.6), each into
DIR/<name>/ through ``cli.load_config`` and ``cli.run`` of this checkout.

``compare`` names each file that is in only one tree and each file whose
bytes differ, and exits 0 only when there is none, 1 when there is, and 2
when an argument is not a directory.

``compare --roundoff`` prints, for each numeric file in both trees (JSON
numbers, CSV values and ``.bin`` float64 fields), the number of values and
the largest absolute drift |b - a| and relative drift |b - a| / |a| of B
from A, and whether every value keeps the benchmark's reference rule
``|b - a| <= rel |a| + abs`` (``perfbench/design.json``: rel 1e-9, abs
1e-15).  A file whose non-numeric content or shape differs, or that is in
one tree only, is named instead.  It reports and gates nothing: it exits 0
(2, as ``compare`` does, when an argument is not a directory).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 3
EXPERIMENT_SIZES = {"nx": 32, "ny": 32}
OVERRIDES = {"build-initial-data": {"nx": 128, "ny": 128, "width": 0.6}}


def write(base: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from mhd2d import cli

    runs = [workloads.config_overrides(w, WORKLOAD_SEED, os.path.join(base, w)) for w in workloads.WORKLOADS]
    runs += [
        (name, dict(EXPERIMENT_SIZES, **OVERRIDES.get(name, {}), outdir=os.path.join(base, name)))
        for name in sorted(cli.EXPERIMENTS)
    ]
    for name, overrides in runs:
        status, root = cli.run(cli.load_config(name, None, overrides))
        print(f"{name}: exit {status} -> {root}")
    return 0


def _files(top: str) -> set[str]:
    if not os.path.isdir(top):
        print(f"{top}: not a directory", file=sys.stderr)
        raise SystemExit(2)
    return {p.relative_to(top).as_posix() for p in Path(top).rglob("*") if p.is_file()}


def compare(a: str, b: str) -> int:
    fa, fb = _files(a), _files(b)
    problems = [f"only in {a}: {p}" for p in sorted(fa - fb)] + [f"only in {b}: {p}" for p in sorted(fb - fa)]
    problems += [f"differs: {p}" for p in sorted(fa & fb) if Path(a, p).read_bytes() != Path(b, p).read_bytes()]
    print("\n".join(problems) if problems else f"{len(fa)} files, byte-identical")
    return 1 if problems else 0


class ShapeDiffers(ValueError):
    """The two files differ in something other than numeric values."""


def _json_pairs(a, b):
    """The (a, b) number pairs of two JSON values of one shape."""
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) and not isinstance(a, bool) and not isinstance(b, bool):
        yield float(a), float(b)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _json_pairs(a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _json_pairs(x, y)
    elif a != b or type(a) is not type(b):
        raise ShapeDiffers


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_pairs(a: str, b: str):
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise ShapeDiffers
    for ra, rb in zip(rows_a, rows_b):
        for x, y in zip(ra, rb):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                if x != y:
                    raise ShapeDiffers
            else:
                yield fx, fy


def _values(path_a: Path, path_b: Path) -> tuple[np.ndarray, np.ndarray]:
    """The numeric values of two files of one kind, paired, as two arrays."""
    if path_a.suffix == ".bin":
        va, vb = np.fromfile(path_a, dtype="<f8"), np.fromfile(path_b, dtype="<f8")
        if va.shape != vb.shape:
            raise ShapeDiffers
        return va, vb
    if path_a.suffix == ".json":
        pairs = list(_json_pairs(json.loads(path_a.read_text()), json.loads(path_b.read_text())))
    else:
        pairs = list(_csv_pairs(path_a.read_text(), path_b.read_text()))
    return np.array([p[0] for p in pairs], dtype=float), np.array([p[1] for p in pairs], dtype=float)


def _drift(va: np.ndarray, vb: np.ndarray, rel: float, abs_: float) -> tuple[float, float, bool]:
    """(largest |b - a|, largest |b - a| / |a|, every value within the rule).
    Equal values, non-finite ones included, drift 0; any other pair with a
    non-finite value drifts inf and breaks the rule."""
    same = (va == vb) | (np.isnan(va) & np.isnan(vb))
    with np.errstate(all="ignore"):
        d = np.where(same, 0.0, np.abs(vb - va))
        d[np.isnan(d)] = math.inf
        r = np.where(same, 0.0, d / np.abs(va))
        r[np.isnan(r)] = math.inf
        within = bool(np.all(same | (np.isfinite(va) & (d <= rel * np.abs(va) + abs_))))
    return float(d.max(initial=0.0)), float(r.max(initial=0.0)), within


def compare_roundoff(a: str, b: str) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    tol = workloads.DESIGN["reference_tolerance"]
    fa, fb = _files(a), _files(b)
    lines = [f"only in {a}: {p}" for p in sorted(fa - fb)] + [f"only in {b}: {p}" for p in sorted(fb - fa)]
    rows, beyond = [], 0
    for p in sorted(fa & fb):
        pa, pb = Path(a, p), Path(b, p)
        if pa.suffix not in (".bin", ".json", ".csv"):
            if pa.read_bytes() != pb.read_bytes():
                lines.append(f"differs (not numeric): {p}")
            continue
        try:
            va, vb = _values(pa, pb)
        except ShapeDiffers:
            lines.append(f"differs beyond its numbers: {p}")
            continue
        dmax, rmax, within = _drift(va, vb, tol["rel"], tol["abs"])
        beyond += not within
        rows.append(f"{p:<56} {va.size:>7} {dmax:>10.3g} {rmax:>10.3g}  {'yes' if within else 'NO'}")
    print(f"rule: |b - a| <= {tol['rel']:g} |a| + {tol['abs']:g} (perfbench/design.json reference_tolerance)")
    print(f"{'file':<56} {'values':>7} {'max_abs':>10} {'max_rel':>10}  within")
    print("\n".join(rows + lines))
    print(f"{len(rows)} numeric files, {beyond} beyond the rule; {len(lines)} other differences")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("dir")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("--roundoff", action="store_true", help="print the numeric drift of each file")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.dir)
    return (compare_roundoff if args.roundoff else compare)(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
