#!/usr/bin/env python3
"""Write the output tree of this checkout, or compare two trees byte for byte.

    python scripts/output_tree.py write DIR
    python scripts/output_tree.py compare A B

``write`` runs the four benchmark workloads at seed 3, with the configs of
``perfbench/workloads.py``, and every experiment of ``mhd2d.cli.EXPERIMENTS``
at 32 x 32 (``build-initial-data`` at 128 x 128, width 0.6), each into
DIR/<name>/ through ``cli.load_config`` and ``cli.run`` of this checkout.

``compare`` names each file that is in only one tree and each file whose
bytes differ, and exits 0 only when there is none.
"""

import argparse
import os
import sys
from pathlib import Path

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
        raise SystemExit(f"{top}: not a directory")
    return {p.relative_to(top).as_posix() for p in Path(top).rglob("*") if p.is_file()}


def compare(a: str, b: str) -> int:
    fa, fb = _files(a), _files(b)
    problems = [f"only in {a}: {p}" for p in sorted(fa - fb)] + [f"only in {b}: {p}" for p in sorted(fb - fa)]
    problems += [f"differs: {p}" for p in sorted(fa & fb) if Path(a, p).read_bytes() != Path(b, p).read_bytes()]
    print("\n".join(problems) if problems else f"{len(fa)} files, byte-identical")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("dir")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    return write(args.dir) if args.command == "write" else compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
