#!/usr/bin/env python3
"""Per-phase memory of one benchmark workload run.

    python scripts/phase_memory.py WORKLOAD [--seed N] [--set KEY=VALUE ...] [--untraced]

Runs the workload's config from ``perfbench/workloads.py`` (benchmark seed
``N``, default 3; ``--set`` overrides it as ``mhd2d --set`` does) once through
``mhd2d.cli.run`` of this checkout, into a temporary directory, and prints one
row per call of each phase, in call order, indented by nesting under the
whole ``cli.run`` call:

- the initial data: ``solve_companion_potential`` (the companion march),
  ``build_flow_map_initial`` (the Picard seed), ``seed_lagrangian_velocity``
  and ``smallness_report``;
- the change of variables back to Eulerian form: ``to_eulerian``,
  ``_gradient_interpolator``, ``_invert``, each ``_newton_step``,
  ``_check_invertible`` and each whole-plane evaluation at displaced points
  (``PeriodicInterpolator.at_displaced``, row ``at_displaced``: the seed
  velocity's u0 at y + Y0, then grad Y, Y_t and q at X^{-1});
- the flow-map march and what the Lagrangian experiment does with it:
  ``run_lagrangian`` (the margin's tables are sampled inside it),
  ``smallness_margin`` and ``save_flow_snapshot``;
- the exact linear theory of the block-energy experiment: ``evolve_linear``
  (the data's transforms), ``block_energy_series`` (the propagator and the
  anisotropic block norms of each state) and ``decay_table``;
- each ``PeriodicInterpolator`` build (``interp build``, with its field
  count) and call (``interp call``, with its field and point counts); a run
  of consecutive calls, such as the row blocks of one evaluation, is one
  row ``... xN``.

Columns: the MiB that tracemalloc traces at the call's entry, its traced
peak during the call and its traced MiB at exit, then the process's
``ru_maxrss`` in MB (KiB / 1024, as ``perfbench/child.py`` reports
``peak_rss_mb``) before and after the call.  tracemalloc keeps its own
records in the process, so ``--untraced`` runs without it and prints only
the ``ru_maxrss`` columns, which then read as the benchmark's RSS steps.
"""

import argparse
import functools
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1024.0 * 1024.0
PHASES = {
    "initial_data": (
        "solve_companion_potential", "build_flow_map_initial", "seed_lagrangian_velocity", "smallness_report",
    ),
    "lagrangian": (
        "run_lagrangian", "to_eulerian", "_gradient_interpolator", "_invert", "_newton_step", "_check_invertible",
    ),
    "linear": ("evolve_linear", "block_energy_series"),
    "diagnostics": ("smallness_margin", "decay_table"),
    "io": ("save_flow_snapshot",),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PhaseTable:
    """Rows [label, depth, entry, peak, exit, rss_before, rss_after] of the
    wrapped calls; a call's peak includes the peaks of the calls it makes."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rows = []
        self._open = []  # traced peak so far of each open call, innermost last

    def wrap(self, label, fn):
        @functools.wraps(fn)
        def phase(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            row = [name, len(self._open), None, None, None, _maxrss_mb(), None]
            self.rows.append(row)
            if self.traced:
                row[2], peak = tracemalloc.get_traced_memory()
                if self._open:
                    self._open[-1] = max(self._open[-1], peak)
                tracemalloc.reset_peak()
            self._open.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                inner = self._open.pop()
                if self.traced:
                    row[4], peak = tracemalloc.get_traced_memory()
                    row[3] = max(inner, peak)
                    if self._open:
                        self._open[-1] = max(self._open[-1], row[3])
                row[6] = _maxrss_mb()

        return phase

    def merged(self) -> list:
        """The rows, with a run of consecutive calls of one name at one depth
        (the row blocks of an evaluation) as one row "name xN": the first
        entry, the largest peak, the last exit and the RSS around the run."""
        rows = []
        for row in self.rows:
            last = rows[-1] if rows else None
            if last and (last[0], last[1]) == (row[0], row[1]):
                last[7] += 1
                last[3:5] = [None if last[3] is None else max(last[3], row[3]), row[4]]
                last[6] = row[6]
            else:
                rows.append(row + [1])
        return [[f"{r[0]} x{r[7]}" if r[7] > 1 else r[0], *r[1:7]] for r in rows]

    def format(self) -> str:
        rows = self.merged()
        width = max([len("phase")] + [2 * r[1] + len(r[0]) for r in rows])
        head = f"{'phase':<{width}}  entry_MiB  peak_MiB  exit_MiB  rss_before_MB  rss_after_MB"
        lines = [head]
        for name, depth, entry, peak, exit_, rss0, rss1 in rows:
            if entry is None:
                traced = f"{'-':>9}  {'-':>8}  {'-':>8}"
            else:
                traced = f"{entry / MIB:9.1f}  {peak / MIB:8.1f}  {exit_ / MIB:8.1f}"
            lines.append(f"{'  ' * depth + name:<{width}}  {traced}  {rss0:13.1f}  {rss1:12.1f}")
        return "\n".join(lines)


def install(table: PhaseTable) -> None:
    """Wrap each phase in every loaded ``mhd2d`` module that holds it by name,
    and the interpolator's build, call and ``at_displaced``."""
    import importlib

    import numpy as np
    from mhd2d import cli  # noqa: F401  (loads every module that cli.run calls into)
    from mhd2d.interp import PeriodicInterpolator

    modules = [m for n, m in sys.modules.items() if n == "mhd2d" or n.startswith("mhd2d.")]
    for module_name, names in PHASES.items():
        home = importlib.import_module(f"mhd2d.{module_name}")
        for name in names:
            real = getattr(home, name)
            wrapped = table.wrap(name, real)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is real:
                        setattr(m, attr, wrapped)
    PeriodicInterpolator.__init__ = table.wrap(
        lambda self, *fields, planes=None: f"interp build ({planes[1] if planes else len(fields)} fields)",
        PeriodicInterpolator.__init__,
    )
    PeriodicInterpolator.__call__ = table.wrap(
        lambda self, x1, x2: f"interp call ({self._coeffs.shape[0]} fields, {np.broadcast(x1, x2).size} points)",
        PeriodicInterpolator.__call__,
    )
    PeriodicInterpolator.at_displaced = table.wrap("at_displaced", PeriodicInterpolator.at_displaced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--untraced", action="store_true", help="run without tracemalloc: ru_maxrss columns only")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from mhd2d import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    table = PhaseTable(traced=not args.untraced)
    install(table)
    with tempfile.TemporaryDirectory() as outdir:
        name, overrides = workloads.config_overrides(args.workload, args.seed, outdir)
        cfg = cli.load_config(name, None, dict(overrides, **cli._parse_set(args.set)))
        if table.traced:
            tracemalloc.start()
        status, _ = table.wrap(f"cli.run {name}", cli.run)(cfg)
        tracemalloc.stop()
    print(table.format())
    print(f"{args.workload} seed {args.seed}: exit {status}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
