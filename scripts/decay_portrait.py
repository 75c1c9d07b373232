#!/usr/bin/env python3
"""Regime-resolved decay portrait of the linearized flow-map operator.

Evolves random data exactly, fits the decay rate of every anisotropic block
energy g_{j,k}, and prints the fitted-rate table next to the dyadic scaling
law (2^{2j} below the frequency-split boundary, 2^{2(k-j)} above it) and the
slow eigenvalue of the block's centre frequency.  Optionally writes a CSV.
"""

import os
import sys
from dataclasses import astuple, fields

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from mhd2d.diagnostics import DecayRow, decay_table
from mhd2d.fields import random_band_field
from mhd2d.grid import make_grid
from mhd2d.io import write_rows_csv
from mhd2d.linear import block_energy_series, evolve_linear


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    out_csv = sys.argv[2] if len(sys.argv) > 2 else None
    g = make_grid(n, n, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(0)
    band = n / 3.0
    y0 = (random_band_field(g, rng, 1.0, band), random_band_field(g, rng, 1.0, band))
    v0 = (random_band_field(g, rng, 1.0, band), random_band_field(g, rng, 1.0, band))
    times = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 140)]))
    traj = evolve_linear(y0, v0, times)
    rows = decay_table(traj.times, block_energy_series(traj))
    print(f"{'j':>3} {'k':>3} {'regime':>6} {'fitted rate':>12} {'scale':>10} {'c':>8} {'lam_-':>10}")
    for r in rows:
        print(
            f"{r.j:>3} {r.k:>3} {r.regime:>6} {r.fitted_rate:>12.4f} "
            f"{r.dyadic_scale:>10.2f} {r.rate_constant:>8.4f} {r.lambda_minus_center:>10.4f}"
        )
    c_min = min(r.rate_constant for r in rows)
    print(f"\nrecorded rate constant c = {c_min:.4f} over {len(rows)} blocks")
    if out_csv:
        write_rows_csv(out_csv, map(astuple, rows), [f.name for f in fields(DecayRow)])
        print(f"wrote {out_csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
