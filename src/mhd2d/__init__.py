"""Pseudospectral laboratory for a 2-D incompressible MHD system.

The package provides, on a periodic box:

- ``grid``: spectral substrate (the nodes and one ``rfft2`` half spectrum per
  grid: transforms, wavenumber tables, derivatives, dealiasing),
- ``lp``: dyadic frequency analysis (isotropic and horizontal blocks,
  Besov-type, Chemin-Lerner and weighted-column norms, paraproducts),
- ``linear``: exact per-mode theory of ``w_tt - Lap(w_t) - d1^2 w``,
- ``propagators``: exact 2x2 mode propagators, ETD2RK and the one march loop,
- ``initial_data``: constructive admissible data (companion potential,
  volume constraint, flow-map seed); ``fields``: data recipes,
- ``lagrangian``: the nonlinear flow-map solver; ``interp``: the periodic
  cubic-spline interpolation its compositions use,
- ``eulerian``: the direct perturbation-system solver,
- ``diagnostics``: energy-functional bookkeeping and decay fits,
- ``cli``: named experiment recipes with JSON configs; ``io``: the files
  they write.
"""

from mhd2d.grid import Grid, RealField, make_grid, spectral_derivative

__all__ = ["Grid", "RealField", "make_grid", "spectral_derivative"]

__version__ = "0.1.0"
