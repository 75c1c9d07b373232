"""Periodic cubic-spline interpolation for the flow-map compositions, in numpy.

``PeriodicInterpolator(*fields)`` prefilters a stack of fields on one grid
once: the periodic cubic B-spline coefficients solve the interpolation
condition, whose symbol on the half spectrum is
``(4 + 2 cos th1)(4 + 2 cos th2) / 36``.  A call evaluates the whole stack at
one point set, ``_CHUNK`` points at a time: each point's base node and its
4 + 4 B-spline weights are formed once, and each of the 16 gathers from the
wrap-padded coefficient planes serves every field.  Fields are prefiltered
one at a time, and may be handed over one at a time (``planes=``).  At
displaced grid nodes x + d, ``displaced`` and ``at_displaced`` evaluate row
blocks of at most ``_CHUNK`` points, so no temporary spans the stack or the
grid.  The fields must lie on one grid.
"""

from __future__ import annotations

import numpy as np

from mhd2d.grid import RealField, half_spectrum

__all__ = ["PeriodicInterpolator"]

# points per block of an evaluation: bounds the gather temporaries
_CHUNK = 8192


def _bspline_weights(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic B-spline weights of the nodes base - 1 .. base + 2 at offset u in [0, 1)."""
    v = 1.0 - u
    u2, u3 = u * u, u * u * u
    return v * v * v / 6.0, (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0, (-3.0 * u3 + 3.0 * (u2 + u) + 1.0) / 6.0, u3 / 6.0


class PeriodicInterpolator:
    """Cubic-spline evaluator for a stack of periodic fields on one grid,
    prefiltered once.  ``self(x1, x2)`` evaluates every field at the
    broadcast points, with shape ``(k, ...)`` for k fields and ``(...)`` for
    one; a non-finite point raises ValueError, as do no fields or fields on
    different grids.  ``PeriodicInterpolator(planes=(grid, n, it))`` stands
    for n fields on grid whose samples the iterator ``it`` makes one at a
    time, each taken only when the last is prefiltered."""

    def __init__(self, *fields: RealField, planes: tuple | None = None):
        if planes is not None:
            # (grid, n, iterator of n sample planes): a caller that makes each
            # plane on demand and drops it once yielded holds one plane, not a stack
            g, n, samples = planes
        else:
            if not fields:
                raise ValueError("no fields to interpolate")
            g = fields[0].grid
            if bad := [f.grid for f in fields if f.grid != g]:
                raise ValueError(f"fields on {g} and {bad[0]}: all must lie on one grid")
            n, samples = len(fields), (f.samples for f in fields)
        self.grid = g
        c = half_spectrum(g)
        nx, ny = g.shape
        symbol = (4.0 + 2.0 * np.cos(2.0 * np.pi / nx * c.m1)) * (4.0 + 2.0 * np.cos(2.0 * np.pi / ny * c.m2)) / 36.0
        # one padded plane per field, wrapped 1 node before and 2 after on each
        # axis; no name holds a plane while the next is taken
        pad = np.empty((n, nx + 3, ny + 3))
        for k in range(n):
            pad[k, 1 : nx + 1, 1 : ny + 1] = c.inv(c.fwd(next(samples)) / symbol)
        pad[:, 0], pad[:, nx + 1 :] = pad[:, nx], pad[:, 1:3]
        pad[:, :, 0], pad[:, :, ny + 1 :] = pad[:, :, ny], pad[:, :, 1:3]
        self._coeffs = pad.reshape(n, -1)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        g = self.grid
        x1, x2 = np.broadcast_arrays(x1, x2)
        shape = x1.shape
        s1, s2 = x1.ravel() / g.dx, x2.ravel() / g.dy
        if bad := np.count_nonzero(~(np.isfinite(s1) & np.isfinite(s2))):
            raise ValueError(f"{bad} non-finite interpolation points")
        out = np.zeros((self._coeffs.shape[0], s1.size))
        for lo in range(0, s1.size, _CHUNK):
            block = slice(lo, lo + _CHUNK)
            self._add_stack(s1[block], s2[block], out[:, block])
        return out.reshape(shape) if out.shape[0] == 1 else out.reshape(-1, *shape)

    def _add_stack(self, s1: np.ndarray, s2: np.ndarray, out: np.ndarray) -> None:
        """Add the stack at flat points given in grid units into ``out``, shape (fields, points)."""
        nx, ny = self.grid.shape
        f1, f2 = np.floor(s1), np.floor(s2)
        row = ny + 3
        # flat index of the padded node base - 1 (padded index = node + 1)
        base = (f1.astype(np.intp) % nx) * row + f2.astype(np.intp) % ny
        w1, w2 = _bspline_weights(s1 - f1), _bspline_weights(s2 - f2)
        gathered = np.empty(out.shape)
        for a in range(4):
            for b in range(4):
                # indices lie in range by construction; "clip" lets take
                # write into gathered without the copy its "raise" mode makes
                np.take(self._coeffs, base + (a * row + b), axis=1, out=gathered, mode="clip")
                gathered *= w1[a] * w2[b]
                out += gathered

    def displaced(self, d1: np.ndarray, d2: np.ndarray):
        """Yield ``(rows, self(x1 + d1, x2 + d2) on rows)`` for the grid nodes
        x, by blocks of whole rows of at most ``_CHUNK`` points, in order.  A
        block's points are formed only when it is asked for, so a caller may
        update d on the rows it was given before it takes the next block."""
        g = self.grid
        step = max(1, _CHUNK // g.ny)
        for lo in range(0, g.nx, step):
            rows = slice(lo, lo + step)
            yield rows, self(g.x1[rows] + d1[rows], g.x2 + d2[rows])

    def at_displaced(self, disp: tuple[RealField, RealField]) -> list[np.ndarray]:
        """The fields at x + D(x) for the displacement D = ``disp``, one whole
        plane each, filled block by block (``displaced``).  With D the
        inverse displacement, x + D(x) = X^{-1}(x)."""
        out = [np.empty(self.grid.shape) for _ in range(self._coeffs.shape[0])]
        for rows, v in self.displaced(disp[0].samples, disp[1].samples):
            for o, vk in zip(out, v.reshape((len(out), -1, self.grid.ny))):
                o[rows] = vk
        return out
