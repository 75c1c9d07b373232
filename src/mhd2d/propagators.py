"""Exact propagators for stacked 2x2 linear mode systems.

Every mode system in the package has the form  z' = M z + c(t)  with a real
2x2 matrix M per Fourier mode.  The homogeneous propagator is evaluated in
closed form through entire functions of nu^2 = (tr M / 2)^2 - det M, which is
exact at double roots and free of overflow for strongly damped modes:

    exp(M t) = C(t) I + S(t) (M - mu I),
    C = (e^{l-} + e^{l+})/2,   S = (e^{l-} - e^{l+}) / (l- - l+),

with l+- = mu -+ nu the eigenvalues (both with nonpositive real part here).
The inhomogeneous responses for a forcing linear in time over one step are
read off a single stacked 6x6 matrix exponential, and ``etd2rk_step`` uses
them for the exponential trapezoidal (ETD2RK) step of both nonlinear solvers
(Cox & Matthews 2002).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = ["expm2", "etd_tables", "apply2", "etd2rk_step"]

_SMALL = 0.5


def expm2(m: np.ndarray, t: float) -> np.ndarray:
    """exp(m * t) for a stack of real 2x2 matrices, shape (..., 2, 2)."""
    m = np.asarray(m, dtype=float)
    mu = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    nusq = mu * mu - det
    nu = np.sqrt(nusq.astype(complex))
    z = nu * t
    big = np.abs(z) >= _SMALL
    lam_plus = (mu - nu) * t
    # mu + nu cancels for strongly damped slow branches; rationalize via
    # lam_- lam_+ = det  (exact when mu - nu != 0)
    denom = mu - nu
    safe = np.abs(denom) > 0
    lam_minus = np.where(safe, det * t / np.where(safe, denom, 1.0), (mu + nu) * t)
    # large |nu t|: difference quotient of well-separated exponentials
    c_big = 0.5 * (np.exp(lam_minus) + np.exp(lam_plus))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_big = np.where(big, (np.exp(lam_minus) - np.exp(lam_plus)) / np.where(big, 2.0 * nu, 1.0), 0.0)
    # small |nu t|: exp(mu t) (cosh z, t sinch z); sinch by series near 0
    e_mu = np.exp(np.clip(mu * t, -745.0, 50.0))
    zs = np.where(big, 0.0, z)
    zsq = zs * zs
    tiny = np.abs(zs) < 1e-2
    denom = np.where(tiny, 1.0, zs)
    sinch = np.where(tiny, 1.0 + zsq / 6.0 + zsq * zsq / 120.0, np.sinh(denom) / denom)
    c_small = e_mu * np.cosh(zs)
    s_small = e_mu * t * sinch
    c = np.where(big, c_big, c_small)
    s = np.where(big, s_big, s_small)
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = c + s * (m[..., 0, 0] - mu)
    out[..., 0, 1] = s * m[..., 0, 1]
    out[..., 1, 0] = s * m[..., 1, 0]
    out[..., 1, 1] = c + s * (m[..., 1, 1] - mu)
    return np.real(out)


def etd_tables(m: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step tables for z' = M z + c0 + c1 t over a step of size h.

    Returns (P, R1, R2) with z(h) = P z(0) + R1 c0 + R2 c1, where
    P = exp(M h), R1 = int_0^h exp(M (h-s)) ds, R2 = int_0^h exp(M (h-s)) s ds,
    all shape (..., 2, 2).  Read off the exponential of the augmented system
    (z, g, r)' = (M z + g, r, 0).
    """
    m = np.asarray(m, dtype=float)
    lead = m.shape[:-2]
    aug = np.zeros(lead + (6, 6))
    aug[..., 0:2, 0:2] = m
    aug[..., 0, 2] = 1.0
    aug[..., 1, 3] = 1.0
    aug[..., 2, 4] = 1.0
    aug[..., 3, 5] = 1.0
    e = expm(aug * h)
    p = e[..., 0:2, 0:2]
    r1 = e[..., 0:2, 2:4]
    r2 = e[..., 0:2, 4:6]
    return p, r1, r2


def apply2(table: np.ndarray, z0: np.ndarray, z1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply a stacked 2x2 table to component arrays (z0, z1)."""
    w0 = table[..., 0, 0] * z0 + table[..., 0, 1] * z1
    w1 = table[..., 1, 0] * z0 + table[..., 1, 1] * z1
    return w0, w1


def _add_table(w: tuple, table: np.ndarray, f: tuple) -> tuple:
    """w + table f, one term at a time; a None slot of f is zero."""
    out = list(w)
    for i in range(2):
        for j in range(2):
            if f[j] is not None:
                out[i] = out[i] + table[..., i, j] * f[j]
    return tuple(out)


def etd2rk_step(tables: tuple, z: list, forcing, dt: float) -> list:
    """One ETD2RK step of z' = M z + N(z) for stacked 2x2 mode systems.

    ``tables`` is ``etd_tables(M, dt)``; ``z`` is a list of component pairs
    (z0, z1) that all share M.  ``forcing(z, s)`` returns one pair of forcing
    slots per pair of ``z``, evaluated at stage time ``t + s``; a None slot
    is zero.  With f = N(z) the step returns

        a = P z + R1 f,    a + R2 (N(a) - f) / dt.
    """
    p, r1, r2 = tables
    f = forcing(z, 0.0)
    pred = [_add_table(apply2(p, *zi), r1, fi) for zi, fi in zip(z, f)]
    g = forcing(pred, dt)
    slope = [
        tuple(None if fk is None else (gk - fk) / dt for fk, gk in zip(fi, gi))
        for fi, gi in zip(f, g)
    ]
    return [_add_table(ai, r2, si) for ai, si in zip(pred, slope)]
