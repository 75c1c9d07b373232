"""Exact propagators for stacked 2x2 linear mode systems.

Every mode system in the package has the form  z' = M z + c(t)  with a real
2x2 matrix M per Fourier mode.  The homogeneous propagator is evaluated in
closed form through entire functions of nu^2 = (tr M / 2)^2 - det M, which is
exact at double roots and free of overflow for strongly damped modes:

    exp(M t) = C(t) I + S(t) (M - mu I),
    C = (e^{l-} + e^{l+})/2,   S = (e^{l-} - e^{l+}) / (l- - l+),

with l+- = mu -+ nu the eigenvalues (both with nonpositive real part here).
``mode_exponential(M)`` computes what does not depend on t (mu, det M, nu,
mu -+ nu, 2 nu) once per stack and returns ``t -> exp(M t)``.  Each
evaluation takes the difference quotient S above only on the modes with
|nu t| >= 1/2, and exp(mu t) (cosh nu t, t sinch nu t) only on the rest, so
a mode's bits do not depend on the other modes of its stack.

The inhomogeneous responses for a forcing linear in time over one step come
with exp(M h) from scaling and squaring on the 2x2 blocks, and ``etd2rk_step``
uses them for the exponential trapezoidal (ETD2RK) step of both nonlinear
solvers (Cox & Matthews 2002).  Each solver caches its tables in the form
of ``etd_entries``, C-contiguous complex entry arrays, and the step sums
each product into the new state in place, in the order of the written-out
scheme, so the arithmetic is that of the out-of-place sums bit for bit.

Both solvers also share one march loop, ``_march``: the step count
(``_step_count``, a whole number of positive steps), the monitor and store
cadences, and the failure report.  A failing step raises its solver's own
``MarchError`` again, naming the step and its time, with the last state the
march committed in ``last_state`` (None if the initial data fail, as step 0).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mode_exponential", "etd_tables", "etd_entries", "apply2", "etd2rk_step", "MarchError"]

_SMALL = 0.5


def mode_exponential(m: np.ndarray):
    """``t -> exp(m * t)`` for a stack of real 2x2 matrices, shape (..., 2, 2),
    with the t-independent algebra done here once (see the module docstring).
    ValueError unless ``m`` ends in (2, 2) and every entry is finite."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"m has shape {m.shape}: a stack of 2x2 matrices has shape (..., 2, 2)")
    bad = m.size - np.count_nonzero(np.isfinite(m))
    if bad:
        raise ValueError(f"m has {bad} non-finite entries")
    shape = m.shape
    m00, m01, m10, m11 = (m.reshape(-1, 2, 2)[:, i, j] for i in (0, 1) for j in (0, 1))
    mu = 0.5 * (m00 + m11)
    det = m00 * m11 - m01 * m10
    nusq = mu * mu - det
    nu = np.sqrt(nusq.astype(complex))
    # mu + nu cancels for strongly damped slow branches; rationalize via
    # lam_- lam_+ = det  (exact when mu - nu != 0)
    mu_minus_nu = mu - nu
    safe = np.abs(mu_minus_nu) > 0
    denom = np.where(safe, mu_minus_nu, 1.0)
    mu_plus_nu = mu + nu
    two_nu = 2.0 * nu
    # the real entries numpy would cast to complex in every product below
    d00, e01, e10, d11 = (x.astype(complex) for x in (m00 - mu, m01, m10, m11 - mu))

    def at(t: float) -> np.ndarray:
        z = nu * t
        big = np.abs(z) >= _SMALL
        c = np.empty(z.shape, dtype=complex)
        s = np.empty_like(c)
        # large |nu t|: difference quotient of well-separated exponentials
        i = np.flatnonzero(big)
        lam_plus = mu_minus_nu[i] * t
        lam_minus = np.where(safe[i], det[i] * t / denom[i], mu_plus_nu[i] * t)
        e_minus, e_plus = np.exp(lam_minus), np.exp(lam_plus)
        c[i] = 0.5 * (e_minus + e_plus)
        with np.errstate(divide="ignore", invalid="ignore"):
            s[i] = (e_minus - e_plus) / two_nu[i]
        # small |nu t|: exp(mu t) (cosh z, t sinch z); sinch by series near 0
        i = np.flatnonzero(~big)
        zs = z[i]
        e_mu = np.exp(np.clip(mu[i] * t, -745.0, 50.0))
        zsq = zs * zs
        tiny = np.abs(zs) < 1e-2
        zd = np.where(tiny, 1.0, zs)
        sinch = np.where(tiny, 1.0 + zsq / 6.0 + zsq * zsq / 120.0, np.sinh(zd) / zd)
        c[i] = e_mu * np.cosh(zs)
        s[i] = e_mu * t * sinch
        out = np.empty(shape)
        o = out.reshape(-1, 2, 2)
        o[:, 0, 0], o[:, 0, 1] = (c + s * d00).real, (s * e01).real
        o[:, 1, 0], o[:, 1, 1] = (s * e10).real, (c + s * d11).real
        return out

    return at


def etd_tables(m: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step tables for z' = M z + c0 + c1 t over a step of size h.

    Returns (P, R1, R2) with z(h) = P z(0) + R1 c0 + R2 c1, where
    P = exp(M h), R1 = int_0^h exp(M (h-s)) ds, R2 = int_0^h exp(M (h-s)) s ds,
    all shape (..., 2, 2).  Scaling and squaring: 18 Taylor terms at the step
    k = h / 2^s with k max_rowsum|M| <= 1/2 (smallest s >= 0), then s doublings.
    """
    m = np.asarray(m, dtype=float)
    norm = h * float(np.max(np.sum(np.abs(m), axis=-1), initial=0.0))
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    k = h / 2**s
    eye = np.broadcast_to(np.eye(2), m.shape)
    term, p, r1, r2 = eye, eye, eye, 0.5 * eye
    for n in range(1, 18):  # term = (kM)^n / n!; R1 / k and R2 / k^2 sum (kM)^n / (n+1)! and / (n+2)!
        term = term @ (k / n * m)
        p, r1, r2 = p + term, r1 + term / (n + 1), r2 + term / ((n + 1) * (n + 2))
    r1, r2 = k * r1, k * k * r2
    for _ in range(s):  # the tables at 2k from those at k
        p, r1, r2, k = p @ p, (p + eye) @ r1, (p + eye) @ r2 + k * r1, 2.0 * k
    return p, r1, r2


def apply2(table: np.ndarray, z0: np.ndarray, z1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply a stacked 2x2 table to component arrays (z0, z1)."""
    w0 = table[..., 0, 0] * z0 + table[..., 0, 1] * z1
    w1 = table[..., 1, 0] * z0 + table[..., 1, 1] * z1
    return w0, w1


def etd_entries(tables: tuple) -> tuple:
    """``etd_tables`` output in the form ``etd2rk_step`` takes: per table the
    4-tuple (T00, T01, T10, T11) of its entries as C-contiguous complex128
    arrays.  A product of a complex entry with complex coefficients is the
    product numpy forms after casting the real entry, without the cast or the
    strided read."""
    return tuple(
        tuple(np.ascontiguousarray(t[..., i, j], dtype=complex) for i in (0, 1) for j in (0, 1)) for t in tables
    )


def _add_products(w: list, entries: tuple, f: tuple) -> None:
    """w[i] += T_ij f[j] in place, one term at a time; a None slot of f is zero."""
    tmp = np.empty_like(w[0])
    for i in range(2):
        for j in range(2):
            if f[j] is not None:
                w[i] += np.multiply(entries[2 * i + j], f[j], out=tmp)


def etd2rk_step(tables: tuple, z: list, forcing, dt: float) -> list:
    """One ETD2RK step of z' = M z + N(z) for stacked 2x2 mode systems.

    ``tables`` is ``etd_entries(etd_tables(M, dt))``; ``z`` is a list of
    component pairs (z0, z1) that all share M.  ``forcing(z, s)`` returns one
    pair of forcing slots per pair of ``z``, evaluated at stage time ``t + s``;
    a None slot is zero.  With f = N(z) the step returns

        a = P z + R1 f,    a + R2 (N(a) - f) / dt,

    summed term by term in that order into new arrays: the predictor's arrays
    become the result, and neither ``z`` nor the forcing slots are written.
    """
    p, r1, r2 = tables
    f = forcing(z, 0.0)
    pred = []
    for (z0, z1), fi in zip(z, f):
        w = [np.multiply(p[0], z0), np.multiply(p[2], z0)]
        _add_products(w, p, (None, z1))
        _add_products(w, r1, fi)
        pred.append(w)
    g = forcing(pred, dt)
    for w, fi, gi in zip(pred, f, g):
        _add_products(w, r2, [None if fk is None else _slope(gk, fk, dt) for fk, gk in zip(fi, gi)])
    return [tuple(w) for w in pred]


def _slope(g: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    """(g - f) / dt in one new array."""
    out = np.subtract(g, f)
    out /= dt
    return out


class MarchError(RuntimeError):
    """A solver failure; ``last_state`` is the last state the march committed,
    None at step 0 (the initial state failed), since nothing was committed."""

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


def _step_count(dt: float, t_end: float) -> int:
    """t_end / dt; ValueError naming both unless dt > 0 and t_end > 0 are
    finite and t_end is a whole number of steps."""
    n = round(t_end / dt) if 0 < dt < math.inf and 0 < t_end < math.inf else 0
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"dt = {dt!r}, t_end = {t_end!r}: need dt > 0 and t_end a whole number n >= 1 of steps")
    return n


def _march(stepper, initial, n_steps: int, store_every: int, monitors=()):
    """March ``state = initial()`` by ``n_steps`` steps of a stepper (``load``
    and ``advance`` holding only finite states, ``state``, ``t``, ``dt``).

    Returns the stored states (``state``, then ``stepper.state()`` every
    ``store_every`` steps and after the last) and, per ``(name, every,
    sample)`` monitor, the arrays (t, *sample()) sampled at the start, every
    ``every`` steps (a whole number >= 1, else ValueError) and after the last.
    A MarchError in step n is raised again as its own class, naming n and the
    step's time, with ``stepper.state()``: the state step n started from;
    building or loading ``state`` is step 0.
    """
    for name, every, *_ in [("store_every", store_every), *monitors]:
        if not (every >= 1 and every % 1 == 0):
            raise ValueError(f"{name} = {every!r}: a cadence must be a whole number >= 1")
    t_0 = 0.0
    try:
        state = initial()
        t_0 = state.t
        stepper.load(state)
    except MarchError as err:
        raise type(err)(f"step 0, t = {t_0:.4f}: {err}") from err
    states = [state]
    rows = [[(stepper.t, *sample())] for _, _, sample in monitors]
    for n in range(1, n_steps + 1):
        t_n = stepper.t + stepper.dt
        try:
            stepper.advance()
        except MarchError as err:
            raise type(err)(f"step {n}, t = {t_n:.4f}: {err}", last_state=stepper.state()) from err
        if n % store_every == 0 or n == n_steps:
            states.append(stepper.state())
        for (_, every, sample), r in zip(monitors, rows):
            if n % every == 0 or n == n_steps:
                r.append((stepper.t, *sample()))
    return states, [tuple(np.asarray(col) for col in zip(*r)) for r in rows]


def _running_trapezoid(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trapezoidal running integral of the samples v at times t, from 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (v[1:] + v[:-1]))))
