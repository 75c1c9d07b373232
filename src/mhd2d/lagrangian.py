"""Nonlinear flow-map solver.

State: displacement Y, Lagrangian velocity Y_t and pressure q on the periodic
box, evolving by

    Y_tt - Lap(Y_t) - d1^2 Y = f(Y, q),      f = (grad_Y . grad_Y - Lap) Y_t - grad_Y q,

with ``grad_Y = A^T grad`` for the adjugate A of I + grad Y.  The stiff linear
operator is exactly the analysed per-mode symbol, so time stepping combines
the exact mode propagator with an exponential trapezoidal (ETD2RK) treatment
of f; the pressure solves the variable-coefficient elliptic equation obtained
by taking grad_Y-divergence of the momentum equation, as a fixed point of

    q  <-  InvLap[ -div((A - I) A^T grad q) - div((A^T - I) grad q)
                   + div(dA/dt Y_t) + div_Y d1^2 Y ],

which contracts while ||grad Y||_inf stays small.  The source term
``div_Y d1^2 Y`` is assembled in its conservative form
``div((A - I) d1^2 Y) + d1^2 rho(Y)`` so the right side has exactly zero mean.

Products of physical fields are dealiased pairwise by the 2/3 rule.  The
spectral work runs on the grid's shared ``half_spectrum`` context, and each
step is one ``propagators.etd2rk_step`` on the pairs (Y^j, Y^j_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, half_spectrum, l2_norm
from mhd2d.interp import PeriodicInterpolator
from mhd2d.lp import sobolev_norm
from mhd2d.propagators import apply2, etd2rk_step, etd_tables  # noqa: F401  (perfbench checks apply2 is rebound here)

__all__ = [
    "FlowMapState",
    "AdjugateField",
    "GradTensor",
    "adjugate",
    "gradient_tensor",
    "rho",
    "lagrangian_gradient",
    "pressure_solve",
    "rhs_f",
    "div_y_d11",
    "step",
    "compose",
    "invert_flow_map",
    "to_eulerian",
    "magnetic_pullback_check",
    "make_state",
    "run_lagrangian",
    "LagrangianRun",
    "PressureInfo",
    "StateBlowupError",
    "PressureConvergenceError",
    "det_i_plus_grad",
]


class StateBlowupError(RuntimeError):
    """Raised when the ||grad Y||_inf <= 1/2 working assumption fails."""


class PressureConvergenceError(RuntimeError):
    pass


@lru_cache(maxsize=8)
def _etd(grid: Grid, dt: float):
    """ETD tables of the flow-map mode matrix [[0, 1], [-xi1^2, -|xi|^2]]."""
    c = half_spectrum(grid)
    m = np.zeros(c.ksq.shape + (2, 2))
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = -c.k1**2
    m[..., 1, 1] = -c.ksq
    return etd_tables(m, dt)


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradTensor:
    """Entries of grad Y at the nodes: g[i][j] = d_{y_i} Y^j."""

    grid: Grid
    d1y1: np.ndarray
    d2y1: np.ndarray
    d1y2: np.ndarray
    d2y2: np.ndarray

    @property
    def sup_norm(self) -> float:
        return float(
            np.max(np.sqrt(self.d1y1**2 + self.d2y1**2 + self.d1y2**2 + self.d2y2**2))
        )


@dataclass(frozen=True)
class AdjugateField:
    """Adjugate of I + grad Y: [[1 + d2Y2, -d2Y1], [-d1Y2, 1 + d1Y1]]."""

    grid: Grid
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray


def gradient_tensor(Y: tuple[RealField, RealField]) -> GradTensor:
    g = Y[0].grid
    c = half_spectrum(g)
    y1h, y2h = c.fwd(Y[0].samples), c.fwd(Y[1].samples)
    return GradTensor(
        g,
        d1y1=c.inv(c.ik1 * y1h),
        d2y1=c.inv(c.ik2 * y1h),
        d1y2=c.inv(c.ik1 * y2h),
        d2y2=c.inv(c.ik2 * y2h),
    )


def adjugate(grad: GradTensor) -> AdjugateField:
    return AdjugateField(
        grad.grid,
        b11=1.0 + grad.d2y2,
        b12=-grad.d2y1,
        b21=-grad.d1y2,
        b22=1.0 + grad.d1y1,
    )


def det_i_plus_grad(grad: GradTensor) -> RealField:
    d = (1.0 + grad.d1y1) * (1.0 + grad.d2y2) - grad.d2y1 * grad.d1y2
    return RealField(grad.grid, d)


def rho(Y: tuple[RealField, RealField]) -> RealField:
    """rho(Y) = d1Y2 d2Y1 - d1Y1 d2Y2, products dealiased."""
    g = Y[0].grid
    c = half_spectrum(g)
    t = gradient_tensor(Y)
    return RealField(g, c.pd(t.d1y2, t.d2y1) - c.pd(t.d1y1, t.d2y2))


def lagrangian_gradient(q: RealField, adj: AdjugateField) -> tuple[RealField, RealField]:
    """grad_Y q = A^T grad q (component i sums b_{ji} d_j q)."""
    g = q.grid
    c = half_spectrum(g)
    qh = c.fwd(q.samples)
    q1, q2 = c.inv(c.ik1 * qh), c.inv(c.ik2 * qh)
    out1 = c.pd(adj.b11, q1) + c.pd(adj.b21, q2)
    out2 = c.pd(adj.b12, q1) + c.pd(adj.b22, q2)
    return RealField(g, out1), RealField(g, out2)


# ---------------------------------------------------------------------------
# div_Y d1^2 Y in its two conservative forms
# ---------------------------------------------------------------------------


def _div_y_d11_forms(
    c: HalfSpectrum, t: GradTensor, y1h: np.ndarray, y2h: np.ndarray, with_form_b: bool = True
):
    """Spectral right-hand sides of the identity

    div((A - I) d1^2 Y) + d1^2 rho(Y)
        = d1(d2Y2 d11Y1 + d1Y2 d12Y1 - d1(d1Y1 d2Y2)) + d2(-d1Y2 d11Y1 + d1Y1 d11Y2).

    Form B is None unless ``with_form_b``.
    """
    d11y1 = c.inv(c.ik1 * c.ik1 * y1h)
    d11y2 = c.inv(c.ik1 * c.ik1 * y2h)
    # form A
    u1 = c.pd(t.d2y2, d11y1) - c.pd(t.d2y1, d11y2)
    u2 = -c.pd(t.d1y2, d11y1) + c.pd(t.d1y1, d11y2)
    rho_h = c.fwd(c.pd(t.d1y2, t.d2y1) - c.pd(t.d1y1, t.d2y2))
    form_a = c.ik1 * c.fwd(u1) + c.ik2 * c.fwd(u2) + c.ik1 * c.ik1 * rho_h
    if not with_form_b:
        return form_a, None
    # form B
    d12y1 = c.inv(c.ik1 * c.ik2 * y1h)
    w_h = c.fwd(c.pd(t.d1y1, t.d2y2))
    g1 = c.fwd(c.pd(t.d2y2, d11y1) + c.pd(t.d1y2, d12y1)) - c.ik1 * w_h
    g2 = c.fwd(-c.pd(t.d1y2, d11y1) + c.pd(t.d1y1, d11y2))
    form_b = c.ik1 * g1 + c.ik2 * g2
    return form_a, form_b


def div_y_d11(Y: tuple[RealField, RealField]) -> tuple[RealField, RealField]:
    """Both conservative forms of div_Y d1^2 Y, for identity checking."""
    g = Y[0].grid
    c = half_spectrum(g)
    y1h, y2h = c.fwd(Y[0].samples), c.fwd(Y[1].samples)
    t = gradient_tensor(Y)
    fa, fb = _div_y_d11_forms(c, t, y1h, y2h)
    return RealField(g, c.inv(fa)), RealField(g, c.inv(fb))


# ---------------------------------------------------------------------------
# pressure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureInfo:
    iterations: int
    final_increment: float
    contraction: float
    identity_residual: float | None = None


def _pressure_spectral(
    c: HalfSpectrum,
    t: GradTensor,
    tv: GradTensor,
    v: tuple[np.ndarray, np.ndarray],
    y1h: np.ndarray,
    y2h: np.ndarray,
    qh0: np.ndarray | None,
    tol: float,
    max_iterations: int,
    check_identity: bool,
    extra_hat: np.ndarray | None = None,
) -> tuple[np.ndarray, PressureInfo]:
    adj = adjugate(t)
    # dA/dt has the adjugate entry pattern applied to grad Y_t
    a11, a12, a21, a22 = tv.d2y2, -tv.d2y1, -tv.d1y2, tv.d1y1
    w1 = c.pd(a11, v[0]) + c.pd(a12, v[1])
    w2 = c.pd(a21, v[0]) + c.pd(a22, v[1])
    form_a, form_b = _div_y_d11_forms(c, t, y1h, y2h, with_form_b=check_identity)
    ident = None
    if check_identity:
        scale = max(1.0, float(np.max(np.abs(form_a))))
        ident = float(np.max(np.abs(c.inv(form_a - form_b)))) / scale
    const = c.ik1 * c.fwd(w1) + c.ik2 * c.fwd(w2) + form_a
    if extra_hat is not None:
        const = const + extra_hat
    qh = np.zeros_like(const) if qh0 is None else qh0.copy()
    area = c.grid.lx * c.grid.ly
    inc_prev = math.inf
    contraction = 0.0
    for it in range(1, max_iterations + 1):
        q1 = c.inv(c.ik1 * qh)
        q2 = c.inv(c.ik2 * qh)
        # A^T grad q then (A - I) of it
        w1q = c.pd(adj.b11, q1) + c.pd(adj.b21, q2)
        w2q = c.pd(adj.b12, q1) + c.pd(adj.b22, q2)
        v1q = c.pd(adj.b11 - 1.0, w1q) + c.pd(adj.b12, w2q)
        v2q = c.pd(adj.b21, w1q) + c.pd(adj.b22 - 1.0, w2q)
        # (A^T - I) grad q
        z1q = c.pd(adj.b11 - 1.0, q1) + c.pd(adj.b21, q2)
        z2q = c.pd(adj.b12, q1) + c.pd(adj.b22 - 1.0, q2)
        rhs = -(c.ik1 * (c.fwd(v1q) + c.fwd(z1q)) + c.ik2 * (c.fwd(v2q) + c.fwd(z2q))) + const
        qh_new = -rhs * c.inv_ksq
        qh_new[0, 0] = 0.0
        diff = (qh_new - qh) / (c.grid.nx * c.grid.ny)
        inc = math.sqrt(area * c.lattice_sum(np.abs(diff) ** 2))
        qh = qh_new
        if inc < tol:
            return qh, PressureInfo(it, inc, contraction, ident)
        contraction = inc / inc_prev if inc_prev < math.inf else 0.0
        inc_prev = inc
    raise PressureConvergenceError(
        f"pressure fixed point: increment {inc:.3e} after {max_iterations} iterations "
        f"(contraction estimate {contraction:.3f})"
    )


def pressure_solve(
    Y: tuple[RealField, RealField],
    Y_t: tuple[RealField, RealField],
    tol: float = 1e-10,
    max_iterations: int = 200,
    q0: RealField | None = None,
    check_identity: bool = True,
    extra_source: RealField | None = None,
) -> tuple[RealField, PressureInfo]:
    """Solve the Lagrangian pressure equation; q has zero mean.

    Fixed-point iteration stops when the successive L2 difference drops
    below ``tol``.  The conservative-form identity for div_Y d1^2 Y is
    evaluated alongside when ``check_identity`` and its relative sup residual
    is reported in the info record.  ``extra_source`` adds a manufactured
    term to the right side (testing hook).
    """
    g = Y[0].grid
    c = half_spectrum(g)
    t = gradient_tensor(Y)
    if not (t.sup_norm <= 0.5):
        raise StateBlowupError(f"||grad Y||_inf = {t.sup_norm:.3f}, not <= 1/2")
    tv = gradient_tensor(Y_t)
    y1h, y2h = c.fwd(Y[0].samples), c.fwd(Y[1].samples)
    vq = (Y_t[0].samples, Y_t[1].samples)
    qh0 = c.fwd(q0.samples) if q0 is not None else None
    extra_hat = c.fwd(extra_source.samples) if extra_source is not None else None
    qh, info = _pressure_spectral(
        c, t, tv, vq, y1h, y2h, qh0, tol, max_iterations, check_identity, extra_hat
    )
    if info.identity_residual is not None and info.identity_residual > 1e-6:
        raise PressureConvergenceError(
            f"conservative-form identity residual {info.identity_residual:.2e} out of bounds"
        )
    return RealField(g, c.inv(qh)), info


# ---------------------------------------------------------------------------
# forcing f(Y, q)
# ---------------------------------------------------------------------------


def _rhs_f_spectral(c: HalfSpectrum, t: GradTensor, vh: tuple[np.ndarray, np.ndarray], qh: np.ndarray):
    """f = (grad_Y . grad_Y - Lap) Y_t - grad_Y q in spectral form (direct)."""
    adj = adjugate(t)
    out = []
    for ch in vh:
        g1, g2 = c.inv(c.ik1 * ch), c.inv(c.ik2 * ch)
        w1 = c.pd(adj.b11, g1) + c.pd(adj.b21, g2)
        w2 = c.pd(adj.b12, g1) + c.pd(adj.b22, g2)
        u1 = c.pd(adj.b11, w1) + c.pd(adj.b12, w2)
        u2 = c.pd(adj.b21, w1) + c.pd(adj.b22, w2)
        out.append(c.ik1 * c.fwd(u1) + c.ik2 * c.fwd(u2) + c.ksq * ch)
    q1, q2 = c.inv(c.ik1 * qh), c.inv(c.ik2 * qh)
    out[0] -= c.fwd(c.pd(adj.b11, q1) + c.pd(adj.b21, q2))
    out[1] -= c.fwd(c.pd(adj.b12, q1) + c.pd(adj.b22, q2))
    for oh in out:
        oh[0, 0] = 0.0
        oh *= c.deal
    return out[0], out[1]


def _rhs_f_divform(c: HalfSpectrum, t: GradTensor, vh: tuple[np.ndarray, np.ndarray], qh: np.ndarray):
    """Viscous part via the divergence form d1 F1 + d2 F2 (cross-check)."""
    adj = adjugate(t)
    alpha1 = 2.0 * t.d2y2 + c.pd(t.d2y1, t.d2y1) + c.pd(t.d2y2, t.d2y2)
    alpha2 = 2.0 * t.d1y1 + c.pd(t.d1y1, t.d1y1) + c.pd(t.d1y2, t.d1y2)
    beta = c.pd(adj.b11, t.d1y2) + c.pd(adj.b22, t.d2y1)
    out = []
    for ch in vh:
        g1, g2 = c.inv(c.ik1 * ch), c.inv(c.ik2 * ch)
        f1 = c.pd(alpha1, g1) - c.pd(beta, g2)
        f2 = c.pd(alpha2, g2) - c.pd(beta, g1)
        out.append(c.ik1 * c.fwd(f1) + c.ik2 * c.fwd(f2))
    q1, q2 = c.inv(c.ik1 * qh), c.inv(c.ik2 * qh)
    out[0] -= c.fwd(c.pd(adj.b11, q1) + c.pd(adj.b21, q2))
    out[1] -= c.fwd(c.pd(adj.b12, q1) + c.pd(adj.b22, q2))
    for oh in out:
        oh[0, 0] = 0.0
        oh *= c.deal
    return out[0], out[1]


def rhs_f(
    Y: tuple[RealField, RealField],
    Y_t: tuple[RealField, RealField],
    q: RealField,
    cross_check: bool = False,
):
    """Forcing f(Y, q); optionally also the relative divergence-form residual."""
    g = Y[0].grid
    c = half_spectrum(g)
    t = gradient_tensor(Y)
    vh = (c.fwd(Y_t[0].samples), c.fwd(Y_t[1].samples))
    qh = c.fwd(q.samples)
    f1h, f2h = _rhs_f_spectral(c, t, vh, qh)
    f = (RealField(g, c.inv(f1h)), RealField(g, c.inv(f2h)))
    if not cross_check:
        return f
    g1h, g2h = _rhs_f_divform(c, t, vh, qh)
    num = math.sqrt(float(np.sum(np.abs(c.inv(f1h - g1h)) ** 2 + np.abs(c.inv(f2h - g2h)) ** 2)))
    den = math.sqrt(float(np.sum(f[0].samples ** 2 + f[1].samples ** 2)))
    return f, (num / den if den > 0 else num)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowMapState:
    Y: tuple[RealField, RealField]
    Y_t: tuple[RealField, RealField]
    q: RealField
    t: float


def make_state(
    Y0: tuple[RealField, RealField],
    Y1: tuple[RealField, RealField],
    t: float = 0.0,
    pressure_tol: float = 1e-10,
) -> FlowMapState:
    """Assemble a state, solving the pressure equation for the initial q."""
    q, _ = pressure_solve(Y0, Y1, tol=pressure_tol, check_identity=False)
    return FlowMapState(Y0, Y1, q, t)


class _Stepper:
    """Internal spectral state marcher (``etd2rk_step`` on the pairs (Y^j, Y^j_t))."""

    def __init__(self, grid: Grid, dt: float, nonlinear: bool = True,
                 pressure_tol: float = 1e-10, extra_forcing=None,
                 check_identity: bool = False, constraint_projection: bool = False):
        self.c = half_spectrum(grid)
        self.grid = grid
        self.dt = dt
        self.nonlinear = nonlinear
        self.extra_forcing = extra_forcing
        self.pressure_tol = pressure_tol
        self.check_identity = check_identity
        self.constraint_projection = constraint_projection
        self.tables = _etd(grid, dt)
        self.qh = None
        self.last_pressure: PressureInfo | None = None

    def load(self, state: FlowMapState) -> None:
        c = self.c
        self.yh = [c.fwd(f.samples) for f in state.Y]
        self.vh = [c.fwd(f.samples) for f in state.Y_t]
        self.qh = c.fwd(state.q.samples)
        self.t = state.t

    def _forcing(self, z, s):
        """Forcing slots [(0, f^1), (0, f^2)] of the pairs z = [(Y^1, Y^1_t),
        (Y^2, Y^2_t)] at time t + s; the pressure is warm-started from, and
        stored back into, ``self.qh``."""
        c = self.c
        t = self.t + s
        yh, vh = (z[0][0], z[1][0]), (z[0][1], z[1][1])
        if not self.nonlinear:
            f1h = np.zeros_like(yh[0])
            f2h = f1h.copy()
            self.qh = np.zeros_like(yh[0])
        else:
            Y = tuple(RealField(self.grid, c.inv(h)) for h in yh)
            tgrad = gradient_tensor(Y)
            if not (tgrad.sup_norm <= 0.5):
                raise StateBlowupError(
                    f"||grad Y||_inf = {tgrad.sup_norm:.3f}, not <= 1/2, at t = {t:.4f}"
                )
            tv = gradient_tensor(tuple(RealField(self.grid, c.inv(h)) for h in vh))
            v_phys = (c.inv(vh[0]), c.inv(vh[1]))
            self.qh, self.last_pressure = _pressure_spectral(
                c, tgrad, tv, v_phys, yh[0], yh[1], self.qh,
                self.pressure_tol, 200, self.check_identity,
            )
            f1h, f2h = _rhs_f_spectral(c, tgrad, vh, self.qh)
        if self.extra_forcing is not None:
            e1, e2 = self.extra_forcing(t)
            f1h = f1h + e1
            f2h = f2h + e2
        return [(None, f1h), (None, f2h)]

    def advance(self) -> None:
        z = [(self.yh[0], self.vh[0]), (self.yh[1], self.vh[1])]
        (y1, v1), (y2, v2) = etd2rk_step(self.tables, z, self._forcing, self.dt)
        self.yh, self.vh = [y1, y2], [v1, v2]
        self.t += self.dt
        if self.constraint_projection:
            self._project_constraint()

    def _project_constraint(self) -> None:
        """Gradient update enforcing div Y = rho(Y).

        Off by default: the exact dynamics propagates the constraint and
        projecting would mask scheme errors; the mode exists to separate
        constraint drift from other error sources in studies.
        """
        c = self.c
        for _ in range(2):
            Y = tuple(RealField(self.grid, c.inv(h)) for h in self.yh)
            r = rho(Y)
            div_minus_rho = c.ik1 * self.yh[0] + c.ik2 * self.yh[1] - c.fwd(r.samples)
            if float(np.max(np.abs(div_minus_rho))) / (self.grid.nx * self.grid.ny) < 1e-16:
                break
            phi = -div_minus_rho * c.inv_ksq
            self.yh[0] = self.yh[0] - c.ik1 * phi
            self.yh[1] = self.yh[1] - c.ik2 * phi

    def fields(self) -> tuple[tuple[RealField, RealField], tuple[RealField, RealField]]:
        c = self.c
        Y = tuple(RealField(self.grid, c.inv(h)) for h in self.yh)
        V = tuple(RealField(self.grid, c.inv(h)) for h in self.vh)
        return Y, V

    def state(self) -> FlowMapState:
        c = self.c
        Y, V = self.fields()
        if self.nonlinear:
            q, _ = pressure_solve(Y, V, tol=self.pressure_tol,
                                  q0=RealField(self.grid, c.inv(self.qh)),
                                  check_identity=False)
        else:
            q = RealField(self.grid, np.zeros(self.grid.shape))
        return FlowMapState(Y, V, q, self.t)


def step(
    state: FlowMapState,
    dt: float,
    nonlinear: bool = True,
    extra_forcing=None,
    pressure_tol: float = 1e-10,
) -> FlowMapState:
    """One IMEX step: exact linear mode propagator + ETD2RK forcing."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = _Stepper(state.Y[0].grid, dt, nonlinear, pressure_tol, extra_forcing)
    s.load(state)
    s.advance()
    return s.state()


@dataclass
class LagrangianRun:
    states: list
    monitor_times: np.ndarray
    det_err: np.ndarray
    constraint_err: np.ndarray
    grad_inf: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    d1y_hs_sq: np.ndarray
    d2y_hs_sq: np.ndarray

    MONITOR_FIELDS = (
        "t", "det_err", "constraint_err", "grad_inf", "energy", "dissipation",
        "d1y_hs_sq", "d2y_hs_sq",
    )

    def monitors_rows(self):
        for i, t in enumerate(self.monitor_times):
            yield {
                "t": float(t),
                "det_err": float(self.det_err[i]),
                "constraint_err": float(self.constraint_err[i]),
                "grad_inf": float(self.grad_inf[i]),
                "energy": float(self.energy[i]),
                "dissipation": float(self.dissipation[i]),
                "d1y_hs_sq": float(self.d1y_hs_sq[i]),
                "d2y_hs_sq": float(self.d2y_hs_sq[i]),
            }

    def running_integral(self, channel: str) -> np.ndarray:
        v = getattr(self, channel)
        return np.concatenate(([0.0], np.cumsum(0.5 * np.diff(self.monitor_times) * (v[1:] + v[:-1]))))


def _state_monitors(
    Y: tuple[RealField, RealField], Y_t: tuple[RealField, RealField], s2p1: float
) -> tuple[float, float, float, float, float, float]:
    g = Y[0].grid
    t = gradient_tensor(Y)
    det = det_i_plus_grad(t)
    det_err = float(np.max(np.abs(det.samples - 1.0)))
    r = rho(Y)
    constraint = l2_norm(RealField(g, t.d1y1 + t.d2y2 - r.samples))
    grad_inf = t.sup_norm
    tv = gradient_tensor(Y_t)
    energy = 0.5 * (
        l2_norm(Y_t[0]) ** 2 + l2_norm(Y_t[1]) ** 2
        + l2_norm(RealField(g, t.d1y1)) ** 2 + l2_norm(RealField(g, t.d1y2)) ** 2
    )
    diss = (
        l2_norm(RealField(g, tv.d1y1)) ** 2 + l2_norm(RealField(g, tv.d2y1)) ** 2
        + l2_norm(RealField(g, tv.d1y2)) ** 2 + l2_norm(RealField(g, tv.d2y2)) ** 2
    )
    d1y = math.hypot(
        sobolev_norm(RealField(g, t.d1y1), s2p1),
        sobolev_norm(RealField(g, t.d1y2), s2p1),
    )
    d2y = math.hypot(
        sobolev_norm(RealField(g, t.d2y1), s2p1),
        sobolev_norm(RealField(g, t.d2y2), s2p1),
    )
    return det_err, constraint, grad_inf, energy, diss, d1y**2, d2y**2


def run_lagrangian(
    Y0: tuple[RealField, RealField],
    Y1: tuple[RealField, RealField],
    dt: float,
    t_end: float,
    store_every: int = 10,
    nonlinear: bool = True,
    pressure_tol: float = 1e-10,
    extra_forcing=None,
    s2_plus_1: float = 0.25,
    monitor_every: int = 1,
    constraint_projection: bool = False,
) -> LagrangianRun:
    """March the flow-map system, recording states and invariant monitors.

    ``constraint_projection`` switches on the optional gradient update that
    re-imposes div Y = rho(Y) after each step (off by default: the constraint
    is propagated by the dynamics and projection would mask scheme errors).
    """
    grid = Y0[0].grid
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer number of steps")
    st = make_state(Y0, Y1) if nonlinear else FlowMapState(
        Y0, Y1, RealField(grid, np.zeros(grid.shape)), 0.0
    )
    stepper = _Stepper(grid, dt, nonlinear, pressure_tol, extra_forcing,
                       constraint_projection=constraint_projection)
    stepper.load(st)
    states = [st]
    mon_t, rows = [0.0], [_state_monitors(st.Y, st.Y_t, s2_plus_1)]
    for n in range(1, n_steps + 1):
        stepper.advance()
        if n % monitor_every == 0 or n == n_steps:
            Yv, Vv = stepper.fields()
            mon_t.append(stepper.t)
            rows.append(_state_monitors(Yv, Vv, s2_plus_1))
        if n % store_every == 0 or n == n_steps:
            states.append(stepper.state())
    cols = list(zip(*rows))
    return LagrangianRun(
        states=states,
        monitor_times=np.asarray(mon_t),
        det_err=np.asarray(cols[0]),
        constraint_err=np.asarray(cols[1]),
        grad_inf=np.asarray(cols[2]),
        energy=np.asarray(cols[3]),
        dissipation=np.asarray(cols[4]),
        d1y_hs_sq=np.asarray(cols[5]),
        d2y_hs_sq=np.asarray(cols[6]),
    )


# ---------------------------------------------------------------------------
# flow-map composition and Eulerian reconstruction
# ---------------------------------------------------------------------------


def compose(u: RealField, displacement: tuple[RealField, RealField]) -> RealField:
    """u(y + Psi(y)) by periodic bicubic interpolation."""
    t = gradient_tensor(displacement)
    if not (t.sup_norm < 1.0):
        raise ValueError(f"displacement gradient {t.sup_norm:.3f}, not < 1, breaks local invertibility")
    return RealField(
        u.grid, PeriodicInterpolator(u)(u.grid.x1 + displacement[0].samples, u.grid.x2 + displacement[1].samples)
    )


def invert_flow_map(Y: tuple[RealField, RealField], tol: float = 1e-12, max_iterations: int = 60):
    """Displacement of the inverse map: X^{-1}(x) = x + D(x), by Newton."""
    g = Y[0].grid
    t = gradient_tensor(Y)
    if not (t.sup_norm <= 0.5):
        raise StateBlowupError(
            f"||grad Y||_inf = {t.sup_norm:.3f}, not <= 1/2: flow map too distorted for guaranteed inversion"
        )
    i_y1 = PeriodicInterpolator(Y[0])
    i_y2 = PeriodicInterpolator(Y[1])
    i_g = {k: PeriodicInterpolator(RealField(g, getattr(t, k))) for k in ("d1y1", "d2y1", "d1y2", "d2y2")}
    x1 = g.x1 + 0.0 * g.x2
    x2 = g.x2 + 0.0 * g.x1
    d1 = -Y[0].samples
    d2 = -Y[1].samples
    for _ in range(max_iterations):
        y1, y2 = x1 + d1, x2 + d2
        r1 = d1 + i_y1(y1, y2)
        r2 = d2 + i_y2(y1, y2)
        res = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        if res < tol:
            return RealField(g, d1), RealField(g, d2)
        j11 = 1.0 + i_g["d1y1"](y1, y2)
        j12 = i_g["d2y1"](y1, y2)
        j21 = i_g["d1y2"](y1, y2)
        j22 = 1.0 + i_g["d2y2"](y1, y2)
        det = j11 * j22 - j12 * j21
        d1 = d1 - (j22 * r1 - j12 * r2) / det
        d2 = d2 - (-j21 * r1 + j11 * r2) / det
    raise RuntimeError(f"flow-map inversion stalled at residual {res:.3e}")


def magnetic_pullback_check(Y: tuple[RealField, RealField]) -> tuple[RealField, RealField]:
    """Residual of A_Y (b o X) = (det(I + grad Y), 0); exact pointwise algebra."""
    g = Y[0].grid
    t = gradient_tensor(Y)
    adj = adjugate(t)
    b1 = 1.0 + t.d1y1
    b2 = t.d1y2
    det = det_i_plus_grad(t).samples
    r1 = adj.b11 * b1 + adj.b12 * b2 - det
    r2 = adj.b21 * b1 + adj.b22 * b2
    return RealField(g, r1), RealField(g, r2)


def to_eulerian(state: FlowMapState):
    """Reconstruct the Eulerian state: u = Y_t o X^{-1}, stream-like scalars
    from the displacement gradient, p = q o X^{-1} - |grad(x2 + psi)|^2.

    Returns (EulerState, psitilde, info) where info reports the curl residual
    of the reconstructed gradient fields and the divergence of u.
    """
    from mhd2d.eulerian import EulerState
    from mhd2d.grid import l2_norm

    g = state.Y[0].grid
    c = half_spectrum(g)
    dinv = invert_flow_map(state.Y)
    t = gradient_tensor(state.Y)
    u1 = compose(state.Y_t[0], dinv)
    u2 = compose(state.Y_t[1], dinv)

    def integrate_gradient(g1: RealField, g2: RealField):
        g1h, g2h = c.fwd(g1.samples), c.fwd(g2.samples)
        curl = c.inv(c.ik1 * g2h - c.ik2 * g1h)
        num = c.ik1 * g1h + c.ik2 * g2h
        ph = np.where(c.ksq > 0, num / np.where(c.ksq > 0, -c.ksq, 1.0), 0.0)
        # psi_hat solves i xi . (i xi psi) = div g  =>  -|xi|^2 psi = div g
        return RealField(g, c.inv(ph)), float(np.sqrt(g.cell_area * np.sum(curl**2)))

    gpsi1 = compose(RealField(g, -t.d1y2), dinv)
    gpsi2 = compose(RealField(g, t.d1y1), dinv)
    psi, curl_psi = integrate_gradient(gpsi1, gpsi2)
    gtil1 = compose(RealField(g, -t.d2y2), dinv)
    gtil2 = compose(RealField(g, t.d2y1), dinv)
    psitilde, curl_til = integrate_gradient(gtil1, gtil2)

    psih = c.fwd(psi.samples)
    dpsi1 = c.inv(c.ik1 * psih)
    dpsi2 = c.inv(c.ik2 * psih)
    p_raw = compose(state.q, dinv).samples - (dpsi1**2 + (1.0 + dpsi2) ** 2)
    p = RealField(g, p_raw - float(np.mean(p_raw)))
    div_u = c.inv(c.ik1 * c.fwd(u1.samples) + c.ik2 * c.fwd(u2.samples))
    info = {
        "curl_residual_psi": curl_psi,
        "curl_residual_psitilde": curl_til,
        "div_u_l2": float(np.sqrt(g.cell_area * np.sum(div_u**2))),
    }
    return EulerState(psi, (u1, u2), p, state.t), psitilde, info
