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

which contracts while ||grad Y||_inf stays small, to the L2 increment
``_PRESSURE_TOL`` = 1e-10; its q-independent source is assembled in the
conservative form ``div(dA/dt Y_t + (A - I) d1^2 Y) + d1^2 rho(Y)``, one
dealiased flux per component, whose mean is exactly zero.  One stage,
``_stage``, runs grad Y (checked small), the source and the fixed point;
``pressure_solve`` and the stepper both call it.  Every kernel reads A's
entries off grad Y (``GradTensor``); no step builds an ``AdjugateField``.

Each quadratic sum is dealiased once by the 2/3 rule (``HalfSpectrum.dh``,
exact because the truncation is linear); a nested product such as
(A - I) A^T grad q is dealiased at each level.  The spectral work runs on the
grid's shared ``half_spectrum`` context, and each step is one
``propagators.etd2rk_step`` on the pairs (Y^j, Y^j_t).  As in the system,
q belongs to the state: the stepper commits each state with its grad Y,
grad Y_t and q, solved at the state's own (Y, Y_t) from the predictor's q.
The first forcing stage of the next step reads all three and solves
nothing, the monitors read grad Y and grad Y_t, and a stored state is
inverse transforms of the held coefficients.  ``run_lagrangian`` monitors
each step from those coefficients: ``det_err``, ``||grad Y||_inf`` and
``||grad Y_t||_inf`` at the nodes, the constraint residual, the energy, the
dissipation and the H^{s2+1} norms of d_i Y by Plancherel.  It samples the
smallness margin's block tables from them too (``margin_every``), so the
margin needs no stored state.

``run_lagrangian`` and ``step`` march through the loop
``propagators._march``.  A step is committed only when its result is finite,
inside the small-data regime (``||grad Y||_inf <= 1/2``, one guard) and its
pressure fixed point converges.  Otherwise it raises ``StateBlowupError``
or ``PressureConvergenceError`` naming that step and its time, with the
state the step started from, q included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from mhd2d.diagnostics import MarginTables, _block_column, _e0_density, _margin_tables
from mhd2d.grid import Grid, HalfSpectrum, RealField, half_spectrum, l2_norm
from mhd2d.interp import PeriodicInterpolator
from mhd2d.linear import _flow_map_matrix
from mhd2d.lp import _homogeneous_weight
from mhd2d.propagators import MarchError, _march, _running_trapezoid, _step_count, etd2rk_step, etd_entries, etd_tables
from mhd2d.propagators import apply2  # noqa: F401  (perfbench checks apply2 is rebound here)

__all__ = [
    "FlowMapState",
    "AdjugateField",
    "GradTensor",
    "adjugate",
    "gradient_tensor",
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


class StateBlowupError(MarchError):
    """Raised when the ||grad Y||_inf <= 1/2 working assumption fails, or a
    step's result is not finite."""


class PressureConvergenceError(MarchError):
    """Raised when the pressure fixed point stops without converging."""


_PRESSURE_MAX_ITERATIONS = 200
_PRESSURE_TOL = 1e-10  # L2 size of the last fixed-point increment, for every solve


@lru_cache(maxsize=8)
def _etd(grid: Grid, dt: float):
    """ETD entry tables (``etd_entries``) of the flow-map mode matrix
    [[0, 1], [-xi1^2, -|xi|^2]]."""
    c = half_spectrum(grid)
    return etd_entries(etd_tables(_flow_map_matrix(c.k1, c.ksq), dt))


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
        acc = self.d1y1**2  # one buffer, summed in the order d1y1, d2y1, d1y2, d2y2
        for d in (self.d2y1, self.d1y2, self.d2y2):
            acc += d**2
        return float(np.max(np.sqrt(acc, out=acc)))


@dataclass(frozen=True)
class AdjugateField:
    """Adjugate of I + grad Y: [[1 + d2Y2, -d2Y1], [-d1Y2, 1 + d1Y1]]."""

    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray


def _grad_hat(c: HalfSpectrum, y1h: np.ndarray, y2h: np.ndarray) -> GradTensor:
    """grad Y at the nodes from the half-spectrum coefficients of Y^1, Y^2."""
    return GradTensor(c.grid, *c.grad(y1h), *c.grad(y2h))


def _small(grad: GradTensor) -> GradTensor:
    """``grad``; raises StateBlowupError unless ||grad Y||_inf <= 1/2 (NaN-safe)."""
    _check_small(grad.sup_norm)
    return grad


def _check_small(sup: float) -> None:
    if not (sup <= 0.5):
        raise StateBlowupError(f"||grad Y||_inf = {sup:.3f}, not <= 1/2")


def _grad_planes(c: HalfSpectrum, Y: tuple[RealField, RealField], sq: np.ndarray):
    """grad Y at the nodes one plane at a time, d1y1, d2y1, d1y2, d2y2, each
    made after the consumer has dropped the last; the generator keeps no
    reference to a plane it has yielded.  Their squares are summed into
    ``sq`` (zeros on entry) in that order, ``GradTensor.sup_norm``'s, so
    ``sqrt(max(sq))`` is its value bit for bit."""

    def summed(d: np.ndarray) -> np.ndarray:
        np.add(sq, d**2, out=sq)
        return d

    for f in Y:
        fh = c.fwd(f.samples)
        for ik in (c.ik1, c.ik2):
            yield summed(c.inv(ik * fh))
        del fh


def gradient_tensor(Y: tuple[RealField, RealField]) -> GradTensor:
    c = half_spectrum(Y[0].grid)
    return _grad_hat(c, c.fwd(Y[0].samples), c.fwd(Y[1].samples))


def adjugate(grad: GradTensor) -> AdjugateField:
    return AdjugateField(
        b11=1.0 + grad.d2y2,
        b12=-grad.d2y1,
        b21=-grad.d1y2,
        b22=1.0 + grad.d1y1,
    )


def det_i_plus_grad(grad: GradTensor) -> RealField:
    d = (1.0 + grad.d1y1) * (1.0 + grad.d2y2) - grad.d2y1 * grad.d1y2
    return RealField(grad.grid, d)


def _rho_hat(c: HalfSpectrum, t: GradTensor) -> np.ndarray:
    """Dealiased coefficients of rho(Y) = d1Y2 d2Y1 - d1Y1 d2Y2 from grad Y."""
    return c.dh(t.d1y2 * t.d2y1 - t.d1y1 * t.d2y2)


def _adj_t_hat(c: HalfSpectrum, t: GradTensor, q1: np.ndarray, q2: np.ndarray):
    """Dealiased coefficients of A^T (q1, q2), given at the nodes, with A read
    off grad Y (``t``)."""
    return c.dh((1.0 + t.d2y2) * q1 - t.d1y2 * q2), c.dh((1.0 + t.d1y1) * q2 - t.d2y1 * q1)


def _grad_y_hat(c: HalfSpectrum, t: GradTensor, qh: np.ndarray):
    """Dealiased coefficients of grad_Y q = A^T grad q, and grad q at the nodes."""
    q1, q2 = c.grad(qh)
    return _adj_t_hat(c, t, q1, q2), (q1, q2)


# ---------------------------------------------------------------------------
# div_Y d1^2 Y in its two conservative forms
# ---------------------------------------------------------------------------


def _form_a_fluxes(c: HalfSpectrum, t: GradTensor, y1h: np.ndarray, y2h: np.ndarray):
    """Form A's fluxes (A - I) d1^2 Y at the nodes, and d1^2 Y^1 (form B reads it)."""
    d11y1 = c.inv(c.ik1 * c.ik1 * y1h)
    d11y2 = c.inv(c.ik1 * c.ik1 * y2h)
    return (t.d2y2 * d11y1 - t.d2y1 * d11y2, t.d1y1 * d11y2 - t.d1y2 * d11y1), d11y1


def _div_y_d11_forms(c: HalfSpectrum, t: GradTensor, y1h: np.ndarray, y2h: np.ndarray):
    """Spectral right-hand sides of the identity

    div((A - I) d1^2 Y) + d1^2 rho(Y)
        = d1(d2Y2 d11Y1 + d1Y2 d12Y1 - d1(d1Y1 d2Y2)) + d2(-d1Y2 d11Y1 + d1Y1 d11Y2).
    """
    (u1, u2), d11y1 = _form_a_fluxes(c, t, y1h, y2h)
    # form A; its second flux is also the second flux of form B
    u2h = c.dh(u2)
    form_a = c.ik1 * c.dh(u1) + c.ik2 * u2h + c.ik1 * c.ik1 * _rho_hat(c, t)
    # form B
    d12y1 = c.inv(c.ik1 * c.ik2 * y1h)
    g1 = c.dh(t.d2y2 * d11y1 + t.d1y2 * d12y1) - c.ik1 * c.dh(t.d1y1 * t.d2y2)
    form_b = c.ik1 * g1 + c.ik2 * u2h
    return form_a, form_b


def div_y_d11(Y: tuple[RealField, RealField]) -> tuple[RealField, RealField]:
    """Both conservative forms of div_Y d1^2 Y, for identity checking."""
    g = Y[0].grid
    c = half_spectrum(g)
    y1h, y2h = c.fwd(Y[0].samples), c.fwd(Y[1].samples)
    fa, fb = _div_y_d11_forms(c, _grad_hat(c, y1h, y2h), y1h, y2h)
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


def _pressure_source(
    c: HalfSpectrum, t: GradTensor, tv: GradTensor, v: tuple[np.ndarray, np.ndarray], y1h: np.ndarray, y2h: np.ndarray
) -> np.ndarray:
    """The q-independent part of the pressure equation's right side,
    div(dA/dt Y_t + (A - I) d1^2 Y) + d1^2 rho(Y) in coefficients: one
    dealiased flux per component, plus rho's."""
    u1, u2 = _form_a_fluxes(c, t, y1h, y2h)[0]
    # dA/dt has the adjugate entry pattern applied to grad Y_t
    u1 += tv.d2y2 * v[0] - tv.d2y1 * v[1]
    u2 += tv.d1y1 * v[1] - tv.d1y2 * v[0]
    return c.ik1 * c.dh(u1) + c.ik2 * c.dh(u2) + c.ik1 * c.ik1 * _rho_hat(c, t)


def _pressure_map(c: HalfSpectrum, t: GradTensor, const: np.ndarray, qh: np.ndarray):
    """One step q -> q_new of the pressure fixed point, in coefficients; its
    work arrays die when it returns."""
    wh, (q1, q2) = _grad_y_hat(c, t, qh)
    w1q, w2q = c.inv(wh[0]), c.inv(wh[1])
    del wh
    # (A - I) A^T grad q + (A^T - I) grad q; each component is transformed
    # before the next is formed
    h1 = c.ik1 * c.dh(t.d2y2 * w1q - t.d2y1 * w2q + t.d2y2 * q1 - t.d1y2 * q2)
    h2 = c.ik2 * c.dh(t.d1y1 * w2q - t.d1y2 * w1q + t.d1y1 * q2 - t.d2y1 * q1)
    rhs = -(h1 + h2) + const
    qh_new = -rhs * c.inv_ksq
    qh_new[0, 0] = 0.0
    return qh_new


def _pressure_fixed_point(
    c: HalfSpectrum, t: GradTensor, const: np.ndarray, qh0: np.ndarray | None
) -> tuple[np.ndarray, PressureInfo]:
    """The fixed point q = ``_pressure_map``(q) from ``qh0`` (zero when None)."""
    qh = np.zeros_like(const) if qh0 is None else qh0  # never written in place
    inc_prev = math.inf
    contraction = 0.0
    for it in range(1, _PRESSURE_MAX_ITERATIONS + 1):
        qh_new = _pressure_map(c, t, const, qh)
        inc = math.sqrt(c.norm_sq(np.abs(qh_new - qh) ** 2))
        qh = qh_new
        if inc < _PRESSURE_TOL:
            return qh, PressureInfo(it, inc, contraction)
        contraction = inc / inc_prev if inc_prev < math.inf else 0.0
        if not (contraction < 1.0):
            break
        inc_prev = inc
    raise PressureConvergenceError(
        f"pressure fixed point stopped at iteration {it} of {_PRESSURE_MAX_ITERATIONS}: increment {inc:.3e}, "
        f"contraction {contraction:.3f}, ||grad Y||_inf = {t.sup_norm:.3f}"
    )


def _stage(c: HalfSpectrum, yh, tv: GradTensor, v: tuple[np.ndarray, np.ndarray], qh0: np.ndarray | None):
    """(grad Y checked small, q coefficients, PressureInfo) at (Y, Y_t),
    given Y's coefficients and grad Y_t (``tv``) and Y_t (``v``) at the nodes;
    ``v`` dies with the source, ahead of the fixed point from ``qh0``."""
    t = _small(_grad_hat(c, *yh))
    const = _pressure_source(c, t, tv, v, *yh)
    del v
    qh, info = _pressure_fixed_point(c, t, const, qh0)
    return t, qh, info


def pressure_solve(
    Y: tuple[RealField, RealField],
    Y_t: tuple[RealField, RealField],
    q0: RealField | None = None,
    check_identity: bool = True,
) -> tuple[RealField, PressureInfo]:
    """Solve the Lagrangian pressure equation; q has zero mean.

    The fixed point, warm-started from ``q0``, stops when the successive L2
    difference drops below ``_PRESSURE_TOL`` (1e-10), within 200 iterations.
    When ``check_identity``, the relative sup residual of the
    conservative-form identity for div_Y d1^2 Y is evaluated after the solve
    and reported in the info record; PressureConvergenceError above 1e-6.
    """
    g = Y[0].grid
    c = half_spectrum(g)
    yh = (c.fwd(Y[0].samples), c.fwd(Y[1].samples))
    qh0 = c.fwd(q0.samples) if q0 is not None else None
    t, qh, info = _stage(c, yh, gradient_tensor(Y_t), (Y_t[0].samples, Y_t[1].samples), qh0)
    if check_identity:
        form_a, form_b = _div_y_d11_forms(c, t, *yh)
        ident = float(np.max(np.abs(c.inv(form_a - form_b)))) / max(1.0, float(np.max(np.abs(form_a))))
        if ident > 1e-6:
            raise PressureConvergenceError(f"conservative-form identity residual {ident:.2e} out of bounds")
        info = replace(info, identity_residual=ident)
    return RealField(g, c.inv(qh)), info


# ---------------------------------------------------------------------------
# forcing f(Y, q)
# ---------------------------------------------------------------------------


def _minus_grad_y_q(c: HalfSpectrum, t: GradTensor, out: list, qh: np.ndarray):
    """out - grad_Y q, with the mean mode and the 2/3-truncated modes zeroed."""
    for oh, ph in zip(out, _grad_y_hat(c, t, qh)[0]):
        oh -= ph
        oh[0, 0] = 0.0
        oh *= c.deal
    return out[0], out[1]


def _viscous_hat(c: HalfSpectrum, t: GradTensor, g1: np.ndarray, g2: np.ndarray, ch: np.ndarray):
    """(div A A^T grad - Lap) of one component of Y_t, with coefficients ``ch``
    and gradient (g1, g2) at the nodes; its work arrays die when it returns."""
    w1h, w2h = _adj_t_hat(c, t, g1, g2)
    w1, w2 = c.inv(w1h), c.inv(w2h)
    u1h = c.dh((1.0 + t.d2y2) * w1 - t.d2y1 * w2)
    u2h = c.dh((1.0 + t.d1y1) * w2 - t.d1y2 * w1)
    return c.ik1 * u1h + c.ik2 * u2h + c.ksq * ch


def _rhs_f_spectral(c: HalfSpectrum, t: GradTensor, tv: GradTensor, vh: tuple[np.ndarray, np.ndarray], qh: np.ndarray):
    """f = (grad_Y . grad_Y - Lap) Y_t - grad_Y q in spectral form (direct),
    given grad Y (``t``) and grad Y_t (``tv``) at the nodes."""
    out = [
        _viscous_hat(c, t, tv.d1y1, tv.d2y1, vh[0]),
        _viscous_hat(c, t, tv.d1y2, tv.d2y2, vh[1]),
    ]
    return _minus_grad_y_q(c, t, out, qh)


def _rhs_f_divform(c: HalfSpectrum, t: GradTensor, vh: tuple[np.ndarray, np.ndarray], qh: np.ndarray):
    """Viscous part via the divergence form d1 F1 + d2 F2 (cross-check)."""
    alpha1 = 2.0 * t.d2y2 + c.inv(c.dh(t.d2y1 * t.d2y1 + t.d2y2 * t.d2y2))
    alpha2 = 2.0 * t.d1y1 + c.inv(c.dh(t.d1y1 * t.d1y1 + t.d1y2 * t.d1y2))
    beta = c.inv(c.dh((1.0 + t.d2y2) * t.d1y2 + (1.0 + t.d1y1) * t.d2y1))
    out = []
    for ch in vh:
        g1, g2 = c.inv(c.ik1 * ch), c.inv(c.ik2 * ch)
        out.append(c.ik1 * c.dh(alpha1 * g1 - beta * g2) + c.ik2 * c.dh(alpha2 * g2 - beta * g1))
    return _minus_grad_y_q(c, t, out, qh)


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
    f1h, f2h = _rhs_f_spectral(c, t, _grad_hat(c, *vh), vh, qh)
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


def make_state(Y0: tuple[RealField, RealField], Y1: tuple[RealField, RealField]) -> FlowMapState:
    """Assemble the state at t = 0, solving the pressure equation for the initial q."""
    q, _ = pressure_solve(Y0, Y1, check_identity=False)
    return FlowMapState(Y0, Y1, q, 0.0)


class _Stepper:
    """Internal spectral state marcher (``etd2rk_step`` on the pairs (Y^j, Y^j_t)).

    Each state is committed with grad Y, grad Y_t and its pressure q, so the
    first stage of a step solves nothing and ``state`` only transforms."""

    def __init__(self, grid: Grid, dt: float):
        self.c = half_spectrum(grid)
        self.grid = grid
        self.dt = dt
        self.tables = _etd(grid, dt)
        self.last_pressure: PressureInfo | None = None

    def load(self, state: FlowMapState) -> None:
        c = self.c
        qh = c.fwd(state.q.samples)
        self._hold([c.fwd(f.samples) for f in state.Y], [c.fwd(f.samples) for f in state.Y_t], state.t, qh)

    def _stage(self, yh, vh, qh0: np.ndarray):
        """(grad Y, grad Y_t, q) by ``_stage``; keeps its PressureInfo."""
        tv = _grad_hat(self.c, *vh)
        t, qh, self.last_pressure = _stage(self.c, yh, tv, (self.c.inv(vh[0]), self.c.inv(vh[1])), qh0)
        return t, tv, qh

    def _hold(self, yh: list, vh: list, t: float, qh0: np.ndarray) -> None:
        """Commit (Y, Y_t) at time t with grad Y (``ty``), grad Y_t (``tv``) and
        q (``qh``) from ``_stage``: StateBlowupError unless Y_t is finite and
        ||grad Y||_inf <= 1/2 (NaN-safe, so a non-finite Y fails it by name),
        PressureConvergenceError if the fixed point stops."""
        if not all(np.all(np.isfinite(h)) for h in vh):
            raise StateBlowupError("non-finite state")
        ty, tv, qh = self._stage(yh, vh, qh0)
        self.yh, self.vh, self.ty, self.tv, self.qh, self.t = yh, vh, ty, tv, qh, t

    def _forcing(self, z, s):
        """Forcing slots [(0, f^1), (0, f^2)] of the pairs z = [(Y^1, Y^1_t),
        (Y^2, Y^2_t)] at time t + s.  The held state brings its own grad Y_t and
        q; another stage runs ``_stage`` from the held q and keeps its q in
        ``stage_qh``, the commit's warm start.  One grad Y serves the pressure
        and the forcing."""
        yh, vh = (z[0][0], z[1][0]), (z[0][1], z[1][1])
        if yh[0] is self.yh[0] and yh[1] is self.yh[1]:
            t, tv, qh = self.ty, self.tv, self.qh
        else:
            t, tv, qh = self._stage(yh, vh, self.qh)
            self.stage_qh = qh
        f1h, f2h = _rhs_f_spectral(self.c, t, tv, vh, qh)
        return [(None, f1h), (None, f2h)]

    def advance(self) -> None:
        """One step, committed with its pressure only when ``_hold`` passes."""
        z = [(self.yh[0], self.vh[0]), (self.yh[1], self.vh[1])]
        (y1, v1), (y2, v2) = etd2rk_step(self.tables, z, self._forcing, self.dt)
        self._hold([y1, y2], [v1, v2], self.t + self.dt, self.stage_qh)

    def state(self) -> FlowMapState:
        """The committed state as real fields, q included; no solve."""
        c, g = self.c, self.grid
        Y, V = (tuple(RealField(g, c.inv(h)) for h in hs) for hs in (self.yh, self.vh))
        return FlowMapState(Y, V, RealField(g, c.inv(self.qh)), self.t)


def step(state: FlowMapState, dt: float) -> FlowMapState:
    """One IMEX step: exact linear mode propagator + ETD2RK forcing."""
    n_steps = _step_count(dt, dt)  # one step; rejects dt <= 0
    return _march(_Stepper(state.Y[0].grid, dt), lambda: state, n_steps, 1)[0][-1]


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
    grad_yt_inf: np.ndarray
    margin: MarginTables | None = None  # sampled every ``margin_every`` steps

    def running_integral(self, channel: str) -> np.ndarray:
        """Trapezoidal running integral of one monitor channel."""
        return _running_trapezoid(self.monitor_times, getattr(self, channel))


def _state_monitors(
    c: HalfSpectrum, t: GradTensor, yh: list[np.ndarray], vh: list[np.ndarray], s2p1: float
) -> tuple[float, float, float, float, float, float, float]:
    """Monitors of the state held as half-spectrum coefficients (Y^j, Y^j_t)
    with grad Y at the nodes (``t``): sup norms at the nodes, L2 and Sobolev
    norms by Plancherel."""
    # det(I + grad Y) - 1 = div Y + det(grad Y), without cancelling 1 against 1
    det_err = float(np.max(np.abs(t.d1y1 + t.d2y2 + (t.d1y1 * t.d2y2 - t.d2y1 * t.d1y2))))
    div_minus_rho = c.ik1 * yh[0] + c.ik2 * yh[1] - _rho_hat(c, t)
    constraint = math.sqrt(c.norm_sq(np.abs(div_minus_rho) ** 2))
    # weights |ik_i|^2 follow the Nyquist modes that _grad_hat zeroes
    k1sq, k2sq = np.abs(c.ik1) ** 2, np.abs(c.ik2) ** 2
    y_sq, v_sq = np.abs(yh[0]) ** 2 + np.abs(yh[1]) ** 2, np.abs(vh[0]) ** 2 + np.abs(vh[1]) ** 2
    energy = 0.5 * (c.norm_sq(v_sq) + c.norm_sq(k1sq * y_sq))
    diss = c.norm_sq((k1sq + k2sq) * v_sq)
    hs = _homogeneous_weight(c, s2p1) * y_sq
    return det_err, constraint, t.sup_norm, energy, diss, c.norm_sq(k1sq * hs), c.norm_sq(k2sq * hs)


def run_lagrangian(
    Y0: tuple[RealField, RealField],
    Y1: tuple[RealField, RealField],
    dt: float,
    t_end: float,
    store_every: int = 10,
    s2_plus_1: float = 0.25,
    monitor_every: int = 1,
    margin_every: int | None = None,
) -> LagrangianRun:
    """March the flow-map system, recording states and invariant monitors.

    States are stored at the start, every ``store_every`` steps and after
    the last.  Every ``monitor_every`` steps (and at those ends) the run
    records ``_state_monitors`` and ``||grad Y_t||_inf`` (``grad_yt_inf``,
    the integrand of the a priori bound of Y_t in L^1(R+; Lip)).  With
    ``margin_every``, it also samples the tables of the smallness margin
    (``diagnostics.smallness_margin``) at that cadence from the coefficients
    the stepper holds: no transform, and no state stored for them.
    """
    n_steps = _step_count(dt, t_end)
    if not (s2_plus_1 > -1.0):
        raise ValueError(
            f"s2_plus_1 = {s2_plus_1}: homogeneous exponent s <= -1 is unreliable on the periodic box"
        )
    s = _Stepper(Y0[0].grid, dt)
    monitors = [
        ("monitor_every", monitor_every, lambda: (*_state_monitors(s.c, s.ty, s.yh, s.vh, s2_plus_1), s.tv.sup_norm)),
    ]
    e0 = []  # the E_0 density of the first margin sample, t = 0
    if margin_every is not None:

        def margin_column():
            if not e0:
                e0.append(_e0_density(s.c, s.yh, s.vh))
            return (_block_column(s.c, s.yh, s.vh, s.qh),)

        monitors.append(("margin_every", margin_every, margin_column))
    states, [series, *margin] = _march(s, lambda: make_state(Y0, Y1), n_steps, store_every, monitors)
    run = LagrangianRun(states, *series)
    if margin:
        run.margin = _margin_tables(s.grid, *margin[0], e0[0])
    return run


# ---------------------------------------------------------------------------
# flow-map composition and Eulerian reconstruction
# ---------------------------------------------------------------------------


def _check_invertible(displacement: tuple[RealField, RealField]) -> None:
    """ValueError unless ||grad D||_inf < 1; holds one plane of grad D at a time."""
    g = displacement[0].grid
    sq = np.zeros(g.shape)
    for d in _grad_planes(half_spectrum(g), displacement, sq):
        del d  # only the summed squares are read
    sup = float(np.max(np.sqrt(sq, out=sq)))
    if not (sup < 1.0):
        raise ValueError(f"displacement gradient {sup:.3f}, not < 1, breaks local invertibility")


def compose(u: RealField, displacement: tuple[RealField, RealField]) -> RealField:
    """u(y + Psi(y)) by periodic bicubic interpolation; raises ValueError
    unless Psi lies on the grid of u and ||grad Psi||_inf < 1."""
    g = u.grid
    if bad := [d.grid for d in displacement if d.grid != g]:
        raise ValueError(f"displacement on {bad[0]}, u on {g}: both must lie on one grid")
    _check_invertible(displacement)
    return RealField(g, PeriodicInterpolator(u).at_displaced(displacement)[0])


def invert_flow_map(Y: tuple[RealField, RealField]):
    """Displacement of the inverse map: X^{-1}(x) = x + D(x), by Newton
    (at most 60 iterations, to sup residual 1e-12); raises StateBlowupError
    unless ||grad Y||_inf <= 1/2."""
    return _invert(Y, _gradient_interpolator(Y))


def _gradient_interpolator(Y: tuple[RealField, RealField]) -> PeriodicInterpolator:
    """Interpolator of grad Y (checked small), planes (d1y1, d2y1, d1y2, d2y2).

    Each plane is made, summed into ||grad Y||_inf's squares and prefiltered
    before the next is made, so it holds the interpolator, one buffer of
    squares, one component's coefficients and one plane, never the whole
    GradTensor."""
    g = Y[0].grid
    sq = np.zeros(g.shape)
    i_g = PeriodicInterpolator(planes=(g, 4, _grad_planes(half_spectrum(g), Y, sq)))
    _check_small(float(np.max(np.sqrt(sq, out=sq))))
    return i_g


def _invert(Y: tuple[RealField, RealField], i_g: PeriodicInterpolator):
    """``invert_flow_map`` given the interpolator of grad Y for the Newton
    Jacobian; holds the interpolator of Y, d and the residual r (2 planes
    each), and the Newton steps' row blocks."""
    g = Y[0].grid
    i_y = PeriodicInterpolator(*Y)
    d1 = -Y[0].samples
    d2 = -Y[1].samples
    r = np.empty((2,) + g.shape)
    for _ in range(60):
        res = _newton_step(i_y, i_g, d1, d2, r)
        if res < 1e-12:
            return RealField(g, d1), RealField(g, d2)
    raise RuntimeError(f"flow-map inversion stalled at residual {res:.3e}")


def _newton_step(
    i_y: PeriodicInterpolator, i_g: PeriodicInterpolator, d1: np.ndarray, d2: np.ndarray, r: np.ndarray
) -> float:
    """Sup residual of d + Y(x + d), written into ``r``; unless it is below
    1e-12, one Newton correction of d in place.  Two passes over row blocks
    (``PeriodicInterpolator.displaced``), the residual and its max, then the
    Jacobian update of each block of d: the points x + d, the Jacobian and
    its determinant exist one block at a time.  A NaN residual is its own
    max, so it never passes."""
    peaks = []
    for b, rb in i_y.displaced(d1, d2):
        rb[0] += d1[b]
        rb[1] += d2[b]
        r[:, b] = rb
        peaks.append(np.max(np.abs(rb)))
    res = float(np.max(peaks))
    if res < 1e-12:
        return res
    for b, j in i_g.displaced(d1, d2):  # planes j11, j12, j21, j22 of grad Y; j11, j22 += 1 below
        j[0] += 1.0
        j[3] += 1.0
        det = j[0] * j[3]
        det -= j[1] * j[2]
        # d1 -= (j22 r1 - j12 r2) / det and d2 -= (j11 r2 - j21 r1) / det, in the planes of j
        j[3] *= r[0, b]
        j[1] *= r[1, b]
        j[3] -= j[1]
        j[3] /= det
        d1[b] -= j[3]
        j[0] *= r[1, b]
        j[2] *= r[0, b]
        j[0] -= j[2]
        j[0] /= det
        d2[b] -= j[0]
    return res


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
    of the reconstructed gradient fields and the divergence of u.  It runs
    in a bounded working set:

    - grad Y is made and prefiltered one plane at a time
      (``_gradient_interpolator``); its interpolator serves the Newton
      inversion (``_invert``, in row blocks) and then the stream-like scalars;
    - the inverse displacement D is checked once, one plane of grad D at a
      time (``_check_invertible``);
    - every field composed with X^{-1} is evaluated in row blocks at x + D
      (``PeriodicInterpolator.at_displaced``), so no whole-field points
      exist: grad Y first, then its interpolator is dropped and
      ``integrate_gradient`` transforms and drops each plane it reads, ahead
      of the Y_t and q prefilters.
    """
    from mhd2d.eulerian import EulerState

    g = state.Y[0].grid
    c = half_spectrum(g)
    i_g = _gradient_interpolator(state.Y)
    dinv = _invert(state.Y, i_g)
    _check_invertible(dinv)
    # d1Y1, d2Y1, d1Y2, d2Y2 at X^{-1}, then the interpolator is dropped
    grad_at = i_g.at_displaced(dinv)
    del i_g

    def integrate_gradient(k1: int, k2: int):
        """psi with grad psi = (-grad_at[k1], grad_at[k2]) and its curl
        residual; both planes are transformed and dropped from ``grad_at``."""
        np.negative(grad_at[k1], out=grad_at[k1])
        g1h, g2h = c.fwd(grad_at[k1]), c.fwd(grad_at[k2])
        grad_at[k1] = grad_at[k2] = None
        curl_res = l2_norm(RealField(g, c.inv(c.ik1 * g2h - c.ik2 * g1h)))
        # psi_hat solves i xi . (i xi psi) = div g  =>  -|xi|^2 psi = div g
        ph = c.ik1 * g1h + c.ik2 * g2h
        del g1h, g2h
        ph /= np.where(c.ksq > 0, -c.ksq, 1.0)
        ph[~(c.ksq > 0)] = 0.0
        return RealField(g, c.inv(ph)), curl_res

    # grad psi = (-d1Y2, d1Y1) and grad psitilde = (-d2Y2, d2Y1) at X^{-1}
    psi, curl_psi = integrate_gradient(2, 0)
    psitilde, curl_til = integrate_gradient(3, 1)
    u1, u2 = (RealField(g, a) for a in PeriodicInterpolator(*state.Y_t).at_displaced(dinv))
    [q_at] = PeriodicInterpolator(state.q).at_displaced(dinv)
    del dinv

    dpsi1, dpsi2 = c.grad(c.fwd(psi.samples))
    p_raw = q_at - (dpsi1**2 + (1.0 + dpsi2) ** 2)
    del q_at, dpsi1, dpsi2
    p = RealField(g, p_raw - float(np.mean(p_raw)))
    info = {
        "curl_residual_psi": curl_psi,
        "curl_residual_psitilde": curl_til,
        "div_u_l2": l2_norm(RealField(g, c.inv(c.ik1 * c.fwd(u1.samples) + c.ik2 * c.fwd(u2.samples)))),
    }
    return EulerState(psi, (u1, u2), p, state.t), psitilde, info
