"""Direct solver for the perturbation system around the equilibrium.

Unknowns (psi, u, p) with div u = 0:

    psi_t + u . grad psi + u^2 = 0,
    u^1_t + u . grad u^1 - Lap u^1 + d1 d2 psi = -d1 p - div(d1 psi grad psi),
    u^2_t + u . grad u^2 - Lap u^2 + (Lap + d2^2) psi = -d2 p - div(d2 psi grad psi),

where u^2 is the second velocity component (superscript, not a square).
The pressure is eliminated by Leray projection.  Per mode, the velocity is
stored through its solenoidal amplitude a = u . (-xi2, xi1)/|xi|, and the
projected linear coupling closes the 2x2 system

    d/dt (psi, a) = [[0, -xi1/|xi|], [xi1 |xi|, -|xi|^2]] (psi, a) + nonlinear,

whose symbol is exactly ``lam^2 + |xi|^2 lam + xi1^2 = 0``.  Stepping is the
exact mode propagator plus ETD2RK for the quadratic terms, which are always
on (``propagators.etd2rk_step`` on the pair (psi, a), with the entry tables
of ``etd_entries``), on the grid's shared ``half_spectrum`` context.  Each
quadratic sum, such as the stress ``u_i u_j + d_i psi d_j psi``, is formed
in place and dealiased once (``HalfSpectrum.dh``).  The projected momentum
forcing needs only the traceless part of the stress, ``S11 - S22`` and
``S12``: the trace is a gradient, which the projection onto ``e`` removes.
The continuation integrand ``||grad u||_inf + ||grad psi||_inf^2`` is sampled
on the 2x finer grid by zero padding the half spectrum
(``HalfSpectrum.inv_fine``), one derivative field at a time.  ``run_euler``
takes every monitor from the coefficients the stepper holds: the energy and
dissipation by Plancherel, ``div_u_linf`` from the velocity ``e a`` at the
nodes, and the continuation integrand on the finer grid.  ``run_euler`` and ``step_euler`` march through
the loop ``propagators._march``; a step whose result is not finite is not
committed and raises ``EulerBlowupError`` naming the step and its time, with
the state the step started from.  The stepper's stages, monitors and states
ignore numpy's overflow and invalid-value warnings, so that check alone
reports a blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, half_spectrum
from mhd2d.propagators import MarchError, _march, _running_trapezoid, _step_count, etd2rk_step, etd_entries, etd_tables
from mhd2d.propagators import apply2  # noqa: F401  (perfbench checks apply2 is rebound here)

__all__ = [
    "EulerState",
    "EulerRun",
    "EulerBlowupError",
    "leray_project",
    "step_euler",
    "run_euler",
    "make_euler_state",
    "pressure_euler",
]


class EulerBlowupError(MarchError):
    """Raised when a step's result is not finite."""


@dataclass(frozen=True)
class EulerState:
    psi: RealField
    u: tuple[RealField, RealField]
    p: RealField
    t: float


@lru_cache(maxsize=8)
def _etd(grid: Grid, dt: float):
    """ETD entry tables (``etd_entries``) of the projected mode matrix
    [[0, -xi1/|xi|], [xi1 |xi|, -|xi|^2]]."""
    c = half_spectrum(grid)
    m = np.zeros(c.shape + (2, 2))
    m[..., 0, 1] = -c.e2.real
    m[..., 1, 0] = c.k1 * np.sqrt(c.ksq)
    m[..., 1, 1] = -c.ksq
    return etd_entries(etd_tables(m, dt))


def leray_project(v: tuple[RealField, RealField]) -> tuple[RealField, RealField]:
    """L2-orthogonal projection onto divergence-free fields."""
    g = v[0].grid
    c = half_spectrum(g)
    v1h, v2h = c.fwd(v[0].samples), c.fwd(v[1].samples)
    phi = -(c.ik1 * v1h + c.ik2 * v2h) * c.inv_ksq  # InvLap(div v)
    return (
        RealField(g, c.inv(v1h - c.ik1 * phi)),
        RealField(g, c.inv(v2h - c.ik2 * phi)),
    )


def _amplitude(c: HalfSpectrum, u: tuple[RealField, RealField]) -> np.ndarray:
    u1h, u2h = c.fwd(u[0].samples), c.fwd(u[1].samples)
    return c.e1 * u1h + c.e2 * u2h


def _velocity(c: HalfSpectrum, ah: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return c.e1 * ah, c.e2 * ah


def _stress_hat(c: HalfSpectrum, u1: np.ndarray, u2: np.ndarray, psih: np.ndarray):
    """Dealiased coefficients of u_i u_j + d_i psi d_j psi for ij = 11, 12, 22."""
    d1p, d2p = c.grad(psih)
    return c.dh(u1 * u1 + d1p * d1p), c.dh(u1 * u2 + d1p * d2p), c.dh(u2 * u2 + d2p * d2p)


def _state_hat(c: HalfSpectrum, psih: np.ndarray, ah: np.ndarray, t: float) -> EulerState:
    """The state at time t from the coefficients of psi and a, with its pressure."""
    g = c.grid
    u1h, u2h = _velocity(c, ah)
    psi = RealField(g, c.inv(psih))
    u = (RealField(g, c.inv(u1h)), RealField(g, c.inv(u2h)))
    return EulerState(psi, u, pressure_euler(EulerState(psi, u, RealField.zeros(g), t)), t)


def make_euler_state(psi0: RealField, u0: tuple[RealField, RealField]) -> EulerState:
    """The state at t = 0: dealias, project, and attach the consistent pressure."""
    c = half_spectrum(psi0.grid)
    return _state_hat(c, c.fwd(psi0.samples) * c.deal, _amplitude(c, leray_project(u0)) * c.deal, 0.0)


# A step whose result overflows is rejected by name in ``_hold`` (non-finite
# state, at its step and time); the stages, monitors and report state that
# run on the growing fields before that check stay quiet.
_quiet = np.errstate(over="ignore", invalid="ignore")


class _EulerStepper:
    def __init__(self, grid: Grid, dt: float):
        self.c = half_spectrum(grid)
        self.dt = dt
        self.tables = _etd(grid, dt)

    def load(self, state: EulerState) -> None:
        c = self.c
        self._hold(c.fwd(state.psi.samples) * c.deal, _amplitude(c, state.u) * c.deal, state.t)

    def _hold(self, psih, ah, t: float) -> None:
        """Hold (psi, a) at time t; EulerBlowupError unless both are finite."""
        if not (np.all(np.isfinite(psih)) and np.all(np.isfinite(ah))):
            raise EulerBlowupError("non-finite state")
        self.psih, self.ah, self.t = psih, ah, t

    def _nonlinear(self, psih, ah):
        """(N_psi, N_a): each product formed into one of three work arrays and
        summed in place, in the order of the written-out sums."""
        c = self.c
        u1h, u2h = _velocity(c, ah)
        u1, u2 = c.inv(u1h), c.inv(u2h)
        d1psi, d2psi = c.grad(psih)
        a, b = u1 * d1psi, u2 * d2psi
        a += b
        n_psi = c.dh(a)
        np.negative(n_psi, out=n_psi)
        n_psi[0, 0] = 0.0
        # u . grad u^c = div(u u^c); magnetic forcing -div(d_c psi grad psi).
        # Projected onto e, only the traceless part of the stress remains.
        tmp = np.empty_like(a)
        np.multiply(u1, u1, out=a)
        a += np.multiply(d1psi, d1psi, out=tmp)
        np.multiply(u2, u2, out=b)
        b += np.multiply(d2psi, d2psi, out=tmp)
        a -= b  # (u1 u1 + d1psi d1psi) - (u2 u2 + d2psi d2psi)
        sd = c.dh(a)
        np.multiply(u1, u2, out=b)
        b += np.multiply(d1psi, d2psi, out=tmp)
        s12 = c.dh(b)
        # n_a = -(wd sd + w12 s12)
        n_a = np.multiply(c.wd, sd, out=sd)
        n_a += np.multiply(c.w12, s12, out=s12)
        np.negative(n_a, out=n_a)
        return n_psi, n_a

    @_quiet
    def advance(self) -> None:
        """One ETD2RK step, committed only when its result is finite."""
        [(psih, ah)] = etd2rk_step(
            self.tables, [(self.psih, self.ah)], lambda z, _: [self._nonlinear(*z[0])], self.dt
        )
        self._hold(psih, ah, self.t + self.dt)

    @_quiet
    def energy(self) -> tuple[float, float]:
        """E = (||grad psi||^2 + ||u||^2)/2 and D = ||grad u||^2 (Plancherel)."""
        c = self.c
        a_sq = np.abs(self.ah) ** 2
        return 0.5 * (c.norm_sq(c.ksq * np.abs(self.psih) ** 2) + c.norm_sq(a_sq)), c.norm_sq(c.ksq * a_sq)

    @_quiet
    def sup_monitors(self) -> tuple[float, float]:
        """||div u||_inf of the velocity e a at the nodes, and the continuation
        integrand on the 2x finer grid."""
        c = self.c
        u1h, u2h = _velocity(c, self.ah)
        div_linf = float(np.max(np.abs(c.inv(c.ik1 * u1h + c.ik2 * u2h))))
        return div_linf, _blowup_hat(c, self.psih, u1h, u2h)

    @_quiet
    def state(self) -> EulerState:
        return _state_hat(self.c, self.psih, self.ah, self.t)


def step_euler(state: EulerState, dt: float) -> EulerState:
    """One IMEX step; raises EulerBlowupError on a non-finite state or result."""
    n_steps = _step_count(dt, dt)  # one step; rejects dt <= 0
    return _march(_EulerStepper(state.psi.grid, dt), lambda: state, n_steps, 1)[0][-1]


@dataclass
class EulerRun:
    states: list
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    aux_times: np.ndarray
    div_u_linf: np.ndarray
    blowup: np.ndarray

    def balance_residual_per_time(self) -> float:
        """|E(T) - E(0) + int D dt| / T with trapezoidal quadrature."""
        t = self.times
        diss_int = float(np.trapezoid(self.dissipation, t))
        return abs(float(self.energy[-1] - self.energy[0]) + diss_int) / float(t[-1] - t[0])

    def running_blowup_integral(self) -> np.ndarray:
        """Trapezoidal running integral of the continuation-criterion integrand."""
        return _running_trapezoid(self.aux_times, self.blowup)


def run_euler(
    psi0: RealField,
    u0: tuple[RealField, RealField],
    dt: float,
    t_end: float,
    store_every: int = 1000000,
    monitor_every: int = 1,
    aux_every: int | None = None,
) -> EulerRun:
    """March the perturbation system; cheap spectral energy monitors run on
    the ``monitor_every`` cadence, oversampled sup-norm diagnostics on the
    coarser ``aux_every`` cadence."""
    n_steps = _step_count(dt, t_end)
    if aux_every is None:
        aux_every = max(1, n_steps // 100)
    s = _EulerStepper(psi0.grid, dt)
    states, ((times, es, ds), (aux_t, divs, blow)) = _march(
        s, lambda: make_euler_state(psi0, u0), n_steps, store_every,
        [("monitor_every", monitor_every, s.energy), ("aux_every", aux_every, s.sup_monitors)],
    )
    return EulerRun(states, times, es, ds, aux_t, divs, blow)


def _blowup_hat(c: HalfSpectrum, psih: np.ndarray, u1h: np.ndarray, u2h: np.ndarray) -> float:
    """The continuation integrand ||grad u||_Linf + ||grad psi||_Linf^2 on the
    2x oversampled grid, from the half-spectrum coefficients of psi, u^1, u^2.

    The six derivatives go to the finer grid one field at a time (a stack of
    six falls out of cache), each squared in place; the velocity's squares
    are summed in the order ((d1u1^2 + d2u1^2) + d1u2^2) + d2u2^2."""

    def fine_sq(ik: np.ndarray, fh: np.ndarray) -> np.ndarray:
        f = c.inv_fine(ik * fh)
        return np.multiply(f, f, out=f)

    grad_psi_sq = fine_sq(c.ik1, psih)
    grad_psi_sq += fine_sq(c.ik2, psih)
    grad_u_sq = fine_sq(c.ik1, u1h)
    for ik, fh in ((c.ik2, u1h), (c.ik1, u2h), (c.ik2, u2h)):
        grad_u_sq += fine_sq(ik, fh)
    return float(np.max(np.sqrt(grad_u_sq, out=grad_u_sq))) + float(np.max(grad_psi_sq))


def pressure_euler(state: EulerState) -> RealField:
    """p = -2 d2 psi + InvLap div(u . grad u + div(grad psi x grad psi)),
    zero mean."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    s11, s12, s22 = _stress_hat(c, state.u[0].samples, state.u[1].samples, psih)
    acc = c.ik1 * c.ik1 * s11 + 2.0 * c.ik1 * c.ik2 * s12 + c.ik2 * c.ik2 * s22
    ph = -2.0 * c.ik2 * psih + acc * c.inv_ksq
    ph[0, 0] = 0.0
    return RealField(g, c.inv(ph))
