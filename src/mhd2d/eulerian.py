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
exact mode propagator plus ETD2RK for the quadratic terms
(``propagators.etd2rk_step`` on the pair (psi, a)), on the grid's shared
``half_spectrum`` context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mhd2d.grid import Grid, HalfSpectrum, RealField, half_spectrum, l2_norm
from mhd2d.lp import oversample
from mhd2d.propagators import apply2, etd2rk_step, etd_tables  # noqa: F401  (perfbench checks apply2 is rebound here)

__all__ = [
    "EulerState",
    "EulerRun",
    "EulerBlowupError",
    "leray_project",
    "step_euler",
    "run_euler",
    "make_euler_state",
    "energy_ledger_update",
    "blowup_integrand",
    "pressure_euler",
    "momentum_divergence_residual",
]


class EulerBlowupError(RuntimeError):
    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class EulerState:
    psi: RealField
    u: tuple[RealField, RealField]
    p: RealField
    t: float


@lru_cache(maxsize=8)
def _etd(grid: Grid, dt: float):
    """ETD tables of the projected mode matrix [[0, -xi1/|xi|], [xi1 |xi|, -|xi|^2]]."""
    c = half_spectrum(grid)
    m = np.zeros(c.ksq.shape + (2, 2))
    m[..., 0, 1] = -c.e2
    m[..., 1, 0] = c.k1 * np.sqrt(c.ksq)
    m[..., 1, 1] = -c.ksq
    return etd_tables(m, dt)


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


def make_euler_state(psi0: RealField, u0: tuple[RealField, RealField], t: float = 0.0) -> EulerState:
    """Dealias, project, and attach the consistent pressure."""
    g = psi0.grid
    c = half_spectrum(g)
    u = leray_project(u0)
    psih = c.fwd(psi0.samples) * c.deal
    ah = _amplitude(c, u) * c.deal
    u1h, u2h = _velocity(c, ah)
    psi = RealField(g, c.inv(psih))
    uu = (RealField(g, c.inv(u1h)), RealField(g, c.inv(u2h)))
    state = EulerState(psi, uu, RealField(g, np.zeros(g.shape)), t)
    return EulerState(psi, uu, pressure_euler(state), t)


class _EulerStepper:
    def __init__(self, grid: Grid, dt: float, nonlinear: bool = True):
        self.c = half_spectrum(grid)
        self.grid = grid
        self.dt = dt
        self.nonlinear = nonlinear
        self.tables = _etd(grid, dt)

    def load(self, state: EulerState) -> None:
        c = self.c
        self.psih = c.fwd(state.psi.samples) * c.deal
        self.ah = _amplitude(c, state.u) * c.deal
        self.t = state.t

    def _nonlinear(self, psih, ah):
        c = self.c
        if not self.nonlinear:
            z = np.zeros_like(psih)
            return z, z.copy()
        u1h, u2h = _velocity(c, ah)
        u1, u2 = c.inv(u1h), c.inv(u2h)
        d1psi, d2psi = c.inv(c.ik1 * psih), c.inv(c.ik2 * psih)
        n_psi = -(c.pdh(u1, d1psi) + c.pdh(u2, d2psi))
        n_psi[0, 0] = 0.0
        # u . grad u^c = div(u u^c); magnetic forcing -div(d_c psi grad psi)
        s11 = c.pdh(u1, u1)
        s12 = c.pdh(u1, u2)
        s22 = c.pdh(u2, u2)
        p11 = c.pdh(d1psi, d1psi)
        p12 = c.pdh(d1psi, d2psi)
        p22 = c.pdh(d2psi, d2psi)
        n1 = -(c.ik1 * s11 + c.ik2 * s12) - (c.ik1 * p11 + c.ik2 * p12)
        n2 = -(c.ik1 * s12 + c.ik2 * s22) - (c.ik1 * p12 + c.ik2 * p22)
        n_a = c.e1 * n1 + c.e2 * n2
        return n_psi, n_a

    def advance(self) -> None:
        [(self.psih, self.ah)] = etd2rk_step(
            self.tables, [(self.psih, self.ah)], lambda z, _: [self._nonlinear(*z[0])], self.dt
        )
        self.t += self.dt

    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.psih)) and np.all(np.isfinite(self.ah)))

    def energy(self) -> tuple[float, float]:
        """E = (||grad psi||^2 + ||u||^2)/2 and D = ||grad u||^2 (spectral)."""
        c = self.c
        area = self.grid.lx * self.grid.ly
        norm = (self.grid.nx * self.grid.ny) ** 2
        psi2 = c.lattice_sum(c.ksq * np.abs(self.psih) ** 2)
        a2 = c.lattice_sum(np.abs(self.ah) ** 2)
        d2 = c.lattice_sum(c.ksq * np.abs(self.ah) ** 2)
        return area * 0.5 * (psi2 + a2) / norm, area * d2 / norm

    def state(self, with_pressure: bool = True) -> EulerState:
        c = self.c
        g = self.grid
        u1h, u2h = _velocity(c, self.ah)
        st = EulerState(
            RealField(g, c.inv(self.psih)),
            (RealField(g, c.inv(u1h)), RealField(g, c.inv(u2h))),
            RealField(g, np.zeros(g.shape)),
            self.t,
        )
        if with_pressure:
            st = EulerState(st.psi, st.u, pressure_euler(st), st.t)
        return st


def step_euler(state: EulerState, dt: float, nonlinear: bool = True) -> EulerState:
    """One IMEX step; raises EulerBlowupError with the last good state on NaN."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = _EulerStepper(state.psi.grid, dt, nonlinear)
    s.load(state)
    s.advance()
    if not s.finite():
        raise EulerBlowupError(f"non-finite state at t = {s.t:.4f}", last_state=state)
    return s.state()


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
        b = self.blowup
        return np.concatenate(([0.0], np.cumsum(0.5 * np.diff(self.aux_times) * (b[1:] + b[:-1]))))


def run_euler(
    psi0: RealField,
    u0: tuple[RealField, RealField],
    dt: float,
    t_end: float,
    store_every: int = 1000000,
    monitor_every: int = 1,
    aux_every: int | None = None,
    nonlinear: bool = True,
) -> EulerRun:
    """March the perturbation system; cheap spectral energy monitors run on
    the ``monitor_every`` cadence, oversampled sup-norm diagnostics on the
    coarser ``aux_every`` cadence."""
    grid = psi0.grid
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer number of steps")
    if aux_every is None:
        aux_every = max(1, n_steps // 100)
    st = make_euler_state(psi0, u0)
    s = _EulerStepper(grid, dt, nonlinear)
    s.load(st)
    states = [st]
    e0, d0 = s.energy()
    times, es, ds = [0.0], [e0], [d0]
    aux_t, divs, blow = [0.0], [_div_linf(st)], [blowup_integrand(st)]
    for n in range(1, n_steps + 1):
        last = (s.psih, s.ah, s.t)
        s.advance()
        if not s.finite():
            t_bad = s.t
            s.psih, s.ah, s.t = last
            raise EulerBlowupError(
                f"non-finite state at step {n}, t = {t_bad:.4f}", last_state=s.state()
            )
        if n % monitor_every == 0 or n == n_steps:
            e, d = s.energy()
            times.append(s.t)
            es.append(e)
            ds.append(d)
        if n % aux_every == 0 or n == n_steps:
            snap = s.state(with_pressure=False)
            aux_t.append(s.t)
            divs.append(_div_linf(snap))
            blow.append(blowup_integrand(snap))
        if n % store_every == 0 or n == n_steps:
            states.append(s.state())
    return EulerRun(
        states=states,
        times=np.asarray(times),
        energy=np.asarray(es),
        dissipation=np.asarray(ds),
        aux_times=np.asarray(aux_t),
        div_u_linf=np.asarray(divs),
        blowup=np.asarray(blow),
    )


def _div_linf(state: EulerState) -> float:
    g = state.psi.grid
    c = half_spectrum(g)
    div = c.inv(c.ik1 * c.fwd(state.u[0].samples) + c.ik2 * c.fwd(state.u[1].samples))
    return float(np.max(np.abs(div)))


def energy_ledger_update(state: EulerState, previous: dict | None = None) -> dict:
    """E, D and (given the previous record) the discrete balance residual
    |dE/dt + mean(D)| over the elapsed interval."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    gpsi1, gpsi2 = c.inv(c.ik1 * psih), c.inv(c.ik2 * psih)
    e = 0.5 * (
        l2_norm(RealField(g, gpsi1)) ** 2
        + l2_norm(RealField(g, gpsi2)) ** 2
        + l2_norm(state.u[0]) ** 2
        + l2_norm(state.u[1]) ** 2
    )
    d = 0.0
    for comp in state.u:
        ch = c.fwd(comp.samples)
        d += l2_norm(RealField(g, c.inv(c.ik1 * ch))) ** 2
        d += l2_norm(RealField(g, c.inv(c.ik2 * ch))) ** 2
    rec = {"t": state.t, "energy": e, "dissipation": d, "residual": None}
    if previous is not None:
        h = state.t - previous["t"]
        if h <= 0:
            raise ValueError("states must be time-ordered")
        rec["residual"] = abs((e - previous["energy"]) / h + 0.5 * (d + previous["dissipation"]))
    return rec


def blowup_integrand(state: EulerState) -> float:
    """||grad u||_Linf + ||grad psi||_Linf^2 on the 2x oversampled grid."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    gp1 = oversample(RealField(g, c.inv(c.ik1 * psih))).samples
    gp2 = oversample(RealField(g, c.inv(c.ik2 * psih))).samples
    grad_psi_sq = float(np.max(gp1**2 + gp2**2))
    acc = None
    for comp in state.u:
        ch = c.fwd(comp.samples)
        g1 = oversample(RealField(g, c.inv(c.ik1 * ch))).samples
        g2 = oversample(RealField(g, c.inv(c.ik2 * ch))).samples
        acc = g1**2 + g2**2 if acc is None else acc + g1**2 + g2**2
    return float(np.max(np.sqrt(acc))) + grad_psi_sq


def pressure_euler(state: EulerState) -> RealField:
    """p = -2 d2 psi + InvLap div(u . grad u + div(grad psi x grad psi)),
    zero mean."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    d1p, d2p = c.inv(c.ik1 * psih), c.inv(c.ik2 * psih)
    u1, u2 = state.u[0].samples, state.u[1].samples
    s = {
        (1, 1): c.pdh(u1, u1) + c.pdh(d1p, d1p),
        (1, 2): c.pdh(u1, u2) + c.pdh(d1p, d2p),
        (2, 2): c.pdh(u2, u2) + c.pdh(d2p, d2p),
    }
    ik = {1: c.ik1, 2: c.ik2}
    acc = np.zeros_like(psih)
    for (i, j), sij in s.items():
        factor = 1.0 if i == j else 2.0
        acc += factor * ik[i] * ik[j] * sij
    ph = -2.0 * c.ik2 * psih + acc * c.inv_ksq
    ph[0, 0] = 0.0
    return RealField(g, c.inv(ph))


def momentum_divergence_residual(state: EulerState) -> float:
    """L2 norm of div(momentum tendency) with the recovered pressure; the
    time derivative drops because div u = 0."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    d1p, d2p = c.inv(c.ik1 * psih), c.inv(c.ik2 * psih)
    u1, u2 = state.u[0].samples, state.u[1].samples
    ph = c.fwd(pressure_euler(state).samples)
    # advection + magnetic tensor divergence per component
    f1 = c.ik1 * (c.pdh(u1, u1) + c.pdh(d1p, d1p)) + c.ik2 * (c.pdh(u1, u2) + c.pdh(d1p, d2p))
    f2 = c.ik1 * (c.pdh(u1, u2) + c.pdh(d1p, d2p)) + c.ik2 * (c.pdh(u2, u2) + c.pdh(d2p, d2p))
    # linear coupling (d1 d2 psi, (Lap + d2^2) psi)
    l1 = c.ik1 * c.ik2 * psih
    l2 = (-c.ksq + c.ik2 * c.ik2) * psih
    r1 = f1 + l1 + c.ik1 * ph
    r2 = f2 + l2 + c.ik2 * ph
    div = c.inv(c.ik1 * r1 + c.ik2 * r2)
    return float(np.sqrt(g.cell_area * np.sum(div**2)))