import math

import numpy as np
import pytest

from mhd2d import eulerian as eul
from mhd2d import lagrangian as lag
from mhd2d.fields import mode_field, random_band_field, random_solenoidal
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid, spectral_derivative
from mhd2d.linear import eigenvalues

TWO_PI = 2.0 * np.pi


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


def _zero_state(g):
    return eul.EulerState(_zeros(g), (_zeros(g), _zeros(g)), _zeros(g), 0.0)


def _linear_only(monkeypatch):
    """Zero the quadratic terms of every Euler step."""

    def zero(self, psih, ah):
        return np.zeros_like(psih), np.zeros_like(ah)

    monkeypatch.setattr(eul._EulerStepper, "_nonlinear", zero)


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------


def test_leray_kills_gradients(grid64, rng):
    f = random_band_field(grid64, rng, 1.0, 10.0)
    v = (spectral_derivative(f, 1), spectral_derivative(f, 2))
    out = eul.leray_project(v)
    assert l2_norm(out[0]) < 1e-12 and l2_norm(out[1]) < 1e-12


def test_leray_fixes_solenoidal(grid64, rng):
    u = random_solenoidal(grid64, rng, 1.0, 10.0)
    out = eul.leray_project(u)
    assert np.max(np.abs(out[0].samples - u[0].samples)) < 1e-12
    assert np.max(np.abs(out[1].samples - u[1].samples)) < 1e-12


def test_leray_output_divergence_and_orthogonality(grid64, rng):
    v = (random_band_field(grid64, rng, 1.0, 10.0), random_band_field(grid64, rng, 1.0, 10.0))
    out = eul.leray_project(v)
    div = (
        spectral_derivative(out[0], 1).samples + spectral_derivative(out[1], 2).samples
    )
    assert np.max(np.abs(div)) < 1e-12
    # output is L2-orthogonal to every gradient field
    f = random_band_field(grid64, rng, 1.0, 10.0)
    inner = np.sum(
        out[0].samples * spectral_derivative(f, 1).samples
        + out[1].samples * spectral_derivative(f, 2).samples
    ) * grid64.cell_area
    assert abs(inner) < 1e-10


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_equilibrium_fixed(grid32):
    st = eul.make_euler_state(_zeros(grid32), (_zeros(grid32), _zeros(grid32)))
    out = eul.step_euler(st, 0.1)
    assert l2_norm(out.psi) == 0.0
    assert l2_norm(out.u[0]) == 0.0 and l2_norm(out.u[1]) == 0.0


def test_linearized_dispersion_matches_eigenvalues(grid32):
    """Amplitude 1e-6: per-mode decay tracks the lambda theory to 1e-3.

    psi data rides the slow branch (lambda_minus) for xi1 != 0; a solenoidal
    velocity mode with xi1 = 0 rides the heat branch (lambda_plus); psi at
    xi1 = 0 is frozen by the transport degeneracy.
    """
    g = grid32
    amp = 1e-6
    cases = [
        ((1, 2), "psi", eigenvalues((1.0, 2.0)).lambda_minus.real),
        ((3, 0), "psi", eigenvalues((3.0, 0.0)).lambda_minus.real),
        ((0, 2), "u", eigenvalues((0.0, 2.0)).lambda_plus.real),
        ((0, 2), "psi", 0.0),
    ]
    for (m, n), kind, expected in cases:
        psi0 = mode_field(g, m, n, amp) if kind == "psi" else _zeros(g)
        if kind == "u":
            chi = mode_field(g, m, n, amp)
            u0 = (spectral_derivative(chi, 2), RealField(g, -spectral_derivative(chi, 1).samples))
        else:
            u0 = (_zeros(g), _zeros(g))
        i, j, _ = half_spectrum(g).mode_index(m, n)
        s = eul._EulerStepper(g, 0.02)
        s.load(eul.make_euler_state(psi0, u0))
        vals, times = [], []
        for _ in range(301):
            coeff = s.psih if kind == "psi" else s.ah
            vals.append(abs(coeff[i, j]))
            times.append(s.t)
            s.advance()
        vals = np.asarray(vals)
        times = np.asarray(times)
        if expected == 0.0:
            assert abs(vals[-1] / vals[0] - 1.0) < 1e-10
            continue
        keep = vals > vals[0] * 1e-12
        tail = keep & (times > times[keep][-1] / 2.0)
        slope = np.polyfit(times[tail], np.log(vals[tail]), 1)[0]
        assert slope == pytest.approx(expected, rel=2e-3)


def test_nonlinear_small_amplitude_stays_near_linear(grid32, rng, monkeypatch):
    psi0 = random_band_field(grid32, rng, 1.0, 4.0, 1e-6)
    u0 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-6)
    non = eul.run_euler(psi0, u0, 0.05, 1.0)
    _linear_only(monkeypatch)
    lin = eul.run_euler(psi0, u0, 0.05, 1.0)
    a = lin.states[-1]
    b = non.states[-1]
    diff = l2_norm(RealField(grid32, a.psi.samples - b.psi.samples))
    assert diff < 1e-6 * max(l2_norm(a.psi), 1e-30) + 1e-15


def test_divergence_preserved_across_steps(grid32, rng):
    psi0 = random_band_field(grid32, rng, 1.0, 5.0, 1e-3)
    u0 = random_solenoidal(grid32, rng, 1.0, 5.0, 1e-3)
    run = eul.run_euler(psi0, u0, 0.01, 1.0, aux_every=10)
    assert np.max(run.div_u_linf) < 1e-10


def test_blowup_on_nan():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    bad = RealField(g, np.zeros(g.shape))
    st = eul.EulerState(bad, (bad, bad), bad, 0.0)
    object.__setattr__(st.psi, "samples", np.full(g.shape, np.nan))
    with pytest.raises((eul.EulerBlowupError, ValueError)):
        eul.step_euler(st, 0.01)


def test_run_euler_blowup_reports_last_finite_state(grid32, rng, monkeypatch):
    """NaN in the forcing of step 7: the error carries the state after step 6."""
    nonlinear = eul._EulerStepper._nonlinear
    calls = []

    def poisoned(self, psih, ah):
        calls.append(self.t)
        n_psi, n_a = nonlinear(self, psih, ah)
        if len(calls) == 13:  # the first forcing evaluation of step 7
            n_a[1, 1] = np.nan
        return n_psi, n_a

    monkeypatch.setattr(eul._EulerStepper, "_nonlinear", poisoned)
    psi0 = random_band_field(grid32, rng, 1.0, 4.0, 1e-3)
    u0 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-3)
    with pytest.raises(eul.EulerBlowupError, match="step 7") as err:
        eul.run_euler(psi0, u0, 0.01, 1.0)
    last = err.value.last_state
    assert last.t == calls[12]
    assert np.all(np.isfinite(last.psi.samples)) and np.all(np.isfinite(last.u[1].samples))


def test_solvers_share_context_and_bound_etd_caches():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    same = make_grid(16, 16, TWO_PI, TWO_PI)
    assert eul._EulerStepper(g, 0.01).c is lag._Stepper(same, 0.01).c is half_spectrum(g)
    for etd in (eul._etd, lag._etd):
        bound = etd.cache_info().maxsize
        assert bound is not None
        assert etd(g, 0.01) is etd(same, 0.01)
        for n in range(bound + 2):
            etd(g, 0.01 * (n + 2))
        assert etd.cache_info().currsize <= bound


def test_running_integrals_match_trapezoid_loop(rng):
    """Running trapezoid integrals equal the term-by-term loop bit for bit."""
    t = np.cumsum(rng.random(40) * 0.1)
    v = rng.standard_normal(40) * np.exp(3.0 * rng.standard_normal(40))
    loop = np.zeros_like(v)
    for i in range(1, v.size):
        loop[i] = loop[i - 1] + 0.5 * (t[i] - t[i - 1]) * (v[i] + v[i - 1])
    erun = eul.EulerRun([], t, v, v, t, v, v)
    lrun = lag.LagrangianRun([], t, v, v, v, v, v, v, v, v)
    assert np.array_equal(erun.running_blowup_integral(), loop)
    assert np.array_equal(lrun.running_integral("d1y_hs_sq"), loop)


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------


def test_energy_ledger_zero_state(grid32):
    s = eul._EulerStepper(grid32, 1e-3)
    s.load(_zero_state(grid32))
    assert s.energy() == (0.0, 0.0)


def test_energy_ledger_heat_mode_residual(grid32, monkeypatch):
    """Pure heat mode with the exact propagator: the stepper's E and D (the
    ones run_euler samples) close the trapezoid balance dE/dt + mean(D) to
    below 1e-10 on every step."""
    g = grid32
    chi = mode_field(g, 0, 1, 1.0)
    u0 = (spectral_derivative(chi, 2), RealField(g, -spectral_derivative(chi, 1).samples))
    scale = math.sqrt(2.0) / math.sqrt(l2_norm(u0[0]) ** 2 + l2_norm(u0[1]) ** 2)
    u0 = (RealField(g, scale * u0[0].samples), RealField(g, scale * u0[1].samples))
    _linear_only(monkeypatch)
    dt = 1e-5
    s = eul._EulerStepper(g, dt)
    s.load(eul.make_euler_state(_zeros(g), u0))
    e_prev, d_prev = s.energy()
    assert e_prev == pytest.approx(1.0, rel=1e-12)
    worst = 0.0
    for _ in range(10):
        s.advance()
        e, d = s.energy()
        worst = max(worst, abs((e - e_prev) / dt + 0.5 * (d + d_prev)))
        e_prev, d_prev = e, d
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# blow-up integrand and pressure
# ---------------------------------------------------------------------------


def _blowup_integrand(st):
    """||grad u||_Linf + ||grad psi||_Linf^2 of a state, from its samples."""
    c = half_spectrum(st.psi.grid)
    return eul._blowup_hat(c, *(c.fwd(f.samples) for f in (st.psi, *st.u)))


def test_blowup_integrand_zero(grid32):
    assert _blowup_integrand(_zero_state(grid32)) == 0.0


def test_blowup_integrand_product_mode(grid64):
    eps = 1e-2
    psi = RealField.from_function(grid64, lambda x, y: eps * np.sin(x) * np.sin(y))
    st = eul.EulerState(psi, (_zeros(grid64), _zeros(grid64)), _zeros(grid64), 0.0)
    # max |grad psi|^2 = eps^2 (one factor at extremum, the other's derivative 1)
    assert _blowup_integrand(st) == pytest.approx(eps**2, rel=1e-10)


def test_run_euler_aux_series_matches_blowup_integrand_of_stored_states(grid32, rng):
    """Aux samples come from the stepper's coefficients; the integrand
    recomputed from the stored state's samples at the same times must agree."""
    psi = random_band_field(grid32, rng, 1.0, 8.0, 0.05)
    u = random_solenoidal(grid32, rng, 1.0, 8.0, 0.05)
    run = eul.run_euler(psi, u, 0.01, 0.1, store_every=1, aux_every=1)
    assert np.array_equal(run.aux_times, [st.t for st in run.states])
    ref = np.array([_blowup_integrand(st) for st in run.states])
    assert np.max(np.abs(run.blowup - ref) / ref) <= 1e-13
    assert np.max(run.div_u_linf) <= 1e-13 * np.min(run.blowup)


def test_pressure_euler_zero(grid32):
    assert l2_norm(eul.pressure_euler(_zero_state(grid32))) == 0.0


def test_pressure_euler_single_mode_closed_form(grid64):
    """u = 0, psi = sin(x1): p = -cos(2 x1) / 2."""
    psi = RealField.from_function(grid64, lambda x, y: np.sin(x) + 0 * y)
    st = eul.EulerState(psi, (_zeros(grid64), _zeros(grid64)), _zeros(grid64), 0.0)
    p = eul.pressure_euler(st)
    expected = -np.cos(2 * grid64.x1) / 2.0 + 0 * grid64.x2
    assert np.max(np.abs(p.samples - expected)) < 1e-10


def _momentum_divergence_residual(state):
    """L2 norm of div(momentum tendency) with the pressure of ``pressure_euler``;
    the time derivative drops because div u = 0."""
    g = state.psi.grid
    c = half_spectrum(g)
    psih = c.fwd(state.psi.samples)
    ph = c.fwd(eul.pressure_euler(state).samples)
    # advection + magnetic tensor divergence per component
    s11, s12, s22 = eul._stress_hat(c, state.u[0].samples, state.u[1].samples, psih)
    f1 = c.ik1 * s11 + c.ik2 * s12
    f2 = c.ik1 * s12 + c.ik2 * s22
    # linear coupling (d1 d2 psi, (Lap + d2^2) psi)
    l1 = c.ik1 * c.ik2 * psih
    l2 = (-c.ksq + c.ik2 * c.ik2) * psih
    r1 = f1 + l1 + c.ik1 * ph
    r2 = f2 + l2 + c.ik2 * ph
    div = c.inv(c.ik1 * r1 + c.ik2 * r2)
    return float(np.sqrt(g.cell_area * np.sum(div**2)))


def test_momentum_divergence_consistency(grid64, rng):
    for _ in range(5):
        psi = random_band_field(grid64, rng, 1.0, 8.0, 0.1)
        u = random_solenoidal(grid64, rng, 1.0, 8.0, 0.1)
        st = eul.EulerState(psi, u, _zeros(grid64), 0.0)
        assert _momentum_divergence_residual(st) < 1e-8
