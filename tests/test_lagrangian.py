import math

import numpy as np
import pytest

from mhd2d import lagrangian as lag
from mhd2d.fields import random_band_field, random_solenoidal
from mhd2d.grid import (
    RealField,
    SpectralField,
    dealias,
    from_spectral,
    half_spectrum,
    l2_norm,
    make_grid,
    spectral_derivative,
    to_spectral,
)
from mhd2d.interp import PeriodicInterpolator
from mhd2d.linear import evolve_linear

TWO_PI = 2.0 * np.pi


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


def _pair(g):
    return (_zeros(g), _zeros(g))


def _small_vector(g, rng, amp=1e-2, kmax=None):
    kmax = kmax if kmax is not None else g.nx / 6.0
    return (
        random_band_field(g, rng, 1.0, kmax, amp),
        random_band_field(g, rng, 1.0, kmax, amp),
    )


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


def test_adjugate_identity_at_zero(grid32):
    adj = lag.adjugate(lag.gradient_tensor(_pair(grid32)))
    assert np.max(np.abs(adj.b11 - 1.0)) == 0.0
    assert np.max(np.abs(adj.b22 - 1.0)) == 0.0
    assert np.max(np.abs(adj.b12)) == 0.0 and np.max(np.abs(adj.b21)) == 0.0


def test_adjugate_times_matrix_is_det(grid64, rng):
    """(I + grad Y) A_Y = det(I + grad Y) I pointwise (2x2 algebra)."""
    for _ in range(20):
        Y = _small_vector(grid64, rng, amp=0.05, kmax=8)
        t = lag.gradient_tensor(Y)
        adj = lag.adjugate(t)
        det = lag.det_i_plus_grad(t).samples
        a11, a12 = 1.0 + t.d1y1, t.d1y2
        a21, a22 = t.d2y1, 1.0 + t.d2y2
        # rows of (I + grad Y)^T A (matrix composition in the y-index)
        m11 = a11 * adj.b11 + a21 * adj.b21
        m12 = a11 * adj.b12 + a21 * adj.b22
        m21 = a12 * adj.b11 + a22 * adj.b21
        m22 = a12 * adj.b12 + a22 * adj.b22
        assert np.max(np.abs(m11 - det)) < 1e-12
        assert np.max(np.abs(m22 - det)) < 1e-12
        assert np.max(np.abs(m12)) < 1e-12 and np.max(np.abs(m21)) < 1e-12


def test_adjugate_piola_identity(grid64, rng):
    """Columns of A_Y are divergence free (spectral differentiation)."""
    Y = _small_vector(grid64, rng, amp=0.05, kmax=8)
    adj = lag.adjugate(lag.gradient_tensor(Y))
    g = grid64
    for col in ((adj.b11, adj.b21), (adj.b12, adj.b22)):
        div = (
            spectral_derivative(RealField(g, col[0]), 1).samples
            + spectral_derivative(RealField(g, col[1]), 2).samples
        )
        assert np.max(np.abs(div)) < 1e-10


def test_rho_zero_and_separable(grid64):
    assert l2_norm(lag.rho(_pair(grid64))) == 0.0
    y1 = RealField.from_function(grid64, lambda x, y: 0.02 * np.sin(2 * y))
    y2 = RealField.from_function(grid64, lambda x, y: 0.03 * np.cos(x))
    r = lag.rho((y1, y2))
    expected = (-0.03 * np.sin(grid64.x1)) * (0.04 * np.cos(2 * grid64.x2))
    assert np.max(np.abs(r.samples - expected)) < 1e-12


def test_det_expansion_identity(grid64, rng):
    """det(I + grad Y) = 1 + div Y - rho(Y) for band-limited Y (exact)."""
    Y = _small_vector(grid64, rng, amp=0.05, kmax=10)
    t = lag.gradient_tensor(Y)
    det = lag.det_i_plus_grad(t).samples
    div = t.d1y1 + t.d2y2
    # pointwise products here, matching the determinant's pointwise algebra
    rho_point = t.d1y2 * t.d2y1 - t.d1y1 * t.d2y2
    assert np.max(np.abs(det - (1.0 + div - rho_point))) < 1e-13


def test_lagrangian_gradient_identity_cases(grid64):
    q = RealField.from_function(grid64, lambda x, y: np.sin(x) + 0 * y)
    adj = lag.adjugate(lag.gradient_tensor(_pair(grid64)))
    g1, g2 = lag.lagrangian_gradient(q, adj)
    assert np.max(np.abs(g1.samples - np.cos(grid64.x1 + 0 * grid64.x2))) < 1e-12
    assert np.max(np.abs(g2.samples)) < 1e-12


def test_lagrangian_gradient_chain_rule_oracle(rng):
    """A^T grad q matches (grad_x (q o X^-1)) o X through interpolation.

    The identity needs a volume-preserving map (the adjugate is the inverse
    only when det = 1), so Y comes from a stream-function flow."""
    g = make_grid(256, 256, TWO_PI, TWO_PI)
    chi = random_band_field(g, rng, 1.0, 3.0, 0.03)
    Y = flow_displacement(chi)
    q = random_band_field(g, rng, 1.0, 4.0, 1.0)
    adj = lag.adjugate(lag.gradient_tensor(Y))
    direct = lag.lagrangian_gradient(q, adj)
    dinv = lag.invert_flow_map(Y)
    q_eul = lag.compose(q, dinv)
    pulled = []
    for axis in (1, 2):
        dq = spectral_derivative(q_eul, axis)
        pulled.append(lag.compose(dq, Y))
    for got, ref in zip(direct, pulled):
        assert np.max(np.abs(got.samples - ref.samples)) < 1e-4


def test_magnetic_pullback_identity(grid64, rng):
    z = lag.magnetic_pullback_check(_pair(grid64))
    assert l2_norm(z[0]) == 0.0 and l2_norm(z[1]) == 0.0
    Y = _small_vector(grid64, rng, amp=0.2, kmax=8)
    r1, r2 = lag.magnetic_pullback_check(Y)
    assert np.max(np.abs(r1.samples)) < 1e-12
    assert np.max(np.abs(r2.samples)) < 1e-12


def test_div_y_d11_two_forms_agree(grid64, rng):
    for _ in range(10):
        Y = _small_vector(grid64, rng, amp=0.05, kmax=grid64.nx / 6.0)
        fa, fb = lag.div_y_d11(Y)
        scale = max(1.0, np.max(np.abs(fa.samples)))
        assert np.max(np.abs(fa.samples - fb.samples)) / scale < 1e-10


# ---------------------------------------------------------------------------
# pressure solve
# ---------------------------------------------------------------------------


def test_pressure_zero_state(grid32):
    q, info = lag.pressure_solve(_pair(grid32), _pair(grid32))
    assert l2_norm(q) == 0.0
    assert info.iterations <= 2


def test_pressure_manufactured_solution(rng):
    """Insert the forcing matching a chosen q*; the fixed point returns q*.

    The forcing is assembled with an independent full-fft transcription of
    the elliptic operator, not the solver's internals."""
    g = make_grid(48, 48, TWO_PI, TWO_PI)
    Y = _small_vector(g, rng, amp=0.03, kmax=6)
    q_star = random_band_field(g, rng, 1.0, 6.0, 1.0)

    t = lag.gradient_tensor(Y)
    b11, b12, b21, b22 = 1.0 + t.d2y2, -t.d2y1, -t.d1y2, 1.0 + t.d1y1

    def dx(arr, axis):
        return spectral_derivative(RealField(g, arr), axis).samples

    def clean(arr):
        return from_spectral(dealias(to_spectral(RealField(g, arr)))).samples

    q1, q2 = dx(q_star.samples, 1), dx(q_star.samples, 2)
    w1 = clean(b11 * q1) + clean(b21 * q2)
    w2 = clean(b12 * q1) + clean(b22 * q2)
    v1 = clean((b11 - 1.0) * w1) + clean(b12 * w2)
    v2 = clean(b21 * w1) + clean((b22 - 1.0) * w2)
    z1 = clean((b11 - 1.0) * q1) + clean(b21 * q2)
    z2 = clean(b12 * q1) + clean((b22 - 1.0) * q2)
    lap_q = dx(q1, 1) + dx(q2, 2)
    form_a, _ = lag.div_y_d11(Y)
    source = lap_q + dx(v1 + z1, 1) + dx(v2 + z2, 2) - form_a.samples

    q, info = lag.pressure_solve(
        Y, _pair(g), extra_source=RealField(g, source), tol=1e-13, check_identity=False
    )
    q_shift = q.samples - np.mean(q.samples)
    ref = q_star.samples - np.mean(q_star.samples)
    assert np.max(np.abs(q_shift - ref)) < 1e-9


def test_pressure_manufactured_with_y_terms(rng):
    """Full manufactured check including the Y-dependent source terms."""
    g = make_grid(48, 48, TWO_PI, TWO_PI)
    Y = _small_vector(g, rng, amp=0.03, kmax=6)
    V = _small_vector(g, rng, amp=0.03, kmax=6)
    q_ref, info = lag.pressure_solve(Y, V, tol=1e-13)
    # residual of the elliptic equation, assembled independently
    t = lag.gradient_tensor(Y)
    tv = lag.gradient_tensor(V)
    b11, b12, b21, b22 = 1.0 + t.d2y2, -t.d2y1, -t.d1y2, 1.0 + t.d1y1

    def dx(arr, axis):
        return spectral_derivative(RealField(g, arr), axis).samples

    def clean(arr):
        return from_spectral(dealias(to_spectral(RealField(g, arr)))).samples

    q1, q2 = dx(q_ref.samples, 1), dx(q_ref.samples, 2)
    w1 = clean(b11 * q1) + clean(b21 * q2)
    w2 = clean(b12 * q1) + clean(b22 * q2)
    v1 = clean((b11 - 1.0) * w1) + clean(b12 * w2)
    v2 = clean(b21 * w1) + clean((b22 - 1.0) * w2)
    z1 = clean((b11 - 1.0) * q1) + clean(b21 * q2)
    z2 = clean(b12 * q1) + clean((b22 - 1.0) * q2)
    a11, a12, a21, a22 = tv.d2y2, -tv.d2y1, -tv.d1y2, tv.d1y1
    adv1 = clean(a11 * V[0].samples) + clean(a12 * V[1].samples)
    adv2 = clean(a21 * V[0].samples) + clean(a22 * V[1].samples)
    form_a, _ = lag.div_y_d11(Y)
    lap_q = dx(q1, 1) + dx(q2, 2)
    residual = (
        lap_q
        + dx(v1 + z1, 1)
        + dx(v2 + z2, 2)
        - dx(adv1, 1)
        - dx(adv2, 2)
        - form_a.samples
    )
    assert np.max(np.abs(residual)) < 1e-9


def test_pressure_identity_check_runs(grid32, rng):
    Y = _small_vector(grid32, rng, amp=0.02, kmax=5)
    V = _small_vector(grid32, rng, amp=0.02, kmax=5)
    q, info = lag.pressure_solve(Y, V, check_identity=True)
    assert info.identity_residual is not None and info.identity_residual < 1e-10


def test_pressure_rejects_distorted_state(grid32):
    big = RealField.from_function(grid32, lambda x, y: 0.8 * np.sin(x))
    with pytest.raises(lag.StateBlowupError):
        lag.pressure_solve((big, _zeros(grid32)), _pair(grid32))


# ---------------------------------------------------------------------------
# forcing f(Y, q)
# ---------------------------------------------------------------------------


def test_rhs_f_reduces_to_gradient(grid32, rng):
    """Y = 0: f = -grad q exactly."""
    q = random_band_field(grid32, rng, 1.0, 5.0, 1.0)
    f = lag.rhs_f(_pair(grid32), _pair(grid32), q)
    g1 = spectral_derivative(q, 1).samples
    g2 = spectral_derivative(q, 2).samples
    assert np.max(np.abs(f[0].samples + g1)) < 1e-12
    assert np.max(np.abs(f[1].samples + g2)) < 1e-12


def test_rhs_f_zero_velocity_zero_pressure(grid32, rng):
    Y = _small_vector(grid32, rng, amp=0.05, kmax=5)
    f = lag.rhs_f(Y, _pair(grid32), _zeros(grid32))
    assert l2_norm(f[0]) == 0.0 and l2_norm(f[1]) == 0.0


def test_rhs_f_divergence_form_cross_check(grid64, rng):
    for _ in range(5):
        Y = _small_vector(grid64, rng, amp=0.04, kmax=grid64.nx / 6.0)
        V = _small_vector(grid64, rng, amp=0.04, kmax=grid64.nx / 6.0)
        q = random_band_field(grid64, rng, 1.0, grid64.nx / 6.0, 0.05)
        _, rel = lag.rhs_f(Y, V, q, cross_check=True)
        assert rel < 1e-8


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_step_zero_state(grid32):
    st = lag.FlowMapState(_pair(grid32), _pair(grid32), _zeros(grid32), 0.0)
    out = lag.step(st, 0.05)
    assert l2_norm(out.Y[0]) == 0.0 and l2_norm(out.Y_t[1]) == 0.0


def test_step_linear_reduction_matches_evolve_linear(grid32, rng):
    """With the nonlinearity disabled the stepper is the exact propagator."""
    Y0 = _small_vector(grid32, rng, amp=1.0, kmax=8)
    Y1 = _small_vector(grid32, rng, amp=1.0, kmax=8)
    st = lag.FlowMapState(Y0, Y1, _zeros(grid32), 0.0)
    dt = 0.37
    out = lag.step(st, dt, nonlinear=False)
    ref = evolve_linear(Y0, Y1, [0.0, dt])
    got = to_spectral(out.Y[0]).coeffs
    assert np.max(np.abs(got - ref.yhat[1, 0])) < 1e-13
    gotv = to_spectral(out.Y_t[1]).coeffs
    assert np.max(np.abs(gotv - ref.vhat[1, 1])) < 1e-13


def test_step_manufactured_temporal_order(rng):
    """Richardson study on a forced problem: observed order >= 1.9."""
    g = make_grid(24, 24, TWO_PI, TWO_PI)
    W = _small_vector(g, rng, amp=5e-3, kmax=3)
    omega = 1.3

    def a(t):
        return math.cos(omega * t)

    def a_t(t):
        return -omega * math.sin(omega * t)

    def a_tt(t):
        return -omega * omega * math.cos(omega * t)

    ctx = half_spectrum(g)
    w_hat = [ctx.fwd(W[0].samples), ctx.fwd(W[1].samples)]

    def exact(t):
        return (
            RealField(g, a(t) * W[0].samples),
            RealField(g, a(t) * W[1].samples),
        )

    def forcing(t):
        Yt_ = exact(t)
        Vt_ = (RealField(g, a_t(t) * W[0].samples), RealField(g, a_t(t) * W[1].samples))
        q_t, _ = lag.pressure_solve(Yt_, Vt_, tol=1e-13, check_identity=False)
        f = lag.rhs_f(Yt_, Vt_, q_t)
        out = []
        for comp in range(2):
            lin_part = (
                a_tt(t) * w_hat[comp]
                + a_t(t) * ctx.ksq * w_hat[comp]
                - a(t) * (ctx.ik1 * ctx.ik1) * w_hat[comp]
            )
            out.append(lin_part - ctx.fwd(f[comp].samples))
        return out[0], out[1]

    t_end = 0.5
    errs = []
    for n in (8, 16, 32):
        dt = t_end / n
        st = lag.make_state(exact(0.0), (RealField(g, a_t(0.0) * W[0].samples), RealField(g, a_t(0.0) * W[1].samples)))
        s = lag._Stepper(g, dt, nonlinear=True, pressure_tol=1e-13, extra_forcing=forcing)
        s.load(st)
        for _ in range(n):
            s.advance()
        final = s.fields()[0]
        ref = exact(t_end)
        errs.append(
            max(
                np.max(np.abs(final[0].samples - ref[0].samples)),
                np.max(np.abs(final[1].samples - ref[1].samples)),
            )
        )
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order2 >= 1.9 or order1 >= 1.9


def test_constraint_projection_mode(grid32, rng):
    """Optional projection keeps div Y = rho(Y) tighter than the free run."""
    z = _pair(grid32)
    y1 = random_solenoidal(grid32, rng, 1.0, 5.0, 5e-2)
    free = lag.run_lagrangian(z, y1, 0.05, 1.0, store_every=10**9, monitor_every=4)
    proj = lag.run_lagrangian(
        z, y1, 0.05, 1.0, store_every=10**9, monitor_every=4, constraint_projection=True
    )
    assert np.max(proj.constraint_err) <= np.max(free.constraint_err)
    assert np.max(proj.constraint_err) < 1e-11


def test_step_aborts_on_distortion(grid32):
    big = RealField.from_function(grid32, lambda x, y: 0.9 * np.sin(x))
    st = lag.FlowMapState((big, _zeros(grid32)), _pair(grid32), _zeros(grid32), 0.0)
    with pytest.raises(lag.StateBlowupError):
        lag.step(st, 0.01)


def _nan_y(g):
    return (RealField(g, np.full(g.shape, np.nan)), _zeros(g))


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda g: lag.pressure_solve(_nan_y(g), _pair(g)), lag.StateBlowupError),
        (lambda g: lag.step(lag.FlowMapState(_nan_y(g), _pair(g), _zeros(g), 0.0), 0.01), lag.StateBlowupError),
        (lambda g: lag.compose(_zeros(g), _nan_y(g)), ValueError),
        (lambda g: lag.invert_flow_map(_nan_y(g)), lag.StateBlowupError),
    ],
    ids=["pressure_solve", "stepper_forcing", "compose", "invert_flow_map"],
)
def test_small_data_guards_fire_on_nan(grid32, call, exc):
    """A NaN displacement fails the ||grad Y||_inf guard before any iteration."""
    with pytest.raises(exc, match="nan"):
        call(grid32)


# ---------------------------------------------------------------------------
# composition / inversion / reconstruction
# ---------------------------------------------------------------------------


def test_compose_identity(grid64, rng):
    u = random_band_field(grid64, rng, 1.0, 8.0, 1.0)
    out = lag.compose(u, _pair(grid64))
    assert np.max(np.abs(out.samples - u.samples)) < 1e-12


def test_compose_constant_shift_is_phase_shift(grid64, rng):
    u = random_band_field(grid64, rng, 1.0, 6.0, 1.0)
    c = (0.37, -0.21)
    disp = (RealField(grid64, np.full(grid64.shape, c[0])), RealField(grid64, np.full(grid64.shape, c[1])))
    out = lag.compose(u, disp)
    shifted = from_spectral(
        SpectralField(
            grid64,
            to_spectral(u).coeffs * np.exp(1j * (grid64.k1 * c[0] + grid64.k2 * c[1])),
        )
    )
    assert np.max(np.abs(out.samples - shifted.samples)) < 1e-4  # spline accuracy


def test_compose_rejects_large_displacement(grid32):
    big = RealField.from_function(grid32, lambda x, y: 1.2 * np.sin(x))
    with pytest.raises(ValueError):
        lag.compose(big, (big, _zeros(grid32)))


def flow_displacement(chi, n_steps=64):
    """Time-1 flow of the divergence-free field grad^perp chi."""
    g = chi.grid
    w1 = spectral_derivative(chi, 2)
    w2 = RealField(g, -spectral_derivative(chi, 1).samples)
    i1, i2 = PeriodicInterpolator(w1), PeriodicInterpolator(w2)
    x1 = g.x1 + 0.0 * g.x2
    x2 = g.x2 + 0.0 * g.x1
    p1, p2 = x1.copy(), x2.copy()
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k11, k12 = i1(p1, p2), i2(p1, p2)
        k21, k22 = i1(p1 + 0.5 * h * k11, p2 + 0.5 * h * k12), i2(p1 + 0.5 * h * k11, p2 + 0.5 * h * k12)
        k31, k32 = i1(p1 + 0.5 * h * k21, p2 + 0.5 * h * k22), i2(p1 + 0.5 * h * k21, p2 + 0.5 * h * k22)
        k41, k42 = i1(p1 + h * k31, p2 + h * k32), i2(p1 + h * k31, p2 + h * k32)
        p1 = p1 + h / 6.0 * (k11 + 2 * k21 + 2 * k31 + k41)
        p2 = p2 + h / 6.0 * (k12 + 2 * k22 + 2 * k32 + k42)
    return RealField(g, p1 - x1), RealField(g, p2 - x2)


def test_compose_measure_preserving_isometry(rng):
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    chi = random_band_field(g, rng, 1.0, 3.0, 0.05)
    disp = flow_displacement(chi)
    u = random_band_field(g, rng, 1.0, 5.0, 1.0)
    out = lag.compose(u, disp)
    rel = abs(l2_norm(out) - l2_norm(u)) / l2_norm(u)
    assert rel < 1e-3


def test_invert_flow_map_cases(grid64, rng):
    d = lag.invert_flow_map(_pair(grid64))
    assert np.max(np.abs(d[0].samples)) < 1e-12
    c = (0.4, -0.3)
    const = (RealField(grid64, np.full(grid64.shape, c[0])), RealField(grid64, np.full(grid64.shape, c[1])))
    d = lag.invert_flow_map(const)
    assert np.max(np.abs(d[0].samples + c[0])) < 1e-10
    assert np.max(np.abs(d[1].samples + c[1])) < 1e-10
    Y = _small_vector(grid64, rng, amp=0.05, kmax=5)
    d = lag.invert_flow_map(Y)
    # X o X^{-1} = id at the nodes
    x1 = grid64.x1 + d[0].samples
    x2 = grid64.x2 + d[1].samples
    y1 = x1 + PeriodicInterpolator(Y[0])(x1, x2)
    y2 = x2 + PeriodicInterpolator(Y[1])(x1, x2)
    assert np.max(np.abs(y1 - (grid64.x1 + 0 * grid64.x2))) < 1e-10
    assert np.max(np.abs(y2 - (grid64.x2 + 0 * grid64.x1))) < 1e-10


def test_to_eulerian_trivial_map(grid64, rng):
    u0 = random_solenoidal(grid64, rng, 1.0, 6.0, 1e-2)
    st = lag.FlowMapState(_pair(grid64), u0, _zeros(grid64), 0.0)
    est, psitilde, info = lag.to_eulerian(st)
    assert l2_norm(est.psi) < 1e-12
    assert np.max(np.abs(est.u[0].samples - u0[0].samples)) < 1e-12
    assert l2_norm(est.p) < 1e-10
    assert info["div_u_l2"] < 1e-10


def test_to_eulerian_roundtrip_through_initial_data(rng):
    """initial data -> t=0 flow state -> Eulerian reconstruction returns the
    inputs within interpolation error at 256^2.

    The scalar bump has zero x1-integral per row so the companion march
    carries no first-order wake (the box surrogate of compact support)."""
    from mhd2d.fields import bump_dx1
    from mhd2d.initial_data import (
        build_flow_map_initial,
        seed_lagrangian_velocity,
        solve_companion_potential,
    )

    g = make_grid(256, 256, TWO_PI, TWO_PI)
    # the residual scales linearly in amplitude (the seam wake is second
    # order); 1e-4 keeps the reconstruction inside the stated tolerance
    eps = 1e-4
    psi0 = bump_dx1(g, eps, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(g, rng, 1.0, 4.0, eps)
    Y1, _ = seed_lagrangian_velocity(u0, Y0)
    st = lag.FlowMapState(Y0, Y1, RealField(g, np.zeros(g.shape)), 0.0)
    est, psitilde, info = lag.to_eulerian(st)

    # the scalar comparison excludes the marching-seam band, where the
    # second-order wake of the companion march sits outside the plane picture
    from mhd2d.initial_data import _seam_mask, quiet_column

    mask = _seam_mask(g, quiet_column(psi0), max(6, g.nx // 16))

    def rel_sup(got, want, m=None):
        ref = want - want.mean()
        if m is None:
            return np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        return np.max(np.abs((got - ref)[m])) / np.max(np.abs(ref))

    assert rel_sup(est.psi.samples, psi0.samples, mask) < 1e-4
    assert rel_sup(est.u[0].samples, u0[0].samples) < 1e-4
    assert rel_sup(est.u[1].samples, u0[1].samples) < 1e-4
    assert rel_sup(psitilde.samples, tilde.samples, mask) < 1e-4
    assert info["div_u_l2"] < 1e-4
