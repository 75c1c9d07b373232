import math
import re

import numpy as np
import pytest

from mhd2d import lagrangian as lag
from mhd2d.fields import random_band_field, random_solenoidal
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid, spectral_derivative
from mhd2d.interp import PeriodicInterpolator
from mhd2d.linear import evolve_linear
from mhd2d.lp import sobolev_norm
from mhd2d.propagators import etd2rk_step

import full_lattice as fl

TWO_PI = 2.0 * np.pi


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


def _pair(g):
    return (_zeros(g), _zeros(g))


def _rho(Y):
    """rho(Y) = d1Y2 d2Y1 - d1Y1 d2Y2, products dealiased, at the nodes."""
    c = half_spectrum(Y[0].grid)
    return RealField(c.grid, c.inv(lag._rho_hat(c, lag.gradient_tensor(Y))))


def _lagrangian_gradient(q, adj):
    """grad_Y q = A^T grad q at the nodes (component i sums b_{ji} d_j q)."""
    c = half_spectrum(q.grid)
    return tuple(RealField(c.grid, c.inv(h)) for h in lag._grad_y_hat(c, adj, c.fwd(q.samples))[0])


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
    assert l2_norm(_rho(_pair(grid64))) == 0.0
    y1 = RealField.from_function(grid64, lambda x, y: 0.02 * np.sin(2 * y))
    y2 = RealField.from_function(grid64, lambda x, y: 0.03 * np.cos(x))
    r = _rho((y1, y2))
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


def test_det_monitor_keeps_relative_accuracy_at_tiny_amplitude(grid32):
    """Y = a (sin x1, sin x2): det(I + grad Y) - 1 = a cos x1 + a cos x2 +
    a^2 cos x1 cos x2, whose 1e-9 size 1 + (det - 1) would round away."""
    a = 1e-9
    Y = (
        RealField.from_function(grid32, lambda x, y: a * np.sin(x) + 0 * y),
        RealField.from_function(grid32, lambda x, y: a * np.sin(y) + 0 * x),
    )
    exact = a * np.cos(grid32.x1) + a * np.cos(grid32.x2) + a * a * np.cos(grid32.x1) * np.cos(grid32.x2)
    c = half_spectrum(grid32)
    yh = [c.fwd(f.samples) for f in Y]
    det_err = lag._state_monitors(c, lag._grad_hat(c, *yh), yh, [np.zeros_like(h) for h in yh], 1.5)[0]
    ref = float(np.max(np.abs(exact)))
    assert abs(det_err - ref) <= 1e-12 * ref


@pytest.mark.parametrize("shape", [(32, 32, TWO_PI, TWO_PI), (64, 32, 2.0 * TWO_PI, TWO_PI)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_state_monitors_match_real_space_formulas(shape, seed):
    """The coefficient monitors against the real-space formulas they replace:
    sup norms of grad Y at the nodes, L2 norms by quadrature and the Sobolev
    norms of d_i Y^j by lp.sobolev_norm."""
    g = make_grid(*shape)
    c = half_spectrum(g)
    rng = np.random.default_rng(seed)
    Y = _small_vector(g, rng, amp=1e-2, kmax=g.ny / 4.0)
    V = _small_vector(g, rng, amp=1e-2, kmax=g.ny / 4.0)
    s2p1 = 1.25
    yh = [c.fwd(f.samples) for f in Y]
    got = lag._state_monitors(c, lag._grad_hat(c, *yh), yh, [c.fwd(f.samples) for f in V], s2p1)

    t, tv = lag.gradient_tensor(Y), lag.gradient_tensor(V)

    def l2sq(a):
        return l2_norm(RealField(g, a)) ** 2

    def hs_sq(*parts):
        return sum(sobolev_norm(RealField(g, a), s2p1) ** 2 for a in parts)

    ref = (
        float(np.max(np.abs(t.d1y1 + t.d2y2 + (t.d1y1 * t.d2y2 - t.d2y1 * t.d1y2)))),
        l2_norm(RealField(g, t.d1y1 + t.d2y2 - _rho(Y).samples)),
        t.sup_norm,
        0.5 * (l2sq(V[0].samples) + l2sq(V[1].samples) + l2sq(t.d1y1) + l2sq(t.d1y2)),
        l2sq(tv.d1y1) + l2sq(tv.d2y1) + l2sq(tv.d1y2) + l2sq(tv.d2y2),
        hs_sq(t.d1y1, t.d1y2),
        hs_sq(t.d2y1, t.d2y2),
    )
    names = ("det_err", "constraint_err", "grad_inf", "energy", "dissipation", "d1y_hs_sq", "d2y_hs_sq")
    for name, a, b in zip(names, got, ref):
        assert abs(a - b) <= 1e-12 * abs(b), name


@pytest.mark.parametrize("s2p1", [-1.0, -3.0, float("nan")])
def test_run_lagrangian_rejects_sobolev_exponent(grid32, s2p1):
    with pytest.raises(ValueError, match="s2_plus_1"):
        lag.run_lagrangian(_pair(grid32), _pair(grid32), 0.1, 0.2, s2_plus_1=s2p1)


def test_lagrangian_gradient_identity_cases(grid64):
    q = RealField.from_function(grid64, lambda x, y: np.sin(x) + 0 * y)
    adj = lag.adjugate(lag.gradient_tensor(_pair(grid64)))
    g1, g2 = _lagrangian_gradient(q, adj)
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
    direct = _lagrangian_gradient(q, adj)
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


def test_pressure_manufactured_solution(rng, monkeypatch):
    """Add the source matching a chosen q* to div_Y d1^2 Y; the fixed point
    returns q*.

    The source is assembled with an independent full-fft transcription of
    the elliptic operator, not the solver's internals."""
    g = make_grid(48, 48, TWO_PI, TWO_PI)
    Y = _small_vector(g, rng, amp=0.03, kmax=6)
    q_star = random_band_field(g, rng, 1.0, 6.0, 1.0)

    t = lag.gradient_tensor(Y)
    b11, b12, b21, b22 = 1.0 + t.d2y2, -t.d2y1, -t.d1y2, 1.0 + t.d1y1

    def dx(arr, axis):
        return spectral_derivative(RealField(g, arr), axis).samples

    def clean(arr):
        return fl.dealias(g, arr)

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

    pressure_source, extra = lag._pressure_source, half_spectrum(g).fwd(source)

    def with_source(*args):
        return pressure_source(*args) + extra

    monkeypatch.setattr(lag, "_pressure_source", with_source)
    monkeypatch.setattr(lag, "_PRESSURE_TOL", 1e-13)
    q, info = lag.pressure_solve(Y, _pair(g), check_identity=False)
    q_shift = q.samples - np.mean(q.samples)
    ref = q_star.samples - np.mean(q_star.samples)
    assert np.max(np.abs(q_shift - ref)) < 1e-9


def test_pressure_manufactured_with_y_terms(rng, monkeypatch):
    """Full manufactured check including the Y-dependent source terms."""
    g = make_grid(48, 48, TWO_PI, TWO_PI)
    Y = _small_vector(g, rng, amp=0.03, kmax=6)
    V = _small_vector(g, rng, amp=0.03, kmax=6)
    monkeypatch.setattr(lag, "_PRESSURE_TOL", 1e-13)
    q_ref, info = lag.pressure_solve(Y, V)
    # residual of the elliptic equation, assembled independently
    t = lag.gradient_tensor(Y)
    tv = lag.gradient_tensor(V)
    b11, b12, b21, b22 = 1.0 + t.d2y2, -t.d2y1, -t.d1y2, 1.0 + t.d1y1

    def dx(arr, axis):
        return spectral_derivative(RealField(g, arr), axis).samples

    def clean(arr):
        return fl.dealias(g, arr)

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


def test_pressure_identity_check_leaves_q_alone(grid32, rng):
    """The identity residual is evaluated after the solve: q and the
    iteration count are those of the unchecked solve, bit for bit."""
    Y = _small_vector(grid32, rng, amp=0.02, kmax=5)
    V = _small_vector(grid32, rng, amp=0.02, kmax=5)
    q0 = random_band_field(grid32, rng, 1.0, 5.0, 0.01)
    q, info = lag.pressure_solve(Y, V, q0=q0, check_identity=False)
    q_checked, info_checked = lag.pressure_solve(Y, V, q0=q0, check_identity=True)
    assert np.array_equal(q_checked.samples, q.samples)
    assert info_checked.iterations == info.iterations and info.identity_residual is None
    assert math.isfinite(info_checked.identity_residual) and info_checked.identity_residual <= 1e-6


def test_pressure_rejects_distorted_state(grid32):
    big = RealField.from_function(grid32, lambda x, y: 0.8 * np.sin(x))
    with pytest.raises(lag.StateBlowupError):
        lag.pressure_solve((big, _zeros(grid32)), _pair(grid32))


def test_pressure_stops_when_not_contracting(grid32, rng):
    """A displacement gradient far beyond 1/2 (passed below the guard) makes
    the fixed point diverge: it stops at once and names the cause."""
    c = half_spectrum(grid32)
    # unit sup norm: ||grad Y||_inf is then well above 1
    Y = tuple(random_band_field(grid32, rng, 1.0, 4.0) for _ in range(2))
    Y = tuple(RealField(grid32, f.samples / np.max(np.abs(f.samples))) for f in Y)
    y1h, y2h = c.fwd(Y[0].samples), c.fwd(Y[1].samples)
    t = lag._grad_hat(c, y1h, y2h)
    assert t.sup_norm > 1.0
    zero = np.zeros(grid32.shape)
    tv = lag._grad_hat(c, c.fwd(zero), c.fwd(zero))
    with pytest.raises(lag.PressureConvergenceError, match=r"contraction .*grad Y\|\|_inf") as err:
        lag._pressure_fixed_point(c, t, lag.adjugate(t), lag._pressure_source(c, t, tv, (zero, zero), y1h, y2h), None)
    it = int(re.search(r"at iteration (\d+)", str(err.value)).group(1))
    assert it <= 5


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
    """With zero forcing the stepper's ETD2RK step is the exact propagator."""
    Y0 = _small_vector(grid32, rng, amp=1.0, kmax=8)
    Y1 = _small_vector(grid32, rng, amp=1.0, kmax=8)
    dt = 0.37
    c = half_spectrum(grid32)
    z = [(c.fwd(Y0[j].samples), c.fwd(Y1[j].samples)) for j in range(2)]
    out = etd2rk_step(lag._etd(grid32, dt), z, lambda z, s: [(None, None)] * len(z), dt)
    _, (yh, vh) = evolve_linear(Y0, Y1, [0.0, dt]).states()
    n = grid32.nx * grid32.ny
    assert np.max(np.abs(out[0][0] - yh[0])) / n < 1e-13
    assert np.max(np.abs(out[1][1] - vh[1])) / n < 1e-13


def test_step_manufactured_temporal_order(rng, monkeypatch):
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
        q_t, _ = lag.pressure_solve(Yt_, Vt_, check_identity=False)
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

    class Forced(lag._Stepper):
        def _forcing(self, z, s):
            (_, f1h), (_, f2h) = super()._forcing(z, s)
            e1, e2 = forcing(self.t + s)
            return [(None, f1h + e1), (None, f2h + e2)]

    monkeypatch.setattr(lag, "_PRESSURE_TOL", 1e-13)
    t_end = 0.5
    errs = []
    for n in (8, 16, 32):
        dt = t_end / n
        st = lag.make_state(exact(0.0), (RealField(g, a_t(0.0) * W[0].samples), RealField(g, a_t(0.0) * W[1].samples)))
        s = Forced(g, dt)
        s.load(st)
        for _ in range(n):
            s.advance()
        final = s.state().Y
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
    lat = fl.lattice(grid64)
    shifted = fl.inv(grid64, fl.fwd(grid64, u.samples) * np.exp(1j * (lat.k1 * c[0] + lat.k2 * c[1])))
    assert np.max(np.abs(out.samples - shifted)) < 1e-4  # spline accuracy


def test_compose_rejects_large_displacement(grid32):
    big = RealField.from_function(grid32, lambda x, y: 1.2 * np.sin(x))
    with pytest.raises(ValueError):
        lag.compose(big, (big, _zeros(grid32)))


@pytest.mark.parametrize(
    "other", [make_grid(32, 32, TWO_PI, 3.0), make_grid(64, 64, TWO_PI, TWO_PI)], ids=["other-box", "other-shape"]
)
def test_compose_rejects_a_displacement_on_another_grid(grid32, other):
    """Same shape on another box would be read at the nodes of u; another
    shape would fail inside numpy.  Either component on ``other`` is named."""
    message = re.escape(f"displacement on {other}, u on {grid32}")
    for displacement in (_pair(other), (_zeros(grid32), _zeros(other))):
        with pytest.raises(ValueError, match=message):
            lag.compose(_zeros(grid32), displacement)


def flow_displacement(chi, n_steps=64):
    """Time-1 flow of the divergence-free field grad^perp chi (RK4; both
    velocity components are one interpolated stack)."""
    g = chi.grid
    w1 = spectral_derivative(chi, 2)
    w2 = RealField(g, -spectral_derivative(chi, 1).samples)
    w = PeriodicInterpolator(w1, w2)
    x1 = g.x1 + 0.0 * g.x2
    x2 = g.x2 + 0.0 * g.x1
    p1, p2 = x1.copy(), x2.copy()
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k11, k12 = w(p1, p2)
        k21, k22 = w(p1 + 0.5 * h * k11, p2 + 0.5 * h * k12)
        k31, k32 = w(p1 + 0.5 * h * k21, p2 + 0.5 * h * k22)
        k41, k42 = w(p1 + h * k31, p2 + h * k32)
        p1 = p1 + h / 6.0 * (k11 + 2 * k21 + 2 * k31 + k41)
        p2 = p2 + h / 6.0 * (k12 + 2 * k22 + 2 * k32 + k42)
    return RealField(g, p1 - x1), RealField(g, p2 - x2)


def test_flow_displacement_stack_matches_two_single_field_calls(rng):
    """The helper's one two-field interpolator gives the displacement of two
    single-field interpolators evaluated at the same RK4 stages, to round-off."""
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    chi = random_band_field(g, rng, 1.0, 3.0, 0.05)
    i1 = PeriodicInterpolator(spectral_derivative(chi, 2))
    i2 = PeriodicInterpolator(RealField(g, -spectral_derivative(chi, 1).samples))
    x1, x2 = g.x1 + 0.0 * g.x2, g.x2 + 0.0 * g.x1
    p1, p2 = x1.copy(), x2.copy()
    h = 1.0 / 16
    for _ in range(16):
        k11, k12 = i1(p1, p2), i2(p1, p2)
        k21, k22 = i1(p1 + 0.5 * h * k11, p2 + 0.5 * h * k12), i2(p1 + 0.5 * h * k11, p2 + 0.5 * h * k12)
        k31, k32 = i1(p1 + 0.5 * h * k21, p2 + 0.5 * h * k22), i2(p1 + 0.5 * h * k21, p2 + 0.5 * h * k22)
        k41, k42 = i1(p1 + h * k31, p2 + h * k32), i2(p1 + h * k31, p2 + h * k32)
        p1 = p1 + h / 6.0 * (k11 + 2 * k21 + 2 * k31 + k41)
        p2 = p2 + h / 6.0 * (k12 + 2 * k22 + 2 * k32 + k42)
    d1, d2 = flow_displacement(chi, n_steps=16)
    scale = max(np.max(np.abs(p1 - x1)), np.max(np.abs(p2 - x2)))
    assert np.max(np.abs(d1.samples - (p1 - x1))) <= 1e-14 * scale
    assert np.max(np.abs(d2.samples - (p2 - x2))) <= 1e-14 * scale


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


def _whole_stack_invert(Y, t):
    """Reference Newton inversion: whole-stack temporaries, one expression per update."""
    g = Y[0].grid
    i_y = PeriodicInterpolator(*Y)
    i_g = PeriodicInterpolator(*(RealField(g, a) for a in (t.d1y1, t.d2y1, t.d1y2, t.d2y2)))
    d1 = -Y[0].samples
    d2 = -Y[1].samples
    for _ in range(60):
        y1, y2 = g.x1 + d1, g.x2 + d2
        e1, e2 = i_y(y1, y2)
        r1, r2 = d1 + e1, d2 + e2
        res = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        if res < 1e-12:
            return RealField(g, d1), RealField(g, d2)
        j11, j12, j21, j22 = i_g(y1, y2)
        j11, j22 = 1.0 + j11, 1.0 + j22
        det = j11 * j22 - j12 * j21
        d1 = d1 - (j22 * r1 - j12 * r2) / det
        d2 = d2 - (-j21 * r1 + j11 * r2) / det
    raise RuntimeError(f"flow-map inversion stalled at residual {res:.3e}")


def _whole_stack_to_eulerian(state):
    """Reference reconstruction: the seven fields composed with X^{-1} as one
    interpolated stack, gradients negated by copy."""
    g = state.Y[0].grid
    c = half_spectrum(g)
    t = lag._small(lag.gradient_tensor(state.Y))
    dinv = _whole_stack_invert(state.Y, t)
    lag._check_invertible(dinv)
    grads = (-t.d1y2, t.d1y1, -t.d2y2, t.d2y1)
    at_dinv = PeriodicInterpolator(*state.Y_t, *(RealField(g, a) for a in grads), state.q)(
        g.x1 + dinv[0].samples, g.x2 + dinv[1].samples
    )
    u1, u2 = (RealField(g, a) for a in at_dinv[:2].copy())

    def integrate_gradient(g1, g2):
        g1h, g2h = c.fwd(g1), c.fwd(g2)
        curl = c.inv(c.ik1 * g2h - c.ik2 * g1h)
        num = c.ik1 * g1h + c.ik2 * g2h
        ph = np.where(c.ksq > 0, num / np.where(c.ksq > 0, -c.ksq, 1.0), 0.0)
        return RealField(g, c.inv(ph)), float(np.sqrt(g.cell_area * np.sum(curl**2)))

    psi, curl_psi = integrate_gradient(at_dinv[2], at_dinv[3])
    psitilde, curl_til = integrate_gradient(at_dinv[4], at_dinv[5])
    dpsi1, dpsi2 = c.grad(c.fwd(psi.samples))
    p_raw = at_dinv[6] - (dpsi1**2 + (1.0 + dpsi2) ** 2)
    p = RealField(g, p_raw - float(np.mean(p_raw)))
    div_u = c.inv(c.ik1 * c.fwd(u1.samples) + c.ik2 * c.fwd(u2.samples))
    info = {
        "curl_residual_psi": curl_psi,
        "curl_residual_psitilde": curl_til,
        "div_u_l2": float(np.sqrt(g.cell_area * np.sum(div_u**2))),
    }
    return dinv, psi, (u1, u2), p, psitilde, info


def _random_flow_state(g, rng, amp):
    Y, V = (_small_vector(g, rng, amp=amp, kmax=6.0) for _ in range(2))
    return lag.FlowMapState(Y, V, random_band_field(g, rng, 1.0, 6.0, amp), 0.0)


def test_to_eulerian_is_bit_identical_to_the_whole_stack_formula(rng):
    """The in-place Newton step and the grouped compositions reorder no
    operation: the inverse displacement, every returned field and every info
    float equal the whole-stack reference bit for bit."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    state = _random_flow_state(g, rng, 0.05)
    dinv, psi, u, p, psitilde, info = _whole_stack_to_eulerian(state)
    got = lag.invert_flow_map(state.Y)
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(got, dinv))
    est, got_psitilde, got_info = lag.to_eulerian(state)
    pairs = [(est.psi, psi), (est.u[0], u[0]), (est.u[1], u[1]), (est.p, p), (got_psitilde, psitilde)]
    assert all(np.array_equal(a.samples, b.samples) for a, b in pairs)
    assert got_info == info


def test_to_eulerian_peak_memory_is_bounded_in_fields():
    """Above its entry, a warm to_eulerian at 256^2 peaks at no more than 24
    real fields: no temporary spans the whole composed stack, and no Newton
    iterate outlives its step (the whole-stack reference reads about 35)."""
    import tracemalloc

    g = make_grid(256, 256, TWO_PI, TWO_PI)
    state = _random_flow_state(g, np.random.default_rng(7), 0.02)
    lag.to_eulerian(state)  # fills the per-grid caches
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        lag.to_eulerian(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (8 * g.nx * g.ny) <= 24.0


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
