"""Fused dealiased sums against the pairwise formulas they replace, and the
transform budget of one step of each solver.

Each reference below dealiases every quadratic product on its own,
``pd(a, b) = inv(fwd(a b) * deal)``, and sums the results, as the solvers did
before each sum was dealiased once; the 2/3 truncation is linear, so the two
agree up to round-off.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd2d import diagnostics as diag
from mhd2d import eulerian as eul
from mhd2d import lagrangian as lag
from mhd2d.fields import bump_dx1, random_band_field, random_solenoidal
from mhd2d.grid import RealField, half_spectrum, make_grid
from mhd2d.initial_data import (
    InitialDatum,
    build_flow_map_initial,
    seed_lagrangian_velocity,
    smallness_report,
    solve_companion_potential,
)

TWO_PI = 2.0 * np.pi
REL = 1e-13  # worst measured over 80 seeds per test at 32^2 and 64^2: 3.5e-15


def _setup(seed, n):
    g = make_grid(n, n, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    rng = np.random.default_rng(seed)

    def field(amp=0.02):
        return random_band_field(g, rng, 1.0, n / 4.0, amp).samples

    def pd(a, b):
        return c.inv(c.fwd(a * b) * c.deal)

    return g, c, field, pd


def _rel(fused, pairwise):
    return float(np.max(np.abs(fused - pairwise)) / np.max(np.abs(pairwise)))


def _grad(c, ah):
    return c.inv(c.ik1 * ah), c.inv(c.ik2 * ah)


def _form_a_pairwise(c, pd, t, y1h, y2h):
    d11y1 = c.inv(c.ik1 * c.ik1 * y1h)
    d11y2 = c.inv(c.ik1 * c.ik1 * y2h)
    u1 = pd(t.d2y2, d11y1) - pd(t.d2y1, d11y2)
    u2 = -pd(t.d1y2, d11y1) + pd(t.d1y1, d11y2)
    rho_h = c.fwd(pd(t.d1y2, t.d2y1) - pd(t.d1y1, t.d2y2))
    return c.ik1 * c.fwd(u1) + c.ik2 * c.fwd(u2) + c.ik1 * c.ik1 * rho_h


def _grad_y_pairwise(c, pd, adj, qh):
    q1, q2 = _grad(c, qh)
    return pd(adj.b11, q1) + pd(adj.b21, q2), pd(adj.b12, q1) + pd(adj.b22, q2)


_SIZES = st.sampled_from([32, 64])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_rho_fused_matches_pairwise(seed, n):
    g, c, field, pd = _setup(seed, n)
    Y = (RealField(g, field()), RealField(g, field()))
    t = lag.gradient_tensor(Y)
    ref = pd(t.d1y2, t.d2y1) - pd(t.d1y1, t.d2y2)
    assert _rel(c.inv(lag._rho_hat(c, t)), ref) < REL


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_form_a_fused_matches_pairwise(seed, n):
    g, c, field, pd = _setup(seed, n)
    y1h, y2h = c.fwd(field()), c.fwd(field())
    t = lag._grad_hat(c, y1h, y2h)
    fused, _ = lag._div_y_d11_forms(c, t, y1h, y2h)
    assert _rel(c.inv(fused), c.inv(_form_a_pairwise(c, pd, t, y1h, y2h))) < REL


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_pressure_update_fused_matches_pairwise(seed, n):
    """One fixed-point update q0 -> q1, including the constant source."""
    g, c, field, pd = _setup(seed, n)
    y1h, y2h = c.fwd(field()), c.fwd(field())
    vh = (c.fwd(field()), c.fwd(field()))
    qh0 = c.fwd(field(1.0))
    t, tv = lag._grad_hat(c, y1h, y2h), lag._grad_hat(c, *vh)
    v = (c.inv(vh[0]), c.inv(vh[1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lag, "_PRESSURE_TOL", math.inf)
        fused, info = lag._pressure_fixed_point(c, t, lag.adjugate(t), lag._pressure_source(c, t, tv, v, y1h, y2h), qh0)
    assert info.iterations == 1

    adj = lag.adjugate(t)
    w1 = pd(tv.d2y2, v[0]) + pd(-tv.d2y1, v[1])
    w2 = pd(-tv.d1y2, v[0]) + pd(tv.d1y1, v[1])
    const = c.ik1 * c.fwd(w1) + c.ik2 * c.fwd(w2) + _form_a_pairwise(c, pd, t, y1h, y2h)
    q1, q2 = _grad(c, qh0)
    w1q, w2q = _grad_y_pairwise(c, pd, adj, qh0)
    v1q = pd(adj.b11 - 1.0, w1q) + pd(adj.b12, w2q)
    v2q = pd(adj.b21, w1q) + pd(adj.b22 - 1.0, w2q)
    z1q = pd(adj.b11 - 1.0, q1) + pd(adj.b21, q2)
    z2q = pd(adj.b12, q1) + pd(adj.b22 - 1.0, q2)
    rhs = -(c.ik1 * (c.fwd(v1q) + c.fwd(z1q)) + c.ik2 * (c.fwd(v2q) + c.fwd(z2q))) + const
    ref = -rhs * c.inv_ksq
    ref[0, 0] = 0.0
    assert _rel(c.inv(fused), c.inv(ref)) < REL


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_rhs_f_fused_matches_pairwise(seed, n):
    g, c, field, pd = _setup(seed, n)
    t = lag._grad_hat(c, c.fwd(field()), c.fwd(field()))
    vh = (c.fwd(field()), c.fwd(field()))
    qh = c.fwd(field(1.0))
    fused = lag._rhs_f_spectral(c, lag.adjugate(t), lag._grad_hat(c, *vh), vh, qh)

    adj = lag.adjugate(t)
    ref = []
    for ch in vh:
        w1, w2 = _grad_y_pairwise(c, pd, adj, ch)
        u1 = pd(adj.b11, w1) + pd(adj.b12, w2)
        u2 = pd(adj.b21, w1) + pd(adj.b22, w2)
        ref.append(c.ik1 * c.fwd(u1) + c.ik2 * c.fwd(u2) + c.ksq * ch)
    p1, p2 = _grad_y_pairwise(c, pd, adj, qh)
    ref[0] -= c.fwd(p1)
    ref[1] -= c.fwd(p2)
    for fh, rh in zip(fused, ref):
        rh[0, 0] = 0.0
        assert _rel(c.inv(fh), c.inv(rh * c.deal)) < REL


def _euler_state(seed, n):
    g, c, field, pd = _setup(seed, n)
    psi = RealField(g, field(1e-2))
    u = eul.leray_project((RealField(g, field(1e-2)), RealField(g, field(1e-2))))
    return g, c, pd, eul.EulerState(psi, u, RealField(g, np.zeros(g.shape)), 0.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_euler_nonlinear_fused_matches_pairwise(seed, n):
    g, c, pd, state = _euler_state(seed, n)
    s = eul._EulerStepper(g, 0.01)
    s.load(state)
    n_psi, n_a = s._nonlinear(s.psih, s.ah)

    u1, u2 = (c.inv(x) for x in eul._velocity(c, s.ah))
    d1psi, d2psi = _grad(c, s.psih)

    def pdh(a, b):
        return c.fwd(a * b) * c.deal

    ref_psi = -(pdh(u1, d1psi) + pdh(u2, d2psi))
    ref_psi[0, 0] = 0.0
    n1 = -(c.ik1 * pdh(u1, u1) + c.ik2 * pdh(u1, u2)) - (c.ik1 * pdh(d1psi, d1psi) + c.ik2 * pdh(d1psi, d2psi))
    n2 = -(c.ik1 * pdh(u1, u2) + c.ik2 * pdh(u2, u2)) - (c.ik1 * pdh(d1psi, d2psi) + c.ik2 * pdh(d2psi, d2psi))
    assert _rel(c.inv(n_psi), c.inv(ref_psi)) < REL
    assert _rel(c.inv(n_a), c.inv(c.e1 * n1 + c.e2 * n2)) < REL


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=_SIZES)
def test_pressure_euler_fused_matches_pairwise(seed, n):
    g, c, pd, state = _euler_state(seed, n)
    psih = c.fwd(state.psi.samples)
    d1p, d2p = _grad(c, psih)
    ik = {1: c.ik1, 2: c.ik2}
    acc = np.zeros_like(psih)
    for i, j, factor in ((1, 1, 1.0), (1, 2, 2.0), (2, 2, 1.0)):
        a, b = state.u[i - 1].samples, state.u[j - 1].samples
        pa, pb = (d1p, d2p)[i - 1], (d1p, d2p)[j - 1]
        acc += factor * ik[i] * ik[j] * c.fwd(pd(a, b) + pd(pa, pb))
    ref = -2.0 * c.ik2 * psih + acc * c.inv_ksq
    ref[0, 0] = 0.0
    assert _rel(eul.pressure_euler(state).samples, c.inv(ref)) < REL


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------


@pytest.fixture()
def fft_fields(monkeypatch):
    """Counter of 2-D fields passed through numpy.fft.rfft2 / irfft2 (together
    under "fields") and per entry point, full-complex fft2 / ifft2 included."""
    count = Counter()
    for name in ("rfft2", "irfft2", "fft2", "ifft2"):
        real = getattr(np.fft, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            a = np.asarray(a)
            n = a.size // (a.shape[-2] * a.shape[-1])
            count[_name] += n
            if _name in ("rfft2", "irfft2"):
                count["fields"] += n
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count


def test_lagrangian_forcing_costs_27_plus_8_per_pressure_iteration(rng, fft_fields):
    """The held state's 27 + 8n fields are split: its commit solves q from the
    predictor's (11 + 8n, after the 4 of the grad Y it holds), so its forcing
    stage solves nothing and makes only the other 16.  A predictor stage takes
    grad Y itself and solves: 31 + 8n."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    Y = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    V = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    s = lag._Stepper(g, 0.01)
    s.load(lag.FlowMapState(Y, V, RealField.zeros(g), 0.0))
    z = [(s.yh[0], s.vh[0]), (s.yh[1], s.vh[1])]
    fft_fields["fields"] = 0
    s._forcing(z, 0.0)
    assert fft_fields["fields"] == 16
    fft_fields["fields"] = 0
    s._forcing([(1.01 * y, v) for y, v in z], 0.01)
    assert s.last_pressure.iterations >= 2
    assert fft_fields["fields"] == 31 + 8 * s.last_pressure.iterations
    fft_fields["fields"] = 0
    s._hold([1.02 * y for y, _ in z], [v for _, v in z], 0.01, s.stage_qh)
    assert s.last_pressure.iterations >= 2
    assert fft_fields["fields"] == 4 + 11 + 8 * s.last_pressure.iterations


def test_lagrangian_load_costs_20_plus_8_per_pressure_iteration(rng, fft_fields):
    """Loading a state transforms q, Y and Y_t forward (5 fields) and stages
    it once: grad Y_t and Y_t at the nodes (6), then grad Y, checked small,
    and the pressure (9 + 8n); grad Y is taken once."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    Y = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    V = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    state = lag.FlowMapState(Y, V, RealField.zeros(g), 0.0)
    s = lag._Stepper(g, 0.01)
    fft_fields.clear()
    s.load(state)
    assert s.last_pressure.iterations >= 2
    assert fft_fields["fields"] == 20 + 8 * s.last_pressure.iterations


def test_pressure_source_costs_5_fields(rng, fft_fields):
    """d1^2 Y^1 and d1^2 Y^2 at the nodes (2 inverse), then one dealiased
    flux per component and rho's (3 forward)."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    yh, vh = ([c.fwd(random_band_field(g, rng, 1.0, 5.0, 0.02).samples) for _ in range(2)] for _ in range(2))
    t, tv = lag._grad_hat(c, *yh), lag._grad_hat(c, *vh)
    v = (c.inv(vh[0]), c.inv(vh[1]))
    fft_fields.clear()
    lag._pressure_source(c, t, tv, v, *yh)
    assert (fft_fields["irfft2"], fft_fields["rfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (2, 3, 0, 0)


def test_lagrangian_forcing_builds_one_adjugate(rng, monkeypatch):
    """The pressure fixed point and the forcing share one adjugate of
    I + grad Y per stage: one step of ETD2RK evaluates the forcing twice and
    commits once, and builds three adjugates (the held state's forcing
    rebuilds its own from the held grad Y)."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    Y = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    V = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    s = lag._Stepper(g, 0.01)
    s.load(lag.FlowMapState(Y, V, RealField.zeros(g), 0.0))
    calls = Counter()
    adjugate, forcing = lag.adjugate, s._forcing

    def counted_adjugate(t):
        calls["adjugate"] += 1
        return adjugate(t)

    def counted_forcing(z, t):
        calls["forcing"] += 1
        return forcing(z, t)

    monkeypatch.setattr(lag, "adjugate", counted_adjugate)
    monkeypatch.setattr(s, "_forcing", counted_forcing)
    s.advance()
    assert calls == {"forcing": 2, "adjugate": 3}


def test_euler_step_costs_14_fields(rng, fft_fields):
    _, _, _, state = _euler_state(7, 32)
    s = eul._EulerStepper(state.psi.grid, 0.01)
    s.load(state)
    fft_fields["fields"] = 0
    s.advance()
    assert fft_fields["fields"] == 14


def test_lagrangian_monitor_costs_1_forward_field(rng, fft_fields):
    """The monitors read the grad Y the stepper holds; only rho(Y) is transformed."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    yh = [c.fwd(random_band_field(g, rng, 1.0, 5.0, 0.02).samples) for _ in range(2)]
    vh = [c.fwd(random_band_field(g, rng, 1.0, 5.0, 0.02).samples) for _ in range(2)]
    t = lag._grad_hat(c, *yh)
    fft_fields.clear()
    lag._state_monitors(c, t, yh, vh, 1.25)
    assert (fft_fields["irfft2"], fft_fields["rfft2"], fft_fields["fft2"]) == (0, 1, 0)


def test_euler_aux_sample_costs_1_inverse_field(fft_fields):
    _, _, _, state = _euler_state(7, 32)
    s = eul._EulerStepper(state.psi.grid, 0.01)
    s.load(state)
    fft_fields.clear()
    s.sup_monitors()
    assert (fft_fields["irfft2"], fft_fields["rfft2"], fft_fields["fft2"]) == (1, 0, 0)


def test_smallness_margin_costs_5_forward_fields_per_state(rng, fft_fields):
    """Each stored Y, Y_t and q is transformed once; E_0 reuses the t = 0
    coefficients."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)

    def field():
        return random_band_field(g, rng, 1.0, 5.0, 0.02)

    states = [lag.FlowMapState((field(), field()), (field(), field()), field(), 0.1 * n) for n in range(3)]
    fft_fields.clear()
    diag.smallness_margin(diag._block_tables(states), 1.5, -0.75)
    assert (fft_fields["rfft2"], fft_fields["irfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (15, 0, 0, 0)


def test_sampled_margin_costs_no_transform(rng, fft_fields):
    """A margin sample reads the coefficients the stepper holds: the column
    kernel transforms nothing, and a march that samples the margin makes
    exactly the transforms of one that does not."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    c = half_spectrum(g)
    yh, vh = ([c.fwd(random_band_field(g, rng, 1.0, 5.0, 0.02).samples) for _ in range(2)] for _ in range(2))
    fft_fields.clear()
    diag._block_column(c, yh, vh, yh[0])
    diag._e0_density(c, yh, vh)
    assert sum(fft_fields.values()) == 0
    y1 = random_solenoidal(g, rng, 1.0, 4.0, 1e-2)
    zero = (RealField.zeros(g), RealField.zeros(g))
    counts = []
    for margin_every in (None, 3):
        fft_fields.clear()
        run = lag.run_lagrangian(zero, y1, 0.02, 0.2, store_every=10, margin_every=margin_every)
        counts.append(dict(fft_fields))
    assert run.margin.times.tolist() == pytest.approx([0.0, 0.06, 0.12, 0.18, 0.2])
    assert counts[0] == counts[1]


def test_smallness_report_costs_28_fields(rng, fft_fields):
    """a_ks_norm transforms psi0 once and takes each of its 20 derivatives by
    one inverse transform; psitilde0, u0, Y0 and Y1 are transformed once
    each (1 + 2 + 2 + 2)."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    psi0 = bump_dx1(g, 1e-4, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(g, rng, 1.0, 4.0, 1e-4)
    Y1, _ = seed_lagrangian_velocity(u0, Y0)
    datum = InitialDatum(psi0, tilde, u0, Y0, Y1)
    fft_fields.clear()
    smallness_report(datum, 4, 2.0, 1.5, -0.75)
    assert (fft_fields["rfft2"], fft_fields["irfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (8, 20, 0, 0)


def test_initial_data_transforms_each_potential_once(fft_fields, monkeypatch):
    """The companion march transforms psi0 once for its gradient and the
    gradient's half-cell x1 translate (4 inverse fields) and differentiates
    columns with real 1-D transforms; the seed transforms psi0 and psitilde0
    once each for their gradients (4 inverse fields), and the spline
    prefilter transforms each interpolated field forward and back once (the
    2 potentials and the 4 gradients)."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    psi0 = bump_dx1(g, 1e-4, width=0.6)
    complex_1d = Counter()
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            complex_1d[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    fft_fields.clear()
    tilde, _ = solve_companion_potential(psi0)
    assert (fft_fields["rfft2"], fft_fields["irfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (1, 4, 0, 0)
    assert not complex_1d
    fft_fields.clear()
    build_flow_map_initial(psi0, tilde)
    assert (fft_fields["rfft2"], fft_fields["irfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (2 + 6, 4 + 6, 0, 0)


def test_seed_velocity_transforms_each_component_of_y0_once(rng, fft_fields):
    """The spline prefilter transforms u0 forward and back (2 + 2), each
    component of Y0 is transformed once for its two gradient planes (2 + 4)
    and the divergence transforms each row of A_{Y0} Y1 (2 + 2)."""
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    psi0 = bump_dx1(g, 1e-4, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(g, rng, 1.0, 4.0, 1e-4)
    fft_fields.clear()
    seed_lagrangian_velocity(u0, Y0)
    assert (fft_fields["rfft2"], fft_fields["irfft2"], fft_fields["fft2"], fft_fields["ifft2"]) == (6, 8, 0, 0)


def test_to_eulerian_checks_the_inverse_displacement_once(rng, fft_fields, monkeypatch):
    """Two gradients, each made one plane at a time (the displacement's and
    the check of the inverse displacement, 6 fields each), 14 fields of its
    own, and the spline prefilter's forward and inverse transform of each
    interpolated field: Y
    and grad Y for the inversion (6; grad Y's interpolator also gives the
    stream-like scalars at the inverse), and Y_t and q composed with the
    inverse displacement (3)."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    Y, V = (tuple(random_band_field(g, rng, 1.0, 4.0, 0.02) for _ in range(2)) for _ in range(2))
    state = lag.FlowMapState(Y, V, random_band_field(g, rng, 1.0, 4.0, 0.02), 0.0)
    calls = Counter()
    grad_planes = lag._grad_planes

    def counted(c, displacement, sq):
        calls["_grad_planes"] += 1
        return grad_planes(c, displacement, sq)

    monkeypatch.setattr(lag, "_grad_planes", counted)
    fft_fields.clear()
    lag.to_eulerian(state)
    assert calls["_grad_planes"] == 2
    assert (fft_fields["fields"], fft_fields["fft2"], fft_fields["ifft2"]) == (26 + 2 * (6 + 3), 0, 0)


def test_stored_state_transforms_no_field_forward_outside_the_pressure_solve(rng, fft_fields, monkeypatch):
    """state() reads the pressure the stepper committed with the state: it
    solves nothing and makes no forward field, only the 5 real fields it
    returns (Y, Y_t and q)."""
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    Y = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    V = tuple(random_band_field(g, rng, 1.0, 5.0, 0.02) for _ in range(2))
    s = lag._Stepper(g, 0.01)
    s.load(lag.make_state(Y, V))
    s.advance()
    solves = []
    solve = lag._pressure_fixed_point
    monkeypatch.setattr(lag, "_pressure_fixed_point", lambda *args: solves.append(1) or solve(*args))
    fft_fields.clear()
    s.state()
    assert solves == []
    assert (fft_fields["rfft2"], fft_fields["irfft2"]) == (0, 5)
