import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mhd2d import lp
from mhd2d.fields import mode_field, random_band_field, single_mode
from mhd2d.grid import RealField, l2_norm, to_spectral
from mhd2d.linear import (
    block_energy,
    block_energy_series,
    eigenvalues,
    evolve_linear,
    measured_decay_rate,
    mode_solution,
    regime,
)
from mhd2d.propagators import apply2, etd2rk_step, etd_tables

TWO_PI = 2.0 * np.pi


def _zero_pair(g):
    return (RealField(g, np.zeros(g.shape)), RealField(g, np.zeros(g.shape)))


# ---------------------------------------------------------------------------
# eigenvalues and regimes
# ---------------------------------------------------------------------------


def test_eigenvalue_examples():
    e = eigenvalues((0.0, 1.0))
    assert e.lambda_plus == -1.0 and e.lambda_minus == 0.0
    e = eigenvalues((2.0, 0.0))
    assert e.lambda_plus == e.lambda_minus == -2.0
    e = eigenvalues((1.0, 0.0))
    assert e.lambda_plus == pytest.approx((-1 - 1j * math.sqrt(3)) / 2)
    assert e.lambda_minus == pytest.approx((-1 + 1j * math.sqrt(3)) / 2)
    lam = eigenvalues((10.0, 0.0)).lambda_minus
    assert lam.real == pytest.approx(-200.0 / (100.0 * (1.0 + math.sqrt(1.0 - 400.0 / 1e4))), rel=1e-14)
    assert lam.real == pytest.approx(-1.0102, abs=5e-5)


def test_eigenvalues_rejects_zero():
    with pytest.raises(ValueError):
        eigenvalues((0.0, 0.0))


def test_regime_split():
    assert regime((1.0, 1.0)) == "low"  # boundary |xi|^2 = 2 |xi1| inclusive
    assert regime((0.0, 3.0)) == "high"
    assert regime((1.0, 0.0)) == "low"
    assert eigenvalues((1.0, 1.0)).regime == "parabolic_pair"
    assert eigenvalues((0.0, 3.0)).regime == "slow_fast"


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(-32, 32),
    n=st.integers(-32, 32),
)
def test_vieta_identities(m, n):
    if m == 0 and n == 0:
        return
    e = eigenvalues((float(m), float(n)))
    ksq = float(m * m + n * n)
    assert abs(e.lambda_plus + e.lambda_minus + ksq) <= 1e-12 * max(1.0, ksq)
    assert abs(e.lambda_plus * e.lambda_minus - m * m) <= 1e-12 * max(1.0, m * m)
    if m != 0:
        assert e.lambda_plus.real < 0 and e.lambda_minus.real < 0
    else:
        assert e.lambda_minus == 0.0


# ---------------------------------------------------------------------------
# mode solutions
# ---------------------------------------------------------------------------


def _ode_oracle(xi, y0, v0, t):
    x1sq = xi[0] ** 2
    ksq = xi[0] ** 2 + xi[1] ** 2

    def rhs(_t, z):
        return [z[2], z[3], -x1sq * z[0] - ksq * z[2], -x1sq * z[1] - ksq * z[3]]

    sol = solve_ivp(
        rhs, (0.0, t), [y0.real, y0.imag, v0.real, v0.imag], rtol=1e-12, atol=1e-14, method="DOP853"
    )
    z = sol.y[:, -1]
    return complex(z[0], z[1]), complex(z[2], z[3])


def test_frozen_transport_mode():
    y, v = mode_solution((0.0, 1.0), 1.0, 0.0, 7.3)
    assert y == pytest.approx(1.0, abs=1e-14)
    assert abs(v) < 1e-14


def test_double_root_closed_form():
    for t in (0.1, 0.5, 1.0, 3.0):
        y, _ = mode_solution((2.0, 0.0), 1.0, 0.0, t)
        assert y.real == pytest.approx((1.0 + 2.0 * t) * math.exp(-2.0 * t), rel=1e-12)
        oy, ov = _ode_oracle((2.0, 0.0), 1.0, 0.0, t)
        assert abs(y - oy) < 1e-10


def test_oscillatory_envelope():
    t = 4.0 * math.pi / math.sqrt(3.0)
    y, _ = mode_solution((1.0, 0.0), 1.0, 0.0, t)
    assert abs(y) == pytest.approx(math.exp(-2.0 * math.pi / math.sqrt(3.0)), abs=1e-10)
    oy, _ = _ode_oracle((1.0, 0.0), 1.0, 0.0, 2.0)
    y2, _ = mode_solution((1.0, 0.0), 1.0, 0.0, 2.0)
    assert abs(y2 - oy) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(-8, 8),
    n=st.integers(-8, 8),
    seed=st.integers(0, 1000),
)
def test_mode_solution_vs_ode_oracle(m, n, seed):
    if m == 0 and n == 0:
        return
    rng = np.random.default_rng(seed)
    y0 = complex(rng.standard_normal(), rng.standard_normal())
    v0 = complex(rng.standard_normal(), rng.standard_normal())
    xi = (float(m), float(n))
    for t in (0.25, 2.0):
        y, v = mode_solution(xi, y0, v0, t)
        oy, ov = _ode_oracle(xi, y0, v0, t)
        assert abs(y - oy) < 1e-9 and abs(v - ov) < 1e-9


# ---------------------------------------------------------------------------
# evolve_linear
# ---------------------------------------------------------------------------


def test_evolve_zero_data(grid32):
    traj = evolve_linear(_zero_pair(grid32), _zero_pair(grid32), [0.0, 1.0, 2.0])
    assert np.max(np.abs(traj.yhat)) == 0.0 and np.max(np.abs(traj.vhat)) == 0.0


def test_evolve_single_mode_matches_mode_solution(grid32):
    y0 = (mode_field(grid32, 3, 1, 0.5 - 0.25j), RealField(grid32, np.zeros(grid32.shape)))
    v0 = (mode_field(grid32, 3, 1, 0.1 + 0.2j), RealField(grid32, np.zeros(grid32.shape)))
    times = [0.0, 0.7, 1.9]
    traj = evolve_linear(y0, v0, times)
    xi = (3.0, 1.0)
    i, j = grid32.mode_index(3, 1)
    for idx, t in enumerate(times):
        y_ref, v_ref = mode_solution(xi, 0.5 - 0.25j, 0.1 + 0.2j, t)
        assert abs(traj.yhat[idx, 0, i, j] - y_ref) < 1e-12
        assert abs(traj.vhat[idx, 0, i, j] - v_ref) < 1e-12


def test_evolve_multimode_energy_is_mode_sum(grid32, rng):
    """L2 energy at time t equals the per-mode sum (Plancherel oracle)."""
    y0 = (random_band_field(grid32, rng, 1.0, 8.0), random_band_field(grid32, rng, 1.0, 8.0))
    v0 = (random_band_field(grid32, rng, 1.0, 8.0), random_band_field(grid32, rng, 1.0, 8.0))
    t = 0.8
    traj = evolve_linear(y0, v0, [0.0, t])
    area = grid32.lx * grid32.ly
    direct = area * float(np.sum(np.abs(traj.yhat[1]) ** 2))
    acc = 0.0
    c0 = [to_spectral(f).coeffs for f in y0]
    c1 = [to_spectral(f).coeffs for f in v0]
    for comp in range(2):
        for i in range(grid32.nx):
            for j in range(grid32.ny):
                x1, x2 = float(grid32.k1[i, 0]), float(grid32.k2[0, j])
                if c0[comp][i, j] == 0 and c1[comp][i, j] == 0:
                    continue
                if x1 == 0 and x2 == 0:
                    continue
                y, _ = mode_solution((x1, x2), c0[comp][i, j], c1[comp][i, j], t)
                acc += area * abs(y) ** 2
    assert direct == pytest.approx(acc, rel=1e-11)


def test_forced_evolution_second_order(grid32):
    """Forced step error drops ~4x when the substep halves (ETD2RK)."""
    g = grid32
    y0 = (mode_field(g, 1, 2, 0.3), mode_field(g, 2, 1, -0.2))
    v0 = _zero_pair(g)
    i, j = g.mode_index(1, 2)

    def forcing(t):
        amp = math.sin(1.3 * t)
        f1 = np.zeros(g.shape, complex)
        f1[g.mode_index(1, 2)] = 0.5 * amp
        f1[g.mode_index(-1, -2)] = 0.5 * amp
        return f1, np.zeros(g.shape, complex)

    ref = evolve_linear(y0, v0, [0.0, 1.0], forcing=forcing, substep=1.0 / 512)
    errs = []
    for n in (16, 32):
        got = evolve_linear(y0, v0, [0.0, 1.0], forcing=forcing, substep=1.0 / n)
        errs.append(np.max(np.abs(got.yhat[1] - ref.yhat[1])))
    assert errs[0] / errs[1] > 3.4


# ---------------------------------------------------------------------------
# block energies
# ---------------------------------------------------------------------------


def test_block_energy_zero(grid32):
    z = _zero_pair(grid32)
    assert block_energy(z, z, 1, 1) == 0.0


def test_block_energy_single_mode_value(grid64):
    """xi = (1, 0), yhat = 1, vhat = 0: g^2 = (5/8) x block mass."""
    u = single_mode(grid64, 1, 0)
    Y = (u, RealField(grid64, np.zeros(grid64.shape)))
    V = _zero_pair(grid64)
    cut = lp.make_cutoffs()
    for j in (-1, 0):
        for k in (-1, 0):
            wj = float(cut.phi(2.0 ** (-j)))
            wk = float(cut.phi(2.0 ** (-k)))
            mass = (wj * wk) ** 2 * l2_norm(u) ** 2
            expected = (5.0 / 8.0) * mass
            assert block_energy(Y, V, j, k) == pytest.approx(expected, abs=1e-12)


def test_block_energy_equivalence_bounds(grid32, rng):
    """1/4 ||v||^2 + 1/2 ||d1 u||^2 + 1/16 ||Lap u||^2 <= g^2 <= (3/4, 1/2, 3/16)."""
    from mhd2d.grid import spectral_derivative

    for _ in range(100):
        j = int(rng.integers(0, 3))
        k = int(rng.integers(-1, j + 1))
        y = random_band_field(grid32, rng, 1.0, 10.0)
        v = random_band_field(grid32, rng, 1.0, 10.0)
        yb = lp.block_h(lp.block_iso(y, j), k)
        vb = lp.block_h(lp.block_iso(v, j), k)
        Y = (yb, RealField(grid32, np.zeros(grid32.shape)))
        V = (vb, RealField(grid32, np.zeros(grid32.shape)))
        gsq = block_energy(Y, V, j, k)
        # block-localize once more to match the double-block in g
        ybb = lp.block_h(lp.block_iso(yb, j), k)
        vbb = lp.block_h(lp.block_iso(vb, j), k)
        nv = l2_norm(vbb) ** 2
        nd1 = l2_norm(spectral_derivative(ybb, 1)) ** 2
        lap = RealField(
            grid32,
            spectral_derivative(ybb, 1, 2).samples + spectral_derivative(ybb, 2, 2).samples,
        )
        nlap = l2_norm(lap) ** 2
        lo = 0.25 * nv + 0.5 * nd1 + nlap / 16.0
        hi = 0.75 * nv + 0.5 * nd1 + 3.0 * nlap / 16.0
        assert lo - 1e-12 <= gsq <= hi + 1e-12


def test_block_energy_monotone_zero_forcing(grid32, rng):
    y0 = (random_band_field(grid32, rng, 1.0, 10.0), random_band_field(grid32, rng, 1.0, 10.0))
    v0 = (random_band_field(grid32, rng, 1.0, 10.0), random_band_field(grid32, rng, 1.0, 10.0))
    times = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40)])
    traj = evolve_linear(y0, v0, times)
    for series in block_energy_series(traj).values():
        growth = np.diff(series)
        assert np.all(growth <= 1e-10 * np.maximum(series[:-1], 1e-300))


# ---------------------------------------------------------------------------
# decay-rate measurement
# ---------------------------------------------------------------------------


def test_decay_rate_fast_branch(grid32):
    """xi = (0, 2) data on the lambda_plus branch: fitted rate = -4."""
    lam = eigenvalues((0.0, 2.0)).lambda_plus
    y0 = (mode_field(grid32, 0, 2, 1.0), RealField(grid32, np.zeros(grid32.shape)))
    v0 = (mode_field(grid32, 0, 2, lam), RealField(grid32, np.zeros(grid32.shape)))
    times = np.linspace(0.0, 6.0, 40)
    traj = evolve_linear(y0, v0, times)
    fit = measured_decay_rate(traj, (0, 2))
    assert fit.rate == pytest.approx(-4.0, abs=1e-3)
    assert fit.window_ok


def test_decay_rate_slow_branch(grid32):
    """xi = (10, 0) generic data: tail rate = lambda_minus ~ -1.0102."""
    y0 = (mode_field(grid32, 10, 0, 1.0), RealField(grid32, np.zeros(grid32.shape)))
    v0 = (mode_field(grid32, 10, 0, 0.3), RealField(grid32, np.zeros(grid32.shape)))
    times = np.linspace(0.0, 8.0, 60)
    traj = evolve_linear(y0, v0, times)
    fit = measured_decay_rate(traj, (10, 0))
    assert fit.rate == pytest.approx(-1.0102, abs=1e-3)


def test_decay_rate_frozen(grid32):
    y0 = (mode_field(grid32, 0, 1, 1.0), RealField(grid32, np.zeros(grid32.shape)))
    traj = evolve_linear(y0, _zero_pair(grid32), np.linspace(0.0, 5.0, 30))
    fit = measured_decay_rate(traj, (0, 1))
    assert abs(fit.rate) < 1e-10


# ---------------------------------------------------------------------------
# ETD2RK step
# ---------------------------------------------------------------------------


def test_etd2rk_step_matches_written_out_scheme():
    """Bit-equal to the predictor-corrector written term by term, for full
    forcing pairs and for pairs whose first slot is None (zero)."""
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3, 2, 2)) - 2.0 * np.eye(2)
    dt = 0.05
    p, r1, r2 = tables = etd_tables(m, dt)
    z0, z1, z2 = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)) for _ in range(3))

    def full(za, zb):
        return za * zb, za**2 - zb

    [got] = etd2rk_step(tables, [(z0, z1)], lambda z, s: [full(*z[0])], dt)
    f = full(z0, z1)
    h0, h1 = apply2(p, z0, z1)
    a0 = h0 + r1[..., 0, 0] * f[0] + r1[..., 0, 1] * f[1]
    a1 = h1 + r1[..., 1, 0] * f[0] + r1[..., 1, 1] * f[1]
    g = full(a0, a1)
    c0, c1 = (g[0] - f[0]) / dt, (g[1] - f[1]) / dt
    want = (
        h0 + r1[..., 0, 0] * f[0] + r1[..., 0, 1] * f[1] + r2[..., 0, 0] * c0 + r2[..., 0, 1] * c1,
        h1 + r1[..., 1, 0] * f[0] + r1[..., 1, 1] * f[1] + r2[..., 1, 0] * c0 + r2[..., 1, 1] * c1,
    )
    assert all(np.array_equal(x, y) for x, y in zip(got, want))

    stages = []

    def second_slot(z, s):
        stages.append(s)
        return [(None, z[0][0] * z[1][1]), (None, z[1][0] * z[0][1])]

    got = etd2rk_step(tables, [(z0, z1), (z2, z1)], second_slot, dt)
    assert stages == [0.0, dt]
    f = (z0 * z1, z2 * z1)
    h = [apply2(p, z0, z1), apply2(p, z2, z1)]
    a = [(hy + r1[..., 0, 1] * fc, hv + r1[..., 1, 1] * fc) for (hy, hv), fc in zip(h, f)]
    g = (a[0][0] * a[1][1], a[1][0] * a[0][1])
    for (hy, hv), fc, gc, out in zip(h, f, g, got):
        c = (gc - fc) / dt
        assert np.array_equal(out[0], hy + r1[..., 0, 1] * fc + r2[..., 0, 1] * c)
        assert np.array_equal(out[1], hv + r1[..., 1, 1] * fc + r2[..., 1, 1] * c)
