import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mhd2d import eulerian, lagrangian, linear, lp
from mhd2d.fields import mode_field, random_band_field
from mhd2d.grid import RealField, half_spectrum, l2_norm, make_grid
from mhd2d.linear import (
    _flow_map_matrix,
    block_energy_series,
    eigenvalues,
    evolve_linear,
    measured_decay_rate,
    mode_solution,
    regime,
)
from mhd2d.propagators import apply2, etd2rk_step, etd_entries, etd_tables, mode_exponential

import full_lattice as fl

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


def _evolve_linear_stacked(Y0, Y1, times):
    """(yhat, vhat), each (M, 2, nx, ny // 2 + 1): the stacked loop of the
    former ``evolve_linear``, kept verbatim as the reference for the states
    a trajectory yields."""
    g = Y0[0].grid
    c = half_spectrum(g)
    times = np.asarray(sorted(float(t) for t in times))
    prop = mode_exponential(_flow_map_matrix(c.k1, c.ksq))
    y0 = np.stack([c.fwd(f.samples) for f in Y0])
    v0 = np.stack([c.fwd(f.samples) for f in Y1])
    ny = np.empty((times.size, 2) + c.ksq.shape, dtype=complex)
    nv = np.empty_like(ny)
    for i, t in enumerate(times):
        p = prop(float(t))
        for comp in range(2):
            ny[i, comp], nv[i, comp] = apply2(p, y0[comp], v0[comp])
    return ny, nv


def _stacked(traj):
    """(yhat, vhat), each (M, 2, nx, ny // 2 + 1): every state of ``traj``."""
    ys, vs = zip(*traj.states())
    return np.stack(ys), np.stack(vs)


def _same_bits(a, b):
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _band_pair(g, rng):
    return tuple(random_band_field(g, rng, 1.0, g.nx / 3.0) for _ in range(2))


# the 121 times of the linear-blocks benchmark workload (t_end = 20)
BLOCK_TIMES = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 120)]))


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("times", [BLOCK_TIMES, [0.0, 0.37]], ids=["block-times", "one-step"])
def test_states_match_the_stacked_loop_bit_for_bit(n, times, rng):
    g = make_grid(n, n, TWO_PI, TWO_PI)
    y0, v0 = _band_pair(g, rng), _band_pair(g, rng)
    ref_y, ref_v = _evolve_linear_stacked(y0, v0, times)
    traj = evolve_linear(y0, v0, times)
    count = 0
    for (yh, vh), want_y, want_v in zip(traj.states(), ref_y, ref_v):
        assert _same_bits(yh, want_y) and _same_bits(vh, want_v)
        count += 1
    assert count == len(times)


@pytest.mark.parametrize("n", [32, 128])
def test_decay_fit_propagates_its_mode_with_the_bits_of_the_full_stack(n, rng, monkeypatch):
    """measured_decay_rate's one-mode series equals the full stack's series
    for the modes the linear-decay and dispersion experiments fit, and for a
    mode with n < 0, read off its stored mirror."""
    g = make_grid(n, n, TWO_PI, TWO_PI)
    y0, v0 = _band_pair(g, rng), _band_pair(g, rng)
    ref_y, _ = _evolve_linear_stacked(y0, v0, BLOCK_TIMES)
    traj = evolve_linear(y0, v0, BLOCK_TIMES)
    states = linear._states
    seen = []

    def spy(*args):
        for yh, vh in states(*args):
            seen.append(yh)
            yield yh, vh

    monkeypatch.setattr(linear, "_states", spy)
    for mode in ((2, 2), (2, 3), (5, 0), (0, 4), (1, 2), (4, 0), (0, 3), (2, -3)):
        seen.clear()
        measured_decay_rate(traj, mode)
        i, j, _ = half_spectrum(g).mode_index(*mode)
        assert {yh.shape for yh in seen} == {(2, 1, 1)}
        assert _same_bits(np.array([yh[0, 0, 0] for yh in seen]), ref_y[:, 0, i, j])


def test_evolve_zero_data(grid32):
    yhat, vhat = _stacked(evolve_linear(_zero_pair(grid32), _zero_pair(grid32), [0.0, 1.0, 2.0]))
    assert np.max(np.abs(yhat)) == 0.0 and np.max(np.abs(vhat)) == 0.0


def test_evolve_single_mode_matches_mode_solution(grid32):
    y0 = (mode_field(grid32, 3, 1, 0.5 - 0.25j), RealField(grid32, np.zeros(grid32.shape)))
    v0 = (mode_field(grid32, 3, 1, 0.1 + 0.2j), RealField(grid32, np.zeros(grid32.shape)))
    times = [0.0, 0.7, 1.9]
    yhat, vhat = _stacked(evolve_linear(y0, v0, times))
    xi = (3.0, 1.0)
    i, j, _ = half_spectrum(grid32).mode_index(3, 1)
    n = grid32.nx * grid32.ny
    for idx, t in enumerate(times):
        y_ref, v_ref = mode_solution(xi, 0.5 - 0.25j, 0.1 + 0.2j, t)
        assert abs(yhat[idx, 0, i, j] / n - y_ref) < 1e-12
        assert abs(vhat[idx, 0, i, j] / n - v_ref) < 1e-12


def test_evolve_multimode_energy_is_mode_sum(grid32, rng):
    """L2 energy at time t equals the per-mode sum (Plancherel oracle)."""
    y0 = (random_band_field(grid32, rng, 1.0, 8.0), random_band_field(grid32, rng, 1.0, 8.0))
    v0 = (random_band_field(grid32, rng, 1.0, 8.0), random_band_field(grid32, rng, 1.0, 8.0))
    t = 0.8
    yhat, _ = _stacked(evolve_linear(y0, v0, [0.0, t]))
    area = grid32.lx * grid32.ly
    n = grid32.nx * grid32.ny
    direct = area * half_spectrum(grid32).lattice_sum(np.sum(np.abs(yhat[1] / n) ** 2, axis=0))
    acc = 0.0
    c0 = [fl.fwd(grid32, f.samples) for f in y0]
    c1 = [fl.fwd(grid32, f.samples) for f in v0]
    lat = fl.lattice(grid32)
    for comp in range(2):
        for i in range(grid32.nx):
            for j in range(grid32.ny):
                x1, x2 = float(lat.k1[i, 0]), float(lat.k2[0, j])
                if c0[comp][i, j] == 0 and c1[comp][i, j] == 0:
                    continue
                if x1 == 0 and x2 == 0:
                    continue
                y, _ = mode_solution((x1, x2), c0[comp][i, j], c1[comp][i, j], t)
                acc += area * abs(y) ** 2
    assert direct == pytest.approx(acc, rel=1e-11)


def _forced_march(g, y0, v0, forcing, h, n_steps):
    """The half-spectrum pairs (yhat, vhat) of both components after each of
    ``n_steps`` ETD2RK steps of size h of the linear system forced by
    ``forcing(t)`` (half-spectrum coefficients of both components)."""
    hs = half_spectrum(g)
    # the first ny/2 + 1 full-lattice columns carry the half spectrum's |xi|
    tables = etd_entries(etd_tables(fl.companion_matrices(g)[:, : g.ny // 2 + 1], h))
    z = [(hs.fwd(y.samples), hs.fwd(v.samples)) for y, v in zip(y0, v0)]
    t, out = 0.0, []
    for _ in range(n_steps):
        z = etd2rk_step(tables, z, lambda _, s, t=t: [(None, fc) for fc in forcing(t + s)], h)
        t += h
        out.append(z)
    return out


def test_forced_evolution_second_order(grid32):
    """Forced step error drops ~4x when the step halves (ETD2RK)."""
    g = grid32
    y0 = (mode_field(g, 1, 2, 0.3), mode_field(g, 2, 1, -0.2))
    v0 = _zero_pair(g)
    i, j, _ = half_spectrum(g).mode_index(1, 2)
    size = g.nx * g.ny
    half = half_spectrum(g).ksq.shape

    def forcing(t):
        # half spectrum: (1, 2) holds 0.5 amp, its mirror (-1, -2) is implied
        amp = math.sin(1.3 * t)
        f1 = np.zeros(half, complex)
        f1[i, j] = 0.5 * amp * size
        return f1, np.zeros(half, complex)

    ref = _forced_march(g, y0, v0, forcing, 1.0 / 512, 512)[-1]
    errs = []
    for n in (16, 32):
        got = _forced_march(g, y0, v0, forcing, 1.0 / n, n)[-1]
        errs.append(max(np.max(np.abs(got[c][0] - ref[c][0])) for c in range(2)) / size)
    assert errs[0] / errs[1] > 3.4


def test_forced_evolution_exact_for_forcing_linear_in_time(grid32):
    """ETD2RK integrates a forcing linear in time exactly: states after 4 and
    8 steps match the one-shot response P z0 + R1 a + R2 b."""
    g = grid32
    hs = half_spectrum(g)
    rng = np.random.default_rng(3)
    y0, v0, fa, fb = (
        tuple(random_band_field(g, rng, 1.0, 6.0) for _ in range(2)) for _ in range(4)
    )
    a, b = ([hs.fwd(f.samples) for f in pair] for pair in (fa, fb))
    got = _forced_march(g, y0, v0, lambda t: (a[0] + b[0] * t, a[1] + b[1] * t), 1.0 / 16, 8)
    half_matrices = fl.companion_matrices(g)[:, : g.ny // 2 + 1]
    for n, t in ((4, 0.25), (8, 0.5)):
        p, r1, r2 = etd_tables(half_matrices, t)
        for c in range(2):
            hy, hv = apply2(p, hs.fwd(y0[c].samples), hs.fwd(v0[c].samples))
            want_y = hy + r1[..., 0, 1] * a[c] + r2[..., 0, 1] * b[c]
            want_v = hv + r1[..., 1, 1] * a[c] + r2[..., 1, 1] * b[c]
            got_y, got_v = got[n - 1][c]
            assert np.max(np.abs(got_y - want_y)) <= 1e-12 * np.max(np.abs(want_y))
            assert np.max(np.abs(got_v - want_v)) <= 1e-12 * np.max(np.abs(want_v))


# ---------------------------------------------------------------------------
# block energies
# ---------------------------------------------------------------------------


def _block_energy(Y, Y_t, j, k):
    """g_{j,k}^2 of the state (Y, Y_t), 0 for a pair with no energy: the one
    entry of the block-energy series of a one-sample trajectory."""
    series = block_energy_series(evolve_linear(Y, Y_t, [0.0]))
    return float(series[(j, k)][0]) if (j, k) in series else 0.0


def test_block_energy_zero(grid32):
    z = _zero_pair(grid32)
    assert _block_energy(z, z, 1, 1) == 0.0


def test_block_energy_single_mode_value(grid64):
    """xi = (1, 0), yhat = 1, vhat = 0: g^2 = (5/8) x block mass."""
    u = fl.single_mode(grid64, 1, 0)
    Y = (u, RealField(grid64, np.zeros(grid64.shape)))
    V = _zero_pair(grid64)
    cut = lp.make_cutoffs()
    for j in (-1, 0):
        for k in (-1, 0):
            wj = float(cut.phi(2.0 ** (-j)))
            wk = float(cut.phi(2.0 ** (-k)))
            mass = (wj * wk) ** 2 * l2_norm(u) ** 2
            expected = (5.0 / 8.0) * mass
            assert _block_energy(Y, V, j, k) == pytest.approx(expected, abs=1e-12)


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
        gsq = _block_energy(Y, V, j, k)
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


def test_block_energy_series_holds_one_state_at_a_time(rng):
    """At 128^2 over the 121 block-energy times the stored stacks alone would
    take 2 x 121 x 2 x 128 x 65 x 16 B = 64 MB; reduced state by state the
    traced peak stays below 8 MB.  A one-time call first fills the per-grid
    caches (half-spectrum tables, isotropic block weights, horizontal masks),
    which are not per-state.  With the propagator set up and evaluated on
    32-row blocks, one state held at a time and the anisotropic norms taken
    as per-row sums times the horizontal masks, the peak measured 3.1 MB,
    under a 4 MB pin (4.8 MB with a whole-stack propagator, two states held
    while the next is made and a (j, k) x modes weight matrix)."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    y0, v0 = _band_pair(g, rng), _band_pair(g, rng)
    block_energy_series(evolve_linear(y0, v0, [0.0]))
    tracemalloc.start()
    try:
        table = block_energy_series(evolve_linear(y0, v0, BLOCK_TIMES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table and {row.shape for row in table.values()} == {BLOCK_TIMES.shape}
    assert peak < 8e6
    assert peak < 4e6


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
# ETD tables
# ---------------------------------------------------------------------------


def _augmented_expm_tables(m, h):
    """(P, R1, R2) read off scipy's expm of the augmented system
    (z, g, r)' = (M z + g, r, 0): the construction ``etd_tables`` replaced."""
    aug = np.zeros(m.shape[:-2] + (6, 6))
    aug[..., 0:2, 0:2] = m
    aug[..., 0, 2] = aug[..., 1, 3] = aug[..., 2, 4] = aug[..., 3, 5] = 1.0
    e = expm(aug * h)
    return e[..., 0:2, 0:2], e[..., 0:2, 2:4], e[..., 0:2, 4:6]


def _solver_matrices(module, grid, monkeypatch):
    """The mode matrices a solver's cached ``_etd`` hands to ``etd_tables``."""
    monkeypatch.setattr(module, "etd_tables", lambda m, h: m)
    monkeypatch.setattr(module, "etd_entries", lambda tables: tables)
    return module._etd.__wrapped__(grid, 1.0)


@pytest.mark.parametrize("dt", [5e-4, 4e-3, 2e-2])
@pytest.mark.parametrize("solver", ["lagrangian", "euler", "random", "zero"])
def test_etd_tables_match_augmented_expm(solver, dt, monkeypatch):
    """Scaling and squaring on the 2x2 blocks agrees with scipy's expm of the
    6x6 augmented matrix to 1e-12 of each mode's largest entry, per table: on
    the 128^2 half spectrum of both solvers (the mean mode, xi1 = 0 and the
    double roots |xi|^4 = 4 xi1^2 such as xi = (1, 1) included), a random
    stack, and the zero matrix (no squaring)."""
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(7)
    m = {
        "lagrangian": lambda: _solver_matrices(lagrangian, g, monkeypatch),
        "euler": lambda: _solver_matrices(eulerian, g, monkeypatch),
        "random": lambda: rng.standard_normal((5, 3, 2, 2)) - 2.0 * np.eye(2),
        "zero": lambda: np.zeros((4, 2, 2)),
    }[solver]()
    got = etd_tables(m, dt)
    assert all(t.shape == m.shape for t in got)
    for table, want in zip(got, _augmented_expm_tables(m, dt)):
        scale = np.max(np.abs(want), axis=(-2, -1))
        assert np.all(np.max(np.abs(table - want), axis=(-2, -1)) <= 1e-12 * scale)
    if solver == "zero":
        assert all(np.all(t == w * np.eye(2)) for t, w in zip(got, (1.0, dt, 0.5 * dt**2)))


def test_cli_import_leaves_scipy_linalg_unloaded():
    """The package sets up on numpy alone (ETD tables, spline interpolation,
    config checks): a fresh interpreter that imports the command line and
    loads a config has no scipy or jsonschema module loaded."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, mhd2d.cli; mhd2d.cli.load_config('block-energy', None, {}); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# ETD2RK step
# ---------------------------------------------------------------------------


def test_etd_entries_are_contiguous_complex_copies_of_the_tables():
    """Three 4-tuples (T00, T01, T10, T11), each entry C-contiguous complex128
    and equal to the real table entry; the in-place step on them writes
    neither the state it starts from nor the forcing slots it is given."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4, 2, 2)) - 2.0 * np.eye(2)
    tables = etd_tables(m, 0.05)
    entries = etd_entries(tables)
    assert [len(e) for e in entries] == [4, 4, 4]
    for table, four in zip(tables, entries):
        for (i, j), entry in zip([(0, 0), (0, 1), (1, 0), (1, 1)], four):
            assert entry.dtype == complex and entry.flags.c_contiguous
            assert np.array_equal(entry, table[..., i, j]) and not np.any(entry.imag)
    z = [tuple(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)) for _ in range(2))]
    slots = [[tuple(rng.standard_normal((6, 4)) + 0j for _ in range(2))] for _ in range(2)]
    kept = [a.copy() for a in (*z[0], *slots[0][0], *slots[1][0])]
    etd2rk_step(entries, z, lambda _, s: slots[0] if s == 0.0 else slots[1], 0.05)
    assert all(np.array_equal(a, b) for a, b in zip((*z[0], *slots[0][0], *slots[1][0]), kept))


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

    [got] = etd2rk_step(etd_entries(tables), [(z0, z1)], lambda z, s: [full(*z[0])], dt)
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

    got = etd2rk_step(etd_entries(tables), [(z0, z1), (z2, z1)], second_slot, dt)
    assert stages == [0.0, dt]
    f = (z0 * z1, z2 * z1)
    h = [apply2(p, z0, z1), apply2(p, z2, z1)]
    a = [(hy + r1[..., 0, 1] * fc, hv + r1[..., 1, 1] * fc) for (hy, hv), fc in zip(h, f)]
    g = (a[0][0] * a[1][1], a[1][0] * a[0][1])
    for (hy, hv), fc, gc, out in zip(h, f, g, got):
        c = (gc - fc) / dt
        assert np.array_equal(out[0], hy + r1[..., 0, 1] * fc + r2[..., 0, 1] * c)
        assert np.array_equal(out[1], hv + r1[..., 1, 1] * fc + r2[..., 1, 1] * c)
