"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

import mhd2d.diagnostics as diag
import mhd2d.eulerian as eul
import mhd2d.lagrangian as lag
from mhd2d import lp
from mhd2d.fields import gaussian_bump, random_band_field, random_solenoidal
from mhd2d.grid import RealField, l2_norm, make_grid, spectral_derivative
from mhd2d.initial_data import build_flow_map_initial, solve_companion_potential
from mhd2d.linear import block_energy_series, eigenvalues, evolve_linear, mode_solution
from mhd2d.propagators import mode_exponential

import full_lattice as fl

TWO_PI = 2.0 * np.pi


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


# ---------------------------------------------------------------------------
# 1. dispersion exactness
# ---------------------------------------------------------------------------


def test_c01_dispersion_exactness():
    t_start = time.time()
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    lat = fl.lattice(g)
    k1 = lat.k1 + 0.0 * lat.k2
    ksq = lat.k_sq
    nz = ksq > 0
    # Vieta identities over the whole lattice
    vieta = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            if not nz[i, j]:
                continue
            e = eigenvalues((float(lat.k1[i, 0]), float(lat.k2[0, j])))
            s = float(ksq[i, j])
            p = float(k1[i, j] ** 2)
            vieta = max(
                vieta,
                abs(e.lambda_plus + e.lambda_minus + s) / max(1.0, s),
                abs(e.lambda_plus * e.lambda_minus - p) / max(1.0, p),
            )
    # stacked high-order ODE oracle over t in [0, 10]
    rng = np.random.default_rng(2024)
    y0 = rng.standard_normal(g.shape)
    v0 = rng.standard_normal(g.shape)
    k1f = k1.ravel()
    ksqf = ksq.ravel()

    def rhs(_t, z):
        y, v = z[: z.size // 2], z[z.size // 2 :]
        return np.concatenate([v, -(k1f**2) * y - ksqf * v])

    sample_times = [0.5, 3.0, 10.0]
    m = fl.companion_matrices(g)
    dev = 0.0
    z = np.concatenate([y0.ravel(), v0.ravel()])
    t_prev = 0.0
    oracle_at = {}
    for t in sample_times:
        # integrate endpoint to endpoint: dense-output interpolation would
        # cost three orders of accuracy on stiff modes
        sol = solve_ivp(rhs, (t_prev, t), z, rtol=1e-13, atol=1e-14, method="DOP853")
        z = sol.y[:, -1]
        t_prev = t
        oracle_at[t] = z.copy()
        p = mode_exponential(m)(t)
        y_exact = p[..., 0, 0] * y0 + p[..., 0, 1] * v0
        v_exact = p[..., 1, 0] * y0 + p[..., 1, 1] * v0
        y_ode = z[: y0.size].reshape(g.shape)
        v_ode = z[y0.size :].reshape(g.shape)
        dev = max(dev, float(np.max(np.abs(y_exact - y_ode))), float(np.max(np.abs(v_exact - v_ode))))
    # spot-check the per-mode API against the same oracle
    for _ in range(50):
        i = int(rng.integers(0, g.nx))
        j = int(rng.integers(0, g.ny))
        if not nz[i, j]:
            continue
        xi = (float(lat.k1[i, 0]), float(lat.k2[0, j]))
        y, v = mode_solution(xi, complex(y0[i, j]), complex(v0[i, j]), 3.0)
        flat = i * g.ny + j
        dev = max(dev, abs(y - oracle_at[3.0][flat]), abs(v - oracle_at[3.0][y0.size + flat]))
    elapsed = time.time() - t_start
    ok = vieta < 1e-12 and dev < 1e-10 and elapsed < 10.0
    _report(
        "C1 dispersion exactness",
        ok,
        f"vieta={vieta:.2e} (tol 1e-12), ode-dev={dev:.2e} (tol 1e-10), runtime={elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 2. asymptotic lambda_minus limit
# ---------------------------------------------------------------------------


def test_c02_lambda_minus_asymptote():
    worst = 0.0
    for n in range(4, 33):
        lam = eigenvalues((float(n), 0.0)).lambda_minus.real
        ratio = abs(lam + 1.0) / (2.0 / n**2)
        worst = max(worst, ratio)
    _report("C2 lambda_minus asymptote", worst < 1.0, f"max |lam+1| / (2/n^2) = {worst:.3f} over n=4..32")


# ---------------------------------------------------------------------------
# 3. regime decay rates
# ---------------------------------------------------------------------------


def test_c03_regime_decay():
    t_start = time.time()
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(7)
    y0 = (random_band_field(g, rng, 1.0, 42.0), random_band_field(g, rng, 1.0, 42.0))
    v0 = (random_band_field(g, rng, 1.0, 42.0), random_band_field(g, rng, 1.0, 42.0))
    times = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 140)]))
    traj = evolve_linear(y0, v0, times)
    table = block_energy_series(traj)
    worst_growth = 0.0
    for series in table.values():
        growth = np.max(np.diff(series) / np.maximum(series[:-1], 1e-300))
        worst_growth = max(worst_growth, float(growth))
    rows = diag.decay_table(traj.times, table)
    c_min = min(r.rate_constant for r in rows)
    c_low = min((r.rate_constant for r in rows if r.regime == "low"), default=math.inf)
    c_high = min((r.rate_constant for r in rows if r.regime == "high"), default=math.inf)
    elapsed = time.time() - t_start
    ok = worst_growth <= 1e-10 and c_min > 0.0 and elapsed < 120.0
    _report(
        "C3 regime decay",
        ok,
        f"monotone (max growth {worst_growth:.1e}), recorded c={c_min:.3f} "
        f"(low {c_low:.3f}, high {c_high:.3f}) over {len(rows)} blocks, runtime={elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 4. energy identity
# ---------------------------------------------------------------------------


def test_c04_energy_identity():
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(11)
    psi0 = random_band_field(g, rng, 1.0, 2.0, 1e-3, decay=0.5)
    u0 = random_solenoidal(g, rng, 1.0, 2.0, 3e-4, decay=0.5)
    run1 = eul.run_euler(psi0, u0, 1e-3, 5.0)
    res1 = run1.balance_residual_per_time() / run1.energy[0]
    run2 = eul.run_euler(psi0, u0, 5e-4, 5.0)
    res2 = run2.balance_residual_per_time() / run2.energy[0]
    ratio = res1 / max(res2, 1e-300)
    ok = res1 < 1e-6 and ratio >= 3.5
    _report(
        "C4 energy identity",
        ok,
        f"residual/E0/T = {res1:.2e} (tol 1e-6), drop under dt halving = {ratio:.2f}x (>= 3.5)",
    )


# ---------------------------------------------------------------------------
# 5. volume / constraint conservation
# ---------------------------------------------------------------------------


def test_c05_volume_constraint():
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(13)
    z = (_zeros(g), _zeros(g))
    y1 = random_solenoidal(g, rng, 1.0, 4.0, 2e-2, decay=0.5)
    coarse = lag.run_lagrangian(z, y1, 0.02, 5.0, store_every=10**9, monitor_every=5)
    fine = lag.run_lagrangian(z, y1, 0.01, 5.0, store_every=10**9, monitor_every=10)
    det_c, det_f = float(np.max(coarse.det_err)), float(np.max(fine.det_err))
    con_c, con_f = float(np.max(coarse.constraint_err)), float(np.max(fine.constraint_err))
    ok = det_c < 1e-4 and con_c < 1e-4 and det_f < det_c and con_f < con_c
    _report(
        "C5 volume/constraint",
        ok,
        f"|det-1| {det_c:.2e} -> {det_f:.2e}, ||divY - rho|| {con_c:.2e} -> {con_f:.2e} "
        "(tol 1e-4, improving under dt refinement)",
    )


# ---------------------------------------------------------------------------
# 6. algebraic identities
# ---------------------------------------------------------------------------


def test_c06_algebraic_identities():
    t_start = time.time()
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    rng = np.random.default_rng(17)
    worst = {"adjugate": 0.0, "det_expansion": 0.0, "two_form": 0.0, "f_form": 0.0, "pullback": 0.0}
    for _ in range(100):
        Y = (
            random_band_field(g, rng, 1.0, 10.0, 0.05),
            random_band_field(g, rng, 1.0, 10.0, 0.05),
        )
        t = lag.gradient_tensor(Y)
        adj = lag.adjugate(t)
        det = lag.det_i_plus_grad(t).samples
        a11, a12 = 1.0 + t.d1y1, t.d1y2
        a21, a22 = t.d2y1, 1.0 + t.d2y2
        worst["adjugate"] = max(
            worst["adjugate"],
            float(np.max(np.abs(a11 * adj.b11 + a21 * adj.b21 - det))),
            float(np.max(np.abs(a11 * adj.b12 + a21 * adj.b22))),
            float(np.max(np.abs(a12 * adj.b11 + a22 * adj.b21))),
            float(np.max(np.abs(a12 * adj.b12 + a22 * adj.b22 - det))),
        )
        rho_pt = t.d1y2 * t.d2y1 - t.d1y1 * t.d2y2
        worst["det_expansion"] = max(
            worst["det_expansion"], float(np.max(np.abs(det - (1.0 + t.d1y1 + t.d2y2 - rho_pt))))
        )
        fa, fb = lag.div_y_d11(Y)
        scale = max(1.0, float(np.max(np.abs(fa.samples))))
        worst["two_form"] = max(worst["two_form"], float(np.max(np.abs(fa.samples - fb.samples))) / scale)
        V = (
            random_band_field(g, rng, 1.0, 10.0, 0.05),
            random_band_field(g, rng, 1.0, 10.0, 0.05),
        )
        q = random_band_field(g, rng, 1.0, 10.0, 0.05)
        _, rel = lag.rhs_f(Y, V, q, cross_check=True)
        worst["f_form"] = max(worst["f_form"], rel)
        r1, r2 = lag.magnetic_pullback_check(Y)
        worst["pullback"] = max(worst["pullback"], float(np.max(np.abs(r1.samples))), float(np.max(np.abs(r2.samples))))
    elapsed = time.time() - t_start
    ok = all(v < 1e-10 for v in worst.values()) and elapsed < 30.0
    _report(
        "C6 algebraic identities",
        ok,
        ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f" (all < 1e-10), runtime={elapsed:.0f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 7. initial-data construction
# ---------------------------------------------------------------------------


def test_c07_initial_data_construction():
    eps = 1e-3
    g256 = make_grid(256, 256, TWO_PI, TWO_PI)
    psi256 = gaussian_bump(g256, eps, width=0.6)
    tilde256, info256 = solve_companion_potential(psi256, tol=1e-6)
    _, seed256 = build_flow_map_initial(psi256, tilde256)
    residuals = {}
    for n in (128, 256, 512):
        gg = make_grid(n, n, TWO_PI, TWO_PI)
        psi = gaussian_bump(gg, eps, width=0.6)
        tilde, _ = solve_companion_potential(psi, tol=1e-4)
        _, seed = build_flow_map_initial(psi, tilde)
        residuals[n] = max(seed.gradient_residuals_l2)
    r1 = residuals[256] / residuals[128]
    r2 = residuals[512] / residuals[256]
    ok = (
        info256.det_residual_max < 1e-6
        and seed256.iterations <= 30
        and 0.15 < r1 < 0.45
        and 0.15 < r2 < 0.45
    )
    _report(
        "C7 initial-data construction",
        ok,
        f"|det U0 - 1| = {info256.det_residual_max:.2e} (tol 1e-6), iterations = {seed256.iterations} (<=30), "
        f"gradient-relation residual ratios 128->256->512: {r1:.2f}, {r2:.2f} (O(h^2) ~ 0.25)",
    )


# ---------------------------------------------------------------------------
# 8. formulation equivalence
# ---------------------------------------------------------------------------


def _equivalence_error(n: int, dt_l: float, dt_e: float, rng_seed: int = 42) -> float:
    g = make_grid(n, n, TWO_PI, TWO_PI)
    rng = np.random.default_rng(rng_seed)
    u0 = random_solenoidal(g, rng, 1.0, 4.0, 1e-3, decay=0.5)
    psi0 = _zeros(g)
    erun = eul.run_euler(psi0, u0, dt_e, 2.0, monitor_every=100)
    lrun = lag.run_lagrangian((_zeros(g), _zeros(g)), u0, dt_l, 2.0, store_every=10**9, monitor_every=50)
    est = erun.states[-1]
    lst, _, _ = lag.to_eulerian(lrun.states[-1])
    num = math.sqrt(
        l2_norm(RealField(g, lst.psi.samples - est.psi.samples)) ** 2
        + l2_norm(RealField(g, lst.u[0].samples - est.u[0].samples)) ** 2
        + l2_norm(RealField(g, lst.u[1].samples - est.u[1].samples)) ** 2
    )
    den = math.sqrt(l2_norm(est.psi) ** 2 + l2_norm(est.u[0]) ** 2 + l2_norm(est.u[1]) ** 2)
    return num / den


def test_c08_formulation_equivalence():
    err_coarse = _equivalence_error(64, 0.02, 4e-3)
    err_fine = _equivalence_error(128, 0.01, 2e-3)
    ok = err_fine < 5e-3 and err_fine < err_coarse
    _report(
        "C8 formulation equivalence",
        ok,
        f"rel L2 (psi,u) at 128^2: {err_fine:.2e} (tol 5e-3), decreasing under refinement "
        f"(64^2: {err_coarse:.2e})",
    )


# ---------------------------------------------------------------------------
# 9. Littlewood-Paley suite
# ---------------------------------------------------------------------------


def test_c09_littlewood_paley_suite():
    t_start = time.time()
    g = make_grid(64, 64, TWO_PI, TWO_PI)
    cut = lp.make_cutoffs()
    k_mag = fl.lattice(g).k_mag
    taus = k_mag[k_mag > 0]
    j0, j1 = lp.resolved_range(g, "iso")
    total = np.zeros_like(taus)
    for j in range(j0, j1 + 1):
        total += cut.phi(taus * 2.0 ** (-j))
    part_res = float(np.max(np.abs(total - 1.0)))

    rng = np.random.default_rng(23)
    ortho = 0.0
    f = random_band_field(g, rng, 1.0, 20.0)
    for j in (-1, 0, 2, 4):
        for k in (j + 2, j + 3, j - 2):
            ortho = max(ortho, l2_norm(lp.block_iso(lp.block_iso(f, j), k)))

    bern_margin = 0.0
    violated = False
    for _ in range(1000):
        f = random_band_field(g, rng, 0.0, 21.0)
        k = int(rng.integers(-1, 4))
        ball = lp.low_pass_h(f, k + 1)
        nb = l2_norm(ball)
        if nb > 0:
            lhs = l2_norm(spectral_derivative(ball, 1))
            if lhs > (8.0 / 3.0) * 2.0**k * nb * (1 + 1e-12):
                violated = True
            bern_margin = max(bern_margin, lhs / ((8.0 / 3.0) * 2.0**k * nb))
        ring = lp.block_h(f, k)
        nr = l2_norm(ring)
        if nr > 0:
            rhs = (4.0 / 3.0) * 2.0 ** (-k) * l2_norm(spectral_derivative(ring, 1))
            if nr > rhs * (1 + 1e-12):
                violated = True

    bony = 0.0
    for direction in ("iso", "horizontal"):
        for _ in range(10):
            a = random_band_field(g, rng, 0.0, 20.0)
            b = random_band_field(g, rng, 0.0, 20.0)
            t, tb, r = lp.bony_decompose(a, b, direction)
            prod = fl.dealiased_product(a, b)
            bony = max(
                bony,
                l2_norm(RealField(g, t.samples + tb.samples + r.samples - prod.samples))
                / max(1.0, l2_norm(prod)),
            )
    elapsed = time.time() - t_start
    ok = part_res < 1e-12 and ortho < 1e-14 and not violated and bony < 1e-10 and elapsed < 60.0
    _report(
        "C9 Littlewood-Paley suite",
        ok,
        f"partition={part_res:.1e} (<1e-12), orthogonality={ortho:.1e}, bernstein max ratio="
        f"{bern_margin:.3f} (never > 1), bony={bony:.1e} (<1e-10), runtime={elapsed:.0f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 10. composition isometry
# ---------------------------------------------------------------------------


def _isometry_error(n: int) -> float:
    g = make_grid(n, n, TWO_PI, TWO_PI)
    modes = [(1, 0, 0.05, 0.3), (0, 1, 0.04, 1.1), (2, 1, 0.02, 2.0), (1, 2, 0.015, 0.7)]
    chi_samples = np.zeros(g.shape)
    for m, nn, amp, ph in modes:
        chi_samples += amp * np.cos(m * g.x1 + nn * g.x2 + ph)
    chi = RealField(g, chi_samples)
    from tests.test_lagrangian import flow_displacement

    disp = flow_displacement(chi, n_steps=128)
    u_modes = [(3, 1, 1.0, 0.2), (1, 4, 0.7, 1.3), (5, 2, 0.4, 2.4), (2, 0, 0.8, 0.5)]
    u_samples = np.zeros(g.shape)
    for m, nn, amp, ph in u_modes:
        u_samples += amp * np.cos(m * g.x1 + nn * g.x2 + ph)
    u = RealField(g, u_samples)
    out = lag.compose(u, disp)
    return abs(l2_norm(out) - l2_norm(u)) / l2_norm(u)


def test_c10_composition_isometry():
    e256 = _isometry_error(256)
    e512 = _isometry_error(512)
    ok = e256 < 1e-3 and e512 <= e256 / 4.0
    _report(
        "C10 composition isometry",
        ok,
        f"rel change 256^2: {e256:.2e} (tol 1e-3), 512^2: {e512:.2e} (<= 256-value/4)",
    )


# ---------------------------------------------------------------------------
# 11. anisotropy signature
# ---------------------------------------------------------------------------


def test_c11_anisotropy_signature():
    g = make_grid(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(42)
    z = (_zeros(g), _zeros(g))
    y1 = random_solenoidal(g, rng, 1.0, 6.0, 1e-3, decay=0.7)
    run = lag.run_lagrangian(z, y1, 0.02, 10.0, store_every=10**9, monitor_every=2, s2_plus_1=0.25)
    t = run.monitor_times
    i5 = int(np.searchsorted(t, 5.0))
    I = run.running_integral("d1y_hs_sq")
    J = run.running_integral("d2y_hs_sq")
    inc_d1 = (I[-1] - I[i5]) / I[i5]
    inc_d2 = (J[-1] - J[i5]) / J[i5]
    ok = inc_d1 < 0.10 and inc_d2 > 5.0 * inc_d1
    _report(
        "C11 anisotropy signature",
        ok,
        f"int ||d1 Y||^2_(H^(s2+1)) increment T=5->10: {100 * inc_d1:.2f}% (<10%); "
        f"d2 channel increment {100 * inc_d2:.1f}% (no comparable decay)",
    )


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------


def test_c12_determinism(tmp_path):
    from mhd2d import cli

    args = ["block-energy", "--set", "nx=32", "--set", "ny=32", "--set", "t_end=3.0", "--set", "seed=5"]
    rc1 = cli.main(args + ["--outdir", str(tmp_path / "r1")])
    rc2 = cli.main(args + ["--outdir", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    ledgers_equal = True
    import os

    for name in os.listdir(tmp_path / "r1" / "ledgers"):
        if (tmp_path / "r1" / "ledgers" / name).read_bytes() != (tmp_path / "r2" / "ledgers" / name).read_bytes():
            ledgers_equal = False
    ok = rc1 == 0 and rc2 == 0 and b1 == b2 and ledgers_equal
    _report(
        "C12 determinism",
        ok,
        f"report.json identical: {b1 == b2}; all CSV ledgers identical: {ledgers_equal}",
    )
