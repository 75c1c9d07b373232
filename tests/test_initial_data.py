import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from mhd2d import lagrangian as lag
from mhd2d.fields import bump_dx1, gaussian_bump, random_solenoidal
from mhd2d.grid import RealField, half_spectrum, make_grid, spectral_derivative
from mhd2d.initial_data import (
    ConstructionError,
    FlowMapSeedInfo,
    _seam_mask,
    quiet_column,
    build_flow_map_initial,
    seed_lagrangian_velocity,
    smallness_report,
    solve_companion_potential,
    window_derivative_x1,
    InitialDatum,
)
from mhd2d.interp import PeriodicInterpolator

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid128():
    return make_grid(128, 128, TWO_PI, TWO_PI)


# ---------------------------------------------------------------------------
# companion potential
# ---------------------------------------------------------------------------


def test_companion_zero_for_x2_independent(grid128):
    psi0 = RealField.from_function(
        grid128, lambda x, y: 1e-3 * np.exp(-((x - np.pi) ** 2) / 0.5) + 0.0 * y
    )
    tilde, info = solve_companion_potential(psi0)
    assert np.max(np.abs(tilde.samples)) < 1e-14
    assert info.det_residual_max < 1e-12


def test_companion_first_order_oracle(grid128):
    """psi0 = eps h(x1) g(x2): psitilde0 = eps (H(x1) - H(x1_0)) g'(x2) + O(eps^2),
    with the x1-antiderivative H in closed form."""
    eps = 1e-4
    sigma = 0.55

    def h(x):
        return np.exp(-((x - np.pi) ** 2) / (2 * sigma**2))

    def H(x):
        return sigma * math.sqrt(math.pi / 2.0) * erf((x - np.pi) / (sigma * math.sqrt(2.0)))

    psi0 = RealField.from_function(grid128, lambda x, y: eps * h(x) * np.sin(y))
    tilde, info = solve_companion_potential(psi0)
    x = grid128.x1[:, 0]
    i0 = info.start_column
    expect = eps * (np.vectorize(H)(x)[:, None] - H(x[i0])) * np.cos(grid128.x2)
    assert np.max(np.abs(tilde.samples - expect)) < 10.0 * eps**2


def test_companion_det_residual(grid128):
    psi0 = gaussian_bump(grid128, 1e-3, width=0.6)
    tilde, info = solve_companion_potential(psi0, tol=1e-6)
    assert info.det_residual_max < 1e-6
    # the x1-constant wake of a net-mass bump is first order in amplitude
    assert info.wake_max == pytest.approx(1e-3 * math.sqrt(2 * math.pi) * 0.6 / 0.6 / math.e**0.0, rel=1.0)


def test_companion_rejects_large_gradient(grid128):
    psi0 = gaussian_bump(grid128, 0.8, width=0.8)
    with pytest.raises(ConstructionError):
        solve_companion_potential(psi0)


# ---------------------------------------------------------------------------
# flow-map seed
# ---------------------------------------------------------------------------


def test_seed_zero_data(grid128):
    z = RealField(grid128, np.zeros(grid128.shape))
    Y0, info = build_flow_map_initial(z, z)
    assert np.max(np.abs(Y0[0].samples)) == 0.0
    assert np.max(np.abs(Y0[1].samples)) == 0.0
    assert info.iterations <= 2


def test_seed_first_order_oracle(grid128):
    """eps = 1e-4: Y0 = (psitilde0, -psi0) + O(eps^2) column-wise, away from
    the marching seam (the wake band is outside the plane surrogate)."""
    eps = 1e-4
    psi0 = gaussian_bump(grid128, eps, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, info = build_flow_map_initial(psi0, tilde)
    mask = _seam_mask(grid128, quiet_column(psi0), info.seam_margin)
    assert np.max(np.abs((Y0[0].samples - tilde.samples)[mask])) < 10.0 * eps**2
    assert np.max(np.abs((Y0[1].samples + psi0.samples)[mask])) < 10.0 * eps**2
    assert info.iterations <= 30


def test_seed_gradient_relations(grid128):
    eps = 1e-3
    psi0 = gaussian_bump(grid128, eps, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, info = build_flow_map_initial(psi0, tilde)
    assert max(info.gradient_residuals_linf) < 3e-5  # O(h^2) at 128^2
    # det(I + grad Y0) = 1 with the same local (centred-difference) gradients
    # the residuals use; spectral gradients would ring off the wake seam
    def cd(arr, axis, d):
        return (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * d)

    y1, y2 = Y0[0].samples, Y0[1].samples
    det = (1.0 + cd(y1, 0, grid128.dx)) * (1.0 + cd(y2, 1, grid128.dy)) - cd(
        y1, 1, grid128.dy
    ) * cd(y2, 0, grid128.dx)
    mask = _seam_mask(grid128, quiet_column(psi0), info.seam_margin)
    assert np.max(np.abs(det[mask] - 1.0)) < 3e-5


def test_seed_rejects_large_data(grid128):
    psi0 = gaussian_bump(grid128, 0.2, width=0.8)
    tilde = gaussian_bump(grid128, 0.2, width=0.8)
    with pytest.raises(ConstructionError):
        build_flow_map_initial(psi0, tilde)


@pytest.mark.parametrize("plane, value", [(0, np.nan), (1, np.nan), (1, np.inf)])
def test_seed_stops_at_a_non_finite_iterate(grid128, monkeypatch, plane, value):
    """A non-finite value in either plane of a Picard iterate raises
    ConstructionError in the iteration that made it.  Taking the increment
    as ``max`` of two Python floats dropped a NaN in the second plane: zero
    potentials then "converged" and the gradient check failed on the NaN
    points with a ValueError."""
    import mhd2d.initial_data as idm

    class Spoiled(PeriodicInterpolator):
        def __call__(self, x1, x2):
            out = super().__call__(x1, x2)
            if out.shape[0] == 2:  # the potentials, not the four gradients
                out[plane].flat[0] = value
            return out

    monkeypatch.setattr(idm, "PeriodicInterpolator", Spoiled)
    z = RealField(grid128, np.zeros(grid128.shape))
    with pytest.raises(ConstructionError, match=r"^Picard iteration 1: non-finite iterate$"):
        build_flow_map_initial(z, z)


def _seed_whole_field(psi0, psitilde0):
    """Y0 and the residuals of ``build_flow_map_initial`` by its former
    whole-field formulas: each iterate evaluated at whole-field points, the
    four gradients as one stack at the seed and the x1 and x2 differences
    by ``np.roll``."""
    g = psi0.grid
    c = half_spectrum(g)
    d1p, d2p = c.grad(c.fwd(psi0.samples))
    d2t = c.grad(c.fwd(psitilde0.samples))[1]
    potentials = PeriodicInterpolator(psitilde0, psi0)
    y1 = np.zeros(g.shape)
    y2 = np.zeros(g.shape)
    for iterations in range(1, 61):
        new1, new2 = potentials(g.x1 + y1, g.x2 + y2)
        np.negative(new2, out=new2)
        inc = max(float(np.max(np.abs(new1 - y1))), float(np.max(np.abs(new2 - y2))))
        y1, y2 = new1, new2
        if inc < 1e-12:
            break
    grads = (d2p, d2t, d1p, (d2p + d1p * d2t) / (1.0 + d2p))
    at_x0 = PeriodicInterpolator(*(RealField(g, a) for a in grads))(g.x1 + y1, g.x2 + y2)

    def cd(arr, axis, d):
        return (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * d)

    r = (
        cd(y1, 0, g.dx) - at_x0[0],
        cd(y1, 1, g.dy) - at_x0[1],
        cd(y2, 0, g.dx) + at_x0[2],
        cd(y2, 1, g.dy) + at_x0[3],
    )
    seam_margin = max(6, g.nx // 16)
    mask = _seam_mask(g, quiet_column(psi0), seam_margin)
    linf = tuple(float(np.max(np.abs(ri[mask]))) for ri in r)
    l2 = tuple(float(np.sqrt(g.cell_area * np.sum(ri[mask] ** 2))) for ri in r)
    return (y1, y2), FlowMapSeedInfo(iterations, inc, linf, l2, seam_margin)


def _velocity_whole_field(u0, Y0):
    """Y1 and the residual of ``seed_lagrangian_velocity`` by its former
    formulas: u0 at whole-field points, the whole GradTensor and adjugate."""
    g = u0[0].grid
    v1, v2 = PeriodicInterpolator(*u0)(g.x1 + Y0[0].samples, g.x2 + Y0[1].samples)
    adj = lag.adjugate(lag.gradient_tensor(Y0))
    w1 = adj.b11 * v1 + adj.b12 * v2
    w2 = adj.b21 * v1 + adj.b22 * v2
    div = spectral_derivative(RealField(g, w1), 1).samples + spectral_derivative(RealField(g, w2), 2).samples
    return (v1, v2), float(np.sqrt(g.cell_area * np.sum(div**2)))


def test_row_block_seed_and_velocity_match_the_whole_field_formulas(rng):
    """Bit for bit, on a grid whose row blocks (85 rows of 96) do not divide
    nx = 200: blocks of 85, 85 and 30 rows, so the centred x1 differences
    read wrap rows across every block edge and across the periodic seam."""
    g = make_grid(200, 96, TWO_PI, TWO_PI)
    zero = np.zeros(g.shape)
    blocks = PeriodicInterpolator(RealField(g, zero)).displaced(zero, zero)
    assert [len(range(g.nx)[b]) for b, _ in blocks] == [85, 85, 30]
    psi0 = bump_dx1(g, 1e-3, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, info = build_flow_map_initial(psi0, tilde)
    (r1, r2), ref_info = _seed_whole_field(psi0, tilde)
    assert info.iterations > 2
    assert Y0[0].samples.tobytes() == r1.tobytes() and Y0[1].samples.tobytes() == r2.tobytes()
    assert info == ref_info
    u0 = random_solenoidal(g, rng, 1.0, 4.0, 1e-3)
    Y1, res = seed_lagrangian_velocity(u0, Y0)
    (v1, v2), ref_res = _velocity_whole_field(u0, Y0)
    assert Y1[0].samples.tobytes() == v1.tobytes() and Y1[1].samples.tobytes() == v2.tobytes()
    assert res == ref_res and res > 0.0


def _window_derivative_x1_rows(arr: np.ndarray, dx: float) -> np.ndarray:
    """The former row loops of ``window_derivative_x1``, kept verbatim."""
    n = arr.shape[0]
    out = np.empty_like(arr)
    c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    for s in range(3, n - 3):
        out[s] = sum(c[m] * arr[s - 3 + m] for m in range(7)) / dx
    for s in (0, 1, 2):
        out[s] = (-3.0 * arr[s] + 4.0 * arr[s + 1] - arr[s + 2]) / (2.0 * dx)
    for s in (n - 3, n - 2, n - 1):
        out[s] = (3.0 * arr[s] - 4.0 * arr[s - 1] + arr[s - 2]) / (2.0 * dx)
    return out


@pytest.mark.parametrize("n", [8, 9, 33, 512])
def test_window_derivative_x1_matches_its_row_loops(n):
    """Random rows, so a slice off by one row gives other values; signed
    zeros and constant columns, so the signs of zero results are compared."""
    arr = np.random.default_rng(n).standard_normal((n, 6))
    arr[:, 1], arr[:, 2], arr[:, 3] = 0.0, -0.0, 0.7
    arr[::3, 4] = -0.0
    for a, dx in ((arr, 0.1), (arr[:, 0], TWO_PI / n), (arr[:, 5].copy(), 3.0)):
        got, ref = window_derivative_x1(a, dx), _window_derivative_x1_rows(a, dx)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


# ---------------------------------------------------------------------------
# Lagrangian velocity seed
# ---------------------------------------------------------------------------


def test_velocity_seed_identity_map(grid128, rng):
    u0 = random_solenoidal(grid128, rng, 1.0, 4.0, 1e-3)
    z = RealField(grid128, np.zeros(grid128.shape))
    Y1, res = seed_lagrangian_velocity(u0, (z, z))
    assert np.max(np.abs(Y1[0].samples - u0[0].samples)) < 1e-13
    assert res < 1e-12


def test_velocity_seed_zero_velocity(grid128):
    z = RealField(grid128, np.zeros(grid128.shape))
    psi0 = bump_dx1(grid128, 1e-3, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    Y1, res = seed_lagrangian_velocity((z, z), Y0)
    assert np.max(np.abs(Y1[0].samples)) == 0.0
    assert res == 0.0


def test_velocity_seed_transported_divergence(grid128, rng):
    """Generic small data: || div(A_Y0 Y1) ||_L2 stays near discretization."""
    psi0 = bump_dx1(grid128, 1e-3, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(grid128, rng, 1.0, 4.0, 1e-3)
    Y1, res = seed_lagrangian_velocity(u0, Y0)
    assert res < 1e-5


# ---------------------------------------------------------------------------
# smallness report
# ---------------------------------------------------------------------------


def _datum(grid, eps, rng):
    psi0 = gaussian_bump(grid, eps, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(grid, rng, 1.0, 4.0, eps)
    Y1, _ = seed_lagrangian_velocity(u0, Y0)
    return InitialDatum(psi0, tilde, u0, Y0, Y1)


def test_smallness_zero_datum(grid128):
    z = RealField(grid128, np.zeros(grid128.shape))
    d = InitialDatum(z, z, (z, z), (z, z), (z, z))
    rep = smallness_report(d, 4, 2.0, 1.5, -0.75)
    assert all(v == 0.0 for v in rep.values())


def test_smallness_linear_scaling(grid128):
    """Halving the amplitude halves every reported norm to first order."""
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    rep1 = smallness_report(_datum(grid128, 1e-3, rng1), 4, 2.0, 1.5, -0.75)
    rep2 = smallness_report(_datum(grid128, 5e-4, rng2), 4, 2.0, 1.5, -0.75)
    for key in ("psi0_A_k1_s", "u0_Hdot_km1", "Y1_Hdot_s2", "lapY0_Hdot_s1"):
        assert rep1[key] == pytest.approx(2.0 * rep2[key], rel=1e-2)
    # the companion-construction bound ratio is amplitude-stable
    assert rep1["companion_ratio_Hk_over_A"] == pytest.approx(
        rep2["companion_ratio_Hk_over_A"], rel=2e-2
    )


# ---------------------------------------------------------------------------
# memory budget of the round trip, in fields (one 128^2 field = 128 KiB)
# ---------------------------------------------------------------------------

FIELD_BYTES = 128 * 128 * 8


@pytest.fixture(scope="module")
def datum128(grid128):
    psi0 = bump_dx1(grid128, 1e-4, width=0.6)
    tilde, _ = solve_companion_potential(psi0)
    Y0, _ = build_flow_map_initial(psi0, tilde)
    u0 = random_solenoidal(grid128, np.random.default_rng(12345), 1.0, 4.0, 1e-4)
    Y1, _ = seed_lagrangian_velocity(u0, Y0)
    return InitialDatum(psi0, tilde, u0, Y0, Y1)


def _peak_fields(call) -> float:
    """The tracemalloc peak of ``call()`` above its entry, in fields, after
    one untraced call has built every table it reads on first use."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - entry) / FIELD_BYTES
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("phase, budget", [("build_flow_map_initial", 27.3), ("seed_lagrangian_velocity", 16.2)])
def test_seed_phases_stay_within_their_memory_budget(datum128, phase, budget):
    """Peak working set above entry of the 128^2 Picard seed and seed
    velocity, pinned like the round trip's.  With whole-field points, the
    four gradients at the seed as one stack and ``np.roll`` residuals, the
    seed read 34.24 fields; with whole-field points and the whole GradTensor
    and adjugate, the seed velocity read 21.13."""
    d = datum128
    calls = {
        "build_flow_map_initial": lambda: build_flow_map_initial(d.psi0, d.psitilde0),
        "seed_lagrangian_velocity": lambda: seed_lagrangian_velocity(d.u0, d.Y0),
    }
    assert _peak_fields(calls[phase]) <= budget


def test_companion_march_stays_within_its_memory_budget(grid128):
    """Peak working set above entry of the 128^2 companion march from a cold
    table cache (after one call has loaded what numpy builds once), and what
    it leaves held on return (its result and the tables it built), in
    fields.  With ik1/ik2 built as full tables, ksq ahead of them, the march
    read 15.67 at its peak and held 3.58."""
    psi0 = bump_dx1(grid128, 1e-4, width=0.6)
    solve_companion_potential(psi0)
    half_spectrum.cache_clear()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = solve_companion_potential(psi0)
        held, peak = ((m - entry) / FIELD_BYTES for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    del result
    assert peak <= 13.7 and held <= 1.3


@pytest.mark.parametrize("phase, budget", [("_invert", 22.7), ("to_eulerian", 26.9), ("smallness_report", 6.2)])
def test_round_trip_phases_stay_within_their_memory_budget(datum128, phase, budget):
    """Peak working set above entry of the 128^2 round trip's phases, pinned
    like the transform counts: a budget may only go down.  Before the row
    blocks and the one-plane gradients they read 29.13 (``_invert``, with
    grad Y's interpolator built), 33.33 (``to_eulerian``) and 13.23 fields
    (``smallness_report``, all six vectors transformed at once).  At 128^2 a
    row block is half the field, so evaluation temporaries weigh more here
    than at 512^2."""
    state = lag.FlowMapState(datum128.Y0, datum128.Y1, RealField.zeros(datum128.Y0[0].grid), 0.0)
    calls = {
        "_invert": lambda i_g=lag._gradient_interpolator(datum128.Y0): lag._invert(datum128.Y0, i_g),
        "to_eulerian": lambda: lag.to_eulerian(state),
        "smallness_report": lambda: smallness_report(datum128, 4, 2.0, 1.5, -0.75),
    }
    assert _peak_fields(calls[phase]) <= budget
