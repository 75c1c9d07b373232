"""Half-spectrum operations against the full-complex formulas they replace.

Every spectral operation on real fields runs on the ``rfft2`` half spectrum.
Each test below writes out the full-complex, 1/N-normalised formula over the
whole lattice (``full_lattice``) and compares on white-noise fields, where
every Nyquist mode is live, on square and non-square grids.
"""

import math

import numpy as np
import pytest

from mhd2d import cli, fields, lp
from mhd2d import diagnostics as diag
from mhd2d import lagrangian as lag
from mhd2d.grid import (
    HalfSpectrum,
    RealField,
    _deriv_symbol,
    half_spectrum,
    make_grid,
    spectral_derivative,
)
from mhd2d.linear import block_energy_series, eigenvalues, evolve_linear, measured_decay_rate
from mhd2d.propagators import apply2, mode_exponential

from full_lattice import companion_matrices, dealias, fwd as _fwd, inv as _inv, lattice

TWO_PI = 2.0 * np.pi
REL = 1e-12
GRIDS = [(16, 16, TWO_PI, TWO_PI), (32, 16, 2.0 * TWO_PI, TWO_PI), (16, 48, TWO_PI, 1.5 * TWO_PI)]
CUT = lp.make_cutoffs()


@pytest.fixture(params=GRIDS, ids=lambda p: f"{p[0]}x{p[1]}")
def grid(request):
    return make_grid(*request.param)


def _white(g, rng):
    u = RealField(g, rng.standard_normal(g.shape))
    c = _fwd(g, u.samples)
    assert abs(c[g.nx // 2, 1]) > 0 and abs(c[1, g.ny // 2]) > 0 and abs(c[g.nx // 2, g.ny // 2]) > 0
    return u


def _zero_mean(g, u):
    c = _fwd(g, u.samples)
    c[0, 0] = 0.0
    return c


def _rel(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


def _l2(g, c):
    return math.sqrt(g.lx * g.ly * float(np.sum(np.abs(c) ** 2)))


def _mask(g, kind, j, low=False):
    lat = lattice(g)
    tau = {"iso": lat.k_mag, "h": np.abs(lat.k1) + 0.0 * lat.k2}[kind]
    return (CUT.chi if low else CUT.phi)(tau * 2.0 ** (-j))


def _d1_symbol(g):
    lat = lattice(g)
    return np.where(lat.m1 == -g.nx // 2, 0.0, 1j * lat.k1)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _eager_tables(grid):
    """Every table of the context as the former constructor built it, each
    at the full (nx, ny // 2 + 1) shape."""
    nx, ny = grid.nx, grid.ny
    m1 = np.fft.fftfreq(nx, d=1.0 / nx).astype(int)[:, None]
    m2 = np.arange(ny // 2 + 1)[None, :]
    k1 = 2.0 * np.pi / grid.lx * m1.astype(float) + 0.0 * m2
    k2 = 2.0 * np.pi / grid.ly * m2.astype(float) + 0.0 * m1
    ik1 = np.where(m1 == -nx // 2, 0.0, 1j * k1)
    ik2 = np.where(m2 == ny // 2, 0.0, 1j * k2)
    ksq = k1**2 + k2**2
    kmag = np.sqrt(ksq)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_ksq = np.where(ksq > 0, 1.0 / ksq, 0.0)
        inv_kmag = np.where(kmag > 0, 1.0 / kmag, 0.0)
    e1 = (-k2 * inv_kmag).astype(complex)
    e2 = (k1 * inv_kmag).astype(complex)
    deal = ((np.abs(m1) <= nx / 3.0) & (m2 <= ny / 3.0)).astype(complex)
    tables = dict(k1=k1, k2=k2, ik1=ik1, ik2=ik2, ksq=ksq, inv_ksq=inv_ksq, e1=e1, e2=e2, deal=deal)
    tables["wd"] = 0.5 * (e1 * ik1 - e2 * ik2)
    tables["w12"] = e1 * ik2 + e2 * ik1
    return tables


TABLE_GRIDS = [(8, 8, TWO_PI, TWO_PI), (64, 32, 3.0, TWO_PI), (128, 128, TWO_PI, TWO_PI)]


@pytest.mark.parametrize("params", TABLE_GRIDS, ids=lambda p: f"{p[0]}x{p[1]}")
def test_tables_are_byte_equal_to_the_eager_formulas(params):
    """Built on first read, the 1-D axes (the wavenumbers and ik1/ik2) and
    the full-shape tables carry the former tables' bits (sign bits of zeros
    included) once broadcast; so do the derivative symbols formed from them,
    and so does each symbol's broadcast product with white-noise
    coefficients."""
    g = make_grid(*params)
    c, ref = HalfSpectrum(g), _eager_tables(g)
    shape = (g.nx, g.ny // 2 + 1)
    axes = {"k1": (g.nx, 1), "k2": (1, shape[1]), "ik1": (g.nx, 1), "ik2": (1, shape[1])}
    for name, want in ref.items():
        got = getattr(c, name)
        assert got.dtype == want.dtype and want.shape == shape, name
        assert got.shape == axes.get(name, shape), name
        assert np.broadcast_to(got, shape).tobytes() == want.tobytes(), name
    fh = np.fft.rfft2(np.random.default_rng(0).standard_normal(g.shape))
    for name in ("ik1", "ik2"):
        assert (getattr(c, name) * fh).tobytes() == (ref[name] * fh).tobytes(), name
    for axis, k, ik in ((1, ref["k1"], ref["ik1"]), (2, ref["k2"], ref["ik2"])):
        for order in (1, 2, 3, 4):
            want = ik**order if order % 2 else (1j * k) ** order
            got = _deriv_symbol(c, axis, order)
            assert np.broadcast_to(got, shape).tobytes() == want.tobytes(), (axis, order)
            assert (got * fh).tobytes() == (want * fh).tobytes(), (axis, order)


def test_a_fresh_context_holds_no_table():
    """The constructor keeps the grid and the two 1-D mode-index axes only;
    every other table waits for its first read."""
    c = HalfSpectrum(make_grid(64, 32, 3.0, TWO_PI))
    assert set(vars(c)) == {"grid", "m1", "m2"}
    assert all(sum(n > 1 for n in a.shape) <= 1 for a in vars(c).values() if isinstance(a, np.ndarray))


def test_reading_ik1_and_ik2_builds_no_2d_table():
    """ik1 and ik2 are formed from the 1-D wavenumber axes alone: reading
    them builds neither ksq nor any other table of the full shape."""
    c = HalfSpectrum(make_grid(16, 16, TWO_PI, TWO_PI))
    c.ik1, c.ik2
    assert set(vars(c)) == {"grid", "m1", "m2", "k1", "k2", "ik1", "ik2"}
    assert all(sum(n > 1 for n in a.shape) <= 1 for a in vars(c).values() if isinstance(a, np.ndarray))


def test_initial_data_leaves_the_tables_it_never_reads_unbuilt(tmp_path):
    """build-initial-data reads the wavenumbers, ik1/ik2 and ksq, never the
    solenoidal unit vector, the 2/3 mask or the inverse Laplacian."""
    half_spectrum.cache_clear()
    args = ["build-initial-data", "--outdir", str(tmp_path / "o")]
    for ov in ("nx=128", "ny=128", "amplitude=1e-4", 'shape="bump_dx1"', "width=0.6"):
        args += ["--set", ov]
    assert cli.main(args) == 0
    cfg = cli.load_config("build-initial-data", None, {"nx": 128, "ny": 128})
    built = set(vars(half_spectrum(make_grid(cfg.nx, cfg.ny, cfg.lx, cfg.ly))))
    assert {"k1", "ik1", "ksq"} <= built
    assert not built & {"e1", "e2", "deal", "inv_ksq", "wd", "w12"}



@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_matches_full_lattice(grid, axis, order):
    u = _white(grid, np.random.default_rng(1))
    lat = lattice(grid)
    k, m, n = (lat.k1, lat.m1, grid.nx) if axis == 1 else (lat.k2, lat.m2, grid.ny)
    sym = (1j * k) ** order
    if order % 2:
        sym = np.where(m == -n // 2, 0.0, sym)
    ref = _inv(grid, _fwd(grid, u.samples) * sym)
    assert _rel(spectral_derivative(u, axis, order).samples, ref) <= REL


def test_inverse_laplacian_matches_full_lattice(grid):
    u = _white(grid, np.random.default_rng(2))
    ksq = lattice(grid).k_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = _inv(grid, np.where(ksq > 0, -_fwd(grid, u.samples) / ksq, 0.0))
    c = half_spectrum(grid)
    assert _rel(c.inv(-c.fwd(u.samples) * c.inv_ksq), ref) <= REL


# ---------------------------------------------------------------------------
# lp
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "op,kind,low",
    [
        (lp.block_iso, "iso", False),
        (lp.block_h, "h", False),
        (lp.low_pass, "iso", True),
        (lp.low_pass_h, "h", True),
    ],
)
def test_blocks_match_full_lattice(grid, op, kind, low):
    u = _white(grid, np.random.default_rng(3))
    c = _fwd(grid, u.samples)
    j0, j1 = lp.resolved_range(grid, kind)
    for j in range(j0 - 1, j1 + 2):
        ref = _inv(grid, c * _mask(grid, kind, j, low))
        got = op(u, j).samples
        if np.max(np.abs(ref)) == 0.0:
            assert np.max(np.abs(got)) == 0.0
        else:
            assert _rel(got, ref) <= REL


@pytest.mark.parametrize("homogeneous,exponents", [(True, (-0.5, 0.0, 1.5)), (False, (-1.0, 1.0, 2.0))])
def test_sobolev_norm_matches_full_lattice(grid, homogeneous, exponents):
    u = _white(grid, np.random.default_rng(4))
    ksq = lattice(grid).k_sq
    for s in exponents:
        if homogeneous:
            c = _zero_mean(grid, u)
            with np.errstate(divide="ignore"):
                w = np.where(ksq > 0, ksq**s, 0.0)
        else:
            c = _fwd(grid, u.samples)
            w = (1.0 + ksq) ** s
        ref = math.sqrt(grid.lx * grid.ly * float(np.sum(w * np.abs(c) ** 2)))
        assert lp.sobolev_norm(u, s, homogeneous) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("p", [2])  # block norms are L2 norms
def test_besov_norm_matches_full_lattice(grid, p):
    u = _white(grid, np.random.default_rng(5))
    c = _zero_mean(grid, u)
    j0, j1 = lp.resolved_range(grid, "iso")
    s = 0.5
    vals = np.array([2.0 ** (j * s) * _l2(grid, c * _mask(grid, "iso", j)) for j in range(j0, j1 + 1)])
    assert lp.besov_norm(u, s, 1) == pytest.approx(float(np.sum(vals)), rel=REL)
    assert lp.besov_norm(u, s, 2) == pytest.approx(float(np.sqrt(np.sum(vals**2))), rel=REL)


def test_aniso_norm_matches_full_lattice(grid):
    u = _white(grid, np.random.default_rng(6))
    c = _zero_mean(grid, u)
    s1, s2 = 0.3, -0.2
    j0, j1 = lp.resolved_range(grid, "iso")
    k0, k1 = lp.resolved_range(grid, "h")
    ref = sum(
        2.0 ** (j * s1 + k * s2) * _l2(grid, c * _mask(grid, "iso", j) * _mask(grid, "h", k))
        for j in range(j0, j1 + 1)
        for k in range(k0, k1 + 1)
        if j >= k - lp.ANISO_N0
    )
    assert lp.aniso_norm(u, s1, s2) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("p,lam", [(2, 2.0), (2, math.inf)])  # block norms are L2 norms
def test_chemin_lerner_norm_matches_full_lattice(grid, p, lam):
    """The time norm L^lam inside the block sum, from the table of squared
    block norms; lam = inf is the case ``diagnostics`` runs."""
    rng = np.random.default_rng(7)
    us = [_white(grid, rng) for _ in range(3)]
    times = np.array([0.0, 0.5, 1.0])
    s = 0.5
    j0, j1 = lp.resolved_range(grid, "iso")
    js = range(j0, j1 + 1)
    series = np.array([[_l2(grid, _zero_mean(grid, u) * _mask(grid, "iso", j)) for u in us] for j in js])
    w = np.max(series, axis=1) if lam == math.inf else np.trapezoid(series**lam, times, axis=1) ** (1.0 / lam)
    ref = float(np.sum(np.array([2.0 ** (j * s) for j in js]) * w))
    c = half_spectrum(grid)
    keys, tab = lp.block_sq_norms(grid, np.stack([np.abs(c.fwd(u.samples)) ** 2 for u in us]))
    assert lp.chemin_lerner_norm(keys, times, tab, lam, s, 1) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("direction", ["iso", "horizontal"])
def test_bony_decompose_matches_full_lattice(grid, direction):
    rng = np.random.default_rng(8)
    a, b = _white(grid, rng), _white(grid, rng)
    kind = "iso" if direction == "iso" else "h"
    j0, j1 = lp.resolved_range(grid, kind)
    ca, cb = _fwd(grid, a.samples), _fwd(grid, b.samples)
    blocks_a = {j: _inv(grid, ca * _mask(grid, kind, j)) for j in range(j0 - 1, j1 + 2)}
    blocks_b = {j: _inv(grid, cb * _mask(grid, kind, j)) for j in range(j0 - 1, j1 + 2)}
    t = tbar = r = 0.0
    for j in range(j0, j1 + 1):
        t = t + _inv(grid, ca * _mask(grid, kind, j - 1, low=True)) * blocks_b[j]
        tbar = tbar + _inv(grid, cb * _mask(grid, kind, j - 1, low=True)) * blocks_a[j]
        r = r + blocks_a[j] * (blocks_b[j - 1] + blocks_b[j] + blocks_b[j + 1])
    axis = None if direction == "iso" else 0
    r = r + np.mean(a.samples, axis=axis, keepdims=True) * np.mean(b.samples, axis=axis, keepdims=True)
    for got, part in zip(lp.bony_decompose(a, b, direction), (t, tbar, r)):
        ref = dealias(grid, part)
        assert _rel(got.samples, ref) <= REL


# ---------------------------------------------------------------------------
# linear and diagnostics
# ---------------------------------------------------------------------------


def test_block_energy_series_matches_full_lattice(grid):
    rng = np.random.default_rng(9)
    y0, y1 = ((_white(grid, rng), _white(grid, rng)) for _ in range(2))
    times = [0.0, 0.02, 0.1]
    got = block_energy_series(evolve_linear(y0, y1, times))
    c0 = [_fwd(grid, f.samples) for f in y0]
    c1 = [_fwd(grid, f.samples) for f in y1]
    lat = lattice(grid)
    k1sq, ksq = lat.k1**2 + 0.0 * lat.k2, lat.k_sq
    j0, j1 = lp.resolved_range(grid, "iso")
    k0, k1 = lp.resolved_range(grid, "h")
    ref = {}
    for t in times:
        p = mode_exponential(companion_matrices(grid))(t)
        yv = [apply2(p, a, b) for a, b in zip(c0, c1)]
        y_sq = sum(np.abs(y) ** 2 for y, _ in yv)
        v_sq = sum(np.abs(v) ** 2 for _, v in yv)
        cross = sum(np.real(v * np.conj(y)) for y, v in yv)
        for j in range(j0, j1 + 1):
            for k in range(k0, k1 + 1):
                wsq = (_mask(grid, "iso", j) * _mask(grid, "h", k)) ** 2
                nv, nd1 = np.sum(wsq * v_sq), np.sum(wsq * k1sq * y_sq)
                nlap, nc = np.sum(wsq * ksq**2 * y_sq), np.sum(wsq * ksq * cross)
                gsq = grid.lx * grid.ly * (0.5 * (nv + nd1 + 0.25 * nlap) + 0.25 * nc)
                ref.setdefault((j, k), []).append(float(gsq))
    ref = {key: np.array(v) for key, v in ref.items() if max(v) > 0.0}
    assert set(got) == set(ref)
    for key, series in ref.items():
        assert np.all(np.abs(got[key] - series) <= REL * series), key


def _initial_energy_full(g, Y0, Y1, s):
    ksq = lattice(g).k_sq

    def hs_sq(c, expo):
        with np.errstate(divide="ignore"):
            w = np.where(ksq > 0, ksq**expo, 0.0)
        return g.lx * g.ly * float(np.sum(w * np.abs(c) ** 2))

    total = 0.0
    for f0, f1 in zip(Y0, Y1):
        c0, c1 = _fwd(g, f0.samples), _fwd(g, f1.samples)
        total += hs_sq(c1, s) + hs_sq(c1, s + 1.0) + hs_sq(_d1_symbol(g) * c0, s) + hs_sq(c0, s + 2.0)
    return total


def test_initial_energy_matches_full_lattice(grid):
    rng = np.random.default_rng(10)
    Y0, Y1, Y0b, Y1b = ((_white(grid, rng), _white(grid, rng)) for _ in range(4))
    refs = {s: _initial_energy_full(grid, Y0, Y1, s) for s in (1.5, -0.75)}
    c = half_spectrum(grid)
    for s, ref in refs.items():
        density = diag._e0_density(c, [c.fwd(f.samples) for f in Y0], [c.fwd(f.samples) for f in Y1])
        got = diag._initial_energy(c, density, s)
        assert got == pytest.approx(ref, rel=REL)
    q = _white(grid, rng)
    states = [lag.FlowMapState(Y0, Y1, q, 0.0), lag.FlowMapState(Y0b, Y1b, q, 1.0)]
    margin = diag.smallness_margin(diag._block_tables(states), 1.5, -0.75)
    assert margin["script_E_0"] == pytest.approx(refs[1.5] + refs[-0.75], rel=REL)


def test_measured_decay_rate_reads_negative_n_from_the_mirror():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    zero = RealField(g, np.zeros(g.shape))
    y0 = (fields.mode_field(g, 2, -3, 1.0 + 0.5j), zero)
    v0 = (fields.mode_field(g, 2, -3, 0.3), zero)
    traj = evolve_linear(y0, v0, np.linspace(0.0, 8.0, 60))
    neg = measured_decay_rate(traj, (2, -3))
    assert neg == measured_decay_rate(traj, (-2, 3))
    assert neg.rate == pytest.approx(eigenvalues((2.0, -3.0)).lambda_minus.real, abs=1e-3)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _band_full(g, rng, kmin, kmax, amplitude, decay, norm="l2"):
    c = _fwd(g, rng.standard_normal(g.shape))
    lat = lattice(g)
    mm = np.sqrt(lat.m1.astype(float) ** 2 + lat.m2.astype(float) ** 2)
    c = np.where((mm >= kmin) & (mm <= kmax), c * np.exp(-decay * mm**2), 0.0)
    c[0, 0] = 0.0
    f = _inv(g, c)
    scale = math.sqrt(g.cell_area * float(np.sum(f**2))) if norm == "l2" else float(np.max(np.abs(f)))
    return amplitude * f / scale


@pytest.mark.parametrize("norm", ["l2", "inf"])
def test_random_band_field_matches_full_lattice(grid, norm):
    # kmax beyond the lattice corner: every mode, the Nyquist ones included, is drawn
    got = fields.random_band_field(grid, np.random.default_rng(11), 0.0, 1e3, 2.0, 0.01).samples
    if norm == "inf":  # the band shape is the same under a sup-norm rescaling
        got = 2.0 * got / np.max(np.abs(got))
    ref = _band_full(grid, np.random.default_rng(11), 0.0, 1e3, 2.0, 0.01, norm)
    assert _rel(got, ref) <= REL


def test_random_solenoidal_matches_full_lattice(grid):
    got = fields.random_solenoidal(grid, np.random.default_rng(12), 0.0, 1e3, 3.0, 0.01)
    chi = _fwd(grid, _band_full(grid, np.random.default_rng(12), 0.0, 1e3, 1.0, 0.01))
    lat = lattice(grid)
    u1, u2 = _inv(grid, 1j * lat.k2 * chi), _inv(grid, -1j * lat.k1 * chi)
    scale = math.sqrt(grid.cell_area * float(np.sum(u1**2 + u2**2)))
    for f, ref in zip(got, (3.0 * u1 / scale, 3.0 * u2 / scale)):
        assert _rel(f.samples, ref) <= REL


def test_mode_field_matches_full_lattice(grid):
    nx, ny = grid.shape
    modes = [(3, 2), (-3, -2), (2, -1), (2, 0), (-2, 0), (0, 0), (1, -ny // 2), (-nx // 2, 3), (-nx // 2, 0), (0, -ny // 2)]
    coeff = 0.7 - 0.4j
    for m, n in modes:
        c = np.zeros(grid.shape, dtype=complex)
        c[m % nx, n % ny] = coeff
        c[-m % nx, -n % ny] = np.conj(coeff)
        ref = _inv(grid, c)
        assert _rel(fields.mode_field(grid, m, n, coeff).samples, ref) <= REL, (m, n)
