import numpy as np
import pytest

from mhd2d import diagnostics as diag
from mhd2d import lagrangian as lag
from mhd2d import lp
from mhd2d.fields import mode_field, random_band_field, random_solenoidal
from mhd2d.grid import RealField, half_spectrum, l2_norm, spectral_derivative
from mhd2d.linear import block_energy_series, evolve_linear, measured_decay_rate

TWO_PI = 2.0 * np.pi


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


def _zero_states(g, times):
    z = _zeros(g)
    return [lag.FlowMapState((z, z), (z, z), z, t) for t in times]


# ---------------------------------------------------------------------------
# EnergyLedger
# ---------------------------------------------------------------------------


def test_ledger_rejects_nan():
    led = diag.EnergyLedger(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        led.add("bad", [1.0, np.nan])
    with pytest.raises(ValueError):
        led.add("short", [1.0])


def test_ledger_csv_roundtrip(tmp_path):
    led = diag.EnergyLedger(np.array([0.0, 0.5, 1.0]))
    led.add("energy", [3.0, 2.0, 1.5])
    path = tmp_path / "ledger.csv"
    led.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,channel,value"
    assert len(rows) == 4


# ---------------------------------------------------------------------------
# functional E
# ---------------------------------------------------------------------------


def _functional(states, s):
    """(E_T^s, its eleven channels) over a stored flow-map trajectory."""
    return diag._functional(*diag._block_tables(states)[:3], s)


def test_functional_zero_trajectory(grid32):
    states = _zero_states(grid32, [0.0, 0.5, 1.0])
    assert _functional(states, 1.5)[0] == 0.0


def test_functional_frozen_mode(grid32):
    """Y = frozen mode at xi = (0, 1), Y_t = 0: only the d1-free Y channels
    survive and the CL-sup channels equal their t = 0 values."""
    y = mode_field(grid32, 0, 1, 0.01)
    z = _zeros(grid32)
    q = z
    states = [lag.FlowMapState((y, z), (z, z), q, t) for t in (0.0, 1.0, 2.0)]
    total, parts = _functional(states, 1.5)
    assert parts["yt_clinf_s"] == 0.0 and parts["gradq_l2_s"] == 0.0
    assert parts["d1y_clinf_s"] == 0.0 and parts["d1y_l2_s1"] == 0.0
    # Besov-type CL channel of Y at s+2 equals the (block-weighted) t=0 value
    assert parts["y_clinf_s2"] > 0.0
    keys, two_block = lp.block_sq_norms(grid32, np.abs(half_spectrum(grid32).fwd(y.samples)) ** 2)
    w = diag._weights(keys, 3.5)
    assert parts["y_clinf_s2"] == pytest.approx(float(w @ two_block), rel=1e-12)


def test_functional_requires_pressure(grid32):
    z = _zeros(grid32)
    states = [lag.FlowMapState((z, z), (z, z), None, t) for t in (0.0, 1.0)]
    with pytest.raises(ValueError, match="missing the pressure"):
        diag._block_tables(states)


def test_functional_monotone_in_horizon(grid32, rng):
    """E_{T'} <= E_T for T' <= T (sup/integral structure)."""
    y1 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-2)
    run = lag.run_lagrangian((_zeros(grid32), _zeros(grid32)), y1, 0.05, 1.0, store_every=5)
    states = run.states
    e_half = _functional(states[: len(states) // 2 + 1], 1.5)[0]
    e_full = _functional(states, 1.5)[0]
    assert e_half <= e_full * (1.0 + 1e-12)


def _functional_from_blocks(states, s):
    """(E_T^s, its eleven channels) by a second route: each channel's fields
    are cut into isotropic blocks by ``lp.block_iso`` and measured by
    quadrature at the nodes (``l2_norm``), and the time norms are taken per
    block (Chemin-Lerner sup) or after the weighted block sum (L2_T, L1_T)."""
    g = states[0].Y[0].grid
    j0, j1 = lp.resolved_range(g, "iso")
    js = np.arange(j0, j1 + 1)
    times = np.array([st.t for st in states])

    def blocks(fields):  # (blocks, states) squared block norms, summed over the components
        return np.array([[sum(l2_norm(lp.block_iso(f, j)) ** 2 for f in fs) for fs in fields] for j in js])

    fields = {
        "yt": [st.Y_t for st in states],
        "y": [st.Y for st in states],
        "d1y": [[spectral_derivative(f, 1) for f in st.Y] for st in states],
        "y2": [[st.Y[1]] for st in states],
        "gq": [[spectral_derivative(st.q, 1), spectral_derivative(st.q, 2)] for st in states],
    }
    tab = {name: blocks(fs) for name, fs in fields.items()}

    def sup(name, expo):
        return sum(4.0 ** (j * expo) * row.max() for j, row in zip(js, tab[name]))

    def series(name, expo):
        return sum(4.0 ** (j * expo) * row for j, row in zip(js, tab[name]))

    parts = {
        "yt_clinf_s": sup("yt", s),
        "yt_clinf_s1": sup("yt", s + 1),
        "d1y_clinf_s": sup("d1y", s),
        "y2_clinf_s1": sup("y2", s + 1),
        "y_clinf_s2": sup("y", s + 2),
        "yt_l2_s1": np.trapezoid(series("yt", s + 1), times),
        "yt_l2_s2": np.trapezoid(series("yt", s + 2), times),
        "d1y_l2_s1": np.trapezoid(series("d1y", s + 1), times),
        "y2_l2_s2": np.trapezoid(series("y2", s + 2), times),
        "gradq_l2_s": np.trapezoid(series("gq", s), times),
        "gradq_l1_s": np.trapezoid(np.sqrt(series("gq", s)), times) ** 2,
    }
    return sum(parts.values()), parts


def test_functional_two_way_bookkeeping(grid32, rng):
    """The functional and each of its eleven channels, from the per-block
    tables of the stored snapshots, match a second route through per-block
    norms of each stored field (``_functional_from_blocks``)."""
    y1 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-2)
    run = lag.run_lagrangian((_zeros(grid32), _zeros(grid32)), y1, 0.05, 0.5, store_every=2)
    total, parts = _functional(run.states, 1.5)
    total2, parts2 = _functional_from_blocks(run.states, 1.5)
    assert total == pytest.approx(sum(parts.values()), rel=1e-12)
    assert total == pytest.approx(total2, rel=1e-10)
    assert all(v > 0.0 for v in parts2.values())
    assert parts == pytest.approx(parts2, rel=1e-10)


def _initial_energy(Y0, Y1, s):
    c = half_spectrum(Y0[0].grid)
    return diag._initial_energy(
        c, diag._e0_density(c, [c.fwd(f.samples) for f in Y0], [c.fwd(f.samples) for f in Y1]), s
    )


def test_initial_energy_homogeneity(grid32, rng):
    y0 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-2)
    y1 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-2)
    e1 = _initial_energy(y0, y1, 1.5)
    y0d = tuple(RealField(grid32, 2.0 * f.samples) for f in y0)
    y1d = tuple(RealField(grid32, 2.0 * f.samples) for f in y1)
    e2 = _initial_energy(y0d, y1d, 1.5)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-10)


def test_sampled_margin_equals_the_margin_of_stored_states(grid32, rng):
    """The margin sampled in the march from the stepper's coefficients is the
    margin of the states stored at the same cadence, up to the round trip
    through the nodes that storing makes."""
    y1 = random_solenoidal(grid32, rng, 1.0, 4.0, 1e-2)
    run = lag.run_lagrangian((_zeros(grid32), _zeros(grid32)), y1, 0.05, 1.0, store_every=3, margin_every=3)
    stored = diag._block_tables(run.states)
    assert np.array_equal(run.margin.times, stored.times) and run.margin.keys == stored.keys
    assert np.array_equal(run.margin.e0_density, stored.e0_density)
    sampled, ref = diag.smallness_margin(run.margin, 1.5, -0.75), diag.smallness_margin(stored, 1.5, -0.75)
    assert sampled.keys() == ref.keys()
    for name in ref:
        assert sampled[name] == pytest.approx(ref[name], rel=1e-9), name
    assert lag.run_lagrangian((_zeros(grid32), _zeros(grid32)), y1, 0.05, 0.2).margin is None


def test_smallness_margin_scaling(grid32, rng):
    """Amplitude doubling multiplies the quadratic functionals by 4."""
    y1a = random_solenoidal(grid32, rng, 1.0, 4.0, 5e-3)
    y1b = tuple(RealField(grid32, 2.0 * f.samples) for f in y1a)
    zero = (_zeros(grid32), _zeros(grid32))
    run_a = lag.run_lagrangian(zero, y1a, 0.05, 0.5, store_every=2)
    run_b = lag.run_lagrangian(zero, y1b, 0.05, 0.5, store_every=2)
    ma = diag.smallness_margin(diag._block_tables(run_a.states), 1.5, -0.75)
    mb = diag.smallness_margin(diag._block_tables(run_b.states), 1.5, -0.75)
    assert mb["script_E_0"] == pytest.approx(4.0 * ma["script_E_0"], rel=1e-8)
    assert mb["script_E_T"] == pytest.approx(4.0 * ma["script_E_T"], rel=1e-2)
    assert ma["ratio_E_T_over_E_0"] > 0.0


# ---------------------------------------------------------------------------
# decay table
# ---------------------------------------------------------------------------


def test_decay_table_zero_mass_skipped(grid32):
    z = (_zeros(grid32), _zeros(grid32))
    for times in ([0.0, 1.0, 2.0], []):  # zero data, and no times at all
        traj = evolve_linear(z, z, times)
        table = block_energy_series(traj)
        assert table == {}
        assert diag.decay_table(traj.times, table) == []
        fit = measured_decay_rate(traj, (1, 2))
        assert np.isnan(fit.rate) and not fit.window_ok


def test_decay_table_regime_rates(grid64, rng):
    y0 = (
        random_band_field(grid64, rng, 1.0, 20.0),
        random_band_field(grid64, rng, 1.0, 20.0),
    )
    v0 = (
        random_band_field(grid64, rng, 1.0, 20.0),
        random_band_field(grid64, rng, 1.0, 20.0),
    )
    times = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 15.0, 100)]))
    traj = evolve_linear(y0, v0, times)
    rows = diag.decay_table(traj.times, block_energy_series(traj))
    assert rows, "expected populated decay table"
    for r in rows:
        assert r.fitted_rate < 0.0
        assert r.rate_constant > 0.0
        if r.regime == "low":
            assert r.j <= (r.k + 1) / 2.0
    # eigen-branch bound: no block decays slower than a tenth of its scale
    assert min(r.rate_constant for r in rows) > 0.01
