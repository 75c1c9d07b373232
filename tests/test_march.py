"""The march loop both solvers share: step count, cadences and failure report."""

import re

import numpy as np
import pytest

from mhd2d import cli
from mhd2d import eulerian as eul
from mhd2d import lagrangian as lag
from mhd2d.fields import random_band_field, random_solenoidal
from mhd2d.grid import RealField
from mhd2d.propagators import MarchError, apply2, etd_tables

DT = 0.01
FAILING_STEP = 4


def _zeros(g):
    return RealField(g, np.zeros(g.shape))


def _euler_data(g, rng):
    return random_band_field(g, rng, 1.0, 4.0, 1e-3), random_solenoidal(g, rng, 1.0, 4.0, 1e-3)


def _lagrangian_data(g, rng):
    return (_zeros(g), _zeros(g)), random_solenoidal(g, rng, 1.0, 4.0, 1e-2)


def _one_step(step, g, dt):
    z = _zeros(g)
    state = lag.FlowMapState((z, z), (z, z), z, 0.0) if step is lag.step else eul.EulerState(z, (z, z), z, 0.0)
    return step(state, dt)


@pytest.mark.parametrize(
    "march, dt, t_end, bad",
    [
        (lambda g, rng, dt, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), dt, t_end), -0.02, 2.0, "dt = -0.02"),
        (lambda g, rng, dt, t_end: eul.run_euler(*_euler_data(g, rng), dt, t_end), -0.01, 1.0, "dt = -0.01"),
        (lambda g, rng, dt, t_end: eul.run_euler(*_euler_data(g, rng), dt, t_end), 0.01, -1.0, "t_end = -1.0"),
        (lambda g, rng, dt, t_end: eul.run_euler(*_euler_data(g, rng), dt, t_end), 0.0, 1.0, "dt = 0.0"),
        (lambda g, rng, dt, t_end: eul.run_euler(*_euler_data(g, rng), dt, t_end), 0.03, 1.0, "t_end = 1.0"),
        (lambda g, rng, dt, t_end: _one_step(lag.step, g, dt), -0.01, None, "dt = -0.01"),
        (lambda g, rng, dt, t_end: _one_step(eul.step_euler, g, dt), -0.01, None, "dt = -0.01"),
        (
            lambda g, rng, dt, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), dt, t_end, store_every=0),
            0.02, 2.0, "store_every = 0",
        ),
        (
            lambda g, rng, dt, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), dt, t_end, monitor_every=0),
            0.02, 2.0, "monitor_every = 0",
        ),
        (
            lambda g, rng, dt, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), dt, t_end, margin_every=0),
            0.02, 2.0, "margin_every = 0",
        ),
        (lambda g, rng, dt, t_end: eul.run_euler(*_euler_data(g, rng), dt, t_end, aux_every=0), 0.01, 1.0, "aux_every = 0"),
    ],
    ids=[
        "lagrangian-negative-dt", "euler-negative-dt", "euler-negative-t_end", "euler-zero-dt", "euler-fractional",
        "step-negative-dt", "step_euler-negative-dt", "lagrangian-store_every-0", "lagrangian-monitor_every-0",
        "lagrangian-margin_every-0", "euler-aux_every-0",
    ],
)
def test_step_count_rejects_bad_dt_and_t_end(grid32, rng, march, dt, t_end, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        march(grid32, rng, dt, t_end)


def test_cli_rejects_negative_dt_built_without_the_schema(tmp_path):
    with pytest.raises(ValueError, match=re.escape("dt = -0.01")):
        cli.run(cli.ExperimentConfig(experiment="eulerian-smalldata", nx=16, ny=16, dt=-0.01, outdir=str(tmp_path / "o")))


def _poison(monkeypatch, cls, name, call, spoil):
    """Spoil the ``call``-th forcing evaluation of a stepper class (two per
    step: 2k - 1 opens step k, 2k is its second stage); records the stepper
    time of each call."""
    forcing = getattr(cls, name)
    times = []

    def poisoned(self, *args):
        times.append(self.t)
        return spoil(forcing, self, args) if len(times) == call else forcing(self, *args)

    monkeypatch.setattr(cls, name, poisoned)
    return times


def _nan_in(slot):
    def spoil(forcing, self, args):
        out = forcing(self, *args)
        slot(out)[1, 1] = np.nan
        return out

    return spoil


def _distorted(forcing, self, args):
    z, s = args
    return forcing(self, [(1e6 * y, v) for y, v in z], s)


def _huge(forcing, self, args):
    return [(None, 1e10 * fv) for _, fv in forcing(self, *args)]


K = FAILING_STEP
CASES = {
    # NaN forcing in the first stage spoils the second stage and the result
    "euler-nan": (
        lambda mp: _poison(mp, eul._EulerStepper, "_nonlinear", 2 * K - 1, _nan_in(lambda out: out[1])),
        lambda g, rng, t_end: eul.run_euler(*_euler_data(g, rng), DT, t_end),
        eul.EulerBlowupError, "non-finite state", lambda st: (st.psi, *st.u, st.p),
    ),
    # NaN forcing in the second stage reaches only the result
    "lagrangian-nan": (
        lambda mp: _poison(mp, lag._Stepper, "_forcing", 2 * K, _nan_in(lambda out: out[0][1])),
        lambda g, rng, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), DT, t_end),
        lag.StateBlowupError, "non-finite state", lambda st: (*st.Y, *st.Y_t, st.q),
    ),
    "lagrangian-distortion": (
        lambda mp: _poison(mp, lag._Stepper, "_forcing", 2 * K - 1, _distorted),
        lambda g, rng, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), DT, t_end),
        lag.StateBlowupError, "not <= 1/2", lambda st: (*st.Y, *st.Y_t, st.q),
    ),
    # a huge second-stage forcing throws the finite result out of the small-data
    # regime: the step that made it fails, not the next one
    "lagrangian-distorted-result": (
        lambda mp: _poison(mp, lag._Stepper, "_forcing", 2 * K, _huge),
        lambda g, rng, t_end: lag.run_lagrangian(*_lagrangian_data(g, rng), DT, t_end),
        lag.StateBlowupError, "not <= 1/2", lambda st: (*st.Y, *st.Y_t, st.q),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_step_reports_step_time_and_last_state(grid32, case, monkeypatch):
    """Both marches fail the same way: the solver's own class, a MarchError,
    naming the step, its time (once) and the cause, with the finite state the
    step started from."""
    poison, march, exc, cause, fields = CASES[case]
    before = march(grid32, np.random.default_rng(5), (FAILING_STEP - 1) * DT).states[-1]
    times = poison(monkeypatch)
    with pytest.raises(exc) as err:
        march(grid32, np.random.default_rng(5), 10 * DT)
    msg = str(err.value)
    assert isinstance(err.value, MarchError)
    assert msg.startswith(f"step {FAILING_STEP}, t = {FAILING_STEP * DT:.4f}: ") and cause in msg
    assert msg.count("t = ") == 1
    last = err.value.last_state
    assert last.t == times[2 * FAILING_STEP - 2] == before.t > 0
    assert all(np.all(np.isfinite(f.samples)) for f in fields(last))
    # the state the failing step started from, bit for bit
    for a, b in zip(fields(last), fields(before)):
        assert np.array_equal(a.samples, b.samples)


def test_pressure_failure_at_a_commit_names_its_own_step(grid32, monkeypatch):
    """A result whose pressure fixed point stops is not committed: the error
    names the step that made it, with the state that step started from, q
    included, bit for bit."""
    before = lag.run_lagrangian(*_lagrangian_data(grid32, np.random.default_rng(5)), DT, (K - 1) * DT).states[-1]
    solve, calls = lag._pressure_fixed_point, []

    def stopping(*args):
        # make_state and load solve once each; every step solves its predictor, then its result
        calls.append(len(calls) + 1)
        if calls[-1] == 2 * K + 2:  # one iteration that cannot converge
            monkeypatch.setattr(lag, "_PRESSURE_MAX_ITERATIONS", 1)
            monkeypatch.setattr(lag, "_PRESSURE_TOL", 0.0)
        return solve(*args)

    monkeypatch.setattr(lag, "_pressure_fixed_point", stopping)
    with pytest.raises(lag.PressureConvergenceError) as err:
        lag.run_lagrangian(*_lagrangian_data(grid32, np.random.default_rng(5)), DT, 10 * DT)
    assert str(err.value).startswith(f"step {K}, t = {K * DT:.4f}: pressure fixed point stopped at iteration 1 of 1")
    assert len(calls) == 2 * K + 2
    last = err.value.last_state
    assert last.t == before.t
    for a, b in zip((*last.Y, *last.Y_t, last.q), (*before.Y, *before.Y_t, before.q)):
        assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("store_every", [1, 20])
def test_run_lagrangian_solves_the_pressure_2n_plus_2_times(grid32, monkeypatch, store_every):
    """N steps solve the pressure 2N + 2 times at any store cadence: make_state
    and load once each, then each step its predictor and its result; a stored
    state solves nothing."""
    solve, calls = lag._pressure_fixed_point, []
    monkeypatch.setattr(lag, "_pressure_fixed_point", lambda *args: calls.append(1) or solve(*args))
    run = lag.run_lagrangian(*_lagrangian_data(grid32, np.random.default_rng(5)), DT, 20 * DT, store_every=store_every)
    assert len(run.states) == 1 + 20 // store_every
    assert len(calls) == 2 * 20 + 2


def _nan_psi(g):
    samples = np.zeros(g.shape)
    samples[3, 4] = np.nan
    return RealField(g, samples)


STEP0_CASES = {
    # the t = 0 pressure solve meets ||grad Y||_inf = 0.8
    "lagrangian-distorted": (
        lambda g: lag.run_lagrangian(
            (RealField(g, 0.8 * np.sin(g.x1 + 0.0 * g.x2)), _zeros(g)), (_zeros(g), _zeros(g)), DT, 10 * DT
        ),
        lag.StateBlowupError, "||grad Y||_inf = 0.800, not <= 1/2",
    ),
    # one NaN sample spoils every coefficient of psi
    "euler-nan": (
        lambda g: eul.run_euler(_nan_psi(g), (_zeros(g), _zeros(g)), DT, 10 * DT),
        eul.EulerBlowupError, "non-finite state",
    ),
}


@pytest.mark.parametrize("case", sorted(STEP0_CASES))
def test_initial_state_failure_is_step_0(grid32, case):
    """Initial data that fail fail inside the march, as step 0 at t = 0 with
    the cause, in the solver's own class, with no state committed."""
    march, exc, cause = STEP0_CASES[case]
    with pytest.raises(exc) as err:
        march(grid32)
    assert isinstance(err.value, MarchError)
    assert str(err.value) == f"step 0, t = 0.0000: {cause}"
    assert err.value.last_state is None


# ---------------------------------------------------------------------------
# both steppers against an out-of-place ETD2RK loop
# ---------------------------------------------------------------------------


def _out_of_place_etd2rk(tables, z, forcing, dt):
    """One ETD2RK step on the real (..., 2, 2) tables, every sum a new array,
    in the term order of ``etd2rk_step``."""
    p, r1, r2 = tables

    def add(w, table, f):
        out = list(w)
        for i in range(2):
            for j in range(2):
                if f[j] is not None:
                    out[i] = out[i] + table[..., i, j] * f[j]
        return tuple(out)

    f = forcing(z, 0.0)
    pred = [add(apply2(p, *zi), r1, fi) for zi, fi in zip(z, f)]
    g = forcing(pred, dt)
    slope = [tuple(None if fk is None else (gk - fk) / dt for fk, gk in zip(fi, gi)) for fi, gi in zip(f, g)]
    return [add(ai, r2, si) for ai, si in zip(pred, slope)]


def _euler_nonlinear_out_of_place(c, psih, ah):
    """The Eulerian forcing written out, with the real e1, e2 numpy casts per product."""
    u1, u2 = c.inv(c.e1.real * ah), c.inv(c.e2.real * ah)
    d1, d2 = c.inv(c.ik1 * psih), c.inv(c.ik2 * psih)
    n_psi = -(c.fwd(u1 * d1 + u2 * d2) * c.deal)
    n_psi[0, 0] = 0.0
    sd = c.fwd((u1 * u1 + d1 * d1) - (u2 * u2 + d2 * d2)) * c.deal
    s12 = c.fwd(u1 * u2 + d1 * d2) * c.deal
    return n_psi, -(c.wd * sd + c.w12 * s12)


def _lagrangian_forcing_out_of_place(c, qh):
    """The Lagrangian forcing written out: grad Y taken at every stage, grad Y_t
    taken again for the viscous term, and the A^T grad and A w products formed
    from the ``AdjugateField`` entries; the pressure warm-starts from ``qh[0]``."""

    def grad_y(adj, fh):
        g1, g2 = c.grad(fh)
        return c.fwd(adj.b11 * g1 + adj.b21 * g2) * c.deal, c.fwd(adj.b12 * g1 + adj.b22 * g2) * c.deal

    def forcing(z, s):
        yh, vh = (z[0][0], z[1][0]), (z[0][1], z[1][1])
        t = lag._small(lag._grad_hat(c, *yh))
        v_phys = (c.inv(vh[0]), c.inv(vh[1]))
        adj = lag.adjugate(t)
        qh[0], _ = lag._pressure_fixed_point(c, t, lag._pressure_source(c, t, lag._grad_hat(c, *vh), v_phys, *yh), qh[0])
        out = []
        for ch, ph in zip(vh, grad_y(adj, qh[0])):
            w1h, w2h = grad_y(adj, ch)
            w1, w2 = c.inv(w1h), c.inv(w2h)
            u1h = c.fwd(adj.b11 * w1 + adj.b12 * w2) * c.deal
            u2h = c.fwd(adj.b21 * w1 + adj.b22 * w2) * c.deal
            f = c.ik1 * u1h + c.ik2 * u2h + c.ksq * ch - ph
            f[0, 0] = 0.0
            out.append((None, f * c.deal))
        return out

    return forcing


def _real_tables(module, grid, monkeypatch):
    """``etd_tables`` on the mode matrix a solver's cached ``_etd`` builds."""
    with monkeypatch.context() as mp:
        mp.setattr(module, "etd_tables", lambda m, h: m)
        mp.setattr(module, "etd_entries", lambda tables: tables)
        m = module._etd.__wrapped__(grid, DT)
    return etd_tables(m, DT)


def test_steppers_match_an_out_of_place_etd2rk_loop_bit_for_bit(grid32, monkeypatch):
    """20 steps of each stepper equal the written-out out-of-place loop on the
    real tables: the in-place update on the complex entry tables, the in-place
    Eulerian sums and the Lagrangian commit of grad Y, grad Y_t and q move no
    bit.  The reference solves q at every stage, and finally at the result."""
    rng = np.random.default_rng(5)
    psi0, u0 = _euler_data(grid32, rng)
    es = eul._EulerStepper(grid32, DT)
    es.load(eul.make_euler_state(psi0, u0))
    z = [(es.psih, es.ah)]

    def euler_forcing(z, s):
        return [_euler_nonlinear_out_of_place(es.c, *z[0])]

    tables = _real_tables(eul, grid32, monkeypatch)
    for _ in range(20):
        es.advance()
        z = _out_of_place_etd2rk(tables, z, euler_forcing, DT)
    assert np.array_equal(es.psih, z[0][0]) and np.array_equal(es.ah, z[0][1])

    ls = lag._Stepper(grid32, DT)
    state = lag.make_state(*_lagrangian_data(grid32, rng))
    ls.load(state)
    z, qh = [(ls.yh[0], ls.vh[0]), (ls.yh[1], ls.vh[1])], [ls.c.fwd(state.q.samples)]
    forcing = _lagrangian_forcing_out_of_place(ls.c, qh)
    tables = _real_tables(lag, grid32, monkeypatch)
    for _ in range(20):
        ls.advance()
        z = _out_of_place_etd2rk(tables, z, forcing, DT)
    forcing(z, DT)  # q of the result, from the predictor's
    want = (z[0][0], z[1][0], z[0][1], z[1][1], qh[0])
    assert all(np.array_equal(a, b) for a, b in zip((*ls.yh, *ls.vh, ls.qh), want))
