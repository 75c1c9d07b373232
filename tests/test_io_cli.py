import csv
import gc
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from mhd2d import cli
from mhd2d import diagnostics as diag
from mhd2d import eulerian as eul
from mhd2d import io as mio
from mhd2d import lagrangian as lag
from mhd2d import linear as lin
from mhd2d.fields import random_band_field

TWO_PI = 2.0 * np.pi


def test_field_roundtrip(tmp_path, grid32, rng):
    f = random_band_field(grid32, rng, 1.0, 8.0)
    base = str(tmp_path / "field")
    mio.save_field(base, f, name="test", time=1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        back, meta = mio.load_field(base)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]  # the .bin file is closed
    assert np.array_equal(back.samples, f.samples)
    assert meta["nx"] == 32 and meta["time"] == 1.5
    raw = (tmp_path / "field.bin").read_bytes()
    assert len(raw) == 32 * 32 * 8  # little-endian f8 row-major


def test_snapshot_writers_write_each_field_and_its_sidecar(tmp_path, grid32, rng):
    f = [random_band_field(grid32, rng, 1.0, 8.0) for _ in range(9)]
    f[0].samples[0, 0] = -0.0
    flow = lag.FlowMapState((f[0], f[1]), (f[2], f[3]), f[4], 0.25)
    euler = eul.EulerState(f[5], (f[6], f[7]), f[8], 1.5)
    mio.save_flow_snapshot(str(tmp_path / "flow"), flow, prefix="final_")
    mio.save_euler_snapshot(str(tmp_path / "euler"), euler)
    cases = (
        ("flow", "final_", 0.25, dict(zip(("Y1", "Y2", "Yt1", "Yt2", "q"), f[:5]))),
        ("euler", "", 1.5, dict(zip(("psi", "u1", "u2", "p"), f[5:]))),
    )
    for directory, prefix, t, fields in cases:
        written = sorted(os.listdir(tmp_path / directory))
        assert written == sorted(prefix + name + ext for name in fields for ext in (".bin", ".json"))
        for name, field in fields.items():
            back, meta = mio.load_field(str(tmp_path / directory / (prefix + name)))
            assert meta["time"] == t and meta["name"] == name
            assert back.grid == grid32
            assert back.samples.tobytes() == field.samples.tobytes()


def test_cli_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("dispersion", "linear-decay", "block-energy", "cross-validate", "norms-selftest"):
        assert name in out


def test_cli_schema(capsys):
    assert cli.main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["type"] == "object"


def test_cli_unknown_experiment(capsys):
    rc = cli.main(["no-such-thing", "--outdir", "/tmp/unused"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dispersion" in err and "bony-selftest" in err


def test_cli_config_schema_violation(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nx": "hello"}))
    rc = cli.main(["dispersion", "--config", str(cfg), "--outdir", str(tmp_path / "o")])
    assert rc != 0


def test_cli_config_validation_bounds(tmp_path):
    with pytest.raises(ValueError, match="^" + re.escape("s2 = 0.3: must lie in (-1, -1/2)")):
        cli.ExperimentConfig(experiment="lagrangian-smalldata", s2=0.3)
    with pytest.raises(ValueError, match="^" + re.escape("s1 = 0.5: must exceed 1")):
        cli.ExperimentConfig(experiment="cross-validate", s1=0.5)
    with pytest.raises(ValueError, match="^" + re.escape("s1 = 1.0: ")):
        cli.load_config("build-initial-data", None, {"s1": 1.0})


def test_cli_rejects_unknown_tolerance(tmp_path, capsys):
    """A misspelled tolerance name fails at config time and names the allowed ones."""
    out = str(tmp_path / "o")
    rc = cli.main(["lagrangian-smalldata", "--set", 'tolerances={"dett": 1e-3}', "--outdir", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'dett'" in err and "'constraint'" in err and "'det'" in err
    assert not os.path.exists(out)
    cfg = cli.ExperimentConfig(experiment="lagrangian-smalldata", tolerances={"det": 1e-3})
    assert cfg.tol("det") == 1e-3 and cfg.tol("constraint") == 1e-4


@pytest.mark.parametrize("value", ["abc", -1, math.nan, math.inf], ids=["string", "negative", "nan", "inf"])
def test_tolerance_values_are_checked_when_the_config_is_built(value):
    """A tolerance that is not a finite number >= 0 fails at config time,
    naming its key, not later inside the experiment."""
    with pytest.raises(ValueError, match="^" + re.escape(f"tolerances.vieta = {value!r}: ")):
        cli.ExperimentConfig(experiment="dispersion", tolerances={"vieta": value})


_EMPTY = "kmin = 5, kmax = 1: the band holds no nonzero mode of the 32 x 32 grid"


@pytest.mark.parametrize(
    "name, kmin, kmax, message",
    [
        ("lagrangian-smalldata", 5, 1, _EMPTY),
        ("eulerian-smalldata", 5, 1, _EMPTY),
        ("cross-validate", 5, 1, _EMPTY),
        ("lagrangian-smalldata", 16, 16, "kmin = 16, kmax = 16: no band mode of the 32 x 32 grid has a derivative"),
    ],
    ids=["lagrangian-empty", "eulerian-empty", "cross-validate-empty", "lagrangian-nyquist-only"],
)
def test_wavenumber_band_without_data_exits_2_with_a_message(tmp_path, capsys, name, kmin, kmax, message):
    """A band that leaves the random data no mode (kmin > kmax), or only
    Nyquist modes for a stream function, stops the run with a message naming
    the band and the grid, not with zero data or a crash."""
    argv = ["--set", "nx=32", "--set", "ny=32", "--set", f"kmin={kmin}", "--set", f"kmax={kmax}"]
    assert cli.main([name, "--outdir", str(tmp_path / "o"), *argv]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "content, argv",
    [(None, []), ("[1, 2]", []), ("{}", ["--set", "lx=Infinity"])],
    ids=["missing-file", "json-array", "infinite-box"],
)
def test_bad_config_exits_2_with_a_message(tmp_path, capsys, content, argv):
    """A missing config file, one that holds no JSON object, or a non-finite
    value exits 2 with a one-line message, writing nothing."""
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    if content is not None:
        path.write_text(content)
    assert cli.main(["dispersion", "--config", str(path), "--outdir", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert (str(path) in err) if not argv else err.startswith("lx = inf: ")
    assert not out.exists()


def test_band_without_data_leaves_no_output_tree(tmp_path, capsys):
    """Data the recipe rejects exits 2 and removes the directories the run
    made, as a bad config writes nothing."""
    out = tmp_path / "o"
    assert cli.main(["lagrangian-smalldata", "--set", "kmin=5", "--set", "kmax=1", "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("kmin = 5, kmax = 1: ")
    assert not out.exists()


def test_rejected_data_keeps_a_directory_that_was_there(tmp_path):
    """Only the directories the run made are removed: an outdir that existed,
    and a file in it, stay."""
    out = tmp_path / "o"
    (out / "fields").mkdir(parents=True)
    (out / "fields" / "keep.txt").write_text("x")
    assert cli.main(["lagrangian-smalldata", "--set", "kmin=5", "--set", "kmax=1", "--outdir", str(out)]) == 2
    assert sorted(p.name for p in out.rglob("*")) == ["fields", "keep.txt"]


@pytest.mark.parametrize(
    "argv, outdir",
    [(["--outdir", ""], ""), (["--set", "outdir="], ""), (["--outdir", "afile"], "afile")],
    ids=["empty-outdir", "empty-set-outdir", "outdir-is-a-file"],
)
def test_unusable_outdir_exits_2_with_a_message(tmp_path, monkeypatch, capsys, argv, outdir):
    """An empty outdir, given either way, or one that names a file is
    rejected by name: not replaced by the default, not a traceback, and
    nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("x")
    assert cli.main(["norms-selftest", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"outdir = {outdir!r}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert (tmp_path / "afile").read_text() == "x"


@pytest.mark.parametrize(
    "name, n, amplitude, message",
    [
        ("lagrangian-smalldata", 16, 10, "StateBlowupError: step 6, t = 0.0600: ||grad Y||_inf = 0.509, not <= 1/2"),
        ("eulerian-smalldata", 16, 1e3, "EulerBlowupError: step 6, t = 0.0600: non-finite state"),
        ("build-initial-data", 32, 1, "ConstructionError: companion march requires max |grad psi0| < 1/2"),
    ],
    ids=["lagrangian-blowup", "eulerian-blowup", "construction"],
)
def test_solver_failure_exits_3_with_a_message_and_no_output_tree(tmp_path, capsys, name, n, amplitude, message):
    """Data too large for the small-data regime stops the march or the
    construction: the run exits 3 with the failure's message and removes the
    directories it made."""
    out = tmp_path / "o"
    argv = ["--set", f"nx={n}", "--set", f"ny={n}", "--set", f"amplitude={amplitude}", "--outdir", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main([name, *argv]) == 3
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


def test_euler_blowup_is_named_by_the_finiteness_check_alone(tmp_path, capsys):
    """The Euler stepper's stages, monitors and the state it builds for the
    report run on the overflowing fields without a numpy warning: with
    RuntimeWarning an error, the run still exits 3 with the failure's message."""
    argv = ["--set", "nx=16", "--set", "ny=16", "--set", "amplitude=1e3", "--outdir", str(tmp_path / "o")]
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["eulerian-smalldata", *argv]) == 3
    assert capsys.readouterr().err.strip() == "EulerBlowupError: step 6, t = 0.0600: non-finite state"


@pytest.mark.parametrize(
    "key,value",
    [
        ("shape", "random"), ("nx", 64.7), ("width", -1), ("k", 0), ("dt", 0), ("seed", 1.5), ("nx", "64"),
        ("lx", math.inf), ("amplitude", math.nan), ("nx", None), ("tolerances", None), ("dt", None),
        ("shape", None), ("amplitude", None), ("nx", 9), ("ny", 63),
    ],
    ids=[
        "shape", "nx-float", "width", "k", "dt", "seed", "nx-string", "lx-inf", "amplitude-nan", "nx-null",
        "tolerances-null", "dt-null", "shape-null", "amplitude-null", "nx-odd", "ny-odd",
    ],
)
def test_unknown_shape_is_rejected_on_both_config_paths(key, value):
    """A value the schema rejects (a shape with no recipe, a fractional grid
    size, a nonpositive width, ...) fails through load_config and through
    direct construction alike, naming the key and the value."""
    msg = "^" + re.escape(f"{key} = {value!r}: ")
    with pytest.raises(ValueError, match=msg):
        cli.load_config("build-initial-data", None, {key: value})
    with pytest.raises(ValueError, match=msg):
        cli.ExperimentConfig(experiment="build-initial-data", **{key: value})


@pytest.mark.parametrize(
    "data",
    [
        {}, {"nx": 64}, {"nx": 64.0}, {"nx": 8, "ny": 10}, {"center": [0.5, -1]}, {"width": 1e-9},
        {"tolerances": {"vieta": 0.0, "rate_fit": 2}}, {"shape": "bump_dx1"}, {"seed": -3}, {"amplitude": -1.5},
        {"nx": True}, {"nx": 64.7}, {"nx": 9}, {"nx": 6}, {"width": 0}, {"lx": -1}, {"shape": "disk"},
        {"center": [1.0, 2.0, 3.0]}, {"center": [1.0, "a"]}, {"tolerances": {"vieta": -1}},
        {"tolerances": {"vieta": "abc"}}, {"seed": 1.5}, {"lx": True}, {"k": 0}, {"outdir": 3},
        {"tolerances": [1]}, {"center": [1]}, {"nx": 9, "width": 0}, {"seed": 1.5, "tolerances": {"a": -1}},
    ],
    ids=repr,
)
def test_config_checks_agree_with_jsonschema(data):
    """The config checks give jsonschema's verdict on CONFIG_SCHEMA, and on
    a rejection its best match as ``<key> = <value>: <message>``."""
    jsonschema = pytest.importorskip("jsonschema")
    try:
        jsonschema.validate(data, cli.CONFIG_SCHEMA)
        want = None
    except jsonschema.ValidationError as exc:
        want = f"{exc.json_path[2:]} = {exc.instance!r}: {exc.message}"
    try:
        cli._check_schema(data)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("name", ["energy-identity", "eulerian-smalldata", "build-initial-data"])
def test_experiment_passes_at_its_default_config(tmp_path, name):
    """Run bare, each experiment uses its own defaults and passes its checks."""
    assert cli.main([name, "--outdir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "name,key,own,generic",
    [
        ("linear-decay", "t_end", 20.0, 2.0),
        ("energy-identity", "dt", 2e-3, 0.01),
        ("eulerian-smalldata", "t_end", 4.0, 2.0),
        ("build-initial-data", "shape", "bump_dx1", "gaussian"),
        ("build-initial-data", "amplitude", 1e-4, 1e-3),
    ],
)
def test_experiment_defaults_yield_to_values_the_caller_sets(name, key, own, generic):
    """An experiment's own default applies only to a key the caller leaves
    unset (or, for t_end, sets to null); a value the caller sets wins on both
    config paths, even when it equals the generic default."""
    assert getattr(cli.ExperimentConfig(experiment=name), key) == own
    assert getattr(cli.load_config(name, None, {}), key) == own
    assert getattr(cli.ExperimentConfig(experiment="dispersion"), key) == generic
    assert getattr(cli.ExperimentConfig(experiment=name, **{key: generic}), key) == generic
    assert getattr(cli.load_config(name, None, {key: generic}), key) == generic
    if key == "t_end":
        assert cli.load_config(name, None, {"t_end": None}).t_end == own


@pytest.mark.parametrize("name", ["dispersion", "norms-selftest", "bony-selftest"])
def test_self_tests_make_no_full_complex_transform(tmp_path, monkeypatch, name):
    """One spectral substrate: with numpy's 2-D and n-D full-complex
    transforms disabled, the experiments that compare against full-lattice
    formulas still run and pass."""

    def refuse(*args, **kwargs):
        raise AssertionError("full-complex transform called")

    for fn in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, fn, refuse)
    assert cli.main([name, "--outdir", str(tmp_path / "o"), "--set", "nx=32", "--set", "ny=32"]) == 0


def test_unknown_config_key_is_rejected_by_name():
    with pytest.raises(ValueError, match="'nxx'"):
        cli.load_config("dispersion", None, {"nxx": 64})


def test_cli_dispersion_runs(tmp_path):
    rc = cli.main(
        ["dispersion", "--outdir", str(tmp_path / "out"), "--set", "nx=32", "--set", "ny=32"]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "out" / "ledgers" / "eigenvalues.csv").exists()
    names = {a["assertion"] for a in report["assertions"]}
    assert "vieta_identities_relative" in names


def test_cli_norms_selftest_runs(tmp_path):
    rc = cli.main(["norms-selftest", "--outdir", str(tmp_path / "o"), "--set", "nx=32", "--set", "ny=32"])
    assert rc == 0
    recs = json.loads((tmp_path / "o" / "norms.json").read_text())
    assert [(r["kind"], r["exponents"]) for r in recs] == [
        ("sobolev_hom", {"s": 1.0}),
        ("besov", {"s": 0.5}),
        ("aniso", {"s1": 0.25, "s2": 0.25}),
    ]
    assert [sorted(r) for r in recs] == [
        ["exponents", "kind", "value"],
        ["exponents", "kind", "p", "r", "value"],
        ["exponents", "kind", "value"],
    ]
    besov = recs[1]
    assert (besov["p"], besov["r"]) == (2, 1)
    assert type(besov["p"]) is int and type(besov["r"]) is int
    assert all(isinstance(r["value"], float) and r["value"] > 0 for r in recs)


def test_cli_bony_selftest_runs(tmp_path):
    rc = cli.main(["bony-selftest", "--outdir", str(tmp_path / "o"), "--set", "nx=32", "--set", "ny=32"])
    assert rc == 0


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("energy-identity", ["nx=32", "ny=32", "dt=0.005", "t_end=0.5"]),
        ("lagrangian-smalldata", ["nx=32", "ny=32", "dt=0.02", "t_end=0.5"]),
        ("eulerian-smalldata", ["nx=32", "ny=32", "dt=0.01", "t_end=2.0"]),
        ("cross-validate", ["nx=32", "ny=32", "dt=0.01", "t_end=0.5"]),
        ("build-initial-data", ["nx=128", "ny=128", "amplitude=1e-4", "shape=\"bump_dx1\"", "width=0.6"]),
        ("linear-decay", ["nx=32", "ny=32"]),
    ],
)
def test_cli_experiments_smoke(tmp_path, name, overrides):
    args = [name, "--outdir", str(tmp_path / "o")]
    for ov in overrides:
        args += ["--set", ov]
    rc = cli.main(args)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rc == 0, report["assertions"]
    assert report["pass"] is True


def test_lagrangian_monitors_are_written_in_long_format(tmp_path):
    """monitors.csv is a ledger like the Euler ones: rows (t, channel, value)."""
    out = tmp_path / "o"
    args = ["lagrangian-smalldata", "--outdir", str(out)]
    for ov in ("nx=16", "ny=16", "dt=0.02", "t_end=0.1"):
        args += ["--set", ov]
    assert cli.main(args) == 0
    with open(out / "ledgers" / "monitors.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "channel", "value"]
    channels = {r[1] for r in rows[1:]}
    assert channels == {
        "det_err", "constraint_err", "grad_inf", "energy", "dissipation", "d1y_hs_sq", "d2y_hs_sq", "grad_yt_inf"
    }
    assert len(rows) - 1 == 6 * len(channels)  # t = 0 and 5 steps


def test_lagrangian_smalldata_stores_only_its_ends(tmp_path, monkeypatch):
    """The margin is sampled in the march, so the run stores its initial and
    final states only."""
    runs = []
    run_lagrangian = lag.run_lagrangian
    monkeypatch.setattr(lag, "run_lagrangian", lambda *a, **kw: runs.append(run_lagrangian(*a, **kw)) or runs[-1])
    args = ["lagrangian-smalldata", "--outdir", str(tmp_path / "o")]
    for ov in ("nx=16", "ny=16", "dt=0.02", "t_end=0.5"):
        args += ["--set", ov]
    assert cli.main(args) == 0
    [run] = runs
    assert [st.t for st in run.states] == [0.0, pytest.approx(0.5)]
    assert run.margin.times == pytest.approx([0.0, 0.06, 0.12, 0.18, 0.24, 0.3, 0.36, 0.42, 0.48, 0.5])


def test_lagrangian_smalldata_records_yt_in_l1_lip(tmp_path):
    """||grad Y_t||_inf is a monitor channel; ``Yt_L1_Lip`` in the margin
    report is its trapezoidal integral over [0, 10], and the late half adds
    less than the first (the estimate integrates)."""
    out = tmp_path / "o"
    args = ["lagrangian-smalldata", "--outdir", str(out)]
    for ov in ("nx=32", "ny=32", "dt=0.02", "t_end=10"):
        args += ["--set", ov]
    assert cli.main(args) == 0
    with open(out / "ledgers" / "monitors.csv", newline="") as fh:
        rows = [(float(t), float(v)) for t, name, v in list(csv.reader(fh))[1:] if name == "grad_yt_inf"]
    t, v = np.array(rows).T
    assert t.size == 501 and t[-1] == pytest.approx(10.0) and np.all(v > 0.0)
    margin = json.loads((out / "smallness_margin.json").read_text())
    l1 = float(np.trapezoid(v, t))
    assert margin["Yt_L1_Lip"] == pytest.approx(l1, rel=1e-12)
    early = float(np.trapezoid(v[:251], t[:251]))
    assert margin["Yt_L1_Lip_late_half_fraction"] == pytest.approx((l1 - early) / l1, rel=1e-9)
    assert l1 - early < early


def test_cli_block_energy_computes_the_table_once(tmp_path, monkeypatch):
    """The block-energy CSV and the decay table share one block_energy_series."""
    calls = []
    series = lin.block_energy_series

    def counted(traj):
        calls.append(1)
        return series(traj)

    # a module that imported the name holds its own reference to it
    for mod in (lin, diag, cli):
        if hasattr(mod, "block_energy_series"):
            monkeypatch.setattr(mod, "block_energy_series", counted)
    args = ["block-energy", "--set", "nx=32", "--set", "ny=32", "--set", "t_end=3.0", "--set", "seed=7"]
    assert cli.main(args + ["--outdir", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_cli_dispersion_solves_each_lattice_mode_once(tmp_path, monkeypatch):
    """The eigenvalue table and the Vieta check share one solve per mode: the
    255 nonzero modes of the 16^2 lattice, 4 asymptote modes and 3 fitted modes."""
    calls = []
    eigenvalues = lin.eigenvalues

    def counted(xi):
        calls.append(xi)
        return eigenvalues(xi)

    for mod in (lin, diag, cli):
        if hasattr(mod, "eigenvalues"):
            monkeypatch.setattr(mod, "eigenvalues", counted)
    args = ["dispersion", "--set", "nx=16", "--set", "ny=16", "--outdir", str(tmp_path / "o")]
    assert cli.main(args) == 0
    assert len(calls) == 262


def test_cli_determinism_bit_identical(tmp_path):
    """Same config + seed => byte-identical report.json and CSV ledgers."""
    args = ["block-energy", "--set", "nx=32", "--set", "ny=32", "--set", "t_end=3.0", "--set", "seed=7"]
    rc1 = cli.main(args + ["--outdir", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--outdir", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    for name in os.listdir(tmp_path / "a" / "ledgers"):
        ca = (tmp_path / "a" / "ledgers" / name).read_bytes()
        cb = (tmp_path / "b" / "ledgers" / name).read_bytes()
        assert ca == cb
