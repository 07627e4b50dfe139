"""Cheap end-to-end passes over every experiment runner (small grids).

The acceptance module runs the full-size pinned configurations; these
exercise the plumbing, artifact writing and gate logic quickly.
"""

import os
import pickle
from importlib import resources

import numpy as np
import pytest

from pflab import acceptance, experiments, plaplace
from pflab.config import KIND_KEYS, default_config, parse_config
from pflab.core import ScalarField
from pflab.errors import (BoundarySentinelError, NumericalError,
                          VerificationError)
from pflab.experiments import (_flatten, _study_grid, halfspace_run,
                               run_experiment)
from pflab.plaplace import Trajectory

from test_fluid2d import _traced_peak
from test_plaplace import _plant_past_the_front


def test_exponent_identities(tmp_path):
    r = run_experiment(default_config("exponent-identities",
                                      outdir=str(tmp_path)))
    assert r["passed"] and r["max_residual"] <= 1e-12
    assert (tmp_path / "identities.csv").exists()
    assert (tmp_path / "manifest.txt").exists()


def _small_ledger(monkeypatch):
    """A coarser s-grid and fewer local-energy deltas for small ledgers."""
    monkeypatch.setattr(experiments, "_S_COUNT", 25)
    monkeypatch.setattr(experiments, "_DELTA_COUNT", 6)


def test_stampacchia_suite_small(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_A1_CASES", 25)
    r = run_experiment(default_config("stampacchia-suite", seed=5,
                                      outdir=str(tmp_path)))
    assert r["passed_cases"] == 25
    header = (tmp_path / "cases.csv").read_text().splitlines()[0]
    assert header == "case_id,passed,detail"


def test_interpolation_suite_small(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_BUMP_COUNT", 12)
    monkeypatch.setattr(experiments, "_GN_CELLS", 96)
    r = run_experiment(default_config("interpolation-suite",
                                      outdir=str(tmp_path)))
    assert r["passed"]
    # each (dimension, exponents, dilation) case is run once
    ids = [row.split(",")[0] for row in
           (tmp_path / "cases.csv").read_text().splitlines()[1:]]
    assert len(ids) == r["cases"] == len(set(ids))


def test_accuracy_study_rows_in_grid_order(tmp_path):
    # the grids run in a worker pool, finest first; study.csv keeps the
    # configured order and the same numbers as one grid at a time
    cfg = default_config("barenblatt-accuracy-study", outdir=str(tmp_path),
                         p=3.0, bounds="-8.6:8.6", t0=1.0,
                         t_end=1.5, cells=(256, 128, 512))
    r = run_experiment(cfg)
    rows = (tmp_path / "study.csv").read_text().splitlines()
    expected = [f"{c},{h:.17g},{e:.17g},{q:.17g}"
                for c, h, e, q in (_study_grid(cfg, n) for n in (256, 128, 512))]
    assert rows == ["cells,h,l1_err,rel_l1_err"] + expected
    assert len(r["orders"]) == 2


def test_the_accuracy_study_grids_are_audited(monkeypatch):
    # a node planted two cells past the front in a grid of the study is
    # the audit's error, which pickles, so the pool hands it to the
    # dispatcher as it is
    cfg = default_config("barenblatt-accuracy-study", p=3.0,
                         bounds="-8.6:8.6", t0=1.0, t_end=1.5,
                         cells=(64, 128))
    step, calls = plaplace._explicit_step, []

    def planted(sub, rhs, dt, win):
        step(sub, rhs, dt, win)
        calls.append(win)
        if len(calls) == 3:
            _plant_past_the_front(sub, 0, 1)

    monkeypatch.setattr(plaplace, "_explicit_step", planted)
    with pytest.raises(NumericalError,
                       match="support grew more than one cell") as exc:
        _study_grid(cfg, 64)
    assert len(calls) == 3
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)


def test_barenblatt_fit_small(tmp_path):
    r = run_experiment(default_config(
        "barenblatt-fit", outdir=str(tmp_path), p=3.0, dimension=1,
        cells=(1024,), bounds="-13:13", t0=1.0, t_end=60.0,
        snapshots_per_decade=48, tol_inner=1e-9))
    assert r["passed"]
    assert abs(r["fitted_slope"] - 0.25) / 0.25 <= 0.05
    assert (tmp_path / "fit.svg").exists()
    # sensitivity to the threshold is reported over the documented band
    assert set(r["threshold_sensitivity"]) == {"slope_at_frac_1e-08",
                                               "slope_at_frac_0.0001"}


def test_barenblatt_2d_small(tmp_path):
    r = run_experiment(default_config(
        "barenblatt-fit", outdir=str(tmp_path), p=3.0, dimension=2,
        cells=(128,), bounds="-5.5:5.5", t0=1.0, t_end=12.0,
        snapshots_per_decade=16, tol_inner=1e-8, height_c=0.5,
        exponent_tol=0.08))
    assert r["passed"]


def test_the_front_fit_holds_a_window_not_the_run(tmp_path, monkeypatch):
    cells = 64
    snapshot = (cells + 1) ** 2 * 8

    def peak(per_decade):  # 13 or 65 snapshots
        cfg = default_config(
            "barenblatt-fit", outdir=str(tmp_path), p=3.0, dimension=2,
            cells=(cells,), bounds="-5.5:5.5", t0=1.0, t_end=10.0,
            snapshots_per_decade=per_decade, tol_inner=1e-8, height_c=0.5,
            exponent_tol=1.0)
        return _traced_peak(lambda: run_experiment(cfg))

    peak(12)  # warms the caches up
    peaks = {n: peak(n) for n in (12, 64)}
    assert abs(peaks[64] - peaks[12]) <= 2 * snapshot
    # the measure sees the snapshots: the collected run holds all of them
    monkeypatch.setattr(experiments, "snapshots",
                        lambda *args: iter(experiments.simulate(*args)))
    assert peak(64) - peaks[64] >= 40 * snapshot


def test_halfspace_small(tmp_path):
    r = run_experiment(default_config(
        "halfspace-fsp", outdir=str(tmp_path), p=3.0, dimension=1,
        cells=(1536,), bounds="-7.8:7.5", t0=5e-8, t_end=3.0,
        snapshots_per_decade=48))
    assert r["envelope_l2"]["violations"] == 0
    assert r["envelope_l1"]["max_ratio"] <= 1.02
    assert r["l1_max_over_initial"] <= 1 + 1e-6


def test_energy_ledger_small(tmp_path, monkeypatch):
    _small_ledger(monkeypatch)
    r = run_experiment(default_config(
        "energy-ledger", outdir=str(tmp_path), p=3.0, dimension=1,
        cells=(1024,), bounds="-7.8:7.5", t0=5e-8, t_end=3.0,
        snapshots_per_decade=48, refine_check=False))
    assert r["passed"]
    assert r["tail_beyond_front_A"] == 0.0
    assert r["iteration_covers_front"]
    lines = (tmp_path / "ledger.csv").read_text().splitlines()
    assert lines[2] == "s,A,B,C,J,L"


def test_ledger_refinement_run_differs_only_in_cells(tmp_path, monkeypatch):
    # the coarse run of the refinement check is the fine run's config with
    # the grid halved; the snapshot density of both is the fine run's
    seen = []
    real = experiments.halfspace_run
    monkeypatch.setattr(experiments, "halfspace_run",
                        lambda cfg: seen.append(cfg) or real(cfg))
    monkeypatch.setattr(experiments, "_S_COUNT", 9)
    monkeypatch.setattr(experiments, "_DELTA_COUNT", 3)
    cfg = default_config(
        "energy-ledger", outdir=str(tmp_path), p=3.0, dimension=1,
        cells=(512,), bounds="-7.8:7.5", t0=5e-8, t_end=1.0,
        snapshots_per_decade=16)
    try:
        run_experiment(cfg)
    except VerificationError:
        pass  # the gates' verdict at this size does not matter here
    fine, coarse = seen
    assert fine is cfg and coarse.kind == cfg.kind
    assert {k for k in fine.values if coarse[k] != fine[k]} == {"cells"}
    assert coarse["cells"] == (256,) and coarse["snapshots_per_decade"] == 16


def test_taylor_green_small(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_KE_RATE_TOL", 0.03)
    monkeypatch.setattr(experiments, "_TG_SNAPSHOTS", 26)
    r = run_experiment(default_config(
        "fluid2d-taylor-green", outdir=str(tmp_path), cells=(48,), t_end=0.5))
    assert r["passed"]
    assert (tmp_path / "kinetic_energy.csv").exists()


_SMALL_HALFSPACE = dict(p=3.0, dimension=1, cells=(512,), bounds="-7.8:7.5",
                       t0=5e-8, t_end=1.0, snapshots_per_decade=24)


def _grown_l1(run, monkeypatch):
    traj, tau, l1 = run
    return traj, tau, l1 * np.linspace(1.0, 1.01, len(l1))


def _empty_support(run, monkeypatch):
    traj, _, l1 = run
    return traj, 1e9, l1


def _shrunk(run, monkeypatch):
    """The run scaled by 0.1: its decay constant drops by 1e3 (p = 3)."""
    traj, tau, l1 = run
    fields = [ScalarField(f.grid, 0.1 * f.values) for f in traj.fields]
    return Trajectory(traj.times, fields), 0.1 * tau, 0.1 * l1


def _on_coarse_run(change):
    """The fine run as built; the ledger's coarse refinement run comes
    back through ``change``."""
    def prebuilt(run, monkeypatch):
        monkeypatch.setattr(experiments, "halfspace_run",
                            lambda cfg: change(halfspace_run(cfg), monkeypatch))
        return run

    return prebuilt


@pytest.mark.parametrize("kind,overrides,constants,prebuilt,message,gate", [
    ("barenblatt-fit", dict(p=3.0, dimension=1, cells=(512,), bounds="-12:12",
                            t0=1.0, t_end=20.0, exponent_tol=1e-9), {}, None,
     "fitted exponent", "exponent"),
    ("fluid2d-taylor-green", dict(cells=(32,), t_end=0.1),
     {"_KE_RATE_TOL": 1e-9}, None, "Taylor-Green", "decay_rate"),
    ("exponent-identities", {}, {"_IDENTITY_TOL": -1.0}, None,
     "identity residual", "identities"),
    ("halfspace-fsp", _SMALL_HALFSPACE, {}, _grown_l1, "L1 norm grew",
     "l1_hypothesis"),
    ("energy-ledger", _SMALL_HALFSPACE, {}, _empty_support, "empty support",
     "support"),
    ("energy-ledger", _SMALL_HALFSPACE, {}, _grown_l1, "L1 norm grew",
     "l1_hypothesis"),
    ("energy-ledger", dict(_SMALL_HALFSPACE, refine_check=True), {},
     _on_coarse_run(_grown_l1), "L1 norm grew", "l1_hypothesis"),
    ("energy-ledger", dict(_SMALL_HALFSPACE, refine_check=True), {},
     _on_coarse_run(_shrunk), "decay constant grew under refinement",
     "decay_stable"),
], ids=["barenblatt-fit", "taylor-green", "identities",
        "halfspace-l1-hypothesis", "ledger-empty-support",
        "ledger-l1-hypothesis", "ledger-coarse-l1-hypothesis",
        "ledger-decay-refinement"])
def test_gate_failure_raises_with_report(tmp_path, monkeypatch, kind, overrides,
                                         constants, prebuilt, message, gate):
    # the dispatcher writes the failed report and manifest, then raises
    # with the same report and the failed gates' names; the half-space
    # runs get a trajectory whose L1 norm grows, a threshold nothing
    # reaches, or such a coarse run
    for name, value in constants.items():
        monkeypatch.setattr(experiments, name, value)
    cfg = default_config(kind, outdir=str(tmp_path), **overrides)
    built = prebuilt(halfspace_run(cfg), monkeypatch) if prebuilt else None
    with pytest.raises(VerificationError, match=message) as exc:
        run_experiment(cfg, prebuilt=built)
    assert gate in exc.value.failed
    report = exc.value.report
    assert report["passed"] is False
    assert list(report)[-1] == "passed"
    written = (tmp_path / "report.txt").read_text().splitlines()
    assert written == [f"{k} = {v}" for k, v in _flatten(report).items()]
    assert "passed = False" in written
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    if kind == "halfspace-fsp":  # a failed run keeps its front trace
        assert "t,front" in (tmp_path / "trace.csv").read_text().splitlines()


def _small_pinned(refine_check: str, **overrides):
    """A stand-in for ``acceptance._load_cfg``: the pinned config with
    ``overrides`` (raw strings) set, and the ledger's ``refine_check``."""
    def load(name, outdir):
        text = resources.files("pflab.configs.accept").joinpath(name).read_text()
        ledger = {"refine_check": refine_check} if name.startswith("c11") else {}
        return parse_config(text, {"outdir": os.path.join(outdir, name[:3]),
                                   **overrides, **ledger})

    return load


# the c04/c11 trajectory at 512 cells to t = 1
_SMALL_PINNED = dict(cells="512", t_end="1.0", snapshots_per_decade="24")


def test_shared_halfspace_numerical_failure_fails_its_criteria(tmp_path,
                                                                monkeypatch):
    calls = []

    def sentinel(cfg):
        calls.append(cfg)
        raise BoundarySentinelError("support within the margin of the box")

    monkeypatch.setattr(acceptance, "halfspace_run", sentinel)
    results = {r.number: r for r in acceptance.run_acceptance(
        str(tmp_path), only="4,5,8,11,12")}
    assert len(calls) == 1
    assert sorted(results) == [4, 5, 8, 11, 12]
    for number in (4, 5, 11, 12):
        assert not results[number].passed
        assert ("numerical failure: support within the margin"
                in results[number].detail)
    assert results[8].passed


def test_shared_runs_go_through_the_dispatcher(tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance, "_load_cfg", _small_pinned(
        "false", cells="1024", t_end="3.0", snapshots_per_decade="48"))
    _small_ledger(monkeypatch)
    results = acceptance.run_acceptance(str(tmp_path), only="4,11")
    assert all(r.passed for r in results)
    for name in ("c04", "c11"):
        assert "passed = True" in (tmp_path / name / "report.txt").read_text()
        manifest = (tmp_path / name / "manifest.txt").read_text().splitlines()
        assert "status = ok" in manifest


def test_decay_refinement_failure_fails_criteria_11_and_12(tmp_path,
                                                          monkeypatch):
    # criterion 11 rests on a decay constant stable under refinement, and
    # both criteria on the ledger's hypotheses; the ledger's own report
    # says which gate failed
    monkeypatch.setattr(acceptance, "_load_cfg",
                        _small_pinned("true", **_SMALL_PINNED))
    _small_ledger(monkeypatch)
    _on_coarse_run(_shrunk)(None, monkeypatch)
    results = {r.number: r for r in acceptance.run_acceptance(
        str(tmp_path), only="4,11,12")}
    assert results[4].passed
    for number in (11, 12):
        assert not results[number].passed
        assert "decay constant grew under refinement" in results[number].detail
    written = (tmp_path / "c11" / "report.txt").read_text().splitlines()
    assert "refinement.decay_ok = False" in written
    assert "refinement.local_ok = True" in written
    assert "l1_hypothesis_ok = True" in written
    assert "status = failed" in (tmp_path / "c11" / "manifest.txt").read_text()


def test_a_planted_failure_fails_exactly_the_criteria_owning_its_gate(
        tmp_path, monkeypatch):
    # a growing L1 norm breaks the L1 hypothesis alone: criterion 4 does
    # not rest on it and passes, while 5 (the L1 envelope) and 11 and 12
    # (the ledger) do and fail on the same half-space run
    monkeypatch.setattr(acceptance, "_load_cfg",
                        _small_pinned("false", **_SMALL_PINNED))
    monkeypatch.setattr(acceptance, "halfspace_run",
                        lambda cfg: _grown_l1(halfspace_run(cfg), monkeypatch))
    _small_ledger(monkeypatch)
    ctx = acceptance.AcceptanceContext(str(tmp_path))
    results = {n: acceptance.criterion(ctx, n) for n in (4, 5, 11, 12)}
    assert results[4].passed, results[4].line
    for number in (5, 11, 12):
        assert not results[number].passed
        assert "L1 norm grew" in results[number].detail
    assert ctx.run("c04_halfspace_envelopes.cfg")[1] == ("l1_hypothesis",)
    assert "l1_hypothesis" in ctx.run("c11_energy_ledger.cfg")[1]
    lines = acceptance.run_acceptance(str(tmp_path / "cli"), only="4,5,11,12")
    assert [r.passed for r in lines] == [True, False, False, False]


def test_every_owned_gate_is_a_gate_its_runner_returns(tmp_path, monkeypatch):
    # a misspelt gate in the criteria table would leave a criterion that
    # can never fail: run each owning criterion small, recording the
    # gates its runner returns
    returned = {}

    def recording(runner):
        def run(cfg, *prebuilt):
            report, gates, files = runner(cfg, *prebuilt)
            returned.setdefault(cfg.kind, set()).update(gates)
            return report, gates, files

        return run

    for kind, runner in list(experiments._RUNNERS.items()):
        monkeypatch.setitem(experiments._RUNNERS, kind, recording(runner))
    monkeypatch.setattr(acceptance, "_load_cfg",
                        _small_pinned("true", **_SMALL_PINNED))
    _small_ledger(monkeypatch)
    owners = {n: row for n, row in acceptance.CRITERIA.items()
              if row[3] is not None}
    assert sorted(owners) == [4, 5, 11, 12]
    acceptance.run_acceptance(str(tmp_path), only=",".join(map(str, owners)))
    for number, (_, _, name, owned, _) in owners.items():
        kind = acceptance._load_cfg(name, str(tmp_path)).kind
        assert owned <= returned[kind], (number, owned - returned[kind])


# a small passing run of every kind, under small_constants
SMALL_RUNS = [
    ("fluid2d-taylor-green", dict(cells=(48,), t_end=0.5)),
    ("energy-ledger", dict(p=3.0, dimension=1, cells=(1024,), bounds="-7.8:7.5",
                           t0=5e-8, t_end=3.0, snapshots_per_decade=48,
                           refine_check=False)),
    # implicit 2-D: the early proximal steps are solved on a window of the grid
    ("barenblatt-fit", dict(p=3.0, dimension=2, cells=(128,), bounds="-5.5:5.5",
                            t0=1.0, t_end=12.0, snapshots_per_decade=16,
                            tol_inner=1e-8, height_c=0.5, exponent_tol=0.08)),
    ("barenblatt-accuracy-study", dict(bounds="-8.6:8.6", t0=1.0, t_end=1.5,
                                       cells=(128, 256))),
    ("weak-residual-study", dict(p=2.0, cells=(16,), t_end=0.05)),
    ("halfspace-fsp", _SMALL_HALFSPACE),
    ("stampacchia-suite", dict(seed=5)),
    ("interpolation-suite", dict(seed=11)),
    ("exponent-identities", {}),
]

# the data files each small run writes beside report.txt and manifest.txt
SMALL_RUN_FILES = {
    "fluid2d-taylor-green": {"kinetic_energy.csv", "ke.svg", "speed_final.svg"},
    "energy-ledger": {"ledger.csv", "local_energy.csv"},
    "barenblatt-fit": {"trace.csv", "fit.svg"},
    "barenblatt-accuracy-study": {"study.csv"},
    "weak-residual-study": {"residuals.csv"},
    "halfspace-fsp": {"trace.csv", "envelopes.svg"},
    "stampacchia-suite": {"cases.csv"},
    "interpolation-suite": {"cases.csv"},
    "exponent-identities": {"identities.csv"},
}


def small_constants(monkeypatch):
    """The small runs' rate tolerance, snapshots, ledger size and suite
    sample counts, as in the tests above."""
    monkeypatch.setattr(experiments, "_KE_RATE_TOL", 0.03)
    monkeypatch.setattr(experiments, "_TG_SNAPSHOTS", 26)
    monkeypatch.setattr(experiments, "_A1_CASES", 25)
    monkeypatch.setattr(experiments, "_BUMP_COUNT", 12)
    monkeypatch.setattr(experiments, "_GN_CELLS", 96)
    _small_ledger(monkeypatch)


@pytest.mark.parametrize("kind,overrides", SMALL_RUNS)
def test_rerun_artifacts_byte_identical(tmp_path, monkeypatch, kind, overrides):
    # the manifest echoes the config: the kind's keys and nothing else;
    # each run writes its kind's files, and all but the manifest are the
    # same bytes on a rerun
    small_constants(monkeypatch)
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        cfg = default_config(kind, outdir=str(out), **overrides)
        assert run_experiment(cfg)["kind"] == cfg.kind
        keys = [line.split(" = ")[0] for line in
                (out / "manifest.txt").read_text().splitlines()
                if not line.startswith(("version.", "status ", "run_stamp "))]
        assert keys == sorted(("experiment",) + KIND_KEYS[kind])
    names = SMALL_RUN_FILES[kind] | {"report.txt"}
    for out in outs:
        assert {f.name for f in out.iterdir()} == names | {"manifest.txt"}
    for name in sorted(names):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_ledger_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # byte-identical reruns hold whatever the BLAS threading: the ledger
    # sums its tails by numpy reductions in a fixed order, where matrix
    # products summed in an order set by the BLAS threads.  Criterion 11's
    # config, scaled down, through the command line in two fresh processes
    import subprocess
    import sys

    cfg = resources.files("pflab").joinpath(
        "configs/accept/c11_energy_ledger.cfg")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       os.path.abspath(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pflab.cli", "simulate", "--config",
             str(cfg), "--cells", "512", "--t-end", "1", "--outdir", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("ledger.csv", "local_energy.csv", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
