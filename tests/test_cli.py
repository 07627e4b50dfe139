import pathlib
import re
import warnings

import numpy as np
import pytest

from pflab.cli import main
from pflab.config import (KIND_DEFAULTS, KIND_KEYS, SCHEMA, default_config,
                          parse_config)
from pflab.errors import ConfigError, NumericalError
from pflab.experiments import run_experiment
from pflab.svgplot import emit_plot


def run_cli(*argv):
    return main(list(argv))


def test_exit_code_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = barenblatt-fit\np = nope\n")
    code = run_cli("simulate", "--config", str(cfg))
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_exit_code_unreadable_config(tmp_path, capsys, name):
    # a missing file, and a directory where the file should be
    path = str(tmp_path / name)
    assert run_cli("simulate", "--config", path) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert path in err


def test_fluid2d_defaults_are_the_readme_example(tmp_path, monkeypatch):
    # a bare `pflab fluid2d` runs the README example, not the scalar
    # defaults (4096 cells to t = 100), and so does the kind under
    # `simulate`; the file and flags win
    from pflab import experiments

    seen = []
    monkeypatch.setattr(experiments, "run_experiment",
                        lambda cfg, outdir: seen.append(cfg) or {})
    out = str(tmp_path / "out")
    assert run_cli("fluid2d", "--outdir", out) == 0
    assert (seen[-1]["cells"], seen[-1]["t_end"]) == ((128,), 1.0)
    assert run_cli("simulate", "--experiment", "fluid2d-taylor-green",
                   "--outdir", out) == 0
    assert seen[-1].values == seen[-2].values
    cfg = tmp_path / "fluid.cfg"
    cfg.write_text("experiment = fluid2d-taylor-green\ncells = 64\n")
    assert run_cli("fluid2d", "--config", str(cfg), "--outdir", out) == 0
    assert (seen[-1]["cells"], seen[-1]["t_end"]) == ((64,), 1.0)
    assert run_cli("fluid2d", "--config", str(cfg), "--t-end", "0.5",
                   "--outdir", out) == 0
    assert (seen[-1]["cells"], seen[-1]["t_end"]) == ((64,), 0.5)


def test_a_fluid_grid_of_unequal_cell_counts_is_a_configuration_error(tmp_path,
                                                                     capsys):
    # the fluid runs a square grid; a second count would be echoed by the
    # manifest and never run
    out = tmp_path / "out"
    cfg = tmp_path / "fluid.cfg"
    cfg.write_text("experiment = fluid2d-taylor-green\ncells = 16,32\n")
    assert run_cli("fluid2d", "--config", str(cfg), "--t-end", "0.01",
                   "--outdir", str(out)) == 1
    assert "line 2: cells:" in capsys.readouterr().err
    assert run_cli("fluid2d", "--cells", "16,32", "--t-end", "0.01",
                   "--outdir", str(out)) == 1
    assert "cells: fluid experiments run a square grid" in capsys.readouterr().err
    assert not out.exists()


_TG = ("simulate", "--experiment", "fluid2d-taylor-green", "--cells", "16",
       "--t-end", "0.01")
_STUDY = ("simulate", "--experiment", "barenblatt-accuracy-study", "--cells",
          "64,128", "--t-end", "1.5")


@pytest.mark.parametrize("argv,message", [
    (_TG + ("--bounds", "0:1"), "bounds: not a key of experiment "
                                "'fluid2d-taylor-green'"),
    (_TG + ("--p", "3"), "p: not a key of experiment 'fluid2d-taylor-green'"),
    (_STUDY + ("--dimension", "2"),
     "dimension: not a key of experiment 'barenblatt-accuracy-study'"),
], ids=["fluid-bounds", "taylor-green-p3", "study-2d"])
def test_a_key_the_kind_cannot_run_is_a_configuration_error(tmp_path, capsys,
                                                            argv, message):
    # the fluid's box is [0, 2*pi]^2, Taylor-Green's closed-form rate holds
    # at p = 2 alone, and the accuracy study runs 1-D grids: the kinds take
    # no key for them
    out = tmp_path / "out"
    assert run_cli(*argv, "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_exit_code_invalid_flag_value(tmp_path, capsys):
    # a zero Newton tolerance is a configuration error, not a numerical one
    code = run_cli("barenblatt", "--tol-inner", "0",
                   "--outdir", str(tmp_path / "out"))
    assert code == 1
    assert "tol_inner" in capsys.readouterr().err


def test_exit_code_line_search_stall(tmp_path, capsys, monkeypatch):
    from pflab import plaplace

    # a descent direction so long that every halving still overshoots
    monkeypatch.setattr(plaplace, "solve_banded", lambda lu, ab, b: 1e30 * b)
    code = run_cli("barenblatt", "--cells", "256", "--bounds=-6:6",
                   "--t-end", "2", "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "line search stalled" in capsys.readouterr().err
    # the same from CG in 2-D, solved on a window of the 97^2 grid
    shapes = []

    def overlong(apply_h, b, *args, **kw):
        shapes.append(b.shape)
        return 1e30 * b

    monkeypatch.setattr(plaplace, "_pcg", overlong)
    code = run_cli("barenblatt", "--dimension", "2", "--cells", "96",
                   "--bounds=-4:4", "--height-c", "0.5", "--t-end", "2",
                   "--outdir", str(tmp_path / "out2"))
    assert code == 2
    assert "line search stalled" in capsys.readouterr().err
    assert shapes and all(a < 97 for shape in shapes for a in shape)


def test_a_schedule_too_sparse_for_the_front_fit_is_a_configuration_error(
        tmp_path, monkeypatch):
    # from t0 = 1 to t_end = 2 at one snapshot a decade the log schedule
    # takes 2 snapshots and the fit needs 8: the config is rejected before
    # any step, as the command line shows it
    import os
    import subprocess
    import sys

    from pflab import experiments

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pflab.cli", "barenblatt",
         "--snapshots-per-decade", "1", "--t-end", "2", "--cells", "256"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error:")
    assert "t0, t_end, snapshots_per_decade:" in proc.stderr
    for name in ("simulate", "snapshots"):
        monkeypatch.setattr(experiments, name, lambda *a, **kw: 1 / 0)
    with pytest.raises(ConfigError, match="takes 2 snapshots, and the front "
                       "fit needs 8"):
        run_experiment(default_config(
            "barenblatt-fit", outdir=str(tmp_path / "out"),
            snapshots_per_decade=1, t_end=2.0, cells=(256,)))


def test_a_front_fit_short_of_samples_is_a_configuration_error(tmp_path,
                                                              monkeypatch):
    # a schedule long enough on paper whose fronts go missing after the
    # fifth snapshot: the fit's own shortfall is reported the same way
    from pflab import fronts

    trace_support = fronts.trace_support

    def five_fronts(*args, **kw):
        return tuple(fronts.SupportTrace(
            tr.tau, tr.times,
            np.where(np.arange(len(tr.times)) < 5, tr.fronts, np.nan))
            for tr in trace_support(*args, **kw))

    monkeypatch.setattr(fronts, "trace_support", five_fronts)
    cfg = default_config("barenblatt-fit", outdir=str(tmp_path), p=3.0,
                         dimension=1, cells=(256,), bounds="-8:8", t0=1.0,
                         t_end=2.0, snapshots_per_decade=24)
    with pytest.raises(ConfigError, match="t0, t_end, snapshots_per_decade: "
                       ".*fit failed: need >= 8 usable samples in the fit "
                       "window, have 5"):
        run_experiment(cfg)


@pytest.mark.parametrize("schedule", [("--t-end", "0.01"),
                                      ("--t-end", "0.2",
                                       "--snapshots-per-decade", "1")])
def test_a_halfspace_schedule_that_misses_t_ref_is_a_configuration_error(
        tmp_path, capsys, schedule):
    # no snapshot lies within 25% of t_ref = 0.1, where the envelopes are
    # calibrated
    code = run_cli("simulate", "--experiment", "halfspace-fsp", "--cells",
                   "1024", "--t0", "5e-8", "--bounds=-7.8:7.5", *schedule,
                   "--outdir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error:")
    assert "t_end, snapshots_per_decade: the l2 envelope calibration" in err
    assert "no sample near t_ref = 0.1" in err


def test_a_weak_residual_schedule_that_merges_is_a_configuration_error(
        tmp_path, capsys, monkeypatch):
    # the 41 times to t_end = 1e-13 lie within the schedule's merge
    # distance: the config is rejected before any step
    from pflab import experiments

    monkeypatch.setattr(experiments, "fluid_snapshots",
                        lambda *a, **kw: 1 / 0)
    code = run_cli("simulate", "--experiment", "weak-residual-study",
                   "--cells", "16", "--t-end", "1e-13", "--outdir",
                   str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error:")
    assert "t_end: the weak residual's 41 times" in err


@pytest.mark.parametrize("kind,code", [("energy-ledger", 0),
                                       ("halfspace-fsp", 1)])
def test_a_horizon_within_the_merge_distance_runs_from_zero(tmp_path, capsys,
                                                            kind, code):
    # every time to t_end = 1e-13 merges into an endpoint, and both
    # endpoints are kept: the ledger runs on the two snapshots, and the
    # half-space envelopes find no snapshot near t_ref
    assert run_cli("simulate", "--experiment", kind, "--cells", "256",
                   "--t0", "5e-8", "--bounds=-7.8:7.5", "--t-end", "1e-13",
                   "--outdir", str(tmp_path)) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_run_that_raises_leaves_only_its_failed_manifest(tmp_path, capsys):
    # the half-space runner raises after it has traced the front: the
    # dispatcher writes the failed manifest and none of the run's files
    out = tmp_path / "out"
    assert run_cli("simulate", "--experiment", "halfspace-fsp", "--cells",
                   "1024", "--t0", "5e-8", "--bounds=-7.8:7.5", "--t-end",
                   "0.01", "--outdir", str(out)) == 1
    assert "configuration error:" in capsys.readouterr().err
    assert [f.name for f in out.iterdir()] == ["manifest.txt"]
    assert "status = failed" in (out / "manifest.txt").read_text().splitlines()


def test_exit_code_usage_error(tmp_path, capsys):
    # argparse reads "-6:6" as a flag; a usage error is a configuration
    # error (1), not a numerical failure (2)
    assert run_cli("barenblatt", "--bounds", "-6:6") == 1
    assert "expected one argument" in capsys.readouterr().err
    assert run_cli("barenblatt", "--no-such-flag", "1") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    # the kind fixes its stepper: the fit runs the proximal one
    assert run_cli("barenblatt", "--stepper", "explicit") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


def test_accept_takes_only_its_own_flags(tmp_path, capsys):
    # a schema flag is a usage error, and a criterion number outside
    # 1-12 a configuration error; neither runs a criterion
    out = tmp_path / "acc"
    assert run_cli("accept", "--outdir", str(out), "--only", "9",
                   "--p", "7", "--cells", "3") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    for only in ("13", "x", "0", "4,,5", ""):
        assert run_cli("accept", "--outdir", str(out), "--only", only) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "1-12" in err
    assert not out.exists()


def test_fluid2d_has_no_dimension_flag(capsys):
    # the subcommand forces dimension = 2
    with pytest.raises(SystemExit) as exc:
        run_cli("fluid2d", "--help")
    assert exc.value.code == 0
    assert "--dimension" not in capsys.readouterr().out
    assert run_cli("fluid2d", "--dimension", "2") == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command,kinds", [
    ("simulate", ()),
    ("barenblatt", ("barenblatt-fit",)),
    ("fluid2d", ("fluid2d-taylor-green",)),
    ("energy", ("energy-ledger",)),
    ("verify-lemmas", ("stampacchia-suite", "interpolation-suite",
                       "exponent-identities")),
])
def test_a_subcommands_flags_are_its_kinds_keys(capsys, command, kinds):
    # simulate takes every key; a subcommand that forces its kinds takes
    # the keys all of them read, and verify-lemmas' suites share outdir
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    keys = set(SCHEMA).intersection(*(KIND_KEYS[k] for k in kinds))
    assert flags - {"--help", "--config"} == {f"--{k.replace('_', '-')}"
                                              for k in keys}
    if command == "simulate":
        assert len(keys) == 15
    if command == "verify-lemmas":
        assert keys == {"outdir"}


@pytest.mark.parametrize("command,kinds", [
    ("simulate", tuple(KIND_KEYS)),
    ("fluid2d", ("fluid2d-taylor-green",)),
])
def test_help_names_each_kind_whose_default_differs(capsys, monkeypatch,
                                                    command, kinds):
    # simulate shows the schema's default of a key and then each kind
    # that runs another; a lone kind's subcommand shows the kind's own
    monkeypatch.setenv("COLUMNS", "400")  # one line per flag
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    lines = capsys.readouterr().out.splitlines()
    for key in {key for own in KIND_DEFAULTS.values() for key in own}:
        flag = f"--{key.replace('_', '-')} V"
        (line,) = [ln for ln in lines if ln.strip().startswith(flag)]
        shown = (KIND_DEFAULTS[kinds[0]][key] if len(kinds) == 1
                 else SCHEMA[key][1])
        named = [f"{kind} {own[key]!r}" for kind, own in KIND_DEFAULTS.items()
                 if kind in kinds and own.get(key, shown) != shown]
        assert line.endswith(f"(default {shown!r}"
                             + "".join(f"; {n}" for n in named) + ")"), line
        if command == "simulate":
            assert len(named) == 2


_FLOAT_KEYS = [k for k, (typ, _, _) in SCHEMA.items() if typ in ("float", "bounds")]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_a_non_finite_value_is_a_configuration_error(tmp_path, capsys, key,
                                                     value):
    # on the first kind that reads the key
    kind = next(k for k, keys in KIND_KEYS.items() if key in keys)
    raw = f"0:{value}" if key == "bounds" else value
    out = tmp_path / "out"
    assert run_cli("simulate", "--experiment", kind,
                   f"--{key.replace('_', '-')}={raw}", "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"{key}: cannot parse" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["barenblatt", "fluid2d", "energy",
                                     "verify-lemmas"])
def test_a_subcommand_has_no_flag_for_its_forced_kind(tmp_path, capsys, command):
    # the subcommand forces the experiment kind; a flag for it would win
    # and run another experiment
    out = tmp_path / "out"
    assert run_cli(command, "--experiment", "exponent-identities",
                   "--outdir", str(out)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("eps_reg", "0"), ("advection", "central"), ("sentinel", "true"),
    ("bc", "periodic"), ("cfl_safety", "0.5"), ("dt_max", "0.1"),
    ("threshold_frac", "1e-4"), ("fluid_cfl_safety", "0.2"), ("ctilde", "2"),
    ("envelope", "both"), ("max_inner", "0"), ("tol_env", "0.02"),
    ("order_min", "0.8"), ("ke_rate_tol", "0.02"), ("div_tol", "1e-10"),
    ("identity_tol", "1e-12"), ("eps_iter", "0.5"), ("weak_fields", "0"),
    ("s_count", "1"), ("delta_count", "0"), ("a1_cases", "0"),
    ("bump_count", "0"), ("gn_cells", "1"), ("gn_p", "3"),
    ("lambda_set", "0.25,4"), ("snapshot_count", "101"),
    ("stepper", "implicit"), ("t_ref", "0.1"), ("svg", "false")])
def test_deleted_solver_keys_are_rejected(tmp_path, capsys, key, value):
    # the solvers have no regularization, one advection scheme, an
    # always-on sentinel and dirichlet-zero scalar boxes, the CFL
    # factors, step cap, Newton cap, front threshold and ledger constant
    # are module constants, the half-space run checks both envelopes, and
    # every gate tolerance and check sample count is a constant beside
    # its gate; each kind fixes its stepper and the half-space envelopes'
    # calibration time, and every run writes its SVGs: the keys are
    # unknown in a file and as flags
    text = f"experiment = fluid2d-taylor-green\n{key} = {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, {})
    assert exc.value.errors == [(2, f"unknown key {key!r}")]
    out = tmp_path / "out"
    assert run_cli("simulate", f"--{key.replace('_', '-')}", value,
                   "--outdir", str(out)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_the_trajectory_export_and_its_pipeline_are_gone(tmp_path, capsys):
    # the front runs write trace.csv and fitted_slope, and nothing writes
    # per-snapshot fields: the pipeline commands and the key are unknown
    out = tmp_path / "out"
    for argv in (("track-support", "--index", "index.csv", "--tau", "1e-6"),
                 ("fit-exponent", "--trace", "trace.csv")):
        assert run_cli(*argv) == 1
        assert "invalid choice" in capsys.readouterr().err
    for argv in (("barenblatt",),
                 ("simulate", "--experiment", "barenblatt-fit")):
        assert run_cli(*argv, "--export-trajectory", "true",
                       "--outdir", str(out)) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    for kind in ("barenblatt-fit", "halfspace-fsp"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"experiment = {kind}\nexport_trajectory = true\n")
        assert run_cli("simulate", "--config", str(cfg),
                       "--outdir", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert "line 2: unknown key 'export_trajectory'" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["stampacchia-suite", "interpolation-suite",
                                  "weak-residual-study"])
def test_a_negative_seed_is_a_configuration_error(tmp_path, capsys, kind):
    # numpy's SeedSequence takes no negative seed
    out = tmp_path / "out"
    assert run_cli("simulate", "--experiment", kind, "--seed", "-1",
                   "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and "seed: must be >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("fluid2d",), ("simulate", "--experiment", "weak-residual-study")],
    ids=["taylor-green", "weak-residual-study"])
def test_a_fluid_grid_of_two_cells_is_a_configuration_error(tmp_path, capsys,
                                                            argv):
    # every node of a 2-cell grid sits at 0 or pi, where the Taylor-Green
    # data vanish: the run would start from zero
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--cells", "2", "--t-end", "0.01",
                       "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and "cells: must be at least 3" in err
    assert "Traceback" not in err
    assert not out.exists()


def _readme_commands() -> set:
    """The subcommands README's fenced command block names."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("pflab ")]
    return {line.split()[1] for line in block.splitlines()
            if line.startswith("pflab ")}


def test_the_readme_names_every_subcommand_and_no_other(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    # argparse's usage line lists the subparsers as {a,b,...}
    choices = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out)[1]
    commands = _readme_commands()
    assert commands == set(choices.split(","))
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0


def test_bounds_equals_form_runs(tmp_path):
    out = tmp_path / "out"
    code = run_cli("barenblatt", "--bounds=-6:6", "--cells", "128",
                   "--t-end", "2", "--outdir", str(out))
    assert code == 0
    assert "bounds = -6:6" in (out / "manifest.txt").read_text()


def test_exit_code_projection_residual(tmp_path, capsys, monkeypatch):
    from pflab import fluid2d

    # wavenumbers of zero make the projection a no-op, so the divergence
    # the first step creates survives it
    orig = fluid2d._modified_wavenumbers
    monkeypatch.setattr(fluid2d, "_modified_wavenumbers",
                        lambda grid: tuple(0.0 * s for s in orig(grid)))
    code = run_cli("fluid2d", "--cells", "32", "--t-end", "0.05",
                   "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "projection left divergence residual" in capsys.readouterr().err


def test_exit_code_sentinel(tmp_path, capsys):
    # a deliberately undersized box trips the boundary sentinel -> exit 2
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "experiment = barenblatt-fit\n"
        "p = 3\ndimension = 1\ncells = 256\nbounds = -4:4\n"
        "t0 = 1.0\nt_end = 30.0\n"
        f"outdir = {tmp_path / 'out'}\n")
    code = run_cli("simulate", "--config", str(cfg))
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_verification_failure(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(
        "experiment = barenblatt-fit\n"
        "p = 3\ndimension = 1\ncells = 512\nbounds = -12:12\n"
        "t0 = 1.0\nt_end = 20.0\n"
        "exponent_tol = 1e-6\n"  # unreachably tight
        f"outdir = {tmp_path / 'out'}\n")
    code = run_cli("simulate", "--config", str(cfg))
    assert code == 3
    assert "verification failure" in capsys.readouterr().err


def _small_suites(monkeypatch, **constants):
    """Shrink the lemma suites' sample counts, and set ``constants`` of
    :mod:`pflab.experiments`."""
    from pflab import experiments

    small = dict(_A1_CASES=30, _BUMP_COUNT=10, _GN_CELLS=96, **constants)
    for name, value in small.items():
        monkeypatch.setattr(experiments, name, value)


def test_identities_via_cli(tmp_path, capsys, monkeypatch):
    _small_suites(monkeypatch)
    code = run_cli("verify-lemmas", "--outdir", str(tmp_path / "v"))
    assert code == 0


def _failing_gate(cfg):
    return {"kind": cfg.kind}, {"patched": (False, "patched gate failure")}, {}


def _numerical_failure(cfg):
    raise NumericalError("patched numerical failure")


@pytest.mark.parametrize("runner,constants,code", [
    (_failing_gate, {}, 3),
    (_numerical_failure, {}, 2),
    (_numerical_failure, {"_IDENTITY_TOL": -1.0}, 3),  # the worst code wins
], ids=["gate", "numerical", "numerical-and-gate"])
def test_verify_lemmas_runs_every_suite(tmp_path, capsys, monkeypatch,
                                        runner, constants, code):
    from pflab import experiments

    monkeypatch.setitem(experiments._RUNNERS, "stampacchia-suite", runner)
    _small_suites(monkeypatch, **constants)
    out = tmp_path / "v"
    assert run_cli("verify-lemmas", "--outdir", str(out)) == code
    assert "patched" in capsys.readouterr().err
    for kind in ("interpolation-suite", "exponent-identities"):
        assert (out / kind / "report.txt").exists()
        assert (out / kind / "manifest.txt").exists()


def test_verify_lemmas_writes_under_the_configured_outdir(tmp_path, monkeypatch):
    # the outdir of a config file places the suites, as for every other
    # subcommand; the flag still wins over the file
    _small_suites(monkeypatch)
    cfg = tmp_path / "lemmas.cfg"
    cfg.write_text(f"experiment = exponent-identities\n"
                   f"outdir = {tmp_path / 'results'}\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify-lemmas", "--config", str(cfg)) == 0
    for kind in ("stampacchia-suite", "interpolation-suite", "exponent-identities"):
        assert (tmp_path / "results" / kind / "report.txt").exists()
    assert not (tmp_path / "out").exists()
    assert run_cli("verify-lemmas", "--config", str(cfg),
                   "--outdir", str(tmp_path / "flag")) == 0
    assert (tmp_path / "flag" / "exponent-identities" / "report.txt").exists()


@pytest.mark.parametrize("argv", [
    ("barenblatt", "--t0", "0", "--cells", "64", "--t-end", "1"),
    ("energy", "--t0", "0", "--cells", "64", "--t-end", "1"),
    ("barenblatt", "--t0", "2", "--t-end", "1"),
    ("simulate", "--experiment", "barenblatt-accuracy-study", "--cells",
     "64,128", "--t-end", "0.5"),
], ids=["barenblatt-t0", "energy-t0", "fit-horizon", "study-horizon"])
def test_unusable_times_are_a_configuration_error(tmp_path, capsys, argv):
    # the scalar kinds start from a closed form at t0 > 0 and run to a
    # later time; anything else is caught before a run, with its key
    out = tmp_path / "out"
    assert run_cli(*argv, "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "must" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("barenblatt", "--bounds=5:8", "--cells", "64", "--t-end", "1.5"),
    ("barenblatt", "--cells", "1", "--t-end", "1.5"),
    ("energy", "--cells", "1", "--t-end", "0.5"),
    ("simulate", "--experiment", "halfspace-fsp", "--cells", "1", "--t-end",
     "0.5"),
], ids=["box-misses-data", "fit-one-cell", "energy-one-cell",
        "halfspace-one-cell"])
def test_initial_data_the_grid_misses_is_a_configuration_error(tmp_path,
                                                               capsys, argv):
    # data that vanish on every node have no front to trace: the box or
    # the grid is at fault, not the numerics
    assert run_cli(*argv, "--outdir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and "cells, bounds:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["fluid2d-taylor-green", "weak-residual-study"])
def test_a_fluid_grid_of_one_cell_is_a_configuration_error(tmp_path, capsys,
                                                           kind):
    # the fluid's centred stencils need two nodes per axis, and on two
    # the data vanish (see the two-cell case)
    cfg = tmp_path / "fluid.cfg"
    cfg.write_text(f"experiment = {kind}\ncells = 1\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--t-end", "0.01",
                   "--outdir", str(out)) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "line 2: cells: must be at least 3" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_barenblatt_smoke_and_determinism(tmp_path):
    base = dict(p=3.0, dimension=1, cells=(768,), bounds="-12:12", t0=1.0,
                t_end=20.0, snapshots_per_decade=32)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(default_config("barenblatt-fit", outdir=str(out1), **base))
    run_experiment(default_config("barenblatt-fit", outdir=str(out2), **base))
    # bit-identical data artifacts
    for name in ("trace.csv", "report.txt", "fit.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # manifests differ at most on the single run-stamp line
    m1 = (out1 / "manifest.txt").read_text().splitlines()
    m2 = (out2 / "manifest.txt").read_text().splitlines()
    diff = [i for i, (a, b) in enumerate(zip(m1, m2)) if a != b]
    # the two runs point at different outdirs by construction; apart from
    # that config echo only the isolated run-stamp line may vary
    assert all(m1[i].startswith(("run_stamp", "outdir")) for i in diff)


_LABELS = dict(title="", xlabel="t", ylabel="value")


def test_emit_plot_structure():
    t = np.linspace(1.0, 10.0, 12)
    y = 2.0 * t**0.25
    text = emit_plot((t, y), [("bound", t, 3.0 * t**0.25)], logx=True,
                     logy=True, fit=(t, y), **_LABELS)
    assert text.count('class="fit"') == 1
    assert text.count('class="envelope"') == 1
    assert text.count('class="data"') == len(t)
    assert text.startswith("<svg") and text.endswith("</svg>\n")


def test_emit_plot_single_point_linear():
    text = emit_plot((np.array([1.0]), np.array([2.0])), [], logy=False,
                     **_LABELS)
    assert text.count('class="data"') == 1


def test_emit_plot_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="sample 1"):
        emit_plot((np.array([1.0, -2.0]), np.array([1.0, 1.0])), [],
                  logx=True, logy=False, **_LABELS)


def test_emit_plot_empty_series():
    with pytest.raises(ValueError, match="empty"):
        emit_plot((np.array([]), np.array([])), [], logy=False, **_LABELS)
