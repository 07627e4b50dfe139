"""Experiment orchestration: one runner per experiment kind, one dispatcher.

The config's ``experiment`` names the kind, and the kind alone decides
what a run does: each kind has one runner in ``_RUNNERS``, no runner
hands its run to another, and every report's ``kind`` is its config's
``experiment``.  Each runner reads a validated
:class:`~pflab.config.ExperimentConfig` holding the keys its kind reads
and no other (``config.KIND_KEYS``), so that ``manifest.txt`` echoes
just those; writes nothing; and returns ``(report, gates, files)``: the
report as a dict, each gate's name mapped to ``(ok, message)``, and each
data file's name (CSV or SVG) mapped to its text.  :func:`run_experiment`
dispatches on the kind and owns everything else: it judges the gates,
appends the verdict ``passed`` to the report, makes the output
directory, writes the data files, ``report.txt`` and ``manifest.txt``
(status ``ok`` or ``failed``) into it through one writer, which no
other code has, and raises :class:`~pflab.errors.VerificationError`
carrying the report and the failed gates' names when a gate failed.  A
runner that raises (a :class:`~pflab.errors.ConfigError`, or a
:class:`~pflab.errors.NumericalError` on NaN, blow-up or the boundary
sentinel) leaves the ``failed`` manifest and no data file.  Runs are
deterministic for a fixed config and seed; only the ``run_stamp``
manifest line varies.
"""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone

import numpy as np
import scipy  # the bare package, for the manifest's version line

from . import __version__, energetics, fronts
from .config import ExperimentConfig, default_config
from .core import (DIRICHLET, PERIODIC, GridSpec, ModelParams, ScalarField,
                   divergence, lp_norm)
from .errors import ConfigError, VerificationError
from .exact import (BarenblattParams, barenblatt_field, halfspace_initial_data,
                    taylor_green_field)
from .fluid2d import (fluid_snapshots, kinetic_energy, random_stream_coeffs,
                      stream_field, weak_residual)
from .inequalities import (check_stampacchia_relation, concave_majorant_family,
                           gn_ratio, stampacchia_vanishing_point)
from .plaplace import SolverConfig, normalize_schedule, simulate, snapshots
from .svgplot import emit_heatmap, emit_plot

# the front threshold of the scalar runs, over max|u0|
_THRESHOLD_FRAC = 1e-6
# the relative excess of a front over its calibrated envelope allowed,
# and the time the half-space run calibrates its envelopes at
_TOL_ENV = 0.02
_T_REF = 0.1


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _grid(cfg: ExperimentConfig) -> GridSpec:
    """The scalar runs' dirichlet-zero box; the boundary sentinel stops a
    run before its support nears an edge, so the box stands in for the
    whole space."""
    dim = cfg["dimension"]
    cells = cfg["cells"]
    if len(cells) == 1 and dim == 2:
        cells = cells * 2
    bounds = cfg["bounds"]
    if len(bounds) == 1 and dim == 2:
        bounds = bounds * 2
    lower = tuple(b[0] for b in bounds)
    upper = tuple(b[1] for b in bounds)
    return GridSpec(lower, upper, tuple(cells), (DIRICHLET,) * dim)


def _model(cfg: ExperimentConfig) -> ModelParams:
    return ModelParams(cfg["p"], cfg["mu1"])


def _require_data(u0: ScalarField) -> ScalarField:
    """``u0``, unless it vanishes on every node: then the box misses the
    data or the grid is too coarse to see it, and no front exists."""
    if not np.any(u0.values):
        raise ConfigError([(None, "cells, bounds: the initial data vanish on "
                                  "every node of the grid; widen the box "
                                  "over the data or refine the grid")])
    return u0


def _log_times(t_start: float, t_end: float, per_decade: int) -> np.ndarray:
    """Logarithmically spaced absolute times from t_start to t_end."""
    decades = np.log10(t_end / t_start)
    n = max(2, int(np.ceil(decades * per_decade)) + 1)
    return np.logspace(np.log10(t_start), np.log10(t_end), n)


def _write_files(outdir: str, files: dict) -> None:
    """The one writer: each file of ``files``, name to text, into
    ``outdir``."""
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)


def _csv(header: str, rows) -> str:
    """CSV text: the ``header`` line(s), then one line per row, a float
    cell to 17 significant digits and any other cell as it prints."""
    lines = [header] + [",".join(format(v, ".17g") if isinstance(v, float)
                                 else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _trace_csv(trace: fronts.SupportTrace) -> str:
    """A front trace, an empty support as an empty cell."""
    return _csv(f"# tau={trace.tau:.17g}\nt,front",
                ((t, "" if np.isnan(f) else f)
                 for t, f in zip(trace.times, trace.fronts)))


def _ledger_csv(ledger: energetics.EnergyLedger) -> str:
    """A tail-energy ledger, headed by its horizon, constant and
    exponents."""
    ex = energetics.ScalingExponents(ledger.p, ledger.n)
    return _csv(f"# T={ledger.T:.17g} p={ledger.p:.17g} N={ledger.n} "
                f"ctilde={ledger.ctilde:.17g}\n"
                f"# alpha1={ex.alpha1:.17g} beta1={ex.beta1:.17g} "
                f"alpha2={ex.alpha2:.17g} beta2={ex.beta2:.17g} "
                f"beta={ex.beta:.17g}\ns,A,B,C,J,L",
                zip(ledger.s, ledger.A, ledger.B, ledger.C, ledger.J, ledger.L))


def _flatten(report: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in report.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        elif isinstance(val, (list, tuple)) and len(val) > 6:
            out[name] = f"[{len(val)} entries]"
        else:
            out[name] = val
    return out


def write_manifest(outdir: str, cfg: ExperimentConfig, elapsed: float,
                   status: str) -> None:
    lines = [f"{k} = {_fmt_value(v)}" for k, v in sorted(cfg.values.items())]
    lines.append(f"version.pflab = {__version__}")
    lines.append(f"version.numpy = {np.__version__}")
    lines.append(f"version.scipy = {scipy.__version__}")
    lines.append(f"status = {status}")
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines.append(f"run_stamp = {stamp} wall_seconds={elapsed:.3f}")
    _write_files(outdir, {"manifest.txt": "\n".join(lines) + "\n"})


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in v)
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# barenblatt-fit and barenblatt-accuracy-study
# ---------------------------------------------------------------------------


def _study_data(cfg: ExperimentConfig, cells: int) -> tuple:
    """The closed form's parameters and its data at ``t0`` on the study's
    grid of ``cells`` cells."""
    bp = BarenblattParams(cfg["p"], 1, cfg["height_c"], cfg["mu1"])
    lo, hi = cfg["bounds"][0]
    return bp, barenblatt_field(bp, GridSpec.line(lo, hi, cells), cfg["t0"])


def _study_grid(cfg: ExperimentConfig, cells: int) -> tuple:
    """One grid of the accuracy study: ``(cells, h, L1 error, relative
    L1 error)`` of the explicit solution at ``t_end``."""
    bp, u0 = _study_data(cfg, cells)
    grid, t0, t1 = u0.grid, cfg["t0"], cfg["t_end"]
    traj = simulate(u0, SolverConfig(_model(cfg), "explicit"), t1 - t0,
                    [0.0, t1 - t0])
    exact = barenblatt_field(bp, grid, t1)
    err = float(np.sum(np.abs(traj.fields[-1].values - exact.values))
                * grid.spacing[0])
    return cells, grid.spacing[0], err, err / lp_norm(exact, 1.0)


# the least empirical L1-error order, per halving of h, between successive
# grids of the study
_ORDER_MIN = 0.8


def _barenblatt_accuracy_study(cfg: ExperimentConfig):
    """Explicit-solver accuracy study against the closed form, on the 1-D
    grids of ``cells`` from ``t0`` to ``t_end``; each order is per halving
    of h, so the grids may come in any order.

    Each grid's data is checked here, before any worker starts.  The
    grids are independent, so they run side by side in up to two worker
    processes, the finest first; results are read in grid order.
    Workers are spawned, not forked: the caller may hold BLAS threads.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    t0, t1 = cfg["t0"], cfg["t_end"]
    cells_list = cfg["cells"]
    for cells in cells_list:
        _require_data(_study_data(cfg, cells)[1])
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), mp_context=spawn) as pool:
        futures = {cells: pool.submit(_study_grid, cfg, cells)
                   for cells in sorted(cells_list, reverse=True)}
        errs = [futures[cells].result() for cells in cells_list]
    orders = [float(np.log2(e[3] / f[3]) / np.log2(f[0] / e[0]))
              for e, f in zip(errs, errs[1:])]
    report = {
        "kind": "barenblatt-accuracy-study",
        "t0": t0,
        "t1": t1,
        "rel_l1_errors": [e[3] for e in errs],
        "orders": orders,
        "order_min_required": _ORDER_MIN,
    }
    return report, {"order": (all(o >= _ORDER_MIN for o in orders),
                              f"empirical order(s) {orders} below required "
                              f"{_ORDER_MIN}")}, {
        "study.csv": _csv("cells,h,l1_err,rel_l1_err", errs)}


def _barenblatt_fit(cfg: ExperimentConfig):
    """The front exponent over a long horizon: the proximal stepper, which
    has no CFL limit."""
    p, n, mu1 = cfg["p"], cfg["dimension"], cfg["mu1"]
    bp = BarenblattParams(p, n, cfg["height_c"], mu1)
    t0, t_end = cfg["t0"], cfg["t_end"]
    u0 = _require_data(barenblatt_field(bp, _grid(cfg), t0))
    per_decade = cfg["snapshots_per_decade"]
    schedule = _log_times(t0, t_end, per_decade) - t0
    sparse = (f"t0, t_end, snapshots_per_decade: the log schedule from t0 = "
              f"{t0:g} to t_end = {t_end:g} at {per_decade} a decade takes "
              f"{len(schedule)} snapshots, and the front fit")
    if len(schedule) < fronts.MIN_FIT_SAMPLES:  # no run could be fitted
        raise ConfigError([(None, f"{sparse} needs {fronts.MIN_FIT_SAMPLES}; "
                                  "raise snapshots_per_decade or t_end")])
    scfg = SolverConfig(_model(cfg), "implicit", tol=cfg["tol_inner"])
    stream = snapshots(u0, scfg, t_end - t0, schedule)
    scale = float(np.max(np.abs(u0.values)))
    tau = _THRESHOLD_FRAC * scale
    fracs = (1e-8, 1e-4)  # the thresholds the slope's sensitivity is read at
    trace, *others = fronts.trace_support(
        stream, (tau,) + tuple(frac * scale for frac in fracs), "radial",
        t_offset=t0)
    try:  # fails when too few snapshots hold a front
        fit = fronts.fit_exponent(trace)
        sensitivity = {}
        for frac, tr in zip(fracs, others):
            sensitivity[f"slope_at_frac_{frac:g}"] = fronts.fit_exponent(tr).slope
    except ValueError as exc:
        raise ConfigError([(None, f"{sparse} failed: {exc}")]) from exc
    expected = bp.beta
    env_reports = {}
    for env in ("l1", "l2"):
        try:
            rep = fronts.check_envelope(trace, env, p, n, t_ref=t0,
                                        tol_env=_TOL_ENV)
            env_reports[env] = {"c": rep.c, "violations": len(rep.violations),
                                "max_ratio": rep.max_ratio}
        except ValueError as exc:  # outside the envelope's validity range
            env_reports[env] = {"skipped": str(exc)}
    ok = trace.present & (trace.fronts > 0)
    ts = trace.times[ok]
    line_y = np.exp(fit.intercept) * ts**fit.slope
    curves = []
    for env, rep in env_reports.items():
        if "c" in rep:
            fn = fronts.support_envelope_l1 if env == "l1" else fronts.support_envelope_l2
            curves.append((env, ts, fn(p, n, ts, rep["c"])))
    files = {"trace.csv": _trace_csv(trace),
             "fit.svg": emit_plot((ts, trace.fronts[ok]), curves, logx=True,
                                  logy=True, fit=(ts, line_y),
                                  title="support front", xlabel="t",
                                  ylabel="front")}
    err_rel = abs(fit.slope - expected) / expected
    report = {
        "kind": "barenblatt-fit",
        "p": p, "dimension": n,
        "tau": tau,
        "fitted_slope": fit.slope,
        "expected_slope": expected,
        "relative_error": err_rel,
        "tolerance": cfg["exponent_tol"],
        "fit_window": fit.window,
        "fit_residual_rms": fit.residual_rms,
        "threshold_sensitivity": sensitivity,
        "envelopes": env_reports,
    }
    return report, {"exponent": (err_rel <= cfg["exponent_tol"],
                                 f"fitted exponent {fit.slope:.5f} deviates "
                                 f"from {expected:.5f} by {err_rel:.2%} > "
                                 f"{cfg['exponent_tol']:.2%}")}, files


# ---------------------------------------------------------------------------
# halfspace-fsp (and the trajectory builder shared with energy-ledger)
# ---------------------------------------------------------------------------


def halfspace_run(cfg: ExperimentConfig):
    """Build and run the half-space supported data; returns
    (trajectory, tau, L1 series).  A sharp-front study: the explicit
    stepper keeps exact zeros and grows the support by at most one cell
    a step."""
    p, n, mu1 = cfg["p"], cfg["dimension"], cfg["mu1"]
    bp = BarenblattParams(p, n, cfg["height_c"], mu1)
    u0 = _require_data(halfspace_initial_data(bp, _grid(cfg), cfg["t0"]))
    t_end = cfg["t_end"]
    t_first = min(_T_REF / 4.0, t_end / 100.0)
    schedule = np.concatenate([[0.0], _log_times(t_first, t_end,
                                                 cfg["snapshots_per_decade"])])
    traj = simulate(u0, SolverConfig(_model(cfg), "explicit"), t_end, schedule)
    tau = _THRESHOLD_FRAC * float(np.max(np.abs(u0.values)))
    l1 = np.array([lp_norm(f, 1.0) for f in traj.fields])
    return traj, tau, l1


def _l1_audit(l1: np.ndarray) -> tuple[float, bool]:
    """A run's largest L1 norm over its initial one, and whether the
    hypothesis of the L1-data estimates holds: the norm does not grow."""
    ratio = float(l1.max() / l1[0]) if l1[0] > 0 else 1.0
    return ratio, ratio <= 1.0 + 1e-6


def _stable_under_refinement(fine: float, coarse: float) -> bool:
    """Whether a measured constant grew by at most 1.5x when the grid was
    halved: a constant of the continuum estimate must stay bounded."""
    return bool(fine <= max(1.5 * coarse, 1e-300))


def _halfspace_fsp(cfg: ExperimentConfig, prebuilt=None):
    p, n = cfg["p"], cfg["dimension"]
    traj, tau, l1 = prebuilt if prebuilt is not None else halfspace_run(cfg)
    (trace,) = fronts.trace_support(traj, (tau,), "halfspace")
    files = {"trace.csv": _trace_csv(trace)}
    l1_ratio, l1_ok = _l1_audit(l1)
    report = {
        "kind": "halfspace-fsp",
        "p": p, "dimension": n, "tau": tau,
        "t_ref": _T_REF, "tol_env": _TOL_ENV,
        "l1_max_over_initial": l1_ratio,
        "l1_hypothesis_ok": l1_ok,
    }
    gates = {"l1_hypothesis": (l1_ok, f"L1 norm grew by {l1_ratio - 1:.3e}: "
                                      "hypothesis of the L1-data envelope "
                                      "violated")}
    curves = []
    ok = trace.present & (trace.times > 0) & (trace.fronts > 0)
    ts = trace.times[ok]
    for env in ("l2", "l1"):
        if env == "l1" and not l1_ok:
            return report, gates, files
        try:  # fails when no snapshot lies near t_ref
            rep = fronts.check_envelope(trace, env, p, n, _T_REF, _TOL_ENV)
        except ValueError as exc:
            raise ConfigError([(None, (
                f"t_end, snapshots_per_decade: the {env} envelope calibration "
                f"on the log schedule to t_end = {cfg['t_end']:g} at "
                f"{cfg['snapshots_per_decade']} a decade failed: {exc}"))]) from exc
        summary = {"c": rep.c, "violations": len(rep.violations),
                   "max_ratio": rep.max_ratio, "passed": rep.passed}
        report[f"envelope_{env}"] = summary
        gates[f"envelope_{env}"] = (rep.passed,
                                    f"envelope violations: {({env: summary})}")
        fn = fronts.support_envelope_l1 if env == "l1" else fronts.support_envelope_l2
        sel = ts >= rep.t_ref
        curves.append((env, ts[sel], fn(p, n, ts[sel], rep.c)))
    try:
        fit = fronts.fit_exponent(trace)
        report["fitted_slope"] = fit.slope
    except ValueError:
        pass
    if len(ts):  # emit_plot rejects an empty series
        files["envelopes.svg"] = emit_plot(
            (ts, trace.fronts[ok]), curves, logx=True, logy=True,
            title="half-space front vs envelopes", xlabel="t", ylabel="front")
    return report, gates, files


def run_halfspace_fsp(cfg: ExperimentConfig, outdir: str, prebuilt) -> dict:
    """:func:`run_experiment` under the name the benchmark calls and traces."""
    return run_experiment(cfg, outdir, prebuilt)


# ---------------------------------------------------------------------------
# fluid experiments
# ---------------------------------------------------------------------------


# the number of random divergence-free test fields of the weak-form study
_WEAK_FIELDS = 20


def _weak_residual_study(cfg: ExperimentConfig):
    mu1 = cfg["mu1"]
    base_cells = cfg["cells"][0]
    t_end = cfg["t_end"]
    h_base = 2 * np.pi / base_cells
    # explicit diffusion: the step refines parabolically (dt ~ h^2)
    dt0 = 0.08 * h_base**2
    rng = np.random.default_rng(cfg["seed"])
    coeff_sets = [random_stream_coeffs(rng) for _ in range(_WEAK_FIELDS)]
    resids = []
    for level, (cells, dt) in enumerate(((base_cells, dt0), (2 * base_cells, dt0 / 4))):
        grid = GridSpec.box((0.0, 0.0), (2 * np.pi, 2 * np.pi), cells, PERIODIC)
        n_snap = 40 * (level + 1) + 1
        times = np.linspace(0.0, t_end, n_snap)
        merged = len(normalize_schedule(times, t_end))
        if merged < 3:  # the base level, with the fewest times, stops first
            raise ConfigError([(None, f"t_end: the weak residual's {n_snap} "
                                      f"times to t_end = {t_end:g} merge to "
                                      f"{merged}, and its centered time "
                                      "differences need 3")])
        snapshots = fluid_snapshots(taylor_green_field(grid, mu1, 0.0),
                                    _model(cfg), t_end, times, dt_fixed=dt)
        # read after the last snapshot, one field at a time, on this level's grid
        phis = (stream_field(grid, coeffs) for coeffs in coeff_sets)
        resids.append(weak_residual(snapshots, phis, _model(cfg)))
    orders = np.log2(resids[0] / resids[1])
    report = {
        "kind": "weak-residual-study",
        "fields": _WEAK_FIELDS,
        "median_order": float(np.median(orders)),
        "min_order": float(np.min(orders)),
        "all_decreased": bool(np.all(resids[1] < resids[0])),
    }
    return report, {"order": (
        report["median_order"] >= 1.0 and report["all_decreased"],
        f"weak-form residual refinement order {report['median_order']:.3f} < 1 "
        "or residuals did not all decrease")}, {
        "residuals.csv": _csv("field_id,residual_base,residual_refined,order",
                              zip(range(len(orders)), *resids, orders))}


# the Taylor-Green gates: the relative error of the fitted kinetic-energy
# decay rate, and the largest divergence of a snapshot; and its number of
# uniformly spaced snapshots
_KE_RATE_TOL = 0.02
_DIV_TOL = 1e-10
_TG_SNAPSHOTS = 101


def _fluid_taylor_green(cfg: ExperimentConfig):
    mu1 = cfg["mu1"]
    # the linear stress: the closed-form decay rate 2*mu1 holds at p = 2 alone
    model = ModelParams(2.0, mu1)
    cells = cfg["cells"][0]
    grid = GridSpec.box((0.0, 0.0), (2 * np.pi, 2 * np.pi), cells, PERIODIC)
    t_end = cfg["t_end"]
    # each snapshot is read once as it arrives; the last one is kept for
    # the heat map
    times, ke, divs = [], [], []
    for t, final in fluid_snapshots(taylor_green_field(grid, mu1, 0.0), model,
                                    t_end, np.linspace(0.0, t_end, _TG_SNAPSHOTS)):
        times.append(t)
        ke.append(kinetic_energy(final))
        divs.append(float(np.max(np.abs(divergence(final).values))))
    times, ke, div_max = np.array(times), np.array(ke), max(divs)
    rate = -float(np.polyfit(times, np.log(ke), 1)[0])
    expected = 2.0 * mu1
    err_rel = abs(rate - expected) / expected
    ke_monotone = bool(np.all(np.diff(ke) <= 1e-8 * ke[:-1]))
    files = {
        "kinetic_energy.csv": _csv("t,ke", zip(times, ke)),
        "ke.svg": emit_plot((times, ke), [], logy=True,
                            fit=(times, ke[0] * np.exp(-rate * times)),
                            title="kinetic energy decay", xlabel="t",
                            ylabel="KE"),
        "speed_final.svg": emit_heatmap(final.magnitude(),
                                        title=f"|u| at t = {times[-1]:.3g}"),
    }
    report = {
        "kind": "fluid2d-taylor-green",
        "cells": cells, "mu1": mu1, "p": model.p,
        "ke_decay_rate": rate,
        "expected_rate": expected,
        "relative_error": err_rel,
        "rate_tolerance": _KE_RATE_TOL,
        "max_divergence": div_max,
        "div_tolerance": _DIV_TOL,
        "ke_monotone": ke_monotone,
    }
    return report, {
        "decay_rate": (err_rel <= _KE_RATE_TOL,
                       f"Taylor-Green rate err {err_rel:.3%} "
                       f"(tol {_KE_RATE_TOL:.1%})"),
        "divergence": (div_max <= _DIV_TOL,
                       f"Taylor-Green max div {div_max:.2e} "
                       f"(tol {_DIV_TOL:.1e})"),
        "ke_monotone": (ke_monotone, "Taylor-Green KE not monotone"),
    }, files


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------


def _run_constants(tails, p, mu1, s_grid, deltas, s_decay):
    """One run's decay constant over ``s_decay``; the rows ``(s, delta,
    lhs, rhs, ratio)`` of the local energy estimate at every eighth ``s``
    of ``s_grid`` and every ``delta``; and their largest finite ratio."""
    cuts, dels = (x.ravel() for x in np.meshgrid(
        s_grid[:: max(1, len(s_grid) // 8)], deltas, indexing="ij"))
    lhs, rhs, ratio = energetics.local_energy_ratio(tails, cuts, dels, mu1, p)
    rows = [tuple(map(float, r)) for r in zip(cuts, dels, lhs, rhs, ratio)]
    local_max = max((r[4] for r in rows if np.isfinite(r[4])), default=0.0)
    return energetics.check_decay(tails, p, s_decay), rows, local_max


# the ledger's s-grid size, its number of local-energy deltas, and the
# contraction factor eps of the iteration relation J(s + J(s)) <= eps J(s)
_S_COUNT = 33
_DELTA_COUNT = 8
_EPS_ITER = 0.5


def _energy_ledger(cfg: ExperimentConfig, prebuilt=None):
    p, n, mu1 = cfg["p"], cfg["dimension"], cfg["mu1"]
    if cfg["t_end"] < _T_REF:  # as halfspace-fsp, whose envelopes start there
        raise ConfigError([(None, (
            f"t_end: the energy ledger needs a run to t_ref = {_T_REF:g} at "
            f"least; a horizon of {cfg['t_end']:g} leaves the initial data "
            "as they were and tests nothing"))])
    traj, tau, l1 = prebuilt if prebuilt is not None else halfspace_run(cfg)
    grid = traj.grid
    h = grid.spacing[-1]
    tails = energetics.TrajectoryTails(traj)
    front_T = fronts.support_front(traj.fields[-1], tau, "halfspace")
    gates = {"support": (front_T is not None,
                         "final snapshot has empty support")}
    if front_T is None:
        return {"kind": "energy-ledger"}, gates, {}
    # true nonzero-support edge (denormal dust counts; a thresholded front
    # has a skirt below it), never empty since |u| > tau > 0 somewhere
    from .plaplace import _support_bounds

    nz = _support_bounds(traj.fields[-1].values, 0.0)
    front_exact = float(grid.coords(grid.dim - 1)[nz[-1][1]])
    s_max = front_exact + 8 * h
    s_grid = np.linspace(0.0, s_max, _S_COUNT)
    deltas = np.linspace(2 * h, max(4 * h, s_max / 3.0), _DELTA_COUNT)

    # the tails A, B, C and L over the s-grid, summed once; the
    # calibrations below only rescale J by a constant
    ledger = energetics.build_ledger(tails, p, s_grid, mu1)

    # calibrate the constant of the combined-energy relation; pairs with
    # C below a relative floor are edge dust (both sides vanish at
    # different polynomial orders there) and are excluded
    ex = energetics.ScalingExponents(p, n)
    c_vals = ledger.C
    c_interp = lambda x: np.interp(x, s_grid, c_vals)
    f_t = ex.F(tails.T)
    c_floor = 1e-10 * float(c_vals.max())
    ctilde_cal = 0.0
    for delta in deltas:
        den = f_t * (delta ** (-p * ex.beta) * c_vals ** (1.0 + ex.beta1)
                     + delta ** (-ex.beta) * c_vals ** (1.0 + ex.beta2))
        num = c_interp(s_grid + delta)
        mask = (den > 0) & (c_vals >= c_floor)
        if mask.any():
            ctilde_cal = max(ctilde_cal, float(np.max(num[mask] / den[mask])))
    ctilde = ctilde_cal if ctilde_cal > 0 else 1.0

    # the iteration mechanism needs the jump function built with a large
    # enough constant; calibrate the minimal one for which the relation
    # J(s + J(s)) <= eps J(s) holds across the whole s-grid (the relation
    # is monotone in the constant, so bisection applies)
    def _relation_holds(ct: float) -> bool:
        return bool(energetics.check_iteration(ledger.with_ctilde(ct),
                                               _EPS_ITER).holds.all())

    ct_hi = max(ctilde, 1.0)
    for _ in range(60):
        if _relation_holds(ct_hi):
            break
        ct_hi *= 4.0
    ct_lo = ct_hi / 4.0
    if _relation_holds(ct_lo):
        ct_lo = 0.0
    for _ in range(40):
        mid = 0.5 * (ct_lo + ct_hi)
        if _relation_holds(mid):
            ct_hi = mid
        else:
            ct_lo = mid
    ctilde_iter = ct_hi

    ledger = ledger.with_ctilde(ctilde_iter)

    # local energy estimate: measured constant over the (s, delta) grid,
    # and the decay constant
    s_decay = s_grid[s_grid > 2 * h]
    decay, ratios, local_max = _run_constants(tails, p, mu1, s_grid, deltas,
                                              s_decay)
    any_inf = any(not np.isfinite(r[4]) for r in ratios)

    # support-zero audit beyond the *exact* numerical support edge (the
    # threshold front has a sub-threshold skirt; the explicit scheme keeps
    # exact zeros outside the true support)
    a_beyond, b_beyond = energetics._tail_energies(tails, p,
                                                   front_exact + 2 * h)

    it_rep = energetics.check_iteration(ledger, _EPS_ITER)
    l1_ratio, l1_ok = _l1_audit(l1)

    refinement = {}
    if cfg["refine_check"]:
        # the same run with only the grid halved
        cells = tuple(max(64, c // 2) for c in cfg["cells"])
        ccfg = default_config(cfg.kind, **{**cfg.values, "cells": cells})
        ctraj, _, cl1 = halfspace_run(ccfg)
        l1_ok = l1_ok and _l1_audit(cl1)[1]  # the coarse run rests on it too
        # the decay and local-energy constants' stability under it
        cdecay, _, local_coarse = _run_constants(
            energetics.TrajectoryTails(ctraj), p, mu1, s_grid, deltas, s_decay)
        refinement = {
            "decay_ctilde_coarse": cdecay,
            "decay_ctilde_fine": decay,
            "local_ratio_coarse": local_coarse,
            "local_ratio_fine": local_max,
            "decay_ok": _stable_under_refinement(decay, cdecay),
            "local_ok": _stable_under_refinement(local_max, local_coarse),
        }

    report = {
        "kind": "energy-ledger",
        "T": tails.T, "p": p, "dimension": n,
        "front_at_T": front_T,
        "front_exact_support": front_exact,
        "ctilde_relation": ctilde,
        "ctilde_calibrated": ctilde_iter,
        "local_ratio_max": local_max,
        "local_ratio_all_finite": not any_inf,
        "tail_beyond_front_A": a_beyond,
        "tail_beyond_front_B": b_beyond,
        "iteration_eps": _EPS_ITER,
        "iteration_s0": it_rep.s0,
        "iteration_predicted_vanishing": it_rep.predicted_vanishing,
        "iteration_tightest_point": it_rep.tightest_point,
        "iteration_vanished_beyond": it_rep.vanished_beyond,
        "iteration_covers_front": bool(
            it_rep.predicted_vanishing is not None
            and it_rep.predicted_vanishing >= front_T),
        "decay_ctilde": decay,
        "decay_l1_max_ratio": l1_ratio,
        "l1_hypothesis_ok": l1_ok,
        "refinement": refinement,
    }
    gates.update({
        "local_energy_finite": (not any_inf, "local-energy ratio not finite"),
        "tails_empty": (a_beyond == 0.0 and b_beyond == 0.0,
                        "tails beyond the front not empty"),
        "iteration": (it_rep.passed and report["iteration_covers_front"],
                      "iteration relation misses the front"),
        "l1_hypothesis": (l1_ok, "L1 norm grew: hypothesis of the L1-data "
                                 "estimates violated"),
        "decay_stable": (refinement.get("decay_ok", True),
                         "decay constant grew under refinement"),
        "local_energy_stable": (refinement.get("local_ok", True),
                                "local-energy constant grew under refinement"),
    })
    return report, gates, {"ledger.csv": _ledger_csv(ledger),
                           "local_energy.csv": _csv("s,delta,lhs,rhs,ratio",
                                                    ratios)}


def run_energy_ledger(cfg: ExperimentConfig, outdir: str, prebuilt) -> dict:
    """:func:`run_experiment` under the name the benchmark calls and traces."""
    return run_experiment(cfg, outdir, prebuilt)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# the number of seeded iteration-lemma cases
_A1_CASES = 200


def _stampacchia_suite(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for case in range(_A1_CASES):
        eps = float(rng.uniform(0.05, 0.9))
        fam = concave_majorant_family(rng, eps)
        s0 = float(fam.s[0])
        try:
            _, holds = check_stampacchia_relation(fam, s0, eps)
            point = stampacchia_vanishing_point(fam, s0, eps)
            # independent direct scan on a dense grid
            dense = np.linspace(fam.s[0], fam.s[-1] + 1.0, 4001)
            scan_ok = bool(np.all(fam(dense) * (dense >= point)
                                  <= 1e-12 * max(fam(s0), 1.0)))
            ok = bool(holds.all() and scan_ok)
            detail = f"eps={eps:.3f} point={point:.4f}"
        except ValueError as exc:
            ok, detail = False, f"eps={eps:.3f} error={exc}"
        rows.append((case, int(ok), detail))
    n_pass = sum(ok for _, ok, _ in rows)
    report = {"kind": "stampacchia-suite", "cases": _A1_CASES,
              "passed_cases": n_pass}
    return report, {"cases": (n_pass == _A1_CASES,
                              f"{_A1_CASES - n_pass} iteration-lemma cases "
                              "failed")}, {
        "cases.csv": _csv("case_id,passed,detail", rows)}


def _gaussian_field(grid: GridSpec, center, width) -> ScalarField:
    mesh = grid.mesh()
    s2 = np.zeros(grid.shape)
    for ax, m in enumerate(mesh):
        s2 = s2 + ((m - center[ax]) / width) ** 2
    return ScalarField(grid, np.exp(-0.5 * s2))


def _suite_grid(n: int, cells: int, lam: float = 1.0) -> GridSpec:
    """The interpolation suite's n-D box, dilated by ``lam``."""
    if n == 1:
        return GridSpec.line(-10.0 * lam, 10.0 * lam, cells)
    return GridSpec.box(-8.0 * lam, 8.0 * lam, cells)


# the interpolation suite's exponents (a, b, d) = (p, 1, p), its random
# bumps per dimension, its base grid and its dilation factors
_GN_P = 3.0
_BUMP_COUNT = 100
_GN_CELLS = 192
_LAMBDA_SET = (0.25, 4.0)


def _interpolation_suite(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg["seed"])
    a, b, d = _GN_P, 1.0, _GN_P
    rows = []
    for n in (1, 2):
        # random bump families on base and refined grids
        centers = rng.uniform(-2.0, 2.0, size=(_BUMP_COUNT, n))
        widths = rng.uniform(0.3, 1.5, size=_BUMP_COUNT)
        maxima = []
        for factor in (1, 2):
            grid = _suite_grid(n, _GN_CELLS * factor)
            vals = [gn_ratio(_gaussian_field(grid, c, w), a, b, d)
                    for c, w in zip(centers, widths)]
            maxima.append(max(vals))
        change = maxima[1] / maxima[0]
        ok = 0.5 <= change <= 2.0
        rows.append((f"stability_n{n}_a{a:g}", ok,
                     f"max_base={maxima[0]:.6g} max_fine={maxima[1]:.6g} "
                     f"change={change:.4f}"))
        # dilation consistency on a fixed reference bump
        ref_grid = _suite_grid(n, _GN_CELLS)
        ref = gn_ratio(_gaussian_field(ref_grid, (0.0,) * n, 1.0), a, b, d)
        for lam in _LAMBDA_SET:
            gl = _suite_grid(n, _GN_CELLS, lam)
            val = gn_ratio(_gaussian_field(gl, (0.0,) * n, lam), a, b, d)
            dev = abs(val / ref - 1.0)
            ok = dev <= 0.01
            rows.append((f"dilation_n{n}_a{a:g}_lam{lam:g}", ok,
                         f"ratio={val:.8g} ref={ref:.8g} dev={dev:.2e}"))
    bad = [r for r in rows if not r[1]]
    report = {"kind": "interpolation-suite", "cases": len(rows),
              "passed_cases": len(rows) - len(bad)}
    return report, {"cases": (not bad,
                              f"interpolation suite failures: {bad[:4]}")}, {
        "cases.csv": _csv("case_id,passed,detail",
                          ((c, int(ok), d) for c, ok, d in rows))}


# the largest residual of an exponent identity the identity suite accepts
_IDENTITY_TOL = 1e-12


def _exponent_identities(cfg: ExperimentConfig):
    rows = []
    for p in (2.1, 2.5, 3.0, 3.5, 4.0):
        for n in (1, 2):
            ex = energetics.ScalingExponents(p, n)
            res = ex.identity_residuals()
            worst = max(res.values())
            # small-time L2 exponent dominates the L1 one, strictly for p > 2
            e2 = fronts.envelope_exponents_l2(p, n)[0]
            e1 = fronts.envelope_exponents_l1(p, n)[0]
            order_ok = e2 > e1
            # the two-branch time factor is continuous across T = 1
            f_cont = abs(ex.F(1.0 + 1e-9) - ex.F(1.0 - 1e-9)) <= 1e-6
            ok = worst <= _IDENTITY_TOL and order_ok and f_cont
            # p as written, the checks as 1 or 0
            rows.append((str(p), n, worst, int(order_ok), int(f_cont), int(ok)))
    report = {"kind": "exponent-identities", "tolerance": _IDENTITY_TOL,
              "max_residual": max(r[2] for r in rows)}
    return report, {"identities": (all(r[5] for r in rows),
                                   f"identity residual "
                                   f"{report['max_residual']:.3e} exceeds "
                                   f"{_IDENTITY_TOL:.1e}")}, {
        "identities.csv": _csv(
            "p,N,max_residual,exponent_order_ok,F_continuous,passed", rows)}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "barenblatt-fit": _barenblatt_fit,
    "barenblatt-accuracy-study": _barenblatt_accuracy_study,
    "halfspace-fsp": _halfspace_fsp,
    "fluid2d-taylor-green": _fluid_taylor_green,
    "weak-residual-study": _weak_residual_study,
    "energy-ledger": _energy_ledger,
    "stampacchia-suite": _stampacchia_suite,
    "interpolation-suite": _interpolation_suite,
    "exponent-identities": _exponent_identities,
}


def run_experiment(cfg: ExperimentConfig, outdir: str | None = None,
                   prebuilt=None) -> dict:
    """Run one experiment and return its report.

    Judges the runner's gates once: the report gains ``passed`` as its
    last key, true when no gate failed.  Writes the runner's data files,
    then ``report.txt``, then ``manifest.txt``, and raises
    :class:`VerificationError` with the report and the failed gates'
    names, its message their messages joined by ``; ``, when a gate
    failed.  ``prebuilt`` hands the half-space kinds the
    :func:`halfspace_run` result to run on.  A runner that raises leaves
    a ``failed`` manifest and no data file, and its error propagates.
    """
    outdir = outdir or cfg["outdir"]
    os.makedirs(outdir, exist_ok=True)
    runner = _RUNNERS[cfg.kind]
    start = time.time()
    try:
        report, gates, files = (runner(cfg) if prebuilt is None
                                else runner(cfg, prebuilt))
    except Exception:
        write_manifest(outdir, cfg, time.time() - start, status="failed")
        raise
    failed = tuple(name for name, (ok, _) in gates.items() if not ok)
    report["passed"] = not failed
    files["report.txt"] = "".join(f"{key} = {val}\n"
                                  for key, val in _flatten(report).items())
    _write_files(outdir, files)
    write_manifest(outdir, cfg, time.time() - start,
                   status="failed" if failed else "ok")
    if failed:
        raise VerificationError("; ".join(gates[name][1] for name in failed),
                                report, failed)
    return report
