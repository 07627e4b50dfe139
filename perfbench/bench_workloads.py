"""The benchmark's workloads: seeded inputs, verified cases, output digests.

Each workload is a single-process closed loop with one caller: its cases
run back to back, and each case is one experiment verified by its own
gate.  pflab is driven from outside, through the entry points the CLI
and the acceptance suite use, with the pinned acceptance configs scaled
down as stated below.  pflab is imported inside :func:`build_cases`, so
that its import counts as set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random

# why each exists: BENCHMARK.json and README.md
WORKLOADS = ("halfspace-explicit-1d", "barenblatt-implicit-2d", "fluid-tg-2d")

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("err_rel", "1"))

# The seed shifts the box of a grid workload by this fraction of a cell:
# the work stays the same and the bits change.  The profile height is not
# seeded: with height_c = 1.1 the half-space box trips the boundary
# sentinel at t ~ 8.6.
SHIFT_CELLS = (-0.5, 0.5)
# ... and draws the weak-residual test-field seed from this range.
FIELD_SEED_RANGE = (0, 2**31 - 1)


@dataclasses.dataclass
class Case:
    """One verified experiment: its config and the directory it writes."""

    name: str
    cfg: object
    outdir: str


@dataclasses.dataclass
class Outcome:
    """What a case returned: its report, or the failure it raised."""

    case: Case
    report: dict | None
    error: str | None


def seeded_inputs(seed: int) -> dict:
    """The inputs a seed selects: the same seed gives the same inputs."""
    rng = random.Random(seed)
    return {"shift_cells": rng.uniform(*SHIFT_CELLS),
            "field_seed": rng.randint(*FIELD_SEED_RANGE)}


def _shifted_bounds(lo: float, hi: float, cells: int, shift_cells: float) -> str:
    d = (hi - lo) / cells * shift_cells
    return f"{lo + d!r}:{hi + d!r}"


def _accept_cfg(name: str, **overrides):
    from importlib import resources

    from pflab.config import parse_config

    text = resources.files("pflab.configs.accept").joinpath(name).read_text()
    return parse_config(text, {k: str(v) for k, v in overrides.items()})


def build_cases(workload: str, seed: int, workdir: str) -> list[Case]:
    """Import pflab and build the workload's configs from the seed."""
    import pflab.experiments  # noqa: F401  (all of pflab, numpy and scipy)

    inputs = seeded_inputs(seed)
    shift = inputs["shift_cells"]

    def out(name):
        return os.path.join(workdir, name)

    if workload == "halfspace-explicit-1d":
        common = dict(cells=2048, bounds=_shifted_bounds(-7.8, 7.5, 2048, shift))
        return [
            Case("halfspace-fsp", _accept_cfg(
                "c04_halfspace_envelopes.cfg", outdir=out("c04"), **common),
                out("c04")),
            Case("energy-ledger", _accept_cfg(
                "c11_energy_ledger.cfg", outdir=out("c11"),
                refine_check="false", **common), out("c11")),
        ]
    if workload == "barenblatt-implicit-2d":
        return [Case("front-fit-2d", _accept_cfg(
            "c02_front_exponent_2d.cfg", outdir=out("c02"), cells=256,
            t_end=10.0, bounds=_shifted_bounds(-6.0, 6.0, 256, shift)),
            out("c02"))]
    if workload == "fluid-tg-2d":
        return [
            Case("taylor-green", _accept_cfg(
                "c06_taylor_green.cfg", outdir=out("c06"), t_end=0.2),
                out("c06")),
            Case("weak-residual", _accept_cfg(
                "c07_weak_residual.cfg", outdir=out("c07"), t_end=0.25,
                seed=inputs["field_seed"]), out("c07")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_cases(workload: str, cases: list[Case]) -> list[Outcome]:
    """Run every case of one workload pass, catching gate and numerical
    failures; the caller times this call."""
    from pflab import experiments
    from pflab.errors import NumericalError, VerificationError

    def attempt(case, fn):
        try:
            return Outcome(case, fn(), None)
        except VerificationError as exc:
            return Outcome(case, getattr(exc, "report", None), str(exc))
        except NumericalError as exc:
            return Outcome(case, None, f"numerical failure: {exc}")

    if workload != "halfspace-explicit-1d":
        return [attempt(c, lambda c=c: experiments.run_experiment(c.cfg, c.outdir))
                for c in cases]
    # the way the acceptance suite runs criteria 4/5 and 11/12: one
    # trajectory, shared by both runners
    fsp, ledger = cases
    try:
        prebuilt = experiments.halfspace_run(fsp.cfg)
    except NumericalError as exc:
        return [Outcome(c, None, f"numerical failure: {exc}") for c in cases]
    return [
        attempt(fsp, lambda: experiments.run_halfspace_fsp(
            fsp.cfg, fsp.outdir, prebuilt=prebuilt)),
        attempt(ledger, lambda: experiments.run_energy_ledger(
            ledger.cfg, ledger.outdir, prebuilt=prebuilt)),
    ]


def front_slope(p: float, n: int) -> float:
    """Closed-form support growth exponent 1/(p + N(p-2))."""
    return 1.0 / (p + n * (p - 2.0))


def err_rel(workload: str, outcomes: list[Outcome]) -> float | None:
    """Relative deviation of the workload's headline output from its
    closed form; None when the headline case produced no report."""
    first = outcomes[0]
    rep, cfg = first.report, first.case.cfg
    if rep is None:
        return None
    if workload == "fluid-tg-2d":
        expected = 2.0 * cfg["mu1"]
        return abs(rep["ke_decay_rate"] - expected) / expected
    if "fitted_slope" not in rep:
        return None
    expected = front_slope(cfg["p"], cfg["dimension"])
    return abs(rep["fitted_slope"] - expected) / expected


_KEY_OUTPUTS = {
    "halfspace-fsp": ("fitted_slope", "envelope_l2.max_ratio",
                      "envelope_l1.max_ratio", "l1_max_over_initial"),
    "energy-ledger": ("front_at_T", "iteration_predicted_vanishing",
                      "ctilde_calibrated", "local_ratio_max"),
    "front-fit-2d": ("fitted_slope", "relative_error"),
    "taylor-green": ("ke_decay_rate", "relative_error", "max_divergence"),
    "weak-residual": ("median_order", "min_order"),
}


def key_outputs(outcome: Outcome) -> dict:
    """The case's headline numbers (slopes, orders, rates, envelope ratios)."""
    out = {}
    for key in _KEY_OUTPUTS[outcome.case.name]:
        val = outcome.report or {}
        for part in key.split("."):
            val = val.get(part) if isinstance(val, dict) else None
        out[key] = val
    return out


def digest(outdir: str) -> str:
    """SHA-256 over ``report.txt`` and the data CSVs of a case.

    The manifest is left out: its ``run_stamp`` line varies by design.
    """
    sha = hashlib.sha256()
    names = sorted(n for n in os.listdir(outdir)
                   if n == "report.txt" or n.endswith(".csv"))
    for name in names:
        sha.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            sha.update(fh.read())
        sha.update(b"\0")
    return sha.hexdigest()


def source_digest(package_dir: str) -> str:
    """SHA-256 of pflab's sources and of this file, which makes the inputs."""
    sha = hashlib.sha256()
    paths = []
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(root, f) for f in files
                  if f.endswith((".py", ".cfg"))]
    for path in sorted(paths) + [os.path.abspath(__file__)]:
        sha.update(os.path.relpath(path, package_dir).encode() + b"\0")
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()
