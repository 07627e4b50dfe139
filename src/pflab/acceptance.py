"""The acceptance suite: twelve gated criteria, one pass/fail line each.

Configurations are pinned in the committed files under
``configs/accept``, and every run goes through
:func:`~pflab.experiments.run_experiment`, which judges its gates.  A
criterion owns some of its run's gates, or all of them, and passes when
none of those failed, the run had no numerical failure, and it kept to
its budget.  Criteria 4/5 read one half-space run and criteria 11/12 one
tail-energy ledger, mirroring how they are phrased ("same run", "on that
run's ledger"); the two half-space kinds share one trajectory, built by
whichever runs first.  A run's time is charged to the first criterion
that reads it.
"""

from __future__ import annotations

import dataclasses
import os
import time
from importlib import resources

from .config import parse_config
from .errors import ConfigError, NumericalError, VerificationError
from .experiments import halfspace_run, run_experiment


@dataclasses.dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] criterion {self.number:2d}: {self.title} "
                f"({self.seconds:.1f}s / budget {self.budget_seconds:.0f}s) "
                f"- {self.detail}")


def _load_cfg(name: str, outdir: str):
    """The pinned config ``name``, writing into its criterion's folder
    under ``outdir`` (``c04`` for ``c04_*.cfg``)."""
    text = resources.files("pflab.configs.accept").joinpath(name).read_text()
    return parse_config(text, {"outdir": os.path.join(outdir, name[:3])})


def _attempt(fn):
    """Time a run; capture its report whether it passes or not, as
    ``(report, failed gate names, error, seconds)``.  A numerical failure
    has an error and no failed gate."""
    start = time.time()
    try:
        report, failed, error = fn(), (), None
    except VerificationError as exc:
        report, failed, error = exc.report, exc.failed, str(exc)
    except NumericalError as exc:
        report, failed, error = {}, (), f"numerical failure: {exc}"
    return report, failed, error, time.time() - start


class AcceptanceContext:
    """Runs each pinned config once, and the half-space trajectory once:
    a half-space run after the first inherits a numerical failure of
    that build."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self._trajectory = None  # or the NumericalError of its build
        self._runs = {}

    def _execute(self, cfg):
        if cfg.kind not in ("halfspace-fsp", "energy-ledger"):
            return run_experiment(cfg)
        if self._trajectory is None:
            try:
                self._trajectory = halfspace_run(cfg)
            except NumericalError as exc:
                self._trajectory = exc
        if isinstance(self._trajectory, NumericalError):
            raise self._trajectory
        return run_experiment(cfg, prebuilt=self._trajectory)

    def run(self, cfg_name: str):
        """The ``(report, failed, error, seconds)`` of the pinned config
        ``cfg_name``; only its first read carries the seconds."""
        if cfg_name in self._runs:
            return self._runs[cfg_name][:3] + (0.0,)
        cfg = _load_cfg(cfg_name, self.outdir)
        self._runs[cfg_name] = _attempt(lambda: self._execute(cfg))
        return self._runs[cfg_name]


def _envelope(r, env: str, key: str):
    return r.get(f"envelope_{env}", {}).get(key, float("nan"))


# the gates criteria 11 and 12 both rest on: a nonempty final support,
# the L1 hypothesis on every run, and a decay constant stable under
# refinement
_LEDGER_HYPOTHESES = frozenset({"support", "l1_hypothesis", "decay_stable"})

# number: (title, budget seconds, pinned config, the gates it owns or
# None for all of them, its detail from the run's report)
CRITERIA = {
    1: ("1-D front exponent 0.25 within 5%", 120,
        "c01_front_exponent_1d.cfg", None,
        lambda r: f"slope {r.get('fitted_slope', float('nan')):.5f} "
                  f"vs 0.25 ({r.get('relative_error', float('nan')):.2%} off)"),
    2: ("2-D radial front exponent 0.2 within 8%", 300,
        "c02_front_exponent_2d.cfg", None,
        lambda r: f"slope {r.get('fitted_slope', float('nan')):.5f} "
                  f"vs 0.2 ({r.get('relative_error', float('nan')):.2%} off)"),
    3: ("explicit accuracy order >= 0.8 over three grids", 180,
        "c03_solver_accuracy.cfg", None,
        lambda r: f"orders {[round(o, 3) for o in r.get('orders', [])]}"),
    4: ("half-space front under the L2-data envelope", 120,
        "c04_halfspace_envelopes.cfg", frozenset({"envelope_l2"}),
        lambda r: f"c={_envelope(r, 'l2', 'c'):.4f}, max front/envelope = "
                  f"{_envelope(r, 'l2', 'max_ratio'):.4f}, "
                  f"violations {_envelope(r, 'l2', 'violations')}"),
    5: ("L1 hypothesis audit + L1-data envelope", 120,
        "c04_halfspace_envelopes.cfg",
        frozenset({"l1_hypothesis", "envelope_l1"}),
        lambda r: f"L1 max ratio {r.get('l1_max_over_initial', float('nan')):.9f}, "
                  f"envelope c={_envelope(r, 'l1', 'c'):.4f}, "
                  f"max front/envelope = {_envelope(r, 'l1', 'max_ratio'):.4f}"),
    6: ("Taylor-Green KE decay rate 2*mu1 within 2%, div <= 1e-10", 180,
        "c06_taylor_green.cfg", None,
        lambda r: f"rate {r.get('ke_decay_rate', float('nan')):.5f}, "
                  f"max div {r.get('max_divergence', float('nan')):.2e}"),
    7: ("weak-form residual refinement order >= 1 (20 test fields)", 240,
        "c07_weak_residual.cfg", None,
        lambda r: f"median order {r.get('median_order', float('nan')):.3f}, "
                  f"min {r.get('min_order', float('nan')):.3f}"),
    8: ("exponent identities to 1e-12 over the (p, N) grid", 1,
        "c08_exponent_identities.cfg", None,
        lambda r: f"max residual {r.get('max_residual', float('nan')):.2e}"),
    9: ("iteration lemma: 200/200 seeded cases confirmed by scan", 5,
        "c09_stampacchia.cfg", None,
        lambda r: f"{r.get('passed_cases', 0)}/{r.get('cases', 0)} cases"),
    10: ("interpolation-constant stability + dilation consistency", 60,
         "c10_interpolation.cfg", None,
         lambda r: f"{r.get('passed_cases', 0)}/{r.get('cases', 0)} cases"),
    11: ("local energy estimate: finite stable constant, empty tails beyond "
         "the front", 180, "c11_energy_ledger.cfg",
         _LEDGER_HYPOTHESES | {"local_energy_finite", "tails_empty",
                               "local_energy_stable"},
         lambda r: f"max ratio {r.get('local_ratio_max', float('nan')):.3f} (coarse "
                   f"{r.get('refinement', {}).get('local_ratio_coarse', float('nan')):.3f}), "
                   f"tails beyond front A={r.get('tail_beyond_front_A')}, "
                   f"B={r.get('tail_beyond_front_B')}"),
    12: ("iteration mechanism covers the measured front", 60,
         "c11_energy_ledger.cfg", _LEDGER_HYPOTHESES | {"iteration"},
         lambda r: f"predicted vanishing {r.get('iteration_predicted_vanishing')}"
                   f" >= front {r.get('front_at_T')}"
                   f" (ctilde {r.get('ctilde_calibrated', float('nan')):.3g})"),
}


def criterion(ctx: AcceptanceContext, number: int) -> CriterionResult:
    """Criterion ``number``'s line: it passes when its run had no
    numerical failure, none of the gates it owns failed, and it kept to
    its budget."""
    title, budget, cfg_name, owned, detail_fn = CRITERIA[number]
    report, failed, error, seconds = ctx.run(cfg_name)
    judged = set(failed) if owned is None else owned.intersection(failed)
    numerical = error is not None and not failed
    passed = not numerical and not judged and seconds <= budget
    detail = detail_fn(report)
    if error and not passed:
        detail += f"; {error}"
    if seconds > budget:
        detail += f"; runtime {seconds:.0f}s exceeded budget"
    return CriterionResult(number, title, passed, detail, seconds, budget)


def run_acceptance(outdir: str, only: str | None) -> list:
    """Run all criteria, or those numbered in the comma-separated
    ``only``, printing one line per criterion."""
    numbers = sorted(CRITERIA)
    if only is not None:
        toks = [tok.strip() for tok in str(only).split(",")]
        if not all(tok.isdigit() and int(tok) in CRITERIA for tok in toks):
            raise ConfigError([(None, f"only: criteria are numbered "
                                      f"1-{len(CRITERIA)}, got {only!r}")])
        numbers = sorted({int(tok) for tok in toks})
    ctx = AcceptanceContext(outdir)
    results = []
    for number in numbers:
        result = criterion(ctx, number)
        print(result.line, flush=True)
        results.append(result)
    n_pass = sum(1 for r in results if r.passed)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed", flush=True)
    return results
