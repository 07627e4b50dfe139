"""The acceptance suite: twelve gated criteria, one pass/fail line each.

Configurations are pinned in the committed files under
``configs/accept``, and every criterion runs through
:func:`~pflab.experiments.run_experiment`.  Criteria 4/5 share one
half-space run and criteria 11/12 share its tail-energy ledger,
mirroring how they are phrased ("same run", "on that run's ledger"); the
shared build time is charged to the first criterion that needs it.
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
    """Time a gated run; capture its report and error whether it passes
    or not, as ``(report, error, seconds)``."""
    start = time.time()
    try:
        report, error = fn(), None
    except VerificationError as exc:
        report, error = exc.report, str(exc)
    except NumericalError as exc:
        report, error = {}, f"numerical failure: {exc}"
    return report, error, time.time() - start


class AcceptanceContext:
    """Builds the shared half-space trajectory once, and keeps the
    ``(report, error, seconds)`` of each run made on it."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self._trajectory = None
        self._runs = {}

    def halfspace(self):
        """Criterion 4's run: builds the trajectory and checks the
        envelopes on it; its seconds count both."""
        if "c04" not in self._runs:
            cfg = _load_cfg("c04_halfspace_envelopes.cfg", self.outdir)

            def build_and_run():
                self._trajectory = halfspace_run(cfg)
                return run_experiment(cfg, prebuilt=self._trajectory)

            self._runs["c04"] = _attempt(build_and_run)
        return self._runs["c04"]

    def energy(self):
        """Criterion 11's ledger on the trajectory; when the trajectory
        could not be built, criterion 4's failure."""
        if "c11" not in self._runs:
            report, error, _ = self.halfspace()
            if self._trajectory is None:
                self._runs["c11"] = (report, error, 0.0)
            else:
                cfg = _load_cfg("c11_energy_ledger.cfg", self.outdir)
                self._runs["c11"] = _attempt(
                    lambda: run_experiment(cfg, prebuilt=self._trajectory))
        return self._runs["c11"]


def _result(number, title, budget, run, detail_fn, passed_fn=None):
    """One criterion's line from a ``(report, error, seconds)`` run: it
    passes when ``passed_fn`` (by default the report's own gate) holds
    within the budget."""
    report, error, seconds = run
    passed_fn = passed_fn or (lambda r: r.get("passed"))
    passed = bool(passed_fn(report)) and seconds <= budget
    detail = detail_fn(report)
    if error and not passed:
        detail += f"; {error}"
    if seconds > budget:
        detail += f"; runtime {seconds:.0f}s exceeded budget"
    return CriterionResult(number, title, passed, detail, seconds, budget)


def _simple(ctx, number, title, budget, cfg_name, detail_fn):
    cfg = _load_cfg(cfg_name, ctx.outdir)
    return _result(number, title, budget,
                   _attempt(lambda: run_experiment(cfg)), detail_fn)


def criterion_01(ctx):
    return _simple(
        ctx, 1, "1-D front exponent 0.25 within 5%", 120,
        "c01_front_exponent_1d.cfg",
        lambda r: f"slope {r.get('fitted_slope', float('nan')):.5f} "
                  f"vs 0.25 ({r.get('relative_error', float('nan')):.2%} off)")


def criterion_02(ctx):
    return _simple(
        ctx, 2, "2-D radial front exponent 0.2 within 8%", 300,
        "c02_front_exponent_2d.cfg",
        lambda r: f"slope {r.get('fitted_slope', float('nan')):.5f} "
                  f"vs 0.2 ({r.get('relative_error', float('nan')):.2%} off)")


def criterion_03(ctx):
    return _simple(
        ctx, 3, "explicit accuracy order >= 0.8 over three grids", 180,
        "c03_solver_accuracy.cfg",
        lambda r: f"orders {[round(o, 3) for o in r.get('orders', [])]}")


def criterion_04(ctx):
    def detail(r):
        env = r.get("envelope_l2", {})
        return (f"c={env.get('c', float('nan')):.4f}, "
                f"max front/envelope = {env.get('max_ratio', float('nan')):.4f}, "
                f"violations {env.get('violations', '?')}")

    return _result(4, "half-space front under the L2-data envelope", 120.0,
                   ctx.halfspace(), detail,
                   lambda r: r.get("envelope_l2", {}).get("passed"))


def criterion_05(ctx):
    report, error, _ = ctx.halfspace()  # its time is charged to criterion 4

    def detail(r):
        env = r.get("envelope_l1", {})
        return (f"L1 max ratio {r.get('l1_max_over_initial', float('nan')):.9f}, "
                f"envelope c={env.get('c', float('nan')):.4f}, "
                f"max front/envelope = {env.get('max_ratio', float('nan')):.4f}")

    return _result(5, "L1 hypothesis audit + L1-data envelope", 120.0,
                   (report, error, 0.0), detail,
                   lambda r: (r.get("l1_hypothesis_ok")
                              and r.get("envelope_l1", {}).get("passed")))


def criterion_06(ctx):
    return _simple(
        ctx, 6, "Taylor-Green KE decay rate 2*mu1 within 2%, div <= 1e-10",
        180, "c06_taylor_green.cfg",
        lambda r: f"rate {r.get('ke_decay_rate', float('nan')):.5f}, "
                  f"max div {r.get('max_divergence', float('nan')):.2e}")


def criterion_07(ctx):
    return _simple(
        ctx, 7, "weak-form residual refinement order >= 1 (20 test fields)",
        240, "c07_weak_residual.cfg",
        lambda r: f"median order {r.get('median_order', float('nan')):.3f}, "
                  f"min {r.get('min_order', float('nan')):.3f}")


def criterion_08(ctx):
    return _simple(
        ctx, 8, "exponent identities to 1e-12 over the (p, N) grid", 1.0,
        "c08_exponent_identities.cfg",
        lambda r: f"max residual {r.get('max_residual', float('nan')):.2e}")


def criterion_09(ctx):
    return _simple(
        ctx, 9, "iteration lemma: 200/200 seeded cases confirmed by scan", 5.0,
        "c09_stampacchia.cfg",
        lambda r: f"{r.get('passed_cases', 0)}/{r.get('cases', 0)} cases")


def criterion_10(ctx):
    return _simple(
        ctx, 10, "interpolation-constant stability + dilation consistency", 60,
        "c10_interpolation.cfg",
        lambda r: f"{r.get('passed_cases', 0)}/{r.get('cases', 0)} cases")


def _ledger_hypotheses(r):
    """The ledger's gates that criteria 11 and 12 both rest on: the L1
    hypothesis on every run and, when refinement is checked, a decay
    constant stable under it."""
    return (r.get("l1_hypothesis_ok")
            and r.get("refinement", {}).get("decay_ok", True))


def criterion_11(ctx):
    def finite_stable_empty(r):
        return (r.get("local_ratio_all_finite")
                and r.get("tail_beyond_front_A") == 0.0
                and r.get("tail_beyond_front_B") == 0.0
                and r.get("refinement", {}).get("local_ok", True)
                and _ledger_hypotheses(r))

    def detail(r):
        ref = r.get("refinement", {})
        return (f"max ratio {r.get('local_ratio_max', float('nan')):.3f} "
                f"(coarse {ref.get('local_ratio_coarse', float('nan')):.3f}), "
                f"tails beyond front A={r.get('tail_beyond_front_A')}, "
                f"B={r.get('tail_beyond_front_B')}")

    return _result(11, "local energy estimate: finite stable constant, "
                       "empty tails beyond the front", 180.0,
                   ctx.energy(), detail, finite_stable_empty)


def criterion_12(ctx):
    report, error, _ = ctx.energy()  # its time is charged to criterion 11
    return _result(
        12, "iteration mechanism covers the measured front", 60.0,
        (report, error, 0.0),
        lambda r: (f"predicted vanishing {r.get('iteration_predicted_vanishing')}"
                   f" >= front {r.get('front_at_T')}"
                   f" (ctilde {r.get('ctilde_calibrated', float('nan')):.3g})"),
        lambda r: (r.get("iteration_covers_front")
                   and r.get("iteration_vanished_beyond")
                   and _ledger_hypotheses(r)))


CRITERIA = [criterion_01, criterion_02, criterion_03, criterion_04,
            criterion_05, criterion_06, criterion_07, criterion_08,
            criterion_09, criterion_10, criterion_11, criterion_12]


def run_acceptance(outdir: str, only: str | None) -> list:
    """Run all criteria, or those numbered in the comma-separated
    ``only``, printing one line per criterion."""
    wanted = None
    if only is not None:
        toks = [tok.strip() for tok in str(only).split(",")]
        if not all(tok.isdigit() and 1 <= int(tok) <= len(CRITERIA)
                   for tok in toks):
            raise ConfigError([(None, f"only: criteria are numbered "
                                      f"1-{len(CRITERIA)}, got {only!r}")])
        wanted = {int(tok) for tok in toks}
    ctx = AcceptanceContext(outdir)
    results = []
    for idx, criterion in enumerate(CRITERIA, start=1):
        if wanted is not None and idx not in wanted:
            continue
        result = criterion(ctx)
        print(result.line, flush=True)
        results.append(result)
    n_pass = sum(1 for r in results if r.passed)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed", flush=True)
    return results
