"""The acceptance gate: every criterion runs at its pinned configuration
and tolerance, printing one pass/fail line.  Shared runs follow the
criteria's own phrasing (4/5 share the half-space run; 11/12 its ledger).

Run just this module with ``pytest tests/test_acceptance.py -s``.
"""

import os

import pytest

from pflab import acceptance
from pflab.config import _FRONT_RUN


@pytest.fixture(scope="session")
def ctx(tmp_path_factory):
    return acceptance.AcceptanceContext(
        str(tmp_path_factory.mktemp("acceptance")))


def _check(result):
    print(result.line, flush=True)
    assert result.passed, result.line


def test_criterion_01_front_exponent_1d(ctx):
    _check(acceptance.criterion(ctx, 1))


def test_criterion_02_front_exponent_2d(ctx):
    _check(acceptance.criterion(ctx, 2))


def test_criterion_03_solver_accuracy(ctx):
    _check(acceptance.criterion(ctx, 3))


def test_criterion_04_l2_envelope(ctx):
    _check(acceptance.criterion(ctx, 4))
    assert os.path.exists(os.path.join(ctx.outdir, "c04", "manifest.txt"))


def test_criterion_05_l1_audit_and_envelope(ctx):
    _check(acceptance.criterion(ctx, 5))


def test_criterion_06_taylor_green_decay(ctx):
    _check(acceptance.criterion(ctx, 6))


def test_criterion_07_weak_residual(ctx):
    _check(acceptance.criterion(ctx, 7))


def test_criterion_08_exponent_identities(ctx):
    _check(acceptance.criterion(ctx, 8))


def test_criterion_09_iteration_lemma_suite(ctx):
    _check(acceptance.criterion(ctx, 9))


def test_criterion_10_interpolation_suite(ctx):
    _check(acceptance.criterion(ctx, 10))


def test_criterion_11_local_energy(ctx):
    _check(acceptance.criterion(ctx, 11))
    assert os.path.exists(os.path.join(ctx.outdir, "c11", "manifest.txt"))


def test_criterion_12_iteration_mechanism(ctx):
    _check(acceptance.criterion(ctx, 12))


# every key that halfspace_run and _grid read
_TRAJECTORY_KEYS = _FRONT_RUN


def test_criteria_11_12_run_on_the_data_their_config_describes(tmp_path):
    # the half-space kinds share the trajectory built from the config of
    # whichever runs first (criterion 4's in a full run), while the
    # ledger's refinement run is built from its own: the two pinned
    # configs must describe the same trajectory
    c04 = acceptance._load_cfg("c04_halfspace_envelopes.cfg", str(tmp_path))
    c11 = acceptance._load_cfg("c11_energy_ledger.cfg", str(tmp_path))
    assert ({k: c04[k] for k in _TRAJECTORY_KEYS}
            == {k: c11[k] for k in _TRAJECTORY_KEYS})
