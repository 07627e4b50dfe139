"""The acceptance gate: every criterion runs at its pinned configuration
and tolerance, printing one pass/fail line.  Shared runs follow the
criteria's own phrasing (4/5 share the half-space run; 11/12 its ledger).

Run just this module with ``pytest tests/test_acceptance.py -s``.  Its
last test checks every artifact the session's criteria wrote against
``acceptance_digests.txt``; after a change that moves bits on purpose,
rewrite that file with ``PYTHONPATH=src python tests/test_acceptance.py``.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np
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


# ---------------------------------------------------------------------------
# every artifact pinned by digest
# ---------------------------------------------------------------------------

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "acceptance_digests.txt")


def _environment() -> list:
    """The header lines naming numpy's version and its CPU dispatch: the
    baseline and the dispatched targets this machine enables, which pick
    the kernels of ``power``, ``exp`` and ``log`` and so move bits."""
    from numpy._core import _multiarray_umath as umath

    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [f"# numpy {np.__version__}",
            f"# cpu baseline {' '.join(umath.__cpu_baseline__)}",
            f"# cpu dispatch {' '.join(enabled)}"]


def _artifact_digests(outdir: str) -> dict:
    """``cNN/<file>`` -> sha256 of every file under ``outdir`` but the
    manifests, whose run stamp and output path change with every run."""
    out = {}
    for crit in sorted(os.listdir(outdir)):
        for name in sorted(os.listdir(os.path.join(outdir, crit))):
            if name != "manifest.txt":
                with open(os.path.join(outdir, crit, name), "rb") as f:
                    out[f"{crit}/{name}"] = hashlib.sha256(f.read()).hexdigest()
    return out


def _read_digests():
    with open(DIGESTS) as f:
        lines = f.read().splitlines()
    header = [ln for ln in lines if ln.startswith("# ") and ln[2:].split()[0]
              in ("numpy", "cpu")]
    pinned = dict(ln.split() for ln in lines if ln and not ln.startswith("#"))
    return header, pinned


def write_digests(outdir: str):
    """Write the digest file from the artifacts of a full acceptance run
    under ``outdir``."""
    lines = ["# sha256 of every file `pflab accept` writes but the manifests,",
             "# one `cNN/<file> <sha256>` line each; rewrite with",
             "#     PYTHONPATH=src python tests/test_acceptance.py",
             "# the bits move with numpy's version and CPU dispatch:",
             *_environment()]
    lines += [f"{k} {v}" for k, v in _artifact_digests(outdir).items()]
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")


def test_every_artifact_has_its_pinned_digest(ctx):
    # last in the module: the criteria that ran in this session wrote
    # their files under ctx.outdir; each must be byte for byte the pinned
    # one, and each criterion that ran must write every pinned file
    got = _artifact_digests(ctx.outdir)
    if not got:
        pytest.skip("no criterion ran in this session")
    header, pinned = _read_digests()
    ran = {k.split("/")[0] for k in got}
    pinned = {k: v for k, v in pinned.items() if k.split("/")[0] in ran}
    changed = sorted(k for k in pinned.keys() | got.keys()
                     if pinned.get(k) != got.get(k))
    assert not changed, (
        "artifacts that differ from acceptance_digests.txt (missing, new or "
        "changed): " + ", ".join(changed) + "\nrecorded with:\n  "
        + "\n  ".join(header) + "\nrun with:\n  " + "\n  ".join(_environment()))


if __name__ == "__main__":
    from pflab.acceptance import run_acceptance

    with tempfile.TemporaryDirectory() as tmp:
        results = run_acceptance(tmp, None)
        if not all(r.passed for r in results):
            sys.exit("a criterion failed; the digest file is left as it was")
        write_digests(tmp)
