import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pflab.core import DIRICHLET, GridSpec, ScalarField
from pflab.exact import BarenblattParams, barenblatt_field, barenblatt_front_radius
from pflab.fronts import (SupportTrace, check_envelope, envelope_exponents_l1,
                          envelope_exponents_l2, fit_exponent, support_envelope_l1,
                          support_envelope_l2, support_front, trace_support)
from pflab.plaplace import Trajectory


def synthetic_trace(fn, times):
    times = np.asarray(times, dtype=float)
    return SupportTrace(1e-6, times, fn(times))


def test_support_front_zero_field_none():
    g = GridSpec.line(-1.0, 1.0, 64)
    assert support_front(ScalarField.zeros(g), 1e-6, "halfspace") is None


def test_support_front_halfspace_indicator():
    g = GridSpec.line(-1.0, 1.0, 200)
    f = ScalarField(g, (g.coords(0) < 0).astype(float))
    front = support_front(f, 0.5, "halfspace")
    assert abs(front) <= g.spacing[0]


def test_support_front_monotone_in_tau():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    g = GridSpec.line(-6.0, 6.0, 1024)
    f = barenblatt_field(bp, g, 1.0)
    taus = np.logspace(-8, -1, 12)
    fronts_ = [support_front(f, t, "radial") for t in taus]
    assert all(a >= b - 1e-14 for a, b in zip(fronts_, fronts_[1:]))


def test_support_front_offset_vanishes_with_tau():
    # closed-form inversion oracle: the tau-front approaches the true
    # front radius from below as tau -> 0
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    g = GridSpec.line(-6.0, 6.0, 4096)
    t = 1.7
    f = barenblatt_field(bp, g, t)
    exact = barenblatt_front_radius(bp, t)
    offsets = []
    for tau in (1e-2, 1e-4, 1e-6, 1e-8):
        offsets.append(exact - support_front(f, tau, "radial"))
    assert all(o > -g.spacing[0] for o in offsets)
    assert all(a >= b - 1e-14 for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] <= g.spacing[0]


def test_support_front_2d_radial():
    bp = BarenblattParams(3.0, 2, C=0.5, mu1=1.0)
    g = GridSpec.box(-4.0, 4.0, 256)
    f = barenblatt_field(bp, g, 1.0)
    exact = barenblatt_front_radius(bp, 1.0)
    front = support_front(f, 1e-8, "radial")
    assert front == pytest.approx(exact, abs=2 * max(g.spacing))


def test_trace_support_zero_and_exact_fields():
    g = GridSpec.line(-8.0, 8.0, 1024)
    zero = ScalarField.zeros(g)
    traj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    (tr,) = trace_support(traj, (1e-6,), "halfspace")
    assert np.all(np.isnan(tr.fronts))
    # exact-solution snapshots give strictly increasing radial fronts
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    times = np.linspace(1.0, 5.0, 9)
    fields = [barenblatt_field(bp, g, t) for t in times]
    traj = Trajectory(times - 1.0, fields)
    (tr,) = trace_support(traj, (1e-7,), "radial", t_offset=1.0)
    assert np.all(np.diff(tr.fronts) > 0)


def _barenblatt_run(dim):
    """A zero field, then Barenblatt snapshots off the origin, from t = 0."""
    bp = BarenblattParams(3.0, dim, C=0.5, mu1=1.0)
    if dim == 1:
        g = GridSpec.line(-6.0, 6.0, 256)
    else:
        g = GridSpec((-6.0, -6.0), (6.0, 6.0), (64, 48), (DIRICHLET,) * 2)
    times = np.linspace(1.0, 3.0, 5)
    fields = [ScalarField.zeros(g)] + [
        barenblatt_field(bp, g, t, center=(0.3,) * dim) for t in times[1:]]
    return Trajectory(times - 1.0, fields)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["halfspace", "radial"])
def test_the_one_pass_trace_equals_one_trace_per_threshold(monkeypatch, mode,
                                                           dim):
    traj = _barenblatt_run(dim)
    taus = (1e-8, 1e-3, 1e3)  # no snapshot exceeds the last
    wants = []
    for tau in taus:
        fronts = [support_front(f, tau, mode) for f in traj.fields]
        wants.append(np.array([np.nan if v is None else v for v in fronts]))
    mesh, calls = GridSpec.mesh, []
    monkeypatch.setattr(GridSpec, "mesh",
                        lambda grid: calls.append(grid) or mesh(grid))
    for run in (traj, iter(traj)):  # a trajectory, and a stream
        calls.clear()
        traces = trace_support(run, taus, mode, t_offset=1.0)
        assert [tr.tau for tr in traces] == list(taus)
        for tr, want in zip(traces, wants):
            assert tr.fronts.view(np.int64).tolist() == want.view(np.int64).tolist()
            assert tr.times.tobytes() == (traj.times + 1.0).tobytes()
        assert np.isnan(traces[-1].fronts).all()
        assert np.isnan(traces[0].fronts[0])  # the zero field has no front
        assert not np.isnan(traces[0].fronts[1:]).any()
        # the node radii are formed once for the run, not per snapshot
        assert len(calls) == (1 if (mode, dim) == ("radial", 2) else 0)


def test_a_trace_checks_its_thresholds_before_it_reads_a_snapshot():
    def unread():
        raise AssertionError("a snapshot was read")
        yield

    with pytest.raises(ValueError, match="tau must be positive"):
        trace_support(unread(), (1e-6, 0.0), "radial")
    with pytest.raises(ValueError, match="unknown front mode"):
        trace_support(unread(), (1e-6,), "polar")
    with pytest.raises(ValueError, match="empty trajectory"):
        trace_support(iter(()), (1e-6,), "radial")


def test_envelope_values():
    # two-branch formulas evaluated by hand:
    # p=3, N=2: L2 pair (1/4, 3/4), L1 pair (1/5, 3/5)
    assert support_envelope_l2(3.0, 2, 16.0, 1.0) == pytest.approx(8.0, rel=1e-14)
    assert support_envelope_l2(3.0, 2, 1.0 / 16.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert support_envelope_l2(3.0, 2, 1.0, 2.7) == pytest.approx(2.7, rel=1e-14)
    assert support_envelope_l1(3.0, 2, 32.0, 1.0) == pytest.approx(8.0, rel=1e-14)
    assert support_envelope_l1(3.0, 2, 1.0, 0.4) == pytest.approx(0.4, rel=1e-14)


def test_envelope_validity_ranges():
    with pytest.raises(ValueError, match="p >="):
        support_envelope_l2(1.9, 2, 1.0, 1.0)  # needs p >= 2 in 2-D
    with pytest.raises(ValueError, match="p >="):
        support_envelope_l1(2.2, 2, 1.0, 1.0)  # needs p >= 7/3 in 2-D
    with pytest.raises(ValueError):
        support_envelope_l2(3.0, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        support_envelope_l2(3.0, 1, 1.0, 0.0)


def test_envelope_small_time_exponent_is_barenblatt():
    for p in (2.5, 3.0, 4.0):
        for n in (1, 2):
            bp = BarenblattParams(p, n, C=1.0, mu1=1.0)
            assert envelope_exponents_l1(p, n)[0] == pytest.approx(bp.beta, abs=1e-15)


def test_envelope_exponent_ordering():
    # small-time L2 exponent >= small-time L1 exponent, equal only at p=2
    for n in (1, 2):
        assert envelope_exponents_l2(2.0, n)[0] == pytest.approx(
            envelope_exponents_l1(2.0, n)[0], abs=1e-15)
        for p in (2.1, 3.0, 4.0):
            assert envelope_exponents_l2(p, n)[0] > envelope_exponents_l1(p, n)[0]


def test_envelope_continuity_and_monotonicity():
    t = np.linspace(0.25, 4.0, 400)
    for fn, p, n in ((support_envelope_l2, 3.0, 2), (support_envelope_l1, 3.0, 1)):
        vals = fn(p, n, t, 1.3)
        assert np.all(np.diff(vals) > 0)
        assert abs(fn(p, n, 1.0 + 1e-9, 1.3) - fn(p, n, 1.0 - 1e-9, 1.3)) < 1e-7


def test_fit_exponent_pure_power_law():
    tr = synthetic_trace(lambda t: 3.0 * t**0.25, np.linspace(0.5, 20, 40))
    fit = fit_exponent(tr)
    assert fit.slope == pytest.approx(0.25, abs=1e-10)
    assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)
    assert fit.residual_rms < 1e-12


def test_fit_exponent_constant_trace():
    tr = synthetic_trace(lambda t: np.full_like(t, 2.0), np.linspace(1, 10, 20))
    assert abs(fit_exponent(tr).slope) < 1e-10


def test_fit_exponent_scale_equivariance():
    times = np.linspace(0.5, 50, 30)
    tr1 = synthetic_trace(lambda t: 2.0 * t**0.4, times)
    tr2 = synthetic_trace(lambda t: 17.0 * 2.0 * t**0.4, times)
    f1, f2 = fit_exponent(tr1), fit_exponent(tr2)
    assert f1.slope == pytest.approx(f2.slope, abs=1e-12)
    assert f2.intercept - f1.intercept == pytest.approx(np.log(17.0), abs=1e-10)


def test_fit_exponent_needs_samples():
    tr = synthetic_trace(lambda t: t, np.linspace(1, 2, 5))
    with pytest.raises(ValueError, match=">= 8"):
        fit_exponent(tr)


@settings(max_examples=25, deadline=None)
@given(slope=st.floats(0.05, 0.95), scale=st.floats(0.1, 10.0))
def test_fit_exponent_recovers_synthetic(slope, scale):
    times = np.linspace(0.2, 30, 25)
    tr = synthetic_trace(lambda t: scale * t**slope, times)
    assert fit_exponent(tr).slope == pytest.approx(slope, abs=1e-9)


def test_check_envelope_self_consistent():
    # a trace generated by the envelope formula itself calibrates back to
    # the same constant and shows zero violations
    times = np.linspace(0.1, 10.0, 60)
    c_true = 1.7
    tr = synthetic_trace(lambda t: support_envelope_l1(3.0, 1, t, c_true), times)
    rep = check_envelope(tr, "l1", 3.0, 1, t_ref=0.1, tol_env=0.02)
    assert rep.passed
    assert rep.c == pytest.approx(c_true, rel=1e-12)
    assert rep.max_ratio <= 1.0 + 1e-12


def test_check_envelope_exact_solution_under_both():
    # Barenblatt snapshots stay below both calibrated envelopes: the
    # small-time L1 exponent matches, the L2 one dominates it
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    g = GridSpec.line(-9.0, 9.0, 2048)
    times = np.logspace(0.0, np.log10(40.0), 40)
    fields = [barenblatt_field(bp, g, t) for t in times]
    traj = Trajectory(times - times[0], fields)
    (tr,) = trace_support(traj, (1e-8,), "radial", t_offset=times[0])
    for env in ("l1", "l2"):
        rep = check_envelope(tr, env, 3.0, 1, t_ref=1.0, tol_env=0.02)
        assert rep.passed, (env, rep.violations[:3])


def test_check_envelope_detects_violation():
    times = np.linspace(0.1, 10.0, 50)
    tr = synthetic_trace(lambda t: t**0.9, times)  # grows faster than both branches
    rep = check_envelope(tr, "l1", 3.0, 1, t_ref=0.1, tol_env=0.02)
    assert not rep.passed
    assert rep.max_ratio > 1.02
