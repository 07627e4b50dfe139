import numpy as np
import pytest

from pflab.core import GridSpec, ModelParams, ScalarField, lp_norm
from pflab.energetics import (EnergyLedger, ScalingExponents, TrajectoryTails,
                              _jump, build_ledger, check_decay,
                              check_iteration, decay_bound, local_energy_ratio)
from pflab.exact import BarenblattParams, barenblatt_field, halfspace_initial_data
from pflab.experiments import _l1_audit, _stable_under_refinement
from pflab.plaplace import SolverConfig, Trajectory, simulate

from oracles import restrict_integral


@pytest.fixture(scope="module")
def halfspace_traj():
    """Small half-space run shared by the energetics tests."""
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    grid = GridSpec.line(-8.0, 5.0, 1024)
    u0 = halfspace_initial_data(bp, grid, t0=0.05)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="explicit")
    sched = np.concatenate([[0.0], np.logspace(-3, np.log10(3.0), 120)])
    return simulate(u0, cfg, 3.0, sched)


def test_scaling_exponent_values():
    ex = ScalingExponents(3.0, 1)
    assert ex.alpha1 == pytest.approx(6.0 / 7.0, abs=1e-15)
    assert ex.beta1 == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert ex.alpha2 == pytest.approx(6.0 / 7.0, abs=1e-15)
    assert ex.beta2 == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert ex.beta == pytest.approx(100.0 / 49.0, abs=1e-14)
    assert ex.theta1 == pytest.approx(2.0 / 5.0, abs=1e-15)
    assert ex.theta2 == pytest.approx(6.0 / 15.0, abs=1e-15)


def test_identity_residuals_over_grid():
    for p in (2.1, 2.5, 3.0, 3.5, 4.0):
        for n in (1, 2):
            res = ScalingExponents(p, n).identity_residuals()
            assert max(res.values()) <= 1e-12, (p, n, res)


def test_identity_l1_reduction_closed_form():
    # the combination (beta1+alpha1)/(p(1+beta1)+N beta1 (p-1)) collapses
    # to the Barenblatt exponent
    ex = ScalingExponents(3.0, 1)
    lhs = (ex.beta1 + ex.alpha1) / (3.0 * (1 + ex.beta1) + 1 * ex.beta1 * 2.0)
    assert lhs == pytest.approx(0.25, abs=1e-15)


def test_time_factor_continuity_and_branches():
    ex = ScalingExponents(4.0, 1)
    assert abs(ex.F(1.0 + 1e-9) - ex.F(1.0 - 1e-9)) < 1e-6
    assert ex.F(4.0) == pytest.approx(4.0 ** (ex.alpha2 * (1 + ex.beta1)), rel=1e-14)
    assert ex.F(0.25) == pytest.approx(0.25 ** (ex.alpha1 * (1 + ex.beta2)), rel=1e-14)


def test_tail_energy_zero_trajectory():
    g = GridSpec.line(-1.0, 1.0, 64)
    zero = ScalarField.zeros(g)
    traj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    assert TrajectoryTails(traj).time_integral(3.0, "value", 0.0, 1.0) == 0.0


def test_tail_energy_time_constant_field():
    # separable integrand: the (exact) trapezoid gives T * space integral
    g = GridSpec.line(-2.0, 2.0, 256)
    f = ScalarField(g, np.exp(-g.coords(0)**2))
    traj = Trajectory(np.linspace(0, 2, 9), [f.copy() for _ in range(9)])
    tails = TrajectoryTails(traj)
    cuts = np.array([-1.0, 0.0, 0.5])
    want = np.array([restrict_integral(f, 3.0, s) for s in cuts])
    assert np.allclose(tails.space_tail(3.0, "value", cuts),
                       want[:, None], rtol=1e-12, atol=0.0)
    assert np.allclose(tails.time_integral(3.0, "value", cuts, 2.0),
                       2.0 * want, rtol=1e-12, atol=0.0)
    for s, w in zip(cuts, want):
        assert tails.time_integral(3.0, "value", s, 2.0) == pytest.approx(
            2.0 * w, rel=1e-12)


def test_tail_energy_t_beyond_trajectory():
    g = GridSpec.line(-1.0, 1.0, 32)
    zero = ScalarField.zeros(g)
    traj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    with pytest.raises(ValueError, match="beyond"):
        TrajectoryTails(traj).time_integral(3.0, "value", 0.0, 2.0)


def test_tails_monotone_in_s_and_T(halfspace_traj):
    tails = TrajectoryTails(halfspace_traj)
    s = np.linspace(-2.0, 3.0, 24)
    a1 = tails.time_integral(3.0, "value", s, 1.5)
    a2 = tails.time_integral(3.0, "value", s, 3.0)
    assert np.all(np.diff(a1) <= 1e-12)
    assert np.all(a2 >= a1 - 1e-15)


def test_ledger_definitions_and_monotonicity(halfspace_traj):
    traj = halfspace_traj
    s_grid = np.linspace(0.0, 3.0, 25)
    led = build_ledger(TrajectoryTails(traj), 3.0, 3.0, s_grid, 1.0)
    ex = ScalingExponents(3.0, 1)
    # C is its definition, recomputed independently
    c2 = led.A ** (1 + ex.beta2) + led.B ** (1 + ex.beta1)
    ok = led.C > 0
    assert np.max(np.abs(led.C[ok] - c2[ok]) / led.C[ok]) < 1e-14
    for arr in (led.A, led.B, led.C, led.J, led.L):
        assert np.all(np.diff(arr) <= 1e-12 * max(1.0, arr.max()))


@pytest.mark.parametrize("ctilde", [1e-3, 0.7, 42.0])
def test_ledger_with_ctilde_equals_a_ledger_built_with_it(halfspace_traj,
                                                          ctilde):
    # the bisection over the constant rescales J and sums no tails again
    s_grid = np.linspace(0.0, 3.0, 25)
    led = build_ledger(TrajectoryTails(halfspace_traj), 3.0, 3.0, s_grid, 1.0)
    assert led.ctilde == 1.0
    assert led.J.tobytes() == _jump(led.C, 3.0, 1, 3.0, 1.0).tobytes()
    scaled = led.with_ctilde(ctilde)
    assert scaled.ctilde == ctilde
    for name in ("s", "A", "B", "C", "L"):
        assert getattr(scaled, name).tobytes() == getattr(led, name).tobytes()
    assert scaled.J.tobytes() == _jump(led.C, 3.0, 1, 3.0, ctilde).tobytes()


def test_ledger_zero_trajectory():
    g = GridSpec.line(-1.0, 1.0, 64)
    zero = ScalarField.zeros(g)
    traj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    led = build_ledger(TrajectoryTails(traj), 3.0, 1.0, np.linspace(-1, 1, 9), 1.0)
    assert np.all(led.A == 0) and np.all(led.B == 0) and np.all(led.J == 0)
    assert np.all(led.L == 0)


def test_ledger_csv(tmp_path, halfspace_traj):
    led = build_ledger(TrajectoryTails(halfspace_traj), 3.0, 3.0,
                       np.linspace(0, 3, 9), 1.0)
    path = tmp_path / "ledger.csv"
    led.save_csv(path)
    text = path.read_text().splitlines()
    assert text[2] == "s,A,B,C,J,L"
    assert len(text) == 3 + 9


def test_local_energy_zero_and_beyond_front(halfspace_traj):
    g = GridSpec.line(-1.0, 1.0, 64)
    zero = ScalarField.zeros(g)
    ztraj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    rep = local_energy_ratio(TrajectoryTails(ztraj), 0.0, 0.1, 1.0, 1.0, 3.0)
    assert rep.lhs == rep.rhs == rep.ratio == 0.0
    # beyond the support everything is empty: both sides zero
    rep2 = local_energy_ratio(TrajectoryTails(halfspace_traj), 4.2, 0.1, 3.0,
                              1.0, 3.0)
    assert rep2.rhs == 0.0 and rep2.lhs == 0.0 and rep2.ratio == 0.0


def test_local_energy_finite_and_translation_invariant(halfspace_traj):
    rep = local_energy_ratio(TrajectoryTails(halfspace_traj), 0.3, 0.4, 3.0,
                             1.0, 3.0)
    assert np.isfinite(rep.ratio) and rep.ratio > 0
    # translating the whole experiment in x moves s along with it
    traj = halfspace_traj
    grid = traj.grid
    shift = 0.5
    g2 = GridSpec.line(grid.lower[0] + shift, grid.upper[0] + shift,
                       grid.cells[0])
    traj2 = Trajectory(traj.times.copy(),
                       [ScalarField(g2, f.values.copy()) for f in traj.fields])
    rep2 = local_energy_ratio(TrajectoryTails(traj2), 0.3 + shift, 0.4, 3.0,
                              1.0, 3.0)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=1e-12)


def test_local_energy_delta_validation(halfspace_traj):
    with pytest.raises(ValueError):
        local_energy_ratio(TrajectoryTails(halfspace_traj), 0.0, 0.0, 1.0,
                           1.0, 3.0)


def test_check_iteration_zero_ledger():
    led = EnergyLedger(1.0, 3.0, 1, np.linspace(0, 1, 9), np.zeros(9),
                       np.zeros(9), np.zeros(9), np.zeros(9), 1.0, np.zeros(9))
    rep = check_iteration(led, 0.5)
    assert rep.s0 == 0.0
    assert rep.predicted_vanishing == 0.0
    assert rep.vanished_beyond


def test_check_iteration_synthetic_hat():
    s = np.linspace(0.0, 3.0, 301)
    j = np.clip(1.0 - s, 0.0, None)
    led = EnergyLedger(1.0, 3.0, 1, s, j, j, j, j, 1.0, j)
    rep = check_iteration(led, 0.5)
    assert rep.s0 == 0.0
    assert rep.predicted_vanishing == pytest.approx(2.0, abs=1e-12)
    assert rep.vanished_beyond


def test_check_iteration_eps_validation():
    led = EnergyLedger(1.0, 3.0, 1, np.linspace(0, 1, 4), np.zeros(4),
                       np.zeros(4), np.zeros(4), np.zeros(4), 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        check_iteration(led, 1.5)


def test_decay_bound_values():
    # hand evaluation at p=3, N=1, s=2, T=1: 1/4 + 2^(-2/3)
    want = 0.25 + 2.0 ** (-2.0 / 3.0)  # = 0.8799605249474366
    assert decay_bound(2.0, 1.0, 3.0, 1) == pytest.approx(want, rel=1e-14)
    assert decay_bound(2.0, 1.0, 3.0, 1) == pytest.approx(0.8799605249474366, abs=1e-12)
    # linear in T, vanishing at infinity
    assert decay_bound(2.0, 3.0, 3.0, 1) == pytest.approx(3 * want, rel=1e-14)
    assert decay_bound(1e6, 1.0, 3.0, 1) < 1e-3


def test_decay_bound_validation():
    with pytest.raises(ValueError, match="undefined"):
        decay_bound(1.0, 1.0, 2.0, 2)  # p + N(p-3) = 0
    with pytest.raises(ValueError):
        decay_bound(-1.0, 1.0, 3.0, 1)
    with pytest.raises(ValueError, match="p >="):
        decay_bound(1.0, 1.0, 1.9, 1)


def test_check_decay_zero_trajectory():
    g = GridSpec.line(-1.0, 1.0, 64)
    zero = ScalarField.zeros(g)
    traj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    rep = check_decay(TrajectoryTails(traj), 1.0, 3.0, 1, np.linspace(0.1, 1.0, 5))
    assert rep.ctilde == 0.0


def test_check_decay_on_run_and_refinement(halfspace_traj):
    s = np.linspace(0.2, 3.5, 12)
    rep = check_decay(TrajectoryTails(halfspace_traj), 3.0, 3.0, 1, s)
    assert np.isfinite(rep.ctilde) and rep.ctilde > 0
    # a same-physics coarser run gives a nearby constant
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    grid = GridSpec.line(-8.0, 5.0, 512)
    u0 = halfspace_initial_data(bp, grid, t0=0.05)
    coarse = simulate(u0, SolverConfig(ModelParams(3.0, 1.0), "explicit"), 3.0,
                      np.concatenate([[0.0], np.logspace(-3, np.log10(3.0), 120)]))
    rep_c = check_decay(TrajectoryTails(coarse), 3.0, 3.0, 1, s)
    assert _stable_under_refinement(rep.ctilde, rep_c.ctilde)
    assert not _stable_under_refinement(rep.ctilde, 0.1 * rep_c.ctilde)


def test_l1_audit_flags_growth_that_check_decay_only_measures():
    g = GridSpec.line(-1.0, 1.0, 64)
    a = ScalarField(g, np.ones(g.shape))
    b = ScalarField(g, 1.1 * np.ones(g.shape))
    traj = Trajectory(np.array([0.0, 1.0]), [a, b])
    rep = check_decay(TrajectoryTails(traj), 1.0, 3.0, 1, np.linspace(0.1, 1, 5))
    assert np.isfinite(rep.ctilde) and rep.ctilde > 0
    ratio, ok = _l1_audit(np.array([lp_norm(f, 1.0) for f in traj.fields]))
    assert ratio == pytest.approx(1.1, rel=1e-14) and not ok
    assert _l1_audit(np.array([2.0, 2.0 * (1 + 1e-7), 1.0])) == (1 + 1e-7, True)
    assert _l1_audit(np.zeros(3)) == (1.0, True)
