import ast
import pathlib

import numpy as np
import pytest

from pflab import energetics
from pflab.core import GridSpec, ModelParams, ScalarField, lp_norm
from pflab.energetics import (EnergyLedger, ScalingExponents, TrajectoryTails,
                              _jump, build_ledger, check_decay,
                              check_iteration, decay_bound, local_energy_ratio)
from pflab.exact import BarenblattParams, barenblatt_field, halfspace_initial_data
from pflab.experiments import (_l1_audit, _ledger_csv, _run_constants,
                               _stable_under_refinement)
from pflab.plaplace import SolverConfig, Trajectory, simulate

from oracles import RowTails, restrict_integral
from test_fluid2d import _traced_peak


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
    assert TrajectoryTails(traj).time_integral(3.0, "value", 0.0) == 0.0


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
    assert np.allclose(tails.time_integral(3.0, "value", cuts),
                       2.0 * want, rtol=1e-12, atol=0.0)
    for s, w in zip(cuts, want):
        assert tails.time_integral(3.0, "value", s) == pytest.approx(
            2.0 * w, rel=1e-12)


def test_tails_monotone_in_s(halfspace_traj):
    tails = TrajectoryTails(halfspace_traj)
    assert tails.T == 3.0
    a = tails.time_integral(3.0, "value", np.linspace(-2.0, 3.0, 24))
    assert np.all(np.diff(a) <= 1e-12)


# the time-first fold sums each cut's tail in another order than the row
# form's matrix products; they agree to this relative tolerance
_ROW_FORM_RTOL = 1e-14


@pytest.mark.parametrize("q,kind", [(3.0, "value"), (2.0, "value"),
                                    (3.0, "gradient")])
def test_tails_match_the_row_form(halfspace_traj, q, kind):
    # the ledger's three tail kinds at p = 3, on cuts that run past the
    # support (near 4.2 at T = 3) to beyond the box: every value within
    # the tolerance of the row form, and every exact zero exact
    tails, rows = TrajectoryTails(halfspace_traj), RowTails(halfspace_traj)
    cuts = np.linspace(-2.0, 5.5, 61)
    for name in ("time_integral", "sup_space", "space_tail"):
        got = getattr(tails, name)(q, kind, cuts)
        want = getattr(rows, name)(q, kind, cuts)
        assert got.shape == want.shape
        assert np.array_equal(got == 0.0, want == 0.0), name
        nz = want != 0.0
        assert nz.any() and not nz.all()
        rel = np.abs(got[nz] - want[nz]) / np.abs(want[nz])
        assert rel.max() <= _ROW_FORM_RTOL, (name, rel.max())
    # each cut's sums keep their bits in a batch of any size, blocked or not
    for name in ("time_integral", "sup_space"):
        alone = [getattr(tails, name)(q, kind, float(c)) for c in cuts]
        assert (getattr(tails, name)(q, kind, cuts).tobytes()
                == np.array(alone).tobytes()), name


def test_energetics_sums_without_matrix_products():
    # a BLAS product sums in an order set by the library and its threads,
    # so its bits may change with the thread count; the ledger's sums are
    # numpy reductions along the cell axis, whose order is fixed
    tree = ast.parse(pathlib.Path(energetics.__file__).read_text())
    nodes = list(ast.walk(tree))
    assert not any(isinstance(n, ast.MatMult) for n in nodes)
    names = ({n.attr for n in nodes if isinstance(n, ast.Attribute)}
             | {n.id for n in nodes if isinstance(n, ast.Name)})
    assert not names & {"dot", "vdot", "matmul", "inner", "tensordot",
                        "einsum"}


def _bump_run(n_snap: int, cells: int) -> Trajectory:
    """A bump that grows in time and vanishes for |x| >= 1 + t."""
    g = GridSpec.line(-4.0, 4.0, cells)
    x = g.coords(0)
    times = np.linspace(0.0, 1.0, n_snap)
    return Trajectory(times, [ScalarField(g, np.clip((1.0 + t) ** 2 - x * x,
                                                     0.0, None))
                              for t in times])


def test_the_ledgers_memory_does_not_grow_with_the_snapshot_count():
    # the tails keep one time-weighted profile per tail kind, never a row
    # per snapshot: the ledger and the run's constants, as the energy
    # ledger asks for them, peak at the same few cell arrays for 64
    # snapshots as for 128 (the row form held three rows per snapshot)
    cells = 2048
    s_grid = np.linspace(0.0, 3.0, 33)
    deltas = np.linspace(0.1, 1.0, 8)

    def ledger(traj):
        tails = TrajectoryTails(traj)
        build_ledger(tails, 3.0, s_grid, 1.0)
        _run_constants(tails, 3.0, 1.0, s_grid, deltas, s_grid[1:])

    runs = {n: _bump_run(n, cells) for n in (64, 128)}
    peaks = {}
    for n in (64, 128, 64, 128):  # the first two warm the caches up
        peaks[n] = _traced_peak(lambda: ledger(runs[n]))
    assert peaks[128] - peaks[64] <= 4 * cells * 8
    # the measure sees rows: holding the row form's three kinds grows
    held = _traced_peak(lambda: [RowTails(runs[128]).rows(q, kind)
                                 for q, kind in ((3.0, "value"),
                                                 (2.0, "value"),
                                                 (3.0, "gradient"))])
    assert held >= 3 * 128 * cells * 8


def test_ledger_definitions_and_monotonicity(halfspace_traj):
    traj = halfspace_traj
    s_grid = np.linspace(0.0, 3.0, 25)
    led = build_ledger(TrajectoryTails(traj), 3.0, s_grid, 1.0)
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
    led = build_ledger(TrajectoryTails(halfspace_traj), 3.0, s_grid, 1.0)
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
    led = build_ledger(TrajectoryTails(traj), 3.0, np.linspace(-1, 1, 9), 1.0)
    assert np.all(led.A == 0) and np.all(led.B == 0) and np.all(led.J == 0)
    assert np.all(led.L == 0)


def test_ledger_csv(halfspace_traj):
    led = build_ledger(TrajectoryTails(halfspace_traj), 3.0,
                       np.linspace(0, 3, 9), 1.0)
    text = _ledger_csv(led).splitlines()
    assert text[0].startswith(f"# T={led.T:.17g} p=3 N=1 ctilde=")
    assert text[2] == "s,A,B,C,J,L"
    assert len(text) == 3 + 9
    # every value at 17 significant digits, so the file holds the bits
    row = (led.s[4], led.A[4], led.B[4], led.C[4], led.J[4], led.L[4])
    assert [float(v) for v in text[3 + 4].split(",")] == [float(v) for v in row]


def test_local_energy_zero_and_beyond_front(halfspace_traj):
    g = GridSpec.line(-1.0, 1.0, 64)
    zero = ScalarField.zeros(g)
    ztraj = Trajectory(np.array([0.0, 1.0]), [zero, zero.copy()])
    assert local_energy_ratio(TrajectoryTails(ztraj), 0.0, 0.1, 1.0,
                              3.0) == (0.0, 0.0, 0.0)
    # beyond the support everything is empty: both sides zero
    assert local_energy_ratio(TrajectoryTails(halfspace_traj), 4.2, 0.1, 1.0,
                              3.0) == (0.0, 0.0, 0.0)


def test_local_energy_finite_and_translation_invariant(halfspace_traj):
    ratio = local_energy_ratio(TrajectoryTails(halfspace_traj), 0.3, 0.4,
                               1.0, 3.0)[2]
    assert np.isfinite(ratio) and ratio > 0
    # translating the whole experiment in x moves s along with it
    traj = halfspace_traj
    grid = traj.grid
    shift = 0.5
    g2 = GridSpec.line(grid.lower[0] + shift, grid.upper[0] + shift,
                       grid.cells[0])
    traj2 = Trajectory(traj.times.copy(),
                       [ScalarField(g2, f.values.copy()) for f in traj.fields])
    ratio2 = local_energy_ratio(TrajectoryTails(traj2), 0.3 + shift, 0.4,
                                1.0, 3.0)[2]
    assert ratio2 == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("s,delta", [(0.3, 0.4), (1.1, 0.05), (1.5, 0.8)])
def test_local_energy_ratio_reads_the_ledgers_tails(halfspace_traj, s, delta):
    # one definition of A, B and L: the ratio at (s, delta) is
    # L(s + delta) / (A(s) delta^-p + B(s) / delta) of a ledger on those cuts
    tails = TrajectoryTails(halfspace_traj)
    led = build_ledger(tails, 3.0, [s, s + delta], 0.7)
    lhs, rhs, ratio = local_energy_ratio(tails, s, delta, 0.7, 3.0)
    want_rhs = led.A[0] / delta**3.0 + led.B[0] / delta
    assert lhs == pytest.approx(led.L[1], rel=1e-12, abs=0.0)
    assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=0.0)
    assert ratio == pytest.approx(led.L[1] / want_rhs, rel=1e-12, abs=0.0)
    assert ratio > 0


def test_local_energy_ratio_array_form_is_the_scalar_form_bit_for_bit():
    # every (s, delta) of a batch, down to the bit, as asked for alone,
    # including both ratio conventions: past the bump both sides vanish
    # (0/0 -> 0), and just past the cut where |u| ends only the gradient
    # of the left side is left (x/0 -> inf)
    traj = _bump_run(3, 64)
    tails = TrajectoryTails(traj)
    h = traj.grid.spacing[0]
    edge = float(tails.cell_hi[np.flatnonzero(traj.fields[-1].values)[-1]])
    s = np.array([-0.5, 0.0, 0.3, edge, 3.5])
    delta = np.array([0.05, h / 4, 0.3])
    got = local_energy_ratio(tails, s[:, None], delta[None, :], 0.7, 3.0)
    assert [x.shape for x in got] == [(5, 3)] * 3
    for i, j in np.ndindex(5, 3):
        want = local_energy_ratio(tails, float(s[i]), float(delta[j]), 0.7,
                                  3.0)
        assert all(type(w) is float for w in want)
        assert (np.array([x[i, j] for x in got]).tobytes()
                == np.array(want).tobytes()), (s[i], delta[j])
    lhs, rhs, ratio = got
    assert rhs[3, 1] == 0.0 < lhs[3, 1] and ratio[3, 1] == np.inf
    assert lhs[4, 0] == rhs[4, 0] == ratio[4, 0] == 0.0
    assert np.isfinite(ratio[:3]).all() and (ratio[:3] > 0).all()
    with pytest.raises(ValueError):
        local_energy_ratio(tails, s, np.array([0.1, 0.0, 0.1, 0.1, 0.1]),
                           0.7, 3.0)


def test_local_energy_delta_validation(halfspace_traj):
    with pytest.raises(ValueError):
        local_energy_ratio(TrajectoryTails(halfspace_traj), 0.0, 0.0, 1.0,
                           3.0)


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
    assert check_decay(TrajectoryTails(traj), 3.0, np.linspace(0.1, 1.0, 5)) == 0.0


def test_check_decay_on_run_and_refinement(halfspace_traj):
    s = np.linspace(0.2, 3.5, 12)
    ctilde = check_decay(TrajectoryTails(halfspace_traj), 3.0, s)
    assert np.isfinite(ctilde) and ctilde > 0
    # a same-physics coarser run gives a nearby constant
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    grid = GridSpec.line(-8.0, 5.0, 512)
    u0 = halfspace_initial_data(bp, grid, t0=0.05)
    coarse = simulate(u0, SolverConfig(ModelParams(3.0, 1.0), "explicit"), 3.0,
                      np.concatenate([[0.0], np.logspace(-3, np.log10(3.0), 120)]))
    ctilde_c = check_decay(TrajectoryTails(coarse), 3.0, s)
    assert _stable_under_refinement(ctilde, ctilde_c)
    assert not _stable_under_refinement(ctilde, 0.1 * ctilde_c)


def test_l1_audit_flags_growth_that_check_decay_only_measures():
    g = GridSpec.line(-1.0, 1.0, 64)
    a = ScalarField(g, np.ones(g.shape))
    b = ScalarField(g, 1.1 * np.ones(g.shape))
    traj = Trajectory(np.array([0.0, 1.0]), [a, b])
    ctilde = check_decay(TrajectoryTails(traj), 3.0, np.linspace(0.1, 1, 5))
    assert np.isfinite(ctilde) and ctilde > 0
    ratio, ok = _l1_audit(np.array([lp_norm(f, 1.0) for f in traj.fields]))
    assert ratio == pytest.approx(1.1, rel=1e-14) and not ok
    assert _l1_audit(np.array([2.0, 2.0 * (1 + 1e-7), 1.0])) == (1 + 1e-7, True)
    assert _l1_audit(np.zeros(3)) == (1.0, True)
