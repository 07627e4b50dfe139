import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pflab.core import (DIRICHLET, PERIODIC, GridSpec, ModelParams,
                        ScalarField, VectorField, _axis_derivative,
                        _periodic_stencil, deformation_tensor, divergence,
                        gradient, lp_norm)
from pflab.energetics import TrajectoryTails
from pflab.fronts import support_envelope_l1, support_envelope_l2
from pflab.plaplace import Trajectory

from oracles import integral, restrict_integral


def periodic_line(n):
    return GridSpec((0.0,), (2 * np.pi,), (n,), (PERIODIC,))


def test_grid_spacing_and_nodes():
    g = GridSpec.line(-2.0, 2.0, 100)
    assert g.spacing == (0.04,)
    assert g.shape == (101,)
    gp = periodic_line(64)
    assert gp.shape == (64,)


def test_grid_invalid():
    with pytest.raises(ValueError):
        GridSpec.line(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        GridSpec.line(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (10,), ("nonsense",))


def test_gradient_constant_is_zero():
    g = GridSpec.line(0.0, 1.0, 50)
    f = ScalarField(g, np.full(g.shape, 3.7))
    assert np.all(gradient(f).components[0] == 0.0)


def test_gradient_linear_exact():
    g = GridSpec.line(0.0, 1.0, 50)
    f = ScalarField(g, g.coords(0))
    gx = gradient(f).components[0]
    assert np.max(np.abs(gx - 1.0)) < 1e-12


def test_gradient_sin_second_order():
    # analytic-derivative oracle with refinement factor in [3.5, 4.5]
    errs = []
    for n in (128, 256):
        g = periodic_line(n)
        f = ScalarField(g, np.sin(g.coords(0)))
        errs.append(np.max(np.abs(gradient(f).components[0] - np.cos(g.coords(0)))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_gradient_dirichlet_second_order():
    errs = []
    for n in (64, 128):
        g = GridSpec.line(0.0, 1.0, n)
        f = ScalarField(g, np.sin(3 * g.coords(0)))
        errs.append(np.max(np.abs(gradient(f).components[0] - 3 * np.cos(3 * g.coords(0)))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_gradient_degenerate_grid():
    g = GridSpec((0.0, 0.0), (1.0, 1.0), (4, 1), (DIRICHLET, PERIODIC))
    f = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="degenerate"):
        gradient(f)


@pytest.mark.parametrize("shape", [(2,), (3,), (7,), (8,), (2, 7), (3, 8),
                                   (7, 2), (8, 3), (8, 8)])
def test_periodic_derivative_matches_roll_bitwise(shape):
    # the slice-built stencil gives the bits of the np.roll expression
    v = np.random.default_rng(len(shape) * 10 + shape[0]).normal(size=shape)
    h = 0.37
    for axis in range(len(shape)):
        ref = (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)
        assert np.array_equal(_axis_derivative(v, axis, h, True), ref)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
def test_periodic_stencil_shifts(n):
    v = np.random.default_rng(n).normal(size=(n, 5))
    w = np.random.default_rng(n + 1).normal(size=(n, 5))
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            out = _periodic_stencil(np.subtract, 0, (v, s), (w, t))
            assert np.array_equal(out, np.roll(v, -s, 0) - np.roll(w, -t, 0))


def test_divergence_linear_fields():
    g = GridSpec.box(-1.0, 1.0, 32)
    xx, yy = g.mesh()
    v = VectorField(g, (xx, -yy))
    assert np.max(np.abs(divergence(v).values)) < 1e-12
    v2 = VectorField(g, (xx.copy(), yy.copy()))
    assert np.max(np.abs(divergence(v2).values - 2.0)) < 1e-12


def test_deformation_rigid_rotation_zero():
    g = GridSpec.box(-1.0, 1.0, 32)
    xx, yy = g.mesh()
    t = deformation_tensor(VectorField(g, (-yy, xx)))
    assert np.max(np.abs(t)) == 0.0


def test_deformation_pure_shear():
    g = GridSpec.box(-1.0, 1.0, 32)
    xx, yy = g.mesh()
    t = deformation_tensor(VectorField(g, (yy.copy(), np.zeros(g.shape))))
    assert np.max(np.abs(t[0, 0])) < 1e-13
    assert np.max(np.abs(t[1, 1])) < 1e-13
    assert np.max(np.abs(t[0, 1] - 0.5)) < 1e-12


def test_deformation_bitwise_symmetric():
    g = GridSpec.box(0.0, 2 * np.pi, 24, bc=PERIODIC)
    xx, yy = g.mesh()
    t = deformation_tensor(VectorField(g, (np.sin(xx) * np.cos(yy),
                                           np.cos(2 * xx) * np.sin(yy))))
    assert np.array_equal(t[0, 1], t[1, 0])


def test_deformation_taylor_green_magnitude():
    # |Du| = sqrt(2)|cos x cos y| for the vortex; symbolic-derivative oracle
    errs = []
    for n in (48, 96):
        g = GridSpec.box(0.0, 2 * np.pi, n, bc=PERIODIC)
        xx, yy = g.mesh()
        t = deformation_tensor(VectorField(g, (np.sin(xx) * np.cos(yy),
                                               -np.cos(xx) * np.sin(yy))))
        exact = np.sqrt(2.0) * np.abs(np.cos(xx) * np.cos(yy))
        magnitude = np.sqrt(np.sum(t * t, axis=(0, 1)))
        errs.append(np.max(np.abs(magnitude - exact)))
    assert errs[1] < errs[0] / 3.0


def test_deformation_rejects_1d():
    g = GridSpec.line(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        deformation_tensor(VectorField(g, (np.zeros(g.shape),)))


def test_lp_norm_constant_unit_box():
    g = GridSpec.box(0.0, 1.0, 32)
    f = ScalarField(g, np.ones(g.shape))
    assert abs(lp_norm(f, 2.0) - 1.0) < 1e-13
    assert lp_norm(ScalarField.zeros(g), 7.0) == 0.0


def test_lp_norm_rejects_q_below_one():
    g = GridSpec.line(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        lp_norm(ScalarField.zeros(g), 0.5)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False),
       q=st.floats(1.0, 6.0))
def test_lp_norm_homogeneous(c, q):
    g = GridSpec.line(-1.0, 1.0, 64)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=g.shape)
    f = ScalarField(g, vals)
    fc = ScalarField(g, c * vals)
    assert lp_norm(fc, q) == pytest.approx(abs(c) * lp_norm(f, q), abs=1e-12, rel=1e-12)


def test_restrict_integral_bounds_and_indicator():
    g = GridSpec.line(-1.0, 1.0, 100)
    f = ScalarField(g, (g.coords(0) < 0).astype(float))
    full = restrict_integral(f, 1.0, -5.0)
    assert full == pytest.approx(lp_norm(f, 1.0), rel=1e-13)
    assert restrict_integral(f, 1.0, 5.0) == 0.0
    # indicator of the left half-space: nothing at or right of the cut
    assert restrict_integral(f, 1.0, 0.0) <= g.spacing[0]


def test_restrict_integral_nonincreasing_and_continuous():
    g = GridSpec.line(-2.0, 2.0, 64)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.normal(size=g.shape))
    s = np.linspace(-2.5, 2.5, 200)
    vals = np.array([restrict_integral(f, 2.0, si) for si in s])
    assert np.all(np.diff(vals) <= 1e-12)
    # continuity: Lipschitz in s with constant max |f|^q (cell-fraction
    # weighting leaves no jumps at cell crossings)
    lip = np.max(np.abs(f.values)) ** 2 * (s[1] - s[0])
    assert np.max(np.abs(np.diff(vals))) <= lip * (1 + 1e-12)


def test_tail_profile_matches_restrict():
    # the cached profiles behind the ledger's tails, one cut at a time
    g = GridSpec.box(-1.0, 1.0, 24)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.normal(size=g.shape))
    tails = TrajectoryTails(Trajectory(np.array([0.0]), [f]))
    cuts = (-1.5, -0.3, 0.0, 0.7, 2.0)
    many = tails.space_tail(3.0, "value", cuts)[:, 0]
    for s, got in zip(cuts, many):
        want = restrict_integral(f, 3.0, s)
        assert tails.space_tail(3.0, "value", s)[0] == pytest.approx(
            want, rel=1e-12, abs=1e-15)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_model_params_ranges():
    assert ModelParams(3.0, 1.0).degenerate
    assert not ModelParams(2.0, 1.0).degenerate
    support_envelope_l1(3.0, 1, 1.0, 1.0)
    support_envelope_l2(3.0, 1, 1.0, 1.0)
    # 2-D thresholds: (3N+2)/(N+2) = 2, (3N+1)/(N+1) = 7/3
    support_envelope_l2(2.2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        support_envelope_l1(2.2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(3.0, 0.0)
    # both solvers take p >= 2 only
    for p in (1.5, 1.999, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be"):
            ModelParams(p, 1.0)


def test_integral_signed():
    g = GridSpec.line(0.0, 1.0, 64)
    f = ScalarField(g, g.coords(0) - 0.5)
    assert integral(f) == pytest.approx(0.0, abs=1e-14)
