import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pflab.core import (DIRICHLET, GridSpec, ModelParams, PERIODIC, ScalarField,
                        lp_norm)
from pflab.errors import BoundarySentinelError, NumericalError
from pflab.exact import BarenblattParams, barenblatt_field
from pflab import plaplace
from pflab.plaplace import (SolverConfig, Trajectory, _check_finite,
                            _diffusion_rhs, _diffusivity_of_a2, _face_a2,
                            cfl_dt, normalize_schedule, simulate, snapshots,
                            step_explicit, step_implicit_proximal)

import oracles
from oracles import integral


def cfg_1d(stepper, p=3.0, **kw):
    return SolverConfig(ModelParams(p, 1.0), stepper, **kw)


def barenblatt_setup(cells=1024, box=7.0, t0=1.0, p=3.0):
    bp = BarenblattParams(p, 1, C=1.0, mu1=1.0)
    grid = GridSpec.line(-box, box, cells)
    return bp, grid, barenblatt_field(bp, grid, t0)


def _stored_energy(u, cfg):
    """The proximal objective's stored energy ``E(u)``."""
    return plaplace._energy(plaplace._face_fields(u.values, u.grid), u.grid, cfg)


# pow at p = 2.5, the sqrt path at p = 3 (|g| in the 1-D explicit step);
# the product with mu1 = 1 is skipped
_DIFFUSIVITY_CASES = [(p, mu1) for p in (2.5, 3.0) for mu1 in (1.0, 0.7)]


def test_flux_diffusivity_degenerate():
    # mu1 |g|^(p-2) at the face gradient (gn, gt), nondecreasing in |g|
    gn = np.array([0.0, 2.0, -2.0, 0.0, 3.0])
    gt = np.array([0.0, 0.0, 0.0, -4.0, 4.0])
    for p, mu1 in _DIFFUSIVITY_CASES:
        d = _diffusivity_of_a2(_face_a2(gn, gt), p, mu1)
        want = mu1 * np.hypot(gn, gt) ** (p - 2.0)
        assert np.allclose(d, want, rtol=1e-15, atol=0.0), (p, mu1)
        assert d[0] == 0.0
        a2 = _face_a2(np.linspace(0.0, 5.0, 100), None)
        assert np.all(np.diff(_diffusivity_of_a2(a2, p, mu1)) >= 0)


# sqrt(fl(g*g)) == |g| in binary64 but where g*g is subnormal or 0 (|g|
# below sqrt of the smallest normal, 1.49e-154) or overflows (|g| above
# 1.34e154); the p = 3 flux |g|*g of the 1-D explicit step is checked
# against the square-root form there and on ordinary data
_SUBNORMAL_ULP = 2.0 ** -1074
_NODES_AT_THE_EDGES = {  # node values on a grid of spacing 1: each face
    # gradient is one difference of neighbours
    "signed-zeros": [0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 1.0, -0.0],
    "denormal-nodes": [0.0, 5e-324, -5e-324, 1e-310, 0.0, 2.2e-308, -0.0,
                       -1e-315, 0.0],
    "subnormal-squares": np.ravel(np.column_stack((
        np.zeros(40), np.geomspace(1e-170, 1.5e-154, 40)
        * np.resize([1.0, -1.0], 40)))),
    "overflowing-squares": [0.0, 1.35e154, 0.0, -1.5e154, 0.0, 1.6e154,
                            -1e155, 0.0, 1.34e154, -0.0],
    "nan-inf": [0.0, np.nan, 1.0, np.inf, 0.0, -np.inf, -np.inf, 2.0, 0.0],
}


def _same_bits(a, b):
    """Per element: the same bits, or both NaN (np.abs clears a NaN's sign
    bit, which carries nothing)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def _assert_p3_flux_is_the_sqrt_form(v, grid, mu1):
    """``_diffusion_rhs`` at p = 3 on the 1-D ``v`` against the square-root
    form (``oracles.sqrt_form_rhs_1d``), with and without ``a2_max``;
    returns the faces whose fluxes differ.  Those are faces where g*g is
    subnormal, one subnormal ulp apart at most, and, for mu1 < 1, faces
    where g*g overflows: the square-root form is then +-inf, while
    mu1*|g|*g may be finite."""
    h = grid.spacing[0]
    cfg = SolverConfig(ModelParams(3.0, mu1), "explicit")
    with np.errstate(all="ignore"):
        want, want_rhs, want_max = oracles.sqrt_form_rhs_1d(v, h, mu1)
        g = (v[1:] - v[:-1]) / h
        subnormal = g * g < np.finfo(float).tiny
        overflow = np.isinf(g * g) & np.isfinite(g)
        for a2_max in (None, []):
            work = plaplace._rhs_work(v, grid)
            rhs = _diffusion_rhs(v, grid, cfg, a2_max, work)
            flux = work[1]  # formed in the buffer of a2
            if a2_max is not None:
                assert _same_bits(a2_max, [want_max]).all()
            same = _same_bits(flux, want)
            assert np.all(np.abs(flux - want)[~same & subnormal]
                          <= _SUBNORMAL_ULP)
            if mu1 < 1.0:
                assert np.isinf(want[~same & overflow]).all()
                assert (same | subnormal | overflow).all()
            else:
                assert (same | subnormal).all()
            assert _same_bits(rhs, oracles.flux_divergence_1d(flux, h)).all()
            if same.all():
                assert _same_bits(rhs, want_rhs).all()
    return np.flatnonzero(~same)


@pytest.mark.parametrize("mu1", [1.0, 0.7])
def test_the_p3_flux_has_the_bits_of_the_sqrt_form_on_ordinary_data(mu1):
    bp, grid, u0 = barenblatt_setup(cells=512, box=4.3)
    v = u0.values.copy()
    v[200:260] *= np.geomspace(1.0, 1e-140, 60)  # a tail down to 1e-140
    assert _assert_p3_flux_is_the_sqrt_form(v, grid, mu1).size == 0


@pytest.mark.parametrize("mu1", [1.0, 0.7])
@pytest.mark.parametrize("name", sorted(_NODES_AT_THE_EDGES))
def test_the_p3_flux_differs_from_the_sqrt_form_only_where_stated(name, mu1):
    v = np.asarray(_NODES_AT_THE_EDGES[name], dtype=float)
    grid = GridSpec.line(0.0, float(v.size - 1), v.size - 1)
    differ = _assert_p3_flux_is_the_sqrt_form(v, grid, mu1)
    if name in ("signed-zeros", "denormal-nodes", "nan-inf"):
        assert differ.size == 0
    if name == "overflowing-squares":  # finite against +-inf at mu1 < 1
        assert (differ.size > 0) == (mu1 < 1.0)


@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.one_of(
    st.floats(), st.floats(1e-170, 1.5e-154), st.floats(-1.5e-154, -1e-170),
    st.floats(1.34e154, 1.7e154), st.floats(-1.7e154, -1.34e154),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])),
    min_size=2, max_size=40),
    h=st.sampled_from([1.0, 0.5, 0.0075]), mu1=st.sampled_from([1.0, 0.7]))
def test_the_p3_flux_on_random_windows_at_the_edges(v, h, mu1):
    v = np.array(v)
    grid = GridSpec.line(0.0, h * (v.size - 1), v.size - 1)
    _assert_p3_flux_is_the_sqrt_form(v, grid, mu1)


def test_step_explicit_constant_unchanged():
    g = GridSpec.line(0.0, 1.0, 64)
    u = ScalarField(g, np.full(g.shape, 2.5))
    out = step_explicit(u, cfg_1d("explicit"), 1e-3)
    assert np.array_equal(out.values, u.values)


def test_step_explicit_one_step_accuracy():
    # exact-solution oracle: the one-step L1 error obeys O(dt^2 + dt h);
    # the normalized constant err/(dt (dt+h)) measures ~0.057 and stays
    # flat over a 16x span of (dt, h)
    cfg = cfg_1d("explicit")
    consts = []
    for cells in (1024, 2048):
        bp, grid, u0 = barenblatt_setup(cells=cells)
        dt0 = cfl_dt(u0, cfg)
        for dt in (dt0, dt0 / 2):
            u1 = step_explicit(u0, cfg, dt)
            exact = barenblatt_field(bp, grid, 1.0 + dt)
            err = np.sum(np.abs(u1.values - exact.values)) * grid.spacing[0]
            consts.append(err / (dt * (dt + grid.spacing[0])))
    assert max(consts) <= 0.12
    assert max(consts) / min(consts) <= 1.5


def test_explicit_positivity_and_max_principle():
    # monotone scheme: bounded by max u0 and nonnegative for 1e4 steps
    g = GridSpec.line(-4.0, 4.0, 256)
    u = barenblatt_field(BarenblattParams(3.0, 1, C=1.0, mu1=1.0), g, 0.5)
    cfg = cfg_1d("explicit")
    peak = u.values.max()
    dt = cfl_dt(u, cfg)
    for k in range(10_000):
        if k % 16 == 0:
            dt = cfl_dt(u, cfg)
        u = step_explicit(u, cfg, dt)
    assert u.values.min() >= -1e-12 * peak
    assert u.values.max() <= peak * (1 + 1e-12)


def test_cfl_dt_zero_field_and_scaling():
    cfg = cfg_1d("explicit")
    g = GridSpec.line(0.0, 1.0, 128)
    assert cfl_dt(ScalarField.zeros(g), cfg) == plaplace._DT_MAX
    u = ScalarField(g, np.sin(2 * np.pi * g.coords(0)))
    g2 = GridSpec.line(0.0, 1.0, 256)
    u2 = ScalarField(g2, np.sin(2 * np.pi * g2.coords(0)))
    ratio = cfl_dt(u, cfg) / cfl_dt(u2, cfg)
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_implicit_constant_fixed_point():
    g = GridSpec.line(0.0, 1.0, 64)
    u = ScalarField(g, np.full(g.shape, 1.3))
    cfg = cfg_1d(stepper="implicit")
    v = step_implicit_proximal(u, cfg, 0.1, None)
    assert np.max(np.abs(v.values - 1.3)) < 1e-10


def test_implicit_energy_inequality_and_descent():
    grid_2d = GridSpec((-4.0, -4.0), (4.0, 4.0), (48, 48),
                       (DIRICHLET, DIRICHLET))
    for u0 in (barenblatt_setup(cells=512)[2],
               barenblatt_field(BarenblattParams(3.0, 2, C=0.5, mu1=1.0),
                                grid_2d, 1.0)):
        grid = u0.grid
        cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
        dt = 0.05
        u = u0
        for _ in range(5):
            v = step_implicit_proximal(u, cfg, dt, None)
            e_u = _stored_energy(u, cfg)
            e_v = _stored_energy(v, cfg)
            quad = 0.5 / dt * lp_norm(ScalarField(grid, v.values - u.values), 2.0) ** 2
            assert e_v + quad <= e_u + cfg.tol + 1e-12
            assert e_v <= e_u + cfg.tol
            u = v


def test_implicit_iteration_cap_error(monkeypatch):
    bp, grid, u0 = barenblatt_setup(cells=256)
    monkeypatch.setattr(plaplace, "_MAX_INNER", 1)
    cfg = cfg_1d(stepper="implicit", tol=1e-14)
    windows = _record_windows(monkeypatch)
    with pytest.raises(NumericalError, match="residual"):
        step_implicit_proximal(u0, cfg, 0.1, None)
    _assert_windowed(windows, grid)


@pytest.mark.parametrize("stepper", ["explicit", "implicit"])
@pytest.mark.parametrize("dim", [1, 2])
def test_solver_config_rejects_p_2(dim, stepper):
    # the scalar solver is for the degenerate equation only
    with pytest.raises(ValueError, match="p > 2"):
        SolverConfig(ModelParams(2.0, 1.0), stepper=stepper)


_SCALAR_ENTRY_POINTS = {
    "simulate": lambda u, cfg: simulate(u, cfg, 0.1, [0.0, 0.1]),
    "step_explicit": lambda u, cfg: step_explicit(u, cfg, 1e-3),
    "cfl_dt": cfl_dt,
    "step_implicit_proximal": lambda u, cfg: step_implicit_proximal(u, cfg, 0.1, None),
}


@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("bc", [(PERIODIC,), (PERIODIC, DIRICHLET),
                                (DIRICHLET, PERIODIC)],
                         ids=["1d-per", "2d-per-dir", "2d-dir-per"])
def test_scalar_entry_points_reject_a_periodic_axis(entry, bc):
    # the scalar runs stand in for the whole space with a dirichlet-zero
    # box; a periodic closure is for the fluid only
    dim = len(bc)
    grid = GridSpec((0.0,) * dim, (1.0,) * dim, (8,) * dim, bc)
    u = ScalarField(grid, np.ones(grid.shape))
    cfg = SolverConfig(ModelParams(3.0, 1.0), "explicit")
    with pytest.raises(ValueError, match="dirichlet-zero"):
        _SCALAR_ENTRY_POINTS[entry](u, cfg)


# the proximal derivatives on small random fields, against finite
# differences and the probed Hessian
_PROX_GRIDS = {
    "1d-dirichlet": GridSpec.line(0.0, 1.0, 9),
    "2d-dir-dir": GridSpec.box(0.0, (1.0, 1.3), (7, 6)),
    # 3 nodes on the second axis: both one-sided rows of the transverse
    # derivative meet the one centred row
    "2d-three-nodes": GridSpec.box(0.0, (1.0, 1.3), (6, 2)),
}


# the ids name p and the regularization eps = 0 of the energy
_PROX_P = [pytest.param(p, id=f"{p}-0.0") for p in (2.5, 3.0)]


def _prox_at_random_point(name, p):
    grid = _PROX_GRIDS[name]
    rng = np.random.default_rng(7)
    cfg = SolverConfig(ModelParams(p, 1.0), stepper="implicit")
    prob = plaplace._ProxProblem(rng.standard_normal(grid.shape), grid.volumes(),
                                 grid, cfg, 0.1)
    return prob, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)


@pytest.mark.parametrize("p", _PROX_P)
@pytest.mark.parametrize("name", sorted(_PROX_GRIDS))
def test_prox_gradient_and_hessian_against_finite_differences(name, p):
    prob, v, dv = _prox_at_random_point(name, p)
    fd = 1e-6
    _, g = prob.value_and_grad(v)
    g_fd = np.zeros(v.shape)
    for i in np.ndindex(v.shape):
        e = np.zeros(v.shape)
        e[i] = fd
        g_fd[i] = (prob.value(v + e) - prob.value(v - e)) / (2 * fd)
    assert np.max(np.abs(g - g_fd)) <= 1e-6 * np.max(np.abs(g))
    hv_fd = (prob.value_and_grad(v + fd * dv)[1]
             - prob.value_and_grad(v - fd * dv)[1]) / (2 * fd)
    prob.value_and_grad(v)
    hv = prob.hess_vec(dv)
    assert np.max(np.abs(hv - hv_fd)) <= 1e-6 * np.max(np.abs(hv))


@pytest.mark.parametrize("p", _PROX_P)
@pytest.mark.parametrize("name", sorted(_PROX_GRIDS))
def test_prox_hessian_symmetric_with_exact_jacobi_diagonal(name, p):
    prob, v, _ = _prox_at_random_point(name, p)
    prob.value_and_grad(v)
    H = np.column_stack([prob.hess_vec(e.reshape(v.shape)).ravel()
                         for e in np.eye(v.size)])
    assert np.max(np.abs(H - H.T)) <= 1e-13 * np.max(np.abs(H))
    diag = prob.hess_diag().ravel()
    assert np.max(np.abs(diag - np.diag(H)) / np.abs(np.diag(H))) <= 1e-13
    if name == "1d-dirichlet":
        ab = prob.banded_hessian()
        banded = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        assert np.max(np.abs(banded - H)) <= 1e-13 * np.max(np.abs(H))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _with_signed_zeros(rng, shape):
    """Normal draws with +0.0, -0.0 and denormals planted."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.3)] = -0.0
    tiny = (pick >= 0.3) & (pick < 0.4)
    x[tiny] = 5e-324 * rng.integers(-3, 4, size=np.count_nonzero(tiny))
    return x


# node shapes of the bitwise checks: 1-D, and 2-D with 2, 3 or 4 nodes on
# an axis, where the one-sided rows of the transverse derivative meet or
# overlap the centred ones
_BITWISE_SHAPES = [(2,), (5,), (10,), (2, 5), (3, 6), (7, 3), (4, 4), (4, 9),
                   (8, 7)]


@pytest.mark.parametrize("shape", _BITWISE_SHAPES, ids=str)
def test_dirichlet_face_stencils_match_the_slice_forms_bitwise(shape):
    # signed zeros included: a -0 the slice form would not make would
    # print as -0 in a CSV
    rng = np.random.default_rng(sum(shape) + 10 * len(shape))
    h = 0.29
    for axis in range(len(shape)):
        face_shape = tuple(n - (a == axis) for a, n in enumerate(shape))
        w = _with_signed_zeros(rng, face_shape)
        z = _with_signed_zeros(rng, shape)
        pairs = [
            (plaplace._face_diff(z, axis, h, False), oracles.face_diff(z, axis, h)),
            (plaplace._face_avg(z, axis, False), oracles.face_avg(z, axis)),
            (plaplace._trans_deriv(z, axis, h, False),
             oracles.trans_deriv(z, axis, h)),
            (plaplace._face_diff_adj(w, shape, axis, h, False),
             oracles.face_diff_adj(w, shape, axis, h)),
            (plaplace._face_avg_adj(w, shape, axis),
             oracles.face_avg_adj(w, shape, axis)),
            (plaplace._trans_deriv_adj(z.copy(), axis, h),
             oracles.trans_deriv_adj(z, axis, h)),
        ]
        for got, want in pairs:
            assert np.array_equal(_bits(got), _bits(want))


def _prox_with_signed_zeros(shape, p, seed):
    """A proximal problem on a grid of ``shape`` linearized at a point
    that vanishes on a third of the nodes, so that K holds zeros, and a
    direction with +0, -0 and denormals."""
    grid = (GridSpec.line(0.0, 1.0, shape[0] - 1) if len(shape) == 1 else
            GridSpec.box(0.0, (1.0, 1.3), tuple(n - 1 for n in shape)))
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(ModelParams(p, 1.0), stepper="implicit")
    prob = plaplace._ProxProblem(rng.standard_normal(shape), grid.volumes(), grid,
                                 cfg, 0.1)
    v = _with_signed_zeros(rng, shape)
    v[rng.random(shape) < 0.33] = 0.0
    return prob, v, _with_signed_zeros(rng, shape)


@pytest.mark.parametrize("p", [2.5, 3.0])
@pytest.mark.parametrize("shape", _BITWISE_SHAPES, ids=str)
def test_prox_derivatives_match_the_slice_forms_bitwise(shape, p):
    prob, v, dv = _prox_with_signed_zeros(shape, p, len(shape) + sum(shape))
    _, g = prob.value_and_grad(v)
    assert np.array_equal(_bits(g), _bits(oracles.prox_gradient(prob, v)))
    assert np.array_equal(_bits(prob.hess_vec(dv)),
                          _bits(oracles.prox_hess_vec(prob, dv)))
    assert np.array_equal(_bits(prob.hess_diag()),
                          _bits(oracles.prox_hess_diag(prob)))


@pytest.mark.parametrize("shape", [(9,), (3, 6), (8, 7)], ids=str)
def test_hess_vec_results_survive_later_calls_and_relinearization(shape):
    # hess_vec keeps work buffers: each result must be a fresh array, and
    # a problem moved by value_and_grad must act as one built there
    prob, v, dv = _prox_with_signed_zeros(shape, 3.0, 5)
    prob.value_and_grad(v)
    first = prob.hess_vec(dv)
    kept = first.copy()
    second = prob.hess_vec(dv[::-1].copy())
    assert not np.shares_memory(first, second)
    assert np.array_equal(_bits(first), _bits(kept))
    moved = 0.5 * v + 0.1
    prob.value_and_grad(moved)
    fresh = plaplace._ProxProblem(prob.u, prob.vol, prob.grid, prob.cfg,
                                  prob.dt)
    fresh.value_and_grad(moved)
    assert np.array_equal(_bits(prob.hess_vec(dv)), _bits(fresh.hess_vec(dv)))


@pytest.mark.parametrize("dim", [1, 2])
def test_implicit_non_descent_solve_falls_back_to_steepest_descent(
        monkeypatch, dim):
    # a short step keeps the Hessian close to its diagonal, so diagonally
    # scaled steepest descent converges within the iteration cap
    if dim == 1:
        u = barenblatt_setup(cells=256)[2]
    else:  # the spacing of 24 cells on [-3, 3], with room for a window
        grid = GridSpec((-8.0, -8.0), (8.0, 8.0), (64, 64),
                        (DIRICHLET, DIRICHLET))
        u = barenblatt_field(BarenblattParams(3.0, 2, C=0.5, mu1=1.0), grid, 1.0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    dt = 1e-3
    newton = step_implicit_proximal(u, cfg, dt, None)
    calls = []

    def ascent(b):  # b = -grad: the solve returns the gradient itself
        calls.append(1)
        return -b

    if dim == 1:
        monkeypatch.setattr(plaplace, "solve_banded", lambda lu, ab, b: ascent(b))
    else:
        monkeypatch.setattr(plaplace, "_pcg", lambda h, b, *a, **k: ascent(b))
    windows = _record_windows(monkeypatch)
    v = step_implicit_proximal(u, cfg, dt, None)
    assert calls
    _assert_windowed(windows, u.grid)
    quad = 0.5 / dt * lp_norm(ScalarField(u.grid, v.values - u.values), 2.0) ** 2
    assert _stored_energy(v, cfg) + quad <= _stored_energy(u, cfg) + cfg.tol
    assert np.max(np.abs(v.values - newton.values)) <= 1e-8


def test_implicit_line_search_stall_raises(monkeypatch):
    # a descent direction so long that every halving still overshoots, in
    # 1-D from the band solve and in 2-D from CG, both on a window; the
    # message is the whole-grid solve's
    grid_2d = GridSpec((-4.0, -4.0), (4.0, 4.0), (96, 96),
                       (DIRICHLET, DIRICHLET))
    for u0, solver, overlong in (
            (barenblatt_setup(cells=256)[2], "solve_banded",
             lambda lu, ab, b: 1e30 * b),
            (barenblatt_field(BarenblattParams(3.0, 2, C=0.5, mu1=1.0),
                              grid_2d, 1.0),
             "_pcg", lambda h, b, *a, **k: 1e30 * b)):
        cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
        with monkeypatch.context() as m:
            m.setattr(plaplace, solver, overlong)
            with pytest.raises(NumericalError) as want:
                _whole_grid_proximal(u0, cfg, 0.1, pcg=overlong)
            windows = _record_windows(m)
            with pytest.raises(NumericalError, match="line search stalled") as got:
                step_implicit_proximal(u0, cfg, 0.1, None)
        assert str(got.value) == str(want.value)
        _assert_windowed(windows, u0.grid)


def _whole_grid_proximal(u, cfg, dt, v0=None, pcg=oracles.whole_window_pcg):
    """Oracle: the proximal step by damped Newton on every node of the
    grid, as it was solved before the support window, with ``pcg`` for
    its linear solves (CG on the whole grid)."""
    prob = plaplace._ProxProblem(u.values, u.grid.volumes(), u.grid, cfg, dt)
    v = u.values.copy() if v0 is None else np.asarray(v0, dtype=float).copy()
    j_u = prob.value(u.values)
    j, g = prob.value_and_grad(v)
    if j > j_u:
        v = u.values.copy()
        j, g = prob.value_and_grad(v)
    banded = u.grid.dim == 1
    res0 = plaplace._grad_residual(g, prob.vol)
    for _ in range(plaplace._MAX_INNER):
        res = plaplace._grad_residual(g, prob.vol)
        if res <= cfg.tol:
            return v
        if banded:
            ab = prob.banded_hessian()
            diag = ab[1]
            delta = plaplace.solve_banded((1, 1), ab, -g)
        else:
            diag = oracles.prox_hess_diag(prob)
            rtol = min(0.1, np.sqrt(res / res0)) if res0 > 0 else 0.1
            delta = pcg(lambda d: oracles.prox_hess_vec(prob, d), -g,
                        1.0 / diag, max(rtol, 1e-12), 600)
        slope = float(np.sum(g * delta))
        if slope >= 0:
            delta = -g / diag
            slope = float(np.sum(g * delta))
        slack = 32.0 * np.finfo(float).eps * max(1.0, abs(j))
        step = 1.0
        while prob.value(v + step * delta) > j + 1e-4 * step * slope + slack:
            step *= 0.5
            if step < 1e-14:
                raise NumericalError(
                    f"proximal line search stalled at residual {res:.3e}")
        v = v + step * delta
        j, g = prob.value_and_grad(v)
    raise NumericalError(
        f"proximal step: {plaplace._MAX_INNER} Newton iterations exhausted, "
        f"residual {plaplace._grad_residual(g, prob.vol):.3e} > tol {cfg.tol:.3e}")


def _record_windows(monkeypatch):
    """The window of every proximal solve attempt, in call order."""
    windows, support_window = [], plaplace._support_window

    def record(*args):
        windows.append(support_window(*args))
        return windows[-1]

    monkeypatch.setattr(plaplace, "_support_window", record)
    return windows


def _assert_windowed(windows, grid):
    assert windows
    for win in windows:
        assert np.prod([s.stop - s.start for s in win]) < np.prod(grid.shape)


def _assert_matches_oracle(v, u, cfg, dt, v0, windows):
    """The step ``v``: a minimizer on the whole grid, zero outside the last
    window, and the oracle's result to 1e-12 relative."""
    prob = plaplace._ProxProblem(u.values, u.grid.volumes(), u.grid, cfg, dt)
    assert plaplace._grad_residual(prob.value_and_grad(v.values)[1],
                                   prob.vol) <= cfg.tol
    outside = np.ones(u.grid.shape, dtype=bool)
    outside[windows[-1]] = False
    assert not np.any(v.values[outside])
    want = _whole_grid_proximal(u, cfg, dt, v0)
    assert np.max(np.abs(v.values - want)) <= 1e-12 * np.max(np.abs(want))


# compactly supported Barenblatt data well inside the grid: (grid, C, t0,
# dt).  Newton leaves nonzero nodes, down to denormals, some ten nodes
# past the support in one step, so the grids leave room for that and the
# halo.
_WINDOW_CASES = {
    "1d-dirichlet": (GridSpec.line(-7.0, 7.0, 512), 1.0, 1.0, 0.2),
    "2d-dir-dir": (GridSpec((-6.0, -6.0), (6.0, 6.0), (96, 96),
                            (DIRICHLET, DIRICHLET)), 0.3, 1.0, 0.2),
}


@pytest.mark.parametrize("name", sorted(_WINDOW_CASES))
def test_windowed_proximal_step_is_the_whole_grid_step(monkeypatch, name):
    grid, c, t0, dt = _WINDOW_CASES[name]
    u0 = barenblatt_field(BarenblattParams(3.0, grid.dim, C=c, mu1=1.0), grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    windows = _record_windows(monkeypatch)
    u1 = step_implicit_proximal(u0, cfg, dt, None)
    _assert_matches_oracle(u1, u0, cfg, dt, None, windows)
    guess = u1.values + (u1.values - u0.values)  # simulate's warm start
    u2 = step_implicit_proximal(u1, cfg, dt, v0=guess)
    _assert_matches_oracle(u2, u1, cfg, dt, guess, windows)
    assert len(windows) == 2  # no redo
    _assert_windowed(windows, grid)
    for axis, win in enumerate(windows[-1]):
        assert win != slice(0, grid.shape[axis])


@pytest.mark.parametrize("grid,t0,dt,redos", [
    (GridSpec.line(-10.0, 10.0, 1000), 0.1, 0.2, 2),
    (GridSpec((-4.0, -4.0), (4.0, 4.0), (128, 128), (DIRICHLET, DIRICHLET)),
     0.02, 0.5, 1)])
def test_guard_widens_the_window_when_newton_outruns_the_halo(
        monkeypatch, grid, t0, dt, redos):
    # a narrow support and a long step: Newton carries the support past
    # the halo in one step; the step is redone with a doubled halo until
    # it stays inside, and the last window is still smaller than the grid
    u0 = barenblatt_field(BarenblattParams(3.0, grid.dim, C=1.0 / grid.dim, mu1=1.0),
                          grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    windows = _record_windows(monkeypatch)
    v = step_implicit_proximal(u0, cfg, dt, None)
    assert len(windows) == redos + 1
    grown = np.flatnonzero(v.values.any(axis=0) if grid.dim == 2 else v.values)
    first = windows[0][-1]
    assert grown[0] < first.start + 2 or grown[-1] >= first.stop - 2
    _assert_windowed(windows, grid)
    _assert_matches_oracle(v, u0, cfg, dt, None, windows)


@pytest.mark.parametrize("grid,c", [
    (GridSpec.line(-3.0, 3.0, 128), 1.0),
    (GridSpec((-2.5, -2.5), (2.5, 2.5), (48, 48), (DIRICHLET, DIRICHLET)), 0.5)])
def test_support_near_the_grid_edge_runs_on_the_whole_grid(monkeypatch, grid, c):
    u0 = barenblatt_field(BarenblattParams(3.0, grid.dim, C=c, mu1=1.0), grid, 1.0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    windows = _record_windows(monkeypatch)
    v = step_implicit_proximal(u0, cfg, 0.1, None)
    assert windows == [plaplace._whole(u0.values)]
    assert v.values.tobytes() == _whole_grid_proximal(u0, cfg, 0.1).tobytes()


# the box solve's cases: (grid, C, t0, dt) of a cold step and then a
# step warm-started as simulate does
_BOX_CASES = {
    "96x96": _WINDOW_CASES["2d-dir-dir"],
    "48x48": (GridSpec((-6.0, -6.0), (6.0, 6.0), (48, 48),
                       (DIRICHLET, DIRICHLET)), 0.3, 1.0, 0.2),
}


@pytest.mark.parametrize("name", sorted(_BOX_CASES))
def test_the_box_solve_gives_the_whole_window_cg_direction_bitwise(
        monkeypatch, name):
    # every Newton direction of two steps, scattered into the window, has
    # the bits of CG on the whole window (oracles.whole_window_pcg with
    # the slice-form Hessian), signed zeros included; -g vanishes off the
    # box, and the box leaves out part of the window
    value_and_grad, pcg = plaplace._ProxProblem.value_and_grad, plaplace._pcg
    boxes = []

    def keep_grad(prob, v):
        j, g = value_and_grad(prob, v)
        prob.test_grad = g
        return j, g

    def checked(apply_h, b, inv_diag, rtol, maxiter, dot):
        prob = apply_h.__self__
        g, box = prob.test_grad, prob.box
        off_box = np.ones(g.shape, dtype=bool)
        off_box[box] = False
        assert not np.any(g[off_box])
        assert np.array_equal(_bits(b), _bits(-g[box]))
        x = pcg(apply_h, b, inv_diag, rtol, maxiter, dot)
        got = np.zeros(g.shape)
        got[box] = x
        want = oracles.whole_window_pcg(
            lambda d: oracles.prox_hess_vec(prob, d), -g,
            1.0 / oracles.prox_hess_diag(prob), rtol, maxiter)
        assert np.array_equal(_bits(got), _bits(want))
        boxes.append(np.prod(x.shape) / g.size)
        return x

    monkeypatch.setattr(plaplace._ProxProblem, "value_and_grad", keep_grad)
    monkeypatch.setattr(plaplace, "_pcg", checked)
    grid, c, t0, dt = _BOX_CASES[name]
    u0 = barenblatt_field(BarenblattParams(3.0, 2, C=c, mu1=1.0), grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    u1 = step_implicit_proximal(u0, cfg, dt, None)
    step_implicit_proximal(u1, cfg, dt, v0=u1.values + (u1.values - u0.values))
    assert boxes and max(boxes) < 1.0


def _count_proximal_work(monkeypatch):
    """Counts of the proximal solver's work: linearizations, Hessian
    actions, Jacobi diagonals, objective values (the line search's and
    each step's J(u)) and window redos."""
    counts = dict.fromkeys(("linearizations", "hess_vecs", "diagonals",
                            "values", "redos"), 0)
    for name, key in (("value_and_grad", "linearizations"),
                      ("hess_vec", "hess_vecs"), ("hess_diag", "diagonals"),
                      ("value", "values")):
        def counted(self, *args, _f=getattr(plaplace._ProxProblem, name),
                    _key=key):
            counts[_key] += 1
            return _f(self, *args)

        monkeypatch.setattr(plaplace._ProxProblem, name, counted)
    newton = plaplace._proximal_newton

    def newton_counted(*args):
        v = newton(*args)
        counts["redos"] += v is None
        return v

    monkeypatch.setattr(plaplace, "_proximal_newton", newton_counted)
    return counts


def test_the_proximal_work_counts_are_pinned(monkeypatch):
    # a 48^2 run of five warm-started steps, and a 128^2 step whose Newton
    # outruns the halo once: the counts of the whole-window solve
    counts = _count_proximal_work(monkeypatch)
    grid, c, t0, _ = _BOX_CASES["48x48"]
    u0 = barenblatt_field(BarenblattParams(3.0, 2, C=c, mu1=1.0), grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    simulate(u0, cfg, 1.0, np.linspace(0.0, 1.0, 6))
    assert counts == dict(linearizations=30, hess_vecs=62, diagonals=25,
                          values=30, redos=0)
    counts.update(dict.fromkeys(counts, 0))
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), (128, 128), (DIRICHLET, DIRICHLET))
    u0 = barenblatt_field(BarenblattParams(3.0, 2, C=0.5, mu1=1.0), grid, 0.02)
    step_implicit_proximal(u0, cfg, 0.5, None)
    assert counts == dict(linearizations=22, hess_vecs=315, diagonals=21,
                          values=22, redos=1)


def test_cross_scheme_agreement():
    # implicit and explicit advance the same data to T = 2 within the
    # combined truncation budget (measured: dominated by the implicit
    # time error at 64 log steps)
    bp, grid, u0 = barenblatt_setup(cells=1024)
    sched = np.concatenate([[0.0], np.logspace(0.0, np.log10(3.0), 65)[1:] - 1.0])
    imp = simulate(u0, cfg_1d(stepper="implicit"), 2.0, sched)
    exp = simulate(u0, cfg_1d(stepper="explicit"), 2.0, [0.0, 2.0])
    dist = np.sum(np.abs(imp.fields[-1].values - exp.fields[-1].values)) * grid.spacing[0]
    assert dist / integral(u0) < 0.005


def test_simulate_zero_data():
    g = GridSpec.line(-1.0, 1.0, 64)
    traj = simulate(ScalarField.zeros(g), cfg_1d("explicit"), 1.0, [0.0, 0.5, 1.0])
    assert all(np.all(f.values == 0.0) for f in traj.fields)


def test_simulate_barenblatt_l1_accuracy():
    # run t = 1 -> 4 against the closed form on a moderate grid
    bp, grid, u0 = barenblatt_setup(cells=2048)
    traj = simulate(u0, cfg_1d(stepper="explicit"), 3.0, [0.0, 3.0])
    exact = barenblatt_field(bp, grid, 4.0)
    err = np.sum(np.abs(traj.fields[-1].values - exact.values)) * grid.spacing[0]
    assert err / lp_norm(exact, 1.0) < 2e-3


def test_simulate_l2_nonincreasing_and_mass():
    bp, grid, u0 = barenblatt_setup(cells=512)
    traj = simulate(u0, cfg_1d(stepper="explicit"), 1.0, np.linspace(0, 1, 9))
    l2 = np.array([lp_norm(f, 2.0) for f in traj.fields])
    assert np.all(np.diff(l2) <= 1e-12 * l2[0])
    masses = np.array([integral(f) for f in traj.fields])
    assert np.max(np.abs(masses - masses[0])) <= 1e-10 * masses[0]


def test_simulate_positivity():
    bp, grid, u0 = barenblatt_setup(cells=512)
    traj = simulate(u0, cfg_1d(stepper="explicit"), 0.5, np.linspace(0, 0.5, 6))
    peak = u0.values.max()
    for f in traj.fields:
        assert f.values.min() >= -1e-12 * peak


def test_support_locality_audit_runs():
    # explicit: the audit itself asserts <= 1 cell per step;
    # reaching the end without NumericalError is the test
    bp, grid, u0 = barenblatt_setup(cells=512)
    cfg = cfg_1d(stepper="explicit")
    simulate(u0, cfg, 0.5, [0.0, 0.5])


def _full_grid_snapshots(u0, cfg, times):
    """Reference trajectory from the public whole-grid ``cfl_dt`` and
    ``step_explicit``, on the step and CFL schedule of ``simulate``."""
    u, t, steps = u0.copy(), 0.0, 0
    out = [u.values.copy()]
    for t_next in times[1:]:
        while t < t_next - 1e-15 * max(t_next, 1.0):
            if steps % plaplace._CFL_STRIDE == 0:
                dt_cfl = cfl_dt(u, cfg)
            dt = min(dt_cfl, t_next - t)
            u = step_explicit(u, cfg, dt)
            t += dt
            steps += 1
        out.append(u.values.copy())
        t = t_next
    return out


def _assert_bit_identical(traj, ref):
    assert len(traj.fields) == len(ref)
    for got, want in zip(traj.fields, ref):
        assert np.array_equal(got.values, want)
        assert got.values.tobytes() == want.tobytes()


def _implicit_chain(u0, cfg, times):
    """Reference trajectory from one :func:`step_implicit_proximal` per
    interval, warm-started by linear extrapolation of the last two fields."""
    u, v_prev, out = u0, None, [u0.values.copy()]
    for t, t_next in zip(times[:-1], times[1:]):
        guess = None if v_prev is None else u.values + (u.values - v_prev)
        v_prev = u.values
        u = step_implicit_proximal(u, cfg, t_next - t, v0=guess)
        out.append(u.values.copy())
    return out


@pytest.mark.parametrize("name", sorted(_WINDOW_CASES))
def test_implicit_simulate_bit_identical_to_a_chain_of_steps(name):
    # the banded solve in 1-D, PCG in 2-D; unequal intervals, so that the
    # warm start extrapolates over a step of another length
    grid, c, t0, dt = _WINDOW_CASES[name]
    u0 = barenblatt_field(BarenblattParams(3.0, grid.dim, C=c, mu1=1.0), grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper="implicit")
    T = 3 * dt
    traj = simulate(u0, cfg, T, [0.0, dt, 2.5 * dt, T])
    times = normalize_schedule([dt, 2.5 * dt], T)
    assert traj.times.tobytes() == times.tobytes()
    _assert_bit_identical(traj, _implicit_chain(u0, cfg, times))


# each stepper in 1-D and 2-D: (stepper, grid, Barenblatt C, t0, dt)
_STREAM_CASES = {
    "explicit-1d": ("explicit", GridSpec.line(-7.0, 7.0, 256), 1.0, 1.0, 0.1),
    "explicit-2d": ("explicit", GridSpec((-6.0, -6.0), (6.0, 6.0), (48, 48),
                                         (DIRICHLET, DIRICHLET)), 0.3, 1.0, 0.1),
    "implicit-1d": ("implicit",) + _WINDOW_CASES["1d-dirichlet"],
    "implicit-2d": ("implicit",) + _WINDOW_CASES["2d-dir-dir"],
}


@pytest.mark.parametrize("name", sorted(_STREAM_CASES))
def test_the_scalar_stream_and_the_collector_give_the_same_bits(name):
    stepper, grid, c, t0, dt = _STREAM_CASES[name]
    u0 = barenblatt_field(BarenblattParams(3.0, grid.dim, C=c, mu1=1.0), grid, t0)
    cfg = SolverConfig(ModelParams(3.0, 1.0), stepper)
    run = (u0, cfg, 3 * dt, [0.0, dt, 2.5 * dt])
    stream = list(snapshots(*run))
    traj = simulate(*run)
    times = normalize_schedule(run[3], run[2])
    chain = _implicit_chain if stepper == "implicit" else _full_grid_snapshots
    assert len(stream) == len(traj.fields) == len(times) == 4
    assert _bits(np.array([t for t, _ in stream])).tolist() \
        == _bits(traj.times).tolist() == _bits(times).tolist()
    for (_, streamed), got, ref in zip(stream, traj.fields, chain(u0, cfg, times)):
        assert _bits(streamed.values).tolist() == _bits(ref).tolist()
        assert _bits(got.values).tolist() == _bits(ref).tolist()
    # no two snapshots share a buffer, nor one with the data, so a reader
    # may keep any of them
    arrays = [u0.values] + [f.values for _, f in stream]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])


@pytest.mark.parametrize("stepper", ["explicit", "implicit"])
def test_the_scalar_stream_checks_its_arguments_at_the_call(stepper):
    # each error is raised by the call itself, before a snapshot is read
    # and so before any step
    cfg = cfg_1d(stepper)
    grid = GridSpec.line(-7.0, 7.0, 256)
    u0 = barenblatt_field(BarenblattParams(3.0, 1, C=1.0, mu1=1.0), grid, 1.0)
    with pytest.raises(ValueError, match="horizon T must be positive"):
        snapshots(u0, cfg, 0.0, [0.0])
    with pytest.raises(ValueError, match=r"lie in \[0, T\]"):
        snapshots(u0, cfg, 1.0, [0.0, 2.0])
    periodic = GridSpec((-7.0,), (7.0,), (256,), (PERIODIC,))
    with pytest.raises(ValueError, match="dirichlet-zero"):
        snapshots(ScalarField(periodic, u0.values[:-1]), cfg, 1.0, [0.0, 1.0])
    bad = u0.values.copy()
    bad[100] = np.nan
    with pytest.raises(NumericalError, match="initial data"):
        snapshots(ScalarField(grid, bad), cfg, 1.0, [0.0, 1.0])
    wide = ScalarField(grid, np.ones(grid.shape))  # support at the box's edge
    with pytest.raises(BoundarySentinelError, match="at t = 0 "):
        snapshots(wide, cfg, 1.0, [0.0, 1.0])


# Newton failures of the proximal step on 1-D Barenblatt data (p = 3, 1000
# cells on [-10, 10], tol 1e-10): (t0, interval, the sub-steps that
# succeed once the interval is halved where Newton reaches its cap)
_HALVING_CASES = {
    "one-halving": (0.1, 0.5, [0.25, 0.25]),
    "four-halvings": (0.01, 1.0, [1 / 16, 1 / 16, 1 / 8, 1 / 4, 1 / 2]),
}


def _halving_setup(t0):
    grid = GridSpec.line(-10.0, 10.0, 1000)
    u0 = barenblatt_field(BarenblattParams(3.0, 1, C=1.0, mu1=1.0), grid, t0)
    return u0, cfg_1d("implicit", tol=1e-10)


@pytest.mark.parametrize("name", sorted(_HALVING_CASES))
def test_a_newton_failure_halves_the_interval(name):
    t0, dt, sub_steps = _HALVING_CASES[name]
    u0, cfg = _halving_setup(t0)
    with pytest.raises(NumericalError, match="Newton iterations exhausted"):
        step_implicit_proximal(u0, cfg, dt, None)
    u = u0
    for h in sub_steps:  # cold-started, as a halved interval is
        u = step_implicit_proximal(u, cfg, h, None)
    traj = simulate(u0, cfg, dt, [0.0, dt])
    assert traj.fields[-1].values.tobytes() == u.values.tobytes()


def test_a_newton_failure_past_the_halving_cap_raises():
    u0, cfg = _halving_setup(0.001)
    with pytest.raises(NumericalError, match=f"residual .*, on an interval "
                       f"halved {plaplace._MAX_HALVINGS} times"):
        simulate(u0, cfg, 1.0, [0.0, 1.0])


def test_only_the_iteration_cap_halves_the_interval(monkeypatch):
    # a stalled line search raises from the first step, unhalved
    u0, cfg = _halving_setup(0.1)
    steps = []
    step = plaplace.step_implicit_proximal
    monkeypatch.setattr(plaplace, "step_implicit_proximal",
                        lambda u, cfg, dt, v0: steps.append(dt) or step(u, cfg, dt, v0))
    monkeypatch.setattr(plaplace, "solve_banded", lambda lu, ab, b: 1e30 * b)
    with pytest.raises(NumericalError, match="line search stalled"):
        simulate(u0, cfg, 0.5, [0.0, 0.5])
    assert steps == [0.5]


def test_schedule_starts_at_zero_and_ends_at_the_horizon():
    # entries within roundoff of 0 and T are snapped to them, and times
    # outside [0, T] beyond it are rejected
    for times in ([1e-13, 0.5, 1.0 - 1e-13], [0.5, 1.0 - 5e-13, 1.0]):
        assert normalize_schedule(times, 1.0).tolist() == [0.0, 0.5, 1.0]
    assert normalize_schedule([0.5], 1.0).tolist() == [0.0, 0.5, 1.0]
    for bad in ([-0.1, 0.5], [0.5, 1.1]):
        with pytest.raises(ValueError, match=r"lie in \[0, T\]"):
            normalize_schedule(bad, 1.0)


@pytest.mark.parametrize("times", [[0.0, 1e-13], [1e-13], [0.0], []])
def test_a_horizon_within_the_merge_distance_keeps_both_endpoints(times):
    # every time of T = 1e-13 lies within the merge distance of 0: the
    # schedule is still a run, from exactly 0 to exactly T
    assert normalize_schedule(times, 1e-13).tolist() == [0.0, 1e-13]


@pytest.mark.parametrize("p,mu1", _DIFFUSIVITY_CASES)
def test_windowed_simulate_bit_identical_to_full_grid_1d(monkeypatch, p, mu1):
    # |g|*g at p = 3, pow at p = 2.5; the product with mu1 = 0.7
    bp, grid, u0 = barenblatt_setup(cells=512, box=10.0, p=p)
    T = 1.0
    cfg = SolverConfig(ModelParams(p, mu1), "explicit")
    # the CFL bound is read from the step's own faces: on every step, on
    # every eighth (the default), and on every third, where the CFL and
    # finiteness checks fall out of line with the rescans (every 16th
    # step) and the sentinel (every 100th)
    for cfl_stride in (1, 3, 8):
        monkeypatch.setattr(plaplace, "_CFL_STRIDE", cfl_stride)
        traj = simulate(u0, cfg, T, [0.0, 0.05, 0.3, T])
        # the support stays far enough inside the box that the window is a
        # true subset of the grid up to the end
        assert np.count_nonzero(traj.fields[-1].values) \
            + 2 * plaplace._WINDOW_HALO < grid.shape[0]
        _assert_bit_identical(traj, _full_grid_snapshots(
            u0, cfg, normalize_schedule([0.05, 0.3], T)))


@pytest.mark.parametrize("bc0", [DIRICHLET])
def test_windowed_simulate_bit_identical_to_full_grid_2d(monkeypatch, bc0):
    bp = BarenblattParams(3.0, 2, C=0.3, mu1=1.0)
    grid = GridSpec((-6.0, -6.0), (6.0, 6.0), (96, 96), (bc0, DIRICHLET))
    u0 = barenblatt_field(bp, grid, 0.05, center=(0.3, -0.2))
    T = 2.0  # about 130 steps
    cfg = SolverConfig(ModelParams(3.0, 1.0), "explicit")
    for cfl_stride in (1, 8):  # the CFL bound from the step's faces, as in 1-D
        monkeypatch.setattr(plaplace, "_CFL_STRIDE", cfl_stride)
        traj = simulate(u0, cfg, T, [0.0, 0.01, 0.5, T])
        rows = traj.fields[-1].values.any(axis=0)  # nonzero nodes along axis 1
        assert np.count_nonzero(rows) + 2 * plaplace._WINDOW_HALO < grid.shape[1]
        _assert_bit_identical(traj, _full_grid_snapshots(
            u0, cfg, normalize_schedule([0.01, 0.5], T)))


@pytest.mark.parametrize("dim", [1, 2])
def test_tight_window_keeps_a_steep_front_bit_identical(monkeypatch, dim):
    # box data: the front advances one cell per step at first, so with a
    # two-step rescan the support reaches the halo's inner margin
    monkeypatch.setattr(plaplace, "_WINDOW_RESCAN", 2)
    monkeypatch.setattr(plaplace, "_WINDOW_HALO", 4)
    if dim == 1:
        grid = GridSpec.line(-4.0, 4.0, 400)
        u0 = ScalarField(grid, (np.abs(grid.coords(0)) < 0.5).astype(float))
    else:
        grid = GridSpec((-3.0, -3.0), (3.0, 3.0), (96, 96),
                        (DIRICHLET, DIRICHLET))
        x, y = grid.mesh()
        u0 = ScalarField(grid, ((np.abs(x) < 0.5)
                                & (np.abs(y - 0.3) < 0.4)).astype(float))
    cfg = SolverConfig(ModelParams(3.0, 1.0), "explicit")
    dt = cfl_dt(u0, cfg)
    first = simulate(u0, cfg, 6 * dt, [0.0, 6 * dt])

    def extent(v):  # support nodes along the last axis
        return np.count_nonzero(v.any(axis=0) if v.ndim == 2 else v)

    # one cell per step on each side
    assert extent(first.fields[-1].values) - extent(u0.values) == 12
    T = 0.002
    traj = simulate(u0, cfg, T, [0.0, T / 3, T])
    _assert_bit_identical(
        traj, _full_grid_snapshots(u0, cfg, normalize_schedule([T / 3], T)))


def _plant_past_the_front(values, axis, side):
    """Set one node two cells past the support's bound on ``axis`` (side
    -1: below lo, +1: above hi), beside a support node, so that only that
    axis grows, by two cells."""
    nz = np.argwhere(values != 0.0)
    pick = np.argmin if side < 0 else np.argmax
    node = nz[pick(nz[:, axis])].copy()
    node[axis] += 2 * side
    values[tuple(node)] = 1.0


def _full_scan_audit(u0, cfg, T, plant_at, axis, side):
    """The locality audit as a scan of every node after each step, on the
    public whole-grid steps and ``simulate``'s step schedule, with a node
    planted past the front after step ``plant_at``."""
    u, t, steps = u0.copy(), 0.0, 0
    prev = plaplace._support_bounds(u.values, 0.0)
    while t < T - 1e-15 * max(T, 1.0):
        if steps % plaplace._CFL_STRIDE == 0:
            dt_cfl = cfl_dt(u, cfg)
        dt = min(dt_cfl, T - t)
        u = step_explicit(u, cfg, dt)
        t += dt
        steps += 1
        if steps == plant_at:
            _plant_past_the_front(u.values, axis, side)
        new = plaplace._support_bounds(u.values, 0.0)
        for ax, ((plo, phi), (nlo, nhi)) in enumerate(zip(prev, new)):
            if nlo < plo - 1 or nhi > phi + 1:
                raise NumericalError(
                    f"support grew more than one cell on axis {ax} in one "
                    f"step at t = {t:.6g}")
        prev = new
    raise AssertionError("the planted node was never audited")


def _locality_case(dim, bc0):
    if dim == 1:
        u0 = barenblatt_setup(cells=512, box=10.0)[2]
    else:
        grid = GridSpec((-6.0, -6.0), (6.0, 6.0), (64, 64), (bc0, DIRICHLET))
        u0 = barenblatt_field(BarenblattParams(3.0, 2, C=0.3, mu1=1.0), grid, 0.05,
                              center=(0.3, -0.2))
    return u0, SolverConfig(ModelParams(3.0, 1.0), "explicit")


@pytest.mark.parametrize("plant_at", [3, 40])  # before and after rescans
@pytest.mark.parametrize("dim,bc0,axis", [
    (1, DIRICHLET, 0), (2, DIRICHLET, 0), (2, DIRICHLET, 1)])
@pytest.mark.parametrize("side", [-1, 1])
def test_audit_raises_on_a_planted_two_cell_jump(monkeypatch, dim, bc0, axis,
                                                 side, plant_at):
    u0, cfg = _locality_case(dim, bc0)
    T = 400 * cfl_dt(u0, cfg)
    with pytest.raises(NumericalError) as want:
        _full_scan_audit(u0, cfg, T, plant_at, axis, side)
    assert f"on axis {axis} in one step" in str(want.value)

    step, calls = plaplace._explicit_step, []

    def planted(sub, rhs, dt, win):
        step(sub, rhs, dt, win)
        calls.append(win)
        if len(calls) == plant_at:
            _plant_past_the_front(sub, axis, side)

    monkeypatch.setattr(plaplace, "_explicit_step", planted)
    with pytest.raises(NumericalError) as got:
        simulate(u0, cfg, T, [0.0, T])
    assert str(got.value) == str(want.value)
    assert len(calls) == plant_at
    last = calls[-1][-1]  # the jump was planted in a window, not the grid
    assert last.stop - last.start < u0.values.shape[-1]


def _plant_through_the_seam(monkeypatch, plant_at, node, value):
    """Patch ``_explicit_step`` to set the whole-array ``node`` to ``value``
    after the step whose input is that of its ``plant_at``-th call: the
    planted fault is a function of the step's input, its state and its
    dt, as a real step's NaN is, so a rerun of that step from the same
    state with the same dt plants it again."""
    step, calls, key = plaplace._explicit_step, [0], []

    def planted(sub, rhs, dt, win):
        before = sub.tobytes(), dt
        step(sub, rhs, dt, win)
        calls[0] += 1
        if calls[0] == plant_at:
            key.append(before)
        if key and before == key[0]:
            sub[node - (0 if win is None else win[0].start)] = value

    monkeypatch.setattr(plaplace, "_explicit_step", planted)


def _per_step_reference(u0, cfg, times):
    """``simulate``'s step schedule on the public whole-grid steps, each
    of which checks its output for NaN/Inf."""
    u, t, steps = u0.copy(), 0.0, 0
    for t_next in times[1:]:
        while t < t_next - 1e-15 * max(t_next, 1.0):
            if steps % plaplace._CFL_STRIDE == 0:
                dt_cfl = cfl_dt(u, cfg)
            dt = min(dt_cfl, t_next - t)
            u = step_explicit(u, cfg, dt)
            t += dt
            steps += 1
        t = t_next
    raise AssertionError("the planted value was never checked")


def _assert_raises_as_a_per_step_check_would(monkeypatch, times, node,
                                              plant_at, value):
    bp, grid, u0 = barenblatt_setup(cells=512, box=4.3)
    cfg = cfg_1d(stepper="explicit")
    _plant_through_the_seam(monkeypatch, plant_at, node, value)
    with pytest.raises(NumericalError) as want:
        _per_step_reference(u0, cfg, times)
    assert "non-finite value at node" in str(want.value)
    monkeypatch.undo()  # a fresh plant for the windowed run
    _plant_through_the_seam(monkeypatch, plant_at, node, value)
    with pytest.raises(NumericalError) as got:
        simulate(u0, cfg, times[-1], times)
    assert str(got.value) == str(want.value)


# A node inside the support, after step 11 (between finiteness checks),
# 68 (the last before the snapshot at 0.01), 99 or 100 (before and at a
# sentinel call).  And node 470, which lies in the window and in the
# sentinel's margin (from node 461; the support spans nodes 53-459 by
# step 68), after step 67 or 99: a value planted there spreads over the
# next step, and a sentinel that read the Inf before the finiteness check
# would raise BoundarySentinelError.  The audit sees a node so far past
# the front first, and its error path must raise the per-step check's
# error too.  And node 475 or 37 after step 18 or 23: the rescan at step
# 16 widens the window from nodes 42-470 to 35-477 (the check before it
# saved the narrower one), so the check at step 24 restores a window that
# leaves the planted node out.  A restore that left the node as it was, not zero, would step
# it into the replay's widened window and name another node.
@pytest.mark.parametrize("node,plant_at", [
    (256, 11), (256, 68), (256, 99), (256, 100), (470, 67), (470, 99),
    (475, 18), (37, 23)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
# a planted Inf row makes the explicit update add inf and -inf, as intended
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in add:RuntimeWarning")
def test_a_planted_nan_or_inf_raises_as_a_per_step_check_would(
        monkeypatch, node, plant_at, value):
    _assert_raises_as_a_per_step_check_would(monkeypatch, [0.0, 0.01, 0.02],
                                              node, plant_at, value)


def test_a_replay_resumes_from_the_snapshot_time(monkeypatch):
    # one step a snapshot interval (dt_cfl is 1.48e-4).  The step ending
    # at 1.1e-4 sums to 4e-5 + (1.1e-4 - 4e-5), 1 ulp short of it, and the
    # check at 2.1e-4 replays the planted step after it.  A replay that
    # resumed from that sum, not from the snapshot's time, would take a dt
    # 1 ulp longer: not the planted step, so the run would not raise.
    assert 4e-5 + (1.1e-4 - 4e-5) != 1.1e-4
    assert 2.1e-4 - (4e-5 + (1.1e-4 - 4e-5)) != 2.1e-4 - 1.1e-4
    u = barenblatt_setup(cells=512, box=4.3)[2]
    assert 1.1e-4 < cfl_dt(u, cfg_1d("explicit"))
    _assert_raises_as_a_per_step_check_would(
        monkeypatch, [0.0, 4e-5, 1.1e-4, 2.1e-4], 256, 3, np.nan)


def test_a_non_finite_node_past_the_front_is_named_before_the_audit_sees_it(
        monkeypatch):
    # a NaN far past the front, between finiteness checks: the audit would
    # report a jump, but the step's NaN is named first, as a per-step
    # check names it
    bp, grid, u0 = barenblatt_setup(cells=512, box=4.3)
    _plant_through_the_seam(monkeypatch, 11, 470, np.nan)
    with pytest.raises(NumericalError,
                       match=r"^explicit step: non-finite value at node \(470,\)$"):
        simulate(u0, cfg_1d(stepper="explicit"), 0.01, [0.0, 0.01])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edge_scan_equals_a_full_scan_of_the_window(data):
    """On random sparse fields: bounds that match a scan of every node of
    the window, or the audit's error when the support passed the seed by
    more than a node; edge nodes at exact zero (denormal underflow), a
    vanished field and nonzero nodes outside the window included."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = data.draw(st.integers(1, 2))
    shape = tuple(data.draw(st.integers(4, 24)) for _ in range(dim))
    win, seed, near = [], [], []
    for n in shape:
        a = data.draw(st.integers(0, n - 3))
        b = data.draw(st.integers(a + 3, n))
        lo = data.draw(st.integers(a, b - 1))
        hi = data.draw(st.integers(lo, b - 1))
        win.append(slice(a, b))
        seed.append((lo, hi))
        near.append(slice(max(lo - 1, a), min(hi + 2, b)))
    win, near = tuple(win), tuple(near)
    values = rng.choice([0.0, 1.0, -2.0, 5e-324], size=shape)  # outside: noise
    values[win] = 0.0
    density = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    block = values[near]
    block[...] = np.where(rng.random(block.shape) < density,
                          rng.choice([1.0, -3.5, 1e-310, -5e-324], block.shape),
                          0.0)
    if data.draw(st.booleans()):  # plant one node anywhere in the window
        node = tuple(int(rng.integers(s.start, s.stop)) for s in win)
        values[node] = 2.0
    full = plaplace._support_bounds(values[win], 0.0)
    want = None if full is None else [
        (lo + s.start, hi + s.start) for (lo, hi), s in zip(full, win)]
    grown = [] if want is None else [
        ax for ax, ((lo, hi), (plo, phi)) in enumerate(zip(want, seed))
        if lo < plo - 1 or hi > phi + 1]
    if grown:
        with pytest.raises(NumericalError, match=f"on axis {grown[0]} in one"):
            plaplace._edge_bounds(values, win, seed, 0.0)
    else:
        assert plaplace._edge_bounds(values, win, seed, 0.0) == want


def test_edge_scan_steps_past_underflowed_edges_and_a_vanished_field():
    values = np.zeros(64)
    values[10:41] = 1.0
    win, seed = (slice(4, 60),), [(10, 40)]
    assert plaplace._edge_bounds(values, win, seed, 0.0) == [(10, 40)]
    values[10:15] = values[36:41] = 0.0  # the edge nodes underflowed
    assert plaplace._edge_bounds(values, win, seed, 0.0) == [(15, 35)]
    values[:] = 0.0
    assert plaplace._edge_bounds(values, win, seed, 0.0) is None


def test_check_finite_overflowing_sum_and_bad_nodes():
    _check_finite(np.array([1e308, 1e308]), "sum overflows")  # finite: passes
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.zeros((3, 4))
        arr[1, 2] = bad
        with pytest.raises(NumericalError, match=r"at node \(1, 2\)"):
            _check_finite(arr, "field")
        # a window names the node in whole-array indices
        with pytest.raises(NumericalError, match=r"at node \(6, 9\)"):
            _check_finite(arr, "window", (slice(5, 8), slice(7, 11)))


@pytest.mark.parametrize("stepper", ["explicit", "implicit"])
def test_boundary_sentinel_triggers(stepper):
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    grid = GridSpec.line(-4.2, 4.2, 512)  # too small for the spread
    u0 = barenblatt_field(bp, grid, 1.0)
    # explicit: one interval, so the check between snapshots must fire;
    # implicit: steps short enough for Newton to converge, so that the
    # error is the sentinel's and not the iteration cap's
    snapshots = [0.0, 3.0] if stepper == "explicit" else np.linspace(0.0, 3.0, 31)
    with pytest.raises(BoundarySentinelError, match="enlarge the box"):
        simulate(u0, cfg_1d(stepper=stepper), 3.0, snapshots)


def test_trajectory_validation():
    g = GridSpec.line(0.0, 1.0, 8)
    f = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.1, 0.2]), [f, f])  # must start at 0
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), [f, f])  # strictly increasing


def test_barenblatt_residual_order_in_h():
    """The discrete operator applied to the exact profile: the residual
    against the exact time derivative drops at order >= 1 in the L1 norm
    over the front-excluded region (pointwise it concentrates at the
    origin where the profile is only C^1,1)."""
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    cfg = cfg_1d("explicit")
    eps_t = 1e-7
    l1 = []
    for cells in (1024, 2048):
        grid = GridSpec.line(-6.0, 6.0, cells)
        u = barenblatt_field(bp, grid, 1.0)
        op = _diffusion_rhs(u.values, grid, cfg)
        ut = (barenblatt_field(bp, grid, 1 + eps_t).values
              - barenblatt_field(bp, grid, 1 - eps_t).values) / (2 * eps_t)
        x = grid.coords(0)
        from pflab.exact import barenblatt_front_radius

        interior = np.abs(x) < 0.85 * barenblatt_front_radius(bp, 1.0)
        l1.append(np.sum(np.abs((ut - op)[interior])) * grid.spacing[0])
    assert l1[1] <= 0.55 * l1[0]
