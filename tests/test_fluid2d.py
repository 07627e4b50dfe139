import tracemalloc

import numpy as np
import pytest

from pflab import experiments, fluid2d
from pflab.config import default_config
from pflab.core import (DIRICHLET, GridSpec, ModelParams, PERIODIC, ScalarField,
                        VectorField, divergence, lp_norm)
from pflab.errors import NumericalError
from pflab.exact import taylor_green_field
from pflab.fluid2d import (_advection_tendency, _face_deformation, advect,
                           advective_cfl_dt, fluid_snapshots, fluid_step,
                           kinetic_energy, project, random_stream_coeffs,
                           simulate_fluid, stream_field, viscous_cfl_dt,
                           viscous_term, weak_residual)
from pflab.plaplace import (SolverConfig, Trajectory, _face_avg, _face_diff,
                            _face_diff_adj, _trans_deriv, step_explicit)

from oracles import integral, one_field_weak_residual, roll_centered


def tg_grid(n=64):
    return GridSpec.box(0.0, 2 * np.pi, n, bc=PERIODIC)


def zero_field(g):
    return VectorField(g, (np.zeros(g.shape), np.zeros(g.shape)))


def params(p=2.0, mu1=1.0):
    return ModelParams(p, mu1)


def test_viscous_rigid_rotation_zero_interior():
    g = tg_grid(48)
    xx, yy = g.mesh()
    rot = VectorField(g, (-(yy - np.pi), xx - np.pi))
    out = viscous_term(rot, params(3.0))
    inner = (slice(3, -3), slice(3, -3))
    assert max(np.max(np.abs(c[inner])) for c in out.components) < 1e-12


def test_viscous_linear_shear_zero_interior():
    # |Du| constant: divergence of a constant flux vanishes for any p
    g = tg_grid(48)
    xx, yy = g.mesh()
    shear = VectorField(g, (yy - np.pi, np.zeros(g.shape)))
    out = viscous_term(shear, params(3.5))
    inner = (slice(3, -3), slice(3, -3))
    assert max(np.max(np.abs(c[inner])) for c in out.components) < 1e-12


def test_viscous_p2_half_laplacian():
    # identity div(Du) = Lap(u)/2 for divergence-free fields, on the vortex
    errs = []
    for n in (32, 64):
        g = tg_grid(n)
        tg = taylor_green_field(g, 1.0, 0.0)
        visc = viscous_term(tg, params(2.0))
        err = 0.0
        for comp, vis in zip(tg.components, visc.components):
            lap = sum((np.roll(comp, -1, a) + np.roll(comp, 1, a) - 2 * comp)
                      / g.spacing[a] ** 2 for a in range(2))
            err = max(err, np.max(np.abs(vis - 0.5 * lap)))
        errs.append(err)
    assert errs[1] < errs[0] / 3.0


def test_viscous_momentum_exact():
    g = tg_grid(48)
    rng = np.random.default_rng(2)
    v = stream_field(g, random_stream_coeffs(rng))
    out = viscous_term(v, params(3.0))
    for comp in out.components:
        assert abs(np.sum(comp)) <= 1e-12 * np.sum(np.abs(comp))


def test_advect_uniform_translation_invariant():
    g = tg_grid(32)
    v = VectorField(g, (np.full(g.shape, 0.7), np.full(g.shape, -0.3)))
    out = advect(v, 1e-2, None)
    assert np.max(np.abs(out.components[0] - 0.7)) < 1e-14
    assert np.max(np.abs(out.components[1] + 0.3)) < 1e-14


def test_advect_zero_field():
    g = tg_grid(16)
    out = advect(zero_field(g), 1e-2, None)
    assert all(np.all(c == 0.0) for c in out.components)


def test_advect_cfl_violation_raises():
    g = tg_grid(32)
    v = VectorField(g, (np.full(g.shape, 10.0), np.zeros(g.shape)))
    with pytest.raises(NumericalError, match="CFL"):
        advect(v, 1.0, None)


def test_advect_taylor_green_term_is_gradient():
    # (u.grad)u for the vortex is a pure gradient: projecting the
    # advection tendency leaves O(h^2)
    g = tg_grid(64)
    tg = taylor_green_field(g, 1.0, 0.0)
    dt = 1e-3
    out = advect(tg, dt, None)
    tend = VectorField(g, tuple((a - b) / dt for a, b in
                                zip(out.components, tg.components)))
    proj = project(tend)
    mag = proj.magnitude().max()
    assert mag < 5e-3  # vs O(1) tendency magnitude


def test_project_properties():
    g = tg_grid(64)
    rng = np.random.default_rng(0)
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    v1 = project(v)
    assert np.max(np.abs(divergence(v1).values)) < 1e-11
    v2 = project(v1)
    assert max(np.max(np.abs(a - b)) for a, b in zip(v1.components, v2.components)) < 1e-11
    # pure discrete gradient fields project to ~0
    psi = rng.normal(size=g.shape)
    h = g.spacing[0]
    gx = (np.roll(psi, -1, 0) - np.roll(psi, 1, 0)) / (2 * h)
    gy = (np.roll(psi, -1, 1) - np.roll(psi, 1, 1)) / (2 * h)
    killed = project(VectorField(g, (gx, gy)))
    assert killed.magnitude().max() < 1e-11 * max(1.0, np.abs(psi).max())
    # divergence-free fields pass through
    tg = taylor_green_field(g, 1.0, 0.0)
    same = project(tg)
    assert max(np.max(np.abs(a - b)) for a, b in zip(tg.components, same.components)) < 1e-11


def test_fluid_step_zero_state():
    g = tg_grid(16)
    out = fluid_step(zero_field(g), params(), 1e-3, None)
    assert all(np.all(c == 0.0) for c in out.components)


def test_taylor_green_energy_decay_small():
    g = tg_grid(64)
    traj = simulate_fluid(taylor_green_field(g, 1.0, 0.0), params(2.0, 1.0),
                          0.5, np.linspace(0, 0.5, 26))
    ke = np.array([kinetic_energy(f) for f in traj.fields])
    rate = -np.polyfit(traj.times, np.log(ke), 1)[0]
    assert rate == pytest.approx(2.0, rel=0.01)
    assert np.all(np.diff(ke) <= 1e-8 * ke[:-1])
    # divergence and momentum stay clean through the run
    assert np.max(np.abs(divergence(traj.fields[-1]).values)) <= 1e-10
    mom = [integral(ScalarField(g, c)) for c in traj.fields[-1].components]
    assert all(abs(m) <= 1e-8 * lp_norm(traj.fields[0], 1.0) for m in mom)


def test_weak_residual_zero_trajectory():
    g = tg_grid(32)
    zero = zero_field(g)
    from pflab.plaplace import Trajectory

    traj = Trajectory(np.array([0.0, 0.1, 0.2]), [zero, zero.copy(), zero.copy()])
    phi = stream_field(g, random_stream_coeffs(np.random.default_rng(1)))
    assert weak_residual(traj, [phi], params())[0] == 0.0


def test_weak_residual_linear_in_phi():
    g = tg_grid(32)
    traj = simulate_fluid(taylor_green_field(g, 1.0, 0.0), params(), 0.2,
                          np.linspace(0, 0.2, 11))
    coeffs = random_stream_coeffs(np.random.default_rng(3))
    phi = stream_field(g, coeffs)
    phi2 = VectorField(g, tuple(2.0 * c for c in phi.components))
    r1, r2 = weak_residual(traj, [phi, phi2], params())
    assert r2 == pytest.approx(2.0 * r1, rel=1e-10)


def test_weak_residual_rejects_divergent_test_field():
    g = tg_grid(32)
    from pflab.plaplace import Trajectory

    zero = zero_field(g)
    traj = Trajectory(np.array([0.0, 0.1, 0.2]), [zero, zero.copy(), zero.copy()])
    xx, _ = g.mesh()
    bad = VectorField(g, (np.sin(xx), np.zeros(g.shape)))
    with pytest.raises(ValueError, match="divergence-free"):
        weak_residual(traj, [bad], params())


def test_weak_residual_rejects_a_dirichlet_trajectory():
    # an embedded whole-space run: the residual's periodic stencils would
    # difference across the walls
    g = GridSpec.box(-3.0, 3.0, 32, bc=DIRICHLET)
    zero = zero_field(g)
    traj = Trajectory(np.array([0.0, 0.1, 0.2]), [zero, zero.copy(), zero.copy()])
    with pytest.raises(ValueError, match="periodic"):
        weak_residual(traj, [zero], params())


@pytest.mark.parametrize("p", [3.0, 3.5])
def test_shear_flow_is_the_scalar_equation(p):
    # u = (f(y), 0): the advection terms and the divergence vanish, and
    # |Du|^2 = f'^2 / 2, so the fluid steps f as the scalar p-Laplacian
    # with mu' = mu1 2^(-p/2).  f is compactly supported inside the period,
    # so the scalar reference runs on the dirichlet line [0, 2 pi], whose
    # n + 1 nodes are the periodic line's n nodes and the wrapped end node
    mu1, n, steps = 0.7, 64, 200
    g = tg_grid(n)
    line = GridSpec.line(0.0, 2 * np.pi, n)
    y = g.coords(1)
    f = np.clip(1.0 - ((y - np.pi) / 1.2) ** 2, 0.0, None) ** 2
    model = params(p, mu1)
    v = VectorField(g, (np.tile(f, (n, 1)), np.zeros(g.shape)))
    dt = 0.5 * viscous_cfl_dt(v, model)
    scfg = SolverConfig(ModelParams(p, mu1 * 2.0 ** (-p / 2.0)), "explicit")
    u = ScalarField(line, np.append(f, 0.0))
    for _ in range(steps):
        v = fluid_step(v, model, dt, None)
        u = step_explicit(u, scfg, dt)
    u0, u1 = v.components
    assert np.array_equal(u0, np.broadcast_to(u0[0], u0.shape))
    assert np.all(u1 == 0.0)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    # the projection adds FFT roundoff, also where the scalar is exactly 0
    assert np.max(np.abs(u0[0] - u.values[:-1])) <= 1e-12 * np.max(np.abs(u.values))
    assert np.max(np.abs(u.values)) < np.max(f)  # the bump did diffuse


def _compact_vortex(n):
    """The discrete curl of ``psi = (1 - r^2)^4`` on ``r < 1`` about the
    box centre, and each node's ``r``."""
    g = tg_grid(n)
    xx, yy = g.mesh()
    r = np.hypot(xx - np.pi, yy - np.pi)
    psi = np.clip(1.0 - r**2, 0.0, None) ** 4
    h = g.spacing[0]
    return VectorField(g, (_trans_deriv(psi, 1, h, True),
                           -_trans_deriv(psi, 0, h, True))), r


def test_a_compact_vortex_at_p3_keeps_a_front_above_a_floor_that_falls_like_h2():
    # the paper's finite speed of propagation on a flow whose pressure does
    # work.  The projection spreads the viscous term's O(h^2) divergent
    # part over the whole box, so the support is compact only above a
    # floor: the far field falls under refinement (order 1.96 measured),
    # while the 1e-2 front holds still (1.429 on 64^2, 1.431 on 128^2)
    fronts, far = [], []
    for n in (64, 128):
        v0, r = _compact_vortex(n)
        traj = simulate_fluid(v0, params(3.0), 0.1, [0.0, 0.1])
        speed = traj.fields[-1].magnitude()
        top = speed.max()
        fronts.append(r[speed > 1e-2 * top].max())
        far.append(speed[r > 2.5].max() / top)
    assert np.log2(far[0] / far[1]) >= 1.5
    assert abs(fronts[1] - fronts[0]) <= 0.25 * tg_grid(64).spacing[0]
    assert 1.2 < fronts[0] < 2.5  # it spread past the initial r <= 1.09


# ---------------------------------------------------------------------------
# slice-built periodic stencils, the multi-field weak residual and the
# real-FFT projection against the np.roll / one-field / complex-FFT forms
# they replace
# ---------------------------------------------------------------------------

SIZES = (2, 3, 7, 8)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", SIZES)
def test_periodic_face_stencils_match_roll_bitwise(n, m):
    rng = np.random.default_rng(10 * n + m)
    v = rng.normal(size=(n, m))
    h = 0.29
    for axis in range(2):
        pairs = [
            (_face_diff(v, axis, h, True), (np.roll(v, -1, axis) - v) / h),
            (_face_diff_adj(v, v.shape, axis, h, True), (np.roll(v, 1, axis) - v) / h),
            (_face_avg(v, axis, True), 0.5 * (v + np.roll(v, -1, axis))),
            (_trans_deriv(v, axis, h, True), roll_centered(v, axis, h)),
        ]
        for got, ref in pairs:
            assert np.array_equal(got, ref)


def _roll_viscous_term(v, p, mu1):
    out = [np.zeros(v.grid.shape), np.zeros(v.grid.shape)]
    for axis in range(2):
        h = v.grid.spacing[axis]
        d00, d01, d11 = _face_deformation(v, axis)
        mag2 = d00 * d00 + 2.0 * d01 * d01 + d11 * d11
        diffusivity = mu1 * mag2 ** ((p - 2.0) / 2.0)
        flux0 = diffusivity * (d00 if axis == 0 else d01)
        flux1 = diffusivity * (d01 if axis == 0 else d11)
        out[0] += (flux0 - np.roll(flux0, 1, axis)) / h
        out[1] += (flux1 - np.roll(flux1, 1, axis)) / h
    return out


def _roll_advection_tendency(v):
    hx, hy = v.grid.spacing
    u0, u1 = v.components
    tendency = []
    for q in (u0, u1):
        div_form = roll_centered(u0 * q, 0, hx) + roll_centered(u1 * q, 1, hy)
        adv_form = u0 * roll_centered(q, 0, hx) + u1 * roll_centered(q, 1, hy)
        tendency.append(-0.5 * (div_form + adv_form))
    return tendency


# p = 2 is the linear stress (no |Du|^2), 2.5 the general power, 3 the
# sqrt of the shared diffusivity layer; p = 3 keeps the test's plain ids
@pytest.mark.parametrize("p", [pytest.param(3.0, id=pytest.HIDDEN_PARAM), 2.0, 2.5])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", SIZES)
def test_fluid_tendencies_match_roll_bitwise(n, m, p):
    g = GridSpec.box(0.0, (2.0, 3.0), (n, m), bc=PERIODIC)
    rng = np.random.default_rng(100 * n + m)
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    for got, ref in zip(viscous_term(v, params(p, 0.7)).components,
                        _roll_viscous_term(v, p, 0.7)):
        assert np.array_equal(got, ref)
    for got, ref in zip(_advection_tendency(v), _roll_advection_tendency(v)):
        assert np.array_equal(got, ref)


def _general_viscous_cfl_dt(v, model):
    """The viscous CFL bound from the deformation at every p."""
    p, mu1 = model.p, model.mu1
    dmax = 0.0
    for axis in range(2):
        d00, d01, d11 = _face_deformation(v, axis)
        mag2 = d00 * d00 + 2.0 * d01 * d01 + d11 * d11
        dmax = max(dmax, mu1 * float(mag2.max()) ** ((p - 2.0) / 2.0))
    if dmax == 0.0:
        return 1.0
    h_min = min(v.grid.spacing)
    return float(min(1.0, fluid2d._CFL_SAFETY * h_min**2
                     / (4.0 * dmax * max(p - 1.0, 1.0))))


def test_cfl_bounds_match_the_general_formulas(monkeypatch):
    # at p = 2 the viscous bound must not read the deformation at all
    g = GridSpec.box(0.0, (2.0, 3.0), (24, 20), bc=PERIODIC)
    rng = np.random.default_rng(5)
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    for p in (2.0, 2.5, 3.0):
        model = params(p, 0.7)
        assert viscous_cfl_dt(v, model) == _general_viscous_cfl_dt(v, model)
        vmax = float(np.max(v.magnitude()))
        assert advective_cfl_dt(v, vmax) == min(
            1.0, fluid2d._CFL_SAFETY * min(g.spacing) / vmax)
    # the unregularized diffusivity of a field at rest vanishes at p > 2
    assert viscous_cfl_dt(zero_field(g), params(3.0, 0.7)) == fluid2d._DT_MAX
    model = params(2.0, 0.7)
    expected = _general_viscous_cfl_dt(v, model)

    def no_deformation(*args, **kw):
        raise AssertionError("the p = 2 CFL bound read the deformation")

    monkeypatch.setattr(fluid2d, "_face_deformation", no_deformation)
    assert viscous_cfl_dt(v, model) == expected


def test_adaptive_taylor_green_matches_the_general_step():
    # the hand loop steps with the general-formula viscous term, the
    # deformation-based CFL bound and advect's own |u| max
    g = tg_grid(32)
    model = params(2.0, 0.7)
    v0 = taylor_green_field(g, 0.7, 0.0)
    t_end = 0.05
    traj = simulate_fluid(v0, model, t_end, [0.0, t_end])
    v, t, steps = project(v0), 0.0, 0
    while t < t_end - 1e-13:
        vmax = float(np.max(v.magnitude()))
        dt = min(min(1.0, fluid2d._CFL_SAFETY * min(g.spacing) / vmax),
                 _general_viscous_cfl_dt(v, model), t_end - t)
        w = advect(v, dt, None)
        visc = _roll_viscous_term(w, 2.0, 0.7)
        v = project(VectorField(g, tuple(c + dt * d for c, d in zip(w.components, visc))))
        t, steps = t + dt, steps + 1
    assert steps >= 5
    for got, ref in zip(traj.fields[-1].components, v.components):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_weak_residual_many_fields_match_one_at_a_time(p):
    # on a Trajectory and on the stream of the same run alike, to the same
    # bits; the residual sums over time before it meets a field, so it
    # matches the per-snapshot oracle to roundoff (measured below 1e-14)
    g = tg_grid(32)
    rng = np.random.default_rng(7)
    v0 = stream_field(g, random_stream_coeffs(rng))
    run = (v0, params(p), 0.05, np.linspace(0, 0.05, 7))
    traj = simulate_fluid(*run)
    phis = [stream_field(g, random_stream_coeffs(rng)) for _ in range(4)]
    got = weak_residual(traj, phis, params(p))
    streamed = weak_residual(fluid_snapshots(*run), phis, params(p))
    assert got.shape == streamed.shape == (4,)
    for r, s, phi in zip(got, streamed, phis):
        ref = one_field_weak_residual(traj, phi, params(p))
        assert r == s and abs(r - ref) <= 1e-12 * ref
    short = Trajectory(traj.times[:3], traj.fields[:3])  # one interior snapshot
    streamed = weak_residual(iter(short), phis, params(p))
    for r, s, phi in zip(weak_residual(short, phis, params(p)), streamed, phis):
        ref = one_field_weak_residual(short, phi, params(p))
        assert r == s and abs(r - ref) <= 1e-12 * ref


def test_weak_residual_checks_a_stream_as_it_checks_a_trajectory():
    # the grid first, then each snapshot's grid and time as it arrives,
    # then the snapshot count, then the test fields, read after the run
    g = tg_grid(32)
    walled = GridSpec.box(-3.0, 3.0, 32, bc=DIRICHLET)
    xx, _ = g.mesh()
    bad = VectorField(g, (np.sin(xx), np.zeros(g.shape)))
    good = stream_field(g, random_stream_coeffs(np.random.default_rng(1)))

    def two(grid):
        return iter([(0.0, zero_field(grid)), (0.1, zero_field(grid))])

    def three(grid):
        return iter([(t, zero_field(grid)) for t in (0.0, 0.1, 0.2)])

    with pytest.raises(ValueError, match="periodic"):
        weak_residual(two(walled), [bad], params())
    with pytest.raises(ValueError, match="need at least 3 snapshots"):
        weak_residual(two(g), [bad], params())
    with pytest.raises(ValueError, match="divergence-free"):
        weak_residual(three(g), [good, bad], params())
    # a test field or a later snapshot on another grid: another cell
    # count, or the same count on another box
    for other in (tg_grid(16), GridSpec.box(0.0, np.pi, 32, bc=PERIODIC)):
        moved = stream_field(other, random_stream_coeffs(np.random.default_rng(1)))
        with pytest.raises(ValueError, match="differs from the first snapshot's"):
            weak_residual(three(g), [good, moved], params())
        mixed = [(0.0, zero_field(g)), (0.1, zero_field(g)), (0.2, zero_field(other))]
        with pytest.raises(ValueError, match="differs from the first snapshot's"):
            weak_residual(iter(mixed), [good], params())
    for snapshots in (two(g), iter([]),
                      Trajectory([0.0, 0.1], [zero_field(g), zero_field(g)])):
        with pytest.raises(ValueError, match="need at least 3 snapshots"):
            weak_residual(snapshots, [good], params())
    backwards = [(t, zero_field(g)) for t in (0.0, 0.2, 0.1)]
    with pytest.raises(ValueError, match="strictly increasing"):
        weak_residual(iter(backwards), [good], params())


def _reference_snapshots(v0, model, T, schedule, dt_fixed):
    """The stepping loop as it stood before the run became a stream: every
    snapshot copied into a list."""
    sched = fluid2d.normalize_schedule(schedule, T)
    v = project(v0)
    fields, t = [v.copy()], 0.0
    for t_next in sched[1:]:
        while t < t_next - 1e-13 * max(1.0, t_next):
            if dt_fixed is None:
                vmax = fluid2d._speed_max(v)
                dt = min(advective_cfl_dt(v, vmax), viscous_cfl_dt(v, model),
                         t_next - t)
            else:
                vmax, dt = None, min(dt_fixed, t_next - t)
            v = fluid_step(v, model, dt, vmax)
            t += dt
        fields.append(v.copy())
        t = t_next
    return sched, fields


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("dt_fixed", [None, 4e-3])
def test_the_snapshot_stream_and_the_collector_give_the_same_bits(dt_fixed):
    g = tg_grid(32)
    model = params(3.0, 0.7)
    v0 = stream_field(g, random_stream_coeffs(np.random.default_rng(9)))
    run = (v0, model, 0.05, np.linspace(0.0, 0.05, 6))
    traj = simulate_fluid(*run, dt_fixed=dt_fixed)
    stream = list(fluid_snapshots(*run, dt_fixed=dt_fixed))
    sched, fields = _reference_snapshots(*run, dt_fixed)
    assert len(traj.fields) == len(stream) == len(sched) == 6
    assert np.array_equal(_bits(traj.times), _bits([t for t, _ in stream]))
    assert np.array_equal(_bits(traj.times), _bits(sched))
    for got, (_, streamed), ref in zip(traj.fields, stream, fields):
        for a, b, c in zip(got.components, streamed.components, ref.components):
            assert np.array_equal(_bits(a), _bits(c))
            assert np.array_equal(_bits(b), _bits(c))
    # no two snapshots share a buffer, so a reader may keep any of them
    comps = [c for _, f in stream for c in f.components]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(comps)
                   for b in comps[i + 1:])
    # the arguments are checked at the call, before any snapshot is read
    with pytest.raises(ValueError, match="horizon T must be positive"):
        fluid_snapshots(v0, model, 0.0, [0.0])


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, numpy buffers included, above
    what was allocated when it was called."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_weak_residual_of_a_stream_holds_a_window_not_the_run():
    g = tg_grid(16)
    model = params(2.0, 1.0)
    v0 = taylor_green_field(g, 1.0, 0.0)
    phis = [stream_field(g, random_stream_coeffs(np.random.default_rng(3)))]
    snapshot = 2 * v0.components[0].nbytes
    T, dt = 0.16, 0.08 * g.spacing[0] ** 2
    peaks = {}
    for n in (21, 161, 21, 161):  # the first two warm the caches up
        sched = np.linspace(0.0, T, n)
        peaks[n] = _traced_peak(lambda: weak_residual(
            fluid_snapshots(v0, model, T, sched, dt_fixed=dt), phis, model))
    assert abs(peaks[161] - peaks[21]) <= 2 * snapshot
    # the measure sees the snapshots: the collected run holds all of them
    sched = np.linspace(0.0, T, 161)
    held = _traced_peak(lambda: weak_residual(
        simulate_fluid(v0, model, T, sched, dt_fixed=dt), phis, model))
    assert held - peaks[161] >= 100 * snapshot


def test_the_weak_residual_holds_no_tensor_per_test_field():
    # the run meets the fields after its time sums, one at a time as a
    # generator yields them, so 16 fields cost what 1 does, give or take
    # the last field, still bound while the next is built
    g = tg_grid(32)
    model = params(2.5, 1.0)
    v0 = taylor_green_field(g, 1.0, 0.0)
    coeffs = [random_stream_coeffs(np.random.default_rng(s)) for s in range(16)]
    node = v0.components[0].nbytes
    T = 0.02
    peaks = {}
    for n in (1, 16, 1, 16):  # the first two warm the caches up
        peaks[n] = _traced_peak(lambda: weak_residual(
            fluid_snapshots(v0, model, T, np.linspace(0.0, T, 5)),
            (stream_field(g, c) for c in coeffs[:n]), model))
    assert peaks[16] - peaks[1] <= 2 * node + node // 2


def test_the_weak_residual_reads_its_test_fields_after_the_last_snapshot():
    g = tg_grid(16)
    model = params(3.0, 1.0)
    v0 = taylor_green_field(g, 1.0, 0.0)
    T, n_snap = 0.02, 6
    yielded = []

    def snapshots():
        for pair in fluid_snapshots(v0, model, T, np.linspace(0.0, T, n_snap)):
            yielded.append(pair[0])
            yield pair

    seen = []

    def phis():
        seen.append(len(yielded))  # runs when the generator is first advanced
        for seed in range(3):
            yield stream_field(g, random_stream_coeffs(np.random.default_rng(seed)))

    got = weak_residual(snapshots(), phis(), model)
    assert seen == [n_snap] and got.shape == (3,)
    traj = simulate_fluid(v0, model, T, np.linspace(0.0, T, n_snap))
    want = weak_residual(traj, list(phis()), model)
    assert np.array_equal(_bits(got), _bits(want))


def test_the_weak_residual_study_holds_one_test_field_at_a_time(tmp_path, monkeypatch):
    # 20 test fields cost what 2 do: the study hands weak_residual a
    # generator, read one field at a time after each level's run
    cells = 16
    field = 2 * (2 * cells) ** 2 * 8  # one refined-level test field
    peaks = {}
    for n in (2, 20, 2, 20):  # the first two warm the caches up
        monkeypatch.setattr(experiments, "_WEAK_FIELDS", n)
        cfg = default_config("weak-residual-study", outdir=str(tmp_path),
                             p=2.0, cells=(cells,), t_end=0.05)
        peaks[n] = _traced_peak(lambda: experiments.run_experiment(cfg))
    assert abs(peaks[20] - peaks[2]) < 2 * field


def test_taylor_green_holds_a_window_not_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_KE_RATE_TOL", 0.03)
    cells = 32
    snapshot = 2 * cells * cells * 8
    peaks = {}
    for n in (21, 161, 21, 161):  # the first two warm the caches up
        monkeypatch.setattr(experiments, "_TG_SNAPSHOTS", n)
        cfg = default_config("fluid2d-taylor-green", outdir=str(tmp_path),
                             cells=(cells,), t_end=0.25)
        peaks[n] = _traced_peak(lambda: experiments.run_experiment(cfg))
    assert abs(peaks[161] - peaks[21]) <= 2 * snapshot


def _complex_fft_project(v):
    """The full complex-spectrum projection the real-FFT one replaced,
    with an even axis's Nyquist sine exactly 0."""
    g = v.grid
    sines = []
    for n, h in zip(g.shape, g.spacing):
        s = np.sin(2 * np.pi * np.fft.fftfreq(n, d=h) * h) / h
        if n % 2 == 0:
            s[n // 2] = 0.0
        sines.append(s)
    sx, sy = sines[0][:, None], sines[1][None, :]
    v0_hat, v1_hat = (np.fft.fft2(c) for c in v.components)
    s2 = sx**2 + sy**2
    inv = np.divide(1.0, s2, out=np.zeros_like(s2), where=s2 > 0)
    phi_hat = -1j * (sx * v0_hat + sy * v1_hat) * inv
    return (np.real(np.fft.ifft2(v0_hat - 1j * sx * phi_hat)),
            np.real(np.fft.ifft2(v1_hat - 1j * sy * phi_hat)))


@pytest.mark.parametrize("shape", [(64, 64), (48, 33), (33, 40), (7, 8)])
def test_project_matches_complex_fft(shape):
    g = GridSpec.box(0.0, (2 * np.pi, 5.0), shape, bc=PERIODIC)
    rng = np.random.default_rng(sum(shape))
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    scale = max(np.max(np.abs(c)) for c in v.components)
    for got, ref in zip(project(v).components, _complex_fft_project(v)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def _no_projection(monkeypatch):
    orig = fluid2d._modified_wavenumbers
    monkeypatch.setattr(fluid2d, "_modified_wavenumbers",
                        lambda grid: tuple(0.0 * s for s in orig(grid)))


def test_project_residual_raises(monkeypatch):
    _no_projection(monkeypatch)
    g = tg_grid(32)
    rng = np.random.default_rng(4)
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    with pytest.raises(NumericalError, match="projection left divergence residual"):
        project(v)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_raises_on_a_nan_or_inf(bad):
    # every mode of the transform turns NaN, and a NaN residual fails no
    # ordered comparison: the check must fail unless the residual passes
    g = tg_grid(16)
    v = taylor_green_field(g, 1.0, 0.0)
    planted = v.components[0].copy()
    planted[3, 5] = bad
    v = VectorField(g, (planted, v.components[1]))
    match = "divergence residual nan: the field holds a NaN or Inf"
    with pytest.raises(NumericalError, match=match):
        project(v)
    # the stream projects its initial data at the call, so it yields none
    with pytest.raises(NumericalError, match=match):
        fluid_snapshots(v, params(2.0, 1.0), 0.1, [0.0, 0.1])



@pytest.mark.parametrize("mode", [(8, 0), (0, 8), (8, 8)])
def test_project_leaves_checkerboard_modes_alone(mode):
    # at an even axis's Nyquist wavenumber the centered difference is
    # exactly 0, so these modes carry no divergence and project unchanged
    g = tg_grid(16)
    xx, yy = g.mesh()
    wave = np.cos(mode[0] * xx + mode[1] * yy)
    v = VectorField(g, (wave, -0.5 * wave))
    assert np.max(np.abs(divergence(v).values)) == 0.0
    for got, ref in zip(project(v).components, v.components):
        assert np.max(np.abs(got - ref)) <= 1e-14
