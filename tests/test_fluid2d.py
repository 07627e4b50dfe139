import numpy as np
import pytest

from pflab.core import (GridSpec, ModelParams, PERIODIC, ScalarField,
                        VectorField, divergence, integral, lp_norm)
from pflab.errors import NumericalError
from pflab.exact import taylor_green_field
from pflab.fluid2d import (FluidConfig, FluidState, advect, band_initial_data,
                           fluid_step, kinetic_energy, project,
                           random_stream_coeffs, simulate_fluid, stream_field,
                           stream_function_field, viscous_term, weak_residual)


def tg_grid(n=64):
    return GridSpec.box(0.0, 2 * np.pi, n, bc=PERIODIC)


def params(p=2.0, mu1=1.0):
    return ModelParams(p, mu1, 2)


def test_viscous_rigid_rotation_zero_interior():
    g = tg_grid(48)
    xx, yy = g.mesh()
    rot = VectorField(g, (-(yy - np.pi), xx - np.pi))
    out = viscous_term(rot, params(3.0), 0.0)
    inner = (slice(3, -3), slice(3, -3))
    assert max(np.max(np.abs(c[inner])) for c in out.components) < 1e-12


def test_viscous_linear_shear_zero_interior():
    # |Du| constant: divergence of a constant flux vanishes for any p
    g = tg_grid(48)
    xx, yy = g.mesh()
    shear = VectorField(g, (yy - np.pi, np.zeros(g.shape)))
    out = viscous_term(shear, params(3.5), 0.0)
    inner = (slice(3, -3), slice(3, -3))
    assert max(np.max(np.abs(c[inner])) for c in out.components) < 1e-12


def test_viscous_p2_half_laplacian():
    # identity div(Du) = Lap(u)/2 for divergence-free fields, on the vortex
    errs = []
    for n in (32, 64):
        g = tg_grid(n)
        tg = taylor_green_field(g, 1.0, 0.0)
        visc = viscous_term(tg, params(2.0), 0.0)
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
    v = stream_function_field(g, rng)
    out = viscous_term(v, params(3.0), 0.1)
    for comp in out.components:
        assert abs(np.sum(comp)) <= 1e-12 * np.sum(np.abs(comp))


def test_advect_uniform_translation_invariant():
    g = tg_grid(32)
    v = VectorField(g, (np.full(g.shape, 0.7), np.full(g.shape, -0.3)))
    for scheme in ("central", "upwind"):
        out = advect(v, 1e-2, scheme)
        assert np.max(np.abs(out.components[0] - 0.7)) < 1e-14
        assert np.max(np.abs(out.components[1] + 0.3)) < 1e-14


def test_advect_zero_field():
    g = tg_grid(16)
    out = advect(VectorField.zeros(g), 1e-2, "upwind")
    assert all(np.all(c == 0.0) for c in out.components)


def test_advect_cfl_violation_raises():
    g = tg_grid(32)
    v = VectorField(g, (np.full(g.shape, 10.0), np.zeros(g.shape)))
    with pytest.raises(NumericalError, match="CFL"):
        advect(v, 1.0, "central")


def test_advect_taylor_green_term_is_gradient():
    # (u.grad)u for the vortex is a pure gradient: projecting the
    # advection tendency leaves O(h^2)
    g = tg_grid(64)
    tg = taylor_green_field(g, 1.0, 0.0)
    dt = 1e-3
    out = advect(tg, dt, "central")
    tend = VectorField(g, tuple((a - b) / dt for a, b in
                                zip(out.components, tg.components)))
    proj, _ = project(tend)
    mag = proj.magnitude().max()
    assert mag < 5e-3  # vs O(1) tendency magnitude


def test_project_properties():
    g = tg_grid(64)
    rng = np.random.default_rng(0)
    v = VectorField(g, (rng.normal(size=g.shape), rng.normal(size=g.shape)))
    v1, pressure = project(v)
    assert np.max(np.abs(divergence(v1).values)) < 1e-11
    v2, _ = project(v1)
    assert max(np.max(np.abs(a - b)) for a, b in zip(v1.components, v2.components)) < 1e-11
    # pure discrete gradient fields project to ~0
    psi = rng.normal(size=g.shape)
    h = g.spacing[0]
    gx = (np.roll(psi, -1, 0) - np.roll(psi, 1, 0)) / (2 * h)
    gy = (np.roll(psi, -1, 1) - np.roll(psi, 1, 1)) / (2 * h)
    killed, _ = project(VectorField(g, (gx, gy)))
    assert killed.magnitude().max() < 1e-11 * max(1.0, np.abs(psi).max())
    # divergence-free fields pass through
    tg = taylor_green_field(g, 1.0, 0.0)
    same, _ = project(tg)
    assert max(np.max(np.abs(a - b)) for a, b in zip(tg.components, same.components)) < 1e-11


def test_fluid_step_zero_state():
    g = tg_grid(16)
    state = FluidState.from_velocity(VectorField.zeros(g))
    out = fluid_step(state, FluidConfig(params()), 1e-3)
    assert all(np.all(c == 0.0) for c in out.velocity.components)
    assert out.time == pytest.approx(1e-3)


def test_taylor_green_energy_decay_small():
    g = tg_grid(64)
    cfg = FluidConfig(params(2.0, 1.0), eps_reg=0.0, advection="central")
    traj = simulate_fluid(taylor_green_field(g, 1.0, 0.0), cfg, 0.5,
                          np.linspace(0, 0.5, 26))
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
    zero = VectorField.zeros(g)
    from pflab.plaplace import Trajectory

    traj = Trajectory(np.array([0.0, 0.1, 0.2]), [zero, zero.copy(), zero.copy()])
    phi = stream_function_field(g, np.random.default_rng(1))
    assert weak_residual(traj, phi, params()) == 0.0


def test_weak_residual_linear_in_phi():
    g = tg_grid(32)
    cfg = FluidConfig(params(), advection="central")
    traj = simulate_fluid(taylor_green_field(g, 1.0, 0.0), cfg, 0.2,
                          np.linspace(0, 0.2, 11))
    coeffs = random_stream_coeffs(np.random.default_rng(3))
    phi = stream_field(g, coeffs)
    phi2 = stream_field(g, coeffs, amplitude=2.0)
    r1 = weak_residual(traj, phi, params())
    r2 = weak_residual(traj, phi2, params())
    assert r2 == pytest.approx(2.0 * r1, rel=1e-10)


def test_weak_residual_rejects_divergent_test_field():
    g = tg_grid(32)
    from pflab.plaplace import Trajectory

    zero = VectorField.zeros(g)
    traj = Trajectory(np.array([0.0, 0.1, 0.2]), [zero, zero.copy(), zero.copy()])
    xx, _ = g.mesh()
    bad = VectorField(g, (np.sin(xx), np.zeros(g.shape)))
    with pytest.raises(ValueError, match="divergence-free"):
        weak_residual(traj, bad, params())


def test_band_initial_data_support_and_divergence():
    g = GridSpec.box((0.0, -np.pi), (2 * np.pi, np.pi), 64, PERIODIC)
    v = band_initial_data(g, -1.5, 0.8, 1.0)
    assert np.max(np.abs(divergence(v).values)) < 1e-12
    y = g.coords(1)
    mag = v.magnitude()
    outside = (y < -2.4) | (y > -0.6)
    assert np.max(mag[:, outside]) == 0.0


@pytest.mark.parametrize("field,value", [
    ("cfl_safety", 0.0), ("cfl_safety", 1.5), ("dt_max", 0.0)])
def test_fluid_config_rejects_values_that_hang(field, value):
    with pytest.raises(ValueError, match=field):
        FluidConfig(params(), **{field: value})
