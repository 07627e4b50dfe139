import numpy as np
import pytest

from pflab.core import GridSpec, PERIODIC, ScalarField, divergence, lp_norm
from pflab.exact import (BarenblattParams, barenblatt_field,
                         barenblatt_front_radius, halfspace_initial_data,
                         taylor_green, taylor_green_field)

from oracles import (barenblatt_mass, barenblatt_value,
                     calibrate_profile_constant, profile_constant_residual)


def test_exponents():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    assert bp.beta == pytest.approx(0.25, abs=1e-15)
    assert bp.alpha == pytest.approx(bp.dim * bp.beta, abs=1e-15)
    bp2 = BarenblattParams(3.0, 2, C=1.0, mu1=1.0)
    assert bp2.beta == pytest.approx(0.2, abs=1e-15)


def test_profile_constant_residual_oracle():
    """Independent confirmation of the closed-form profile constant.

    High-order finite differences of the ansatz at ~1e3 interior points;
    the root of the signed residual must match the closed form and the
    residual there must be far below the 1e-8 gate.  Also checked to be
    differencing-step independent.
    """
    for p, n in ((3.0, 1), (3.0, 2), (2.5, 1)):
        bp = BarenblattParams(p, n, C=1.0, mu1=1.0)
        k_oracle = calibrate_profile_constant(p, n, C=1.0, mu1=1.0)
        assert k_oracle == pytest.approx(bp.k, rel=1e-7)
        assert profile_constant_residual(bp, bp.k) < 1e-8
        k_half = calibrate_profile_constant(p, n, C=1.0, mu1=1.0, eta=5e-4)
        assert k_half == pytest.approx(k_oracle, rel=1e-7)
    # viscosity enters the constant too
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=2.5)
    assert calibrate_profile_constant(3.0, 1, mu1=2.5) == pytest.approx(bp.k, rel=1e-7)


def test_value_outside_front_is_zero():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    r = barenblatt_front_radius(bp, 2.0)
    assert barenblatt_value(bp, r * 1.01, 2.0) == 0.0
    assert barenblatt_value(bp, -r * 1.5, 2.0) == 0.0


def test_on_axis_value():
    # residual oracle (above) certifies the profile; on-axis is then
    # direct substitution: value(0, 1) = C^((p-1)/(p-2)) = 1 for C = 1
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    assert barenblatt_value(bp, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_self_similarity_identity():
    bp = BarenblattParams(3.5, 2, C=0.8, mu1=1.0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = float(rng.uniform(0.2, 5.0))
        x = rng.uniform(-3.0, 3.0, size=2)
        lam = t
        lhs = barenblatt_value(bp, x, t)
        rhs = lam ** (-bp.alpha) * barenblatt_value(bp, x * lam ** (-bp.beta), 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_front_radius_scaling():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    assert barenblatt_front_radius(bp, 1.0) == pytest.approx(
        (bp.C / bp.k) ** ((bp.p - 1) / bp.p), rel=1e-14)
    # beta = 1/4 so a factor 16 in time doubles the radius
    assert barenblatt_front_radius(bp, 16.0) / barenblatt_front_radius(bp, 1.0) \
        == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        barenblatt_front_radius(bp, 0.0)
    with pytest.raises(ValueError):
        barenblatt_value(bp, 0.0, -1.0)


def test_front_sign_change_on_ray():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    t = 2.5
    r = barenblatt_front_radius(bp, t)
    xs = np.linspace(0.0, 1.5 * r, 2000)
    vals = barenblatt_value(bp, xs, t)
    assert np.all(vals[xs < r * 0.999] > 0)
    assert np.all(vals[xs > r * 1.001] == 0)


def test_front_radius_increasing_concave():
    bp = BarenblattParams(3.0, 2, C=1.0, mu1=1.0)
    t = np.linspace(0.5, 20.0, 200)
    r = np.array([barenblatt_front_radius(bp, ti) for ti in t])
    assert np.all(np.diff(r) > 0)
    assert np.all(np.diff(r, 2) < 0)


def test_mass_time_invariant_on_grid():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    g = GridSpec.line(-8.0, 8.0, 4096)
    masses = [lp_norm(barenblatt_field(bp, g, t), 1.0) for t in (1.0, 2.0, 5.0)]
    ref = barenblatt_mass(bp)
    for m in masses:
        assert m == pytest.approx(ref, abs=1e-4)


def test_taylor_green_exactness():
    # t = 0 unit amplitude; decay factor e^(-mu1 t)
    u, v = taylor_green(1.0, np.pi / 2, 0.0, 0.0)
    assert u == pytest.approx(1.0) and v == pytest.approx(0.0, abs=1e-15)
    u1, _ = taylor_green(1.0, np.pi / 2, 0.0, 1.0)
    assert u1 == pytest.approx(np.exp(-1.0), rel=1e-14)  # 0.367879...


def test_taylor_green_divergence_free():
    g = GridSpec.box(0.0, 2 * np.pi, 64, bc=PERIODIC)
    tg = taylor_green_field(g, 1.0, 0.3)
    assert np.max(np.abs(divergence(tg).values)) < 1e-13


def test_taylor_green_momentum_balance():
    """Substitution oracle: u_t - mu1 div(Du) + (u.grad)u must be a
    pure gradient (the pressure term), i.e. have zero curl."""
    g = GridSpec.box(0.0, 2 * np.pi, 96, bc=PERIODIC)
    xx, yy = g.mesh()
    mu1, t = 0.7, 0.4
    amp = np.exp(-mu1 * t)
    # analytic pieces at time t
    ut = (-mu1 * amp * np.sin(xx) * np.cos(yy),
          mu1 * amp * np.cos(xx) * np.sin(yy))
    visc = (-mu1 * amp * np.sin(xx) * np.cos(yy),
            mu1 * amp * np.cos(xx) * np.sin(yy))  # (mu1/2) Lap u = -mu1 u
    adv = (amp**2 * np.sin(xx) * np.cos(xx), amp**2 * np.sin(yy) * np.cos(yy))
    rx = ut[0] - visc[0] + adv[0]
    ry = ut[1] - visc[1] + adv[1]
    h = g.spacing[0]
    curl = ((np.roll(ry, -1, 0) - np.roll(ry, 1, 0))
            - (np.roll(rx, -1, 1) - np.roll(rx, 1, 1))) / (2 * h)
    assert np.max(np.abs(curl)) < 1e-12


def test_halfspace_data_edge_at_zero():
    bp = BarenblattParams(3.0, 1, C=1.0, mu1=1.0)
    g = GridSpec.line(-6.0, 3.0, 1024)
    u0 = halfspace_initial_data(bp, g, t0=0.25)
    x = g.coords(0)
    assert np.all(u0.values[x > 1e-12] == 0.0)
    assert u0.values[x <= 0].max() > 0
