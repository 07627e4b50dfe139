import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pflab.core import GridSpec, ScalarField
from pflab.inequalities import (MonotoneSamples, check_stampacchia_relation,
                                concave_majorant_family, gn_ratio, gn_theta,
                                stampacchia_vanishing_point)


def linear_hat(n=400, span=3.0):
    s = np.linspace(-0.5, span, n)
    return MonotoneSamples(s, np.clip(1.0 - np.clip(s, 0, None), 0.0, None))


def test_monotone_samples_validation():
    with pytest.raises(ValueError):
        MonotoneSamples([0.0, 1.0], [1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        MonotoneSamples([0.0, 1.0], [-0.1, -0.2])  # negative
    with pytest.raises(ValueError):
        MonotoneSamples([1.0, 0.0], [1.0, 0.0])  # s not increasing


def test_relation_zero_function():
    s = np.linspace(0.0, 2.0, 50)
    f = MonotoneSamples(s, np.zeros(50))
    _, holds = check_stampacchia_relation(f, 0.0, 0.5)
    assert holds.all()
    assert stampacchia_vanishing_point(f, 0.0, 0.5) == 0.0


def test_relation_linear_hat():
    # f(s) = (1-s)_+ : f(s + f(s)) = f(1) = 0 <= eps f(s) for every eps
    f = linear_hat()
    for eps in (0.1, 0.5, 0.9):
        _, holds = check_stampacchia_relation(f, 0.0, eps)
        assert holds.all()
    # conclusion point s0 + f(s0)/(1-eps) = 0 + 1/0.5 = 2
    assert stampacchia_vanishing_point(f, 0.0, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_relation_exponential_split():
    # e^(-s): relation holds iff s <= -log(-log eps); closed-form threshold
    eps = 0.5
    s_star = -np.log(-np.log(eps))
    s = np.linspace(-2.0, 4.0, 4001)
    f = MonotoneSamples(s, np.exp(-s))
    svals, holds = check_stampacchia_relation(f, -2.0, eps)
    ds = s[1] - s[0]
    crossing = svals[np.flatnonzero(~holds)[0]]
    assert abs(crossing - s_star) < 5 * ds
    assert holds[svals < s_star - 5 * ds].all()
    assert not holds[svals > s_star + 5 * ds].any()


def test_vanishing_point_errors_on_violation():
    s = np.linspace(0.0, 6.0, 200)
    f = MonotoneSamples(s, np.exp(-s))  # never vanishes
    with pytest.raises(ValueError, match="violated"):
        stampacchia_vanishing_point(f, 3.0, 0.5)


def test_vanishing_point_monotone_in_eps():
    f = linear_hat()
    pts = [stampacchia_vanishing_point(f, 0.0, e) for e in (0.2, 0.5, 0.8)]
    assert pts[0] < pts[1] < pts[2]


def test_eps_range_checked():
    f = linear_hat()
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            check_stampacchia_relation(f, 0.0, eps)


def test_seeded_family_suite_small():
    # small version of the 200-case acceptance suite with the direct scan
    rng = np.random.default_rng(123)
    for _ in range(40):
        eps = float(rng.uniform(0.05, 0.9))
        fam = concave_majorant_family(rng, eps)
        s0 = float(fam.s[0])
        _, holds = check_stampacchia_relation(fam, s0, eps)
        assert holds.all()
        point = stampacchia_vanishing_point(fam, s0, eps)
        dense = np.linspace(fam.s[0], fam.s[-1] + 2.0, 3001)
        assert np.all(fam(dense)[dense >= point] <= 1e-12 * max(1.0, fam(s0)))


def test_gn_theta_values():
    # (1 - 1/3)/(1 + 1/2 - 1/3) = 4/7
    assert gn_theta(3.0, 1.0, 3.0, 2) == pytest.approx(4.0 / 7.0, abs=1e-15)
    # N(p-1)/(p + N(p-1)) at p=4, N=2 equals 6/10
    assert gn_theta(4.0, 1.0, 4.0, 2) == pytest.approx(0.6, abs=1e-15)


def test_gn_theta_near_zero_as_a_approaches_b():
    assert gn_theta(1.0001, 1.0, 2.0, 1) < 1e-3


def test_gn_theta_input_validation():
    with pytest.raises(ValueError):
        gn_theta(0.9, 0.5, 2.0, 1)  # a <= 1
    with pytest.raises(ValueError):
        gn_theta(2.0, 2.5, 2.0, 1)  # b >= a
    with pytest.raises(ValueError):
        gn_theta(2.0, 1.0, 0.5, 1)  # d <= 1
    with pytest.raises(ValueError):
        gn_theta(50.0, 1.0, 1.05, 2)  # theta leaves [0, 1)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(1.2, 8.0), b=st.floats(0.5, 1.0),
       d=st.floats(1.2, 8.0), n=st.sampled_from((1, 2)))
def test_gn_theta_dimensional_balance(a, b, d, n):
    # N/a = theta (N/d - 1) + (1-theta) N/b restates the formula
    try:
        theta = gn_theta(a, b, d, n)
    except ValueError:
        return
    lhs = n / a
    rhs = theta * (n / d - 1.0) + (1.0 - theta) * n / b
    assert lhs == pytest.approx(rhs, abs=1e-12)


def gaussian(grid, width=1.0):
    mesh = grid.mesh()
    s2 = sum(m**2 for m in mesh) / width**2
    return ScalarField(grid, np.exp(-0.5 * s2))


def test_gn_ratio_scale_invariant():
    g = GridSpec.line(-8.0, 8.0, 256)
    v = gaussian(g)
    r1 = gn_ratio(v, 3.0, 1.0, 3.0)
    v2 = ScalarField(g, 17.3 * v.values)
    assert gn_ratio(v2, 3.0, 1.0, 3.0) == pytest.approx(r1, rel=1e-12)


def test_gn_ratio_rejects_zero_field():
    g = GridSpec.line(-1.0, 1.0, 32)
    with pytest.raises(ValueError):
        gn_ratio(ScalarField.zeros(g), 3.0, 1.0, 3.0)


def test_gn_ratio_dilation_consistency():
    # v_lam(x) = v(x/lam) on a scaled grid: the unbounded-domain ratio is
    # lambda-independent because theta balances the scaling exactly
    base = GridSpec.line(-8.0, 8.0, 512)
    ref = gn_ratio(gaussian(base), 3.0, 1.0, 3.0)
    for lam in (0.25, 4.0):
        g = GridSpec.line(-8.0 * lam, 8.0 * lam, 512)
        v = gaussian(g, width=lam)
        assert gn_ratio(v, 3.0, 1.0, 3.0) == pytest.approx(ref, rel=1e-6)
