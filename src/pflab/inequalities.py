"""Executable forms of the Stampacchia-type iteration argument and of the
Gagliardo-Nirenberg interpolation inequality.

The iteration argument: a nonnegative, continuous, nonincreasing f with
``f(s + f(s)) <= eps f(s)`` for all ``s >= s0`` (0 < eps < 1) vanishes
identically beyond ``s0 + f(s0)/(1 - eps)``.  Sampled functions are
interpreted by linear interpolation, extended by the last value.

The interpolation inequality: ``|v|_a <= d1 |grad v|_d^theta |v|_b^(1-theta)
+ d2 |v|_b`` with the scaling-balance exponent
``theta = (1/b - 1/a) / (1/b + 1/N - 1/d)``; ``d2 = 0`` on unbounded
domains and ``d2 ~ delta^(-N(a-b)/(ab))`` on a slab of thickness delta.
The constants are never computed analytically here: ``gn_ratio`` reports
the empirical ratio with unit constants, and the suites assert its
stability, not a specific bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import ScalarField, gradient, lp_norm


@dataclasses.dataclass
class MonotoneSamples:
    """Sampled nonnegative nonincreasing function on an increasing grid."""

    s: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.s.shape != self.f.shape or self.s.ndim != 1 or len(self.s) < 2:
            raise ValueError("need matching 1-D sample arrays of length >= 2")
        if np.any(np.diff(self.s) <= 0):
            raise ValueError("sample locations must be strictly increasing")
        if np.any(self.f < 0):
            raise ValueError("samples must be nonnegative")
        slack = 1e-12 * max(1.0, float(self.f.max()))
        if np.any(np.diff(self.f) > slack):
            raise ValueError("samples must be nonincreasing (within 1e-12 slack)")

    def __call__(self, x):
        """Linear interpolation, extended by the end values."""
        return np.interp(x, self.s, self.f)


def check_stampacchia_relation(f: MonotoneSamples, s0: float, eps: float):
    """Per-sample truth of ``f(s + f(s)) <= eps f(s)`` for ``s >= s0``.

    Returns ``(s_values, holds)`` over the sample grid restricted to
    ``s >= s0``.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    sel = f.s >= s0
    s = f.s[sel]
    fs = f.f[sel]
    holds = f(s + fs) <= eps * fs + 1e-300
    return s, holds


def stampacchia_vanishing_point(f: MonotoneSamples, s0: float, eps: float) -> float:
    """``s0 + f(s0)/(1 - eps)``, after verifying the relation on the grid
    and confirming by direct scan that f stays below ``1e-12 * f(s0)``
    beyond the returned point."""
    s, holds = check_stampacchia_relation(f, s0, eps)
    if not holds.all():
        bad = s[~holds]
        raise ValueError(
            f"iteration relation violated at {len(bad)} sample(s), "
            f"first at s = {bad[0]:.6g}")
    f_s0 = float(f(s0))
    point = s0 + f_s0 / (1.0 - eps)
    vanish_tol = 1e-12 * f_s0
    beyond = f.f[f.s >= point]
    tail = float(f(max(point, f.s[-1])))
    worst = max(float(beyond.max()) if len(beyond) else 0.0, tail)
    if worst > vanish_tol:
        raise ValueError(
            f"function fails to vanish beyond {point:.6g}: max {worst:.3e} "
            f"> tol {vanish_tol:.3e}")
    return float(point)


def concave_majorant_family(rng: np.random.Generator, eps: float) -> MonotoneSamples:
    """Random piecewise-linear nonincreasing function on 200 knots, built
    to satisfy the iteration relation by construction.

    Every interval inside the positive region drops by at least
    ``(1-eps) ds``, so the interpolant declines at rate >= (1-eps) along
    any path inside its support and ``f(s + f(s)) <= eps f(s)``
    everywhere; a residual value smaller than ``(1-eps) ds`` is snapped
    to 0 so the final interval keeps the slope bound.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    n_samples = 200
    f0 = float(rng.uniform(0.1, 5.0))
    s_start = float(rng.uniform(-2.0, 2.0))
    span = 1.2 * f0 / (1.0 - eps) + 1.0
    s = np.linspace(s_start, s_start + span, n_samples)
    ds = s[1] - s[0]
    # steepness factors grow along the support (concave flavour)
    extra = np.cumsum(rng.uniform(0.0, 0.5, size=n_samples - 1))
    drops = (1.0 - eps) * ds * (1.0 + rng.uniform(0.05, 1.0) + extra)
    f = np.empty(n_samples)
    f[0] = f0
    floor = (1.0 - eps) * ds
    for i in range(n_samples - 1):
        nxt = f[i] - drops[i]
        f[i + 1] = nxt if nxt >= floor else 0.0
    return MonotoneSamples(s, f)


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------


def gn_theta(a: float, b: float, d: float, n: int) -> float:
    """Scaling-balance exponent ``(1/b - 1/a)/(1/b + 1/N - 1/d)``."""
    if not a > 1:
        raise ValueError("need a > 1")
    if not 0 < b < a:
        raise ValueError("need b in (0, a)")
    if not d > 1:
        raise ValueError("need d > 1")
    theta = (1.0 / b - 1.0 / a) / (1.0 / b + 1.0 / n - 1.0 / d)
    if not 0 <= theta < 1:
        raise ValueError(f"theta = {theta:.6g} outside [0, 1): "
                         "interpolation hypotheses violated")
    return float(theta)


def gn_ratio(v: ScalarField, a: float, b: float, d: float) -> float:
    """Empirical constant ``|v|_a / (|grad v|_d^theta |v|_b^(1-theta))``
    of the unbounded-domain inequality, with unit constants.
    Scale-invariant in v.
    """
    n = v.grid.dim
    theta = gn_theta(a, b, d, n)
    num = lp_norm(v, a)
    if num == 0.0:
        raise ValueError("gn_ratio needs a field that is not identically zero")
    grad_norm = lp_norm(gradient(v), d)
    low_norm = lp_norm(v, b)
    den = grad_norm**theta * low_norm ** (1.0 - theta)
    return float(num / den)
