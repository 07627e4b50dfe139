"""Independent references the tests check the package against.

None of these runs in an experiment.  They are written from their
definitions (closed forms, quadrature, finite differences and a root
solve), so that a slip in the package's own arithmetic shows up as a
disagreement rather than being copied into the check.
"""

import numpy as np

from pflab.core import ScalarField
from pflab.exact import BarenblattParams, barenblatt_profile


def integral(f) -> float:
    """Signed integral of a scalar field (mass)."""
    if not isinstance(f, ScalarField):
        raise TypeError("integral() expects a ScalarField")
    return float(np.sum(f.values * f.grid.volumes()))


def restrict_integral(f: ScalarField, q: float, s: float) -> float:
    """Integral of ``|f|^q`` over the tail ``{x_N >= s}``.

    The node cells straddling the cut plane contribute with the covered
    fraction of their extent, which makes the result continuous and
    nonincreasing in ``s``.  ``s`` below the box returns the full
    integral, above it returns 0.
    """
    grid = f.grid
    axis = grid.dim - 1
    lo, hi = grid.cell_bounds(axis)
    w_last = np.clip(hi - np.maximum(lo, s), 0.0, None)
    if grid.dim == 1:
        weights = w_last
    else:
        weights = np.outer(grid.quad_weights(0), w_last)
    return float(np.sum(np.abs(f.values)**q * weights))


# ---------------------------------------------------------------------------
# Barenblatt solution
# ---------------------------------------------------------------------------


def barenblatt_value(bp: BarenblattParams, x, t: float):
    """Evaluate the solution at point(s) ``x`` and time ``t > 0``.

    ``x`` may be a scalar / array of radii-like coordinates in 1-D, or an
    array whose last axis has length 2 in 2-D.
    """
    if not t > 0:
        raise ValueError("Barenblatt solution requires t > 0")
    x = np.asarray(x, dtype=float)
    if bp.dim == 1:
        r = np.abs(x)
    else:
        if x.shape[-1] != 2:
            raise ValueError("2-D evaluation expects points with last axis = 2")
        r = np.sqrt(np.sum(x**2, axis=-1))
    rho = r * t ** (-bp.beta)
    out = t ** (-bp.alpha) * barenblatt_profile(bp, rho)
    return float(out) if out.ndim == 0 else out


def barenblatt_mass(bp: BarenblattParams) -> float:
    """Conserved integral of the solution (computed by quadrature)."""
    from scipy import integrate

    r_star = (bp.C / bp.k) ** ((bp.p - 1.0) / bp.p)
    if bp.dim == 1:
        val, _ = integrate.quad(lambda r: barenblatt_profile(bp, r), 0.0, r_star,
                                limit=200)
        return 2.0 * val
    val, _ = integrate.quad(lambda r: r * barenblatt_profile(bp, r), 0.0, r_star,
                            limit=200)
    return 2.0 * np.pi * val


# ---------------------------------------------------------------------------
# residual oracle for the profile constant
# ---------------------------------------------------------------------------


def _radial_operator(bp: BarenblattParams, k: float, r: np.ndarray, t: float,
                     eta: float) -> np.ndarray:
    """mu1 * r^(1-N) d/dr ( r^(N-1) |u_r|^(p-2) u_r ) by nested 4th-order
    finite differences of the candidate profile with constant ``k``."""
    p, n, mu1 = bp.p, bp.dim, bp.mu1

    def u(rr):
        base = bp.C - k * (np.abs(rr) * t ** (-bp.beta)) ** (p / (p - 1.0))
        prof = np.where(base > 0.0, np.clip(base, 0.0, None) ** ((p - 1.0) / (p - 2.0)), 0.0)
        return t ** (-bp.alpha) * prof

    def flux(rr):
        # |u_r|^(p-2) u_r via 4th-order central differencing of u
        ur = (u(rr - 2 * eta) - 8 * u(rr - eta) + 8 * u(rr + eta) - u(rr + 2 * eta)) / (12 * eta)
        return np.abs(ur) ** (p - 2.0) * ur

    dflux = (flux(r - 2 * eta) - 8 * flux(r - eta) + 8 * flux(r + eta) - flux(r + 2 * eta)) / (12 * eta)
    if n == 1:
        return mu1 * dflux
    return mu1 * (dflux + flux(r) / r)


def _time_derivative(bp: BarenblattParams, k: float, r: np.ndarray, t: float,
                     tau: float) -> np.ndarray:
    def u(tt):
        base = bp.C - k * (np.abs(r) * tt ** (-bp.beta)) ** (bp.p / (bp.p - 1.0))
        prof = np.where(base > 0.0, np.clip(base, 0.0, None) ** ((bp.p - 1.0) / (bp.p - 2.0)), 0.0)
        return tt ** (-bp.alpha) * prof

    return (u(t - 2 * tau) - 8 * u(t - tau) + 8 * u(t + tau) - u(t + 2 * tau)) / (12 * tau)


def profile_constant_residual(bp: BarenblattParams, k: float,
                              n_samples: int = 1000, eta: float = 1e-3,
                              signed: bool = False) -> float:
    """Residual of the self-similar ansatz with profile constant ``k``.

    Samples ``u_t - mu1 div(|grad u|^(p-2) grad u)`` at points strictly
    inside the support (radii 15%..85% of the front, times in [0.5, 2]),
    where the solution is smooth, using high-order finite differences
    only.  Returns the max absolute residual, or the mean signed residual
    when ``signed=True`` (used for root finding in ``k``).
    """
    times = np.linspace(0.5, 2.0, 8)
    vals = []
    per_t = max(1, n_samples // len(times))
    for t in times:
        r_star = (bp.C / k) ** ((bp.p - 1.0) / bp.p) * t**bp.beta
        r = np.linspace(0.15 * r_star, 0.85 * r_star, per_t)
        res = _time_derivative(bp, k, r, t, tau=eta * t) - _radial_operator(
            bp, k, r, t, eta=eta * r_star)
        vals.append(res)
    allres = np.concatenate(vals)
    if signed:
        return float(np.mean(allres))
    return float(np.max(np.abs(allres)))


def calibrate_profile_constant(p: float, dim: int, C: float = 1.0,
                               mu1: float = 1.0, n_samples: int = 1000,
                               eta: float = 1e-3) -> float:
    """Solve for the profile constant that kills the residual.

    Independent of the closed form used by :class:`BarenblattParams`: it
    brackets around a crude scale estimate and root-finds the mean signed
    residual, then verifies the max residual at the root.
    """
    from scipy import optimize

    bp = BarenblattParams(p, dim, C, mu1)
    k_hint = bp.k  # only used to bracket; the root is found numerically

    def obj(k):
        return profile_constant_residual(bp, k, n_samples, eta, signed=True)

    k = optimize.brentq(obj, 0.25 * k_hint, 4.0 * k_hint, xtol=1e-14, rtol=1e-13)
    return float(k)
