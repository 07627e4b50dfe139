"""Closed-form reference solutions used as fixtures and oracles.

* The self-similar Barenblatt solution of the scalar degenerate
  diffusion ``u_t = mu1 div(|grad u|^(p-2) grad u)``, ``p > 2``:

      u(x, t) = t^(-alpha) * (C - k (|x| t^(-beta))^(p/(p-1)))_+^((p-1)/(p-2))

  with ``beta = 1/(p + N(p-2))``, ``alpha = N beta`` and the profile
  constant ``k = ((p-2)/p) * (beta/mu1)^(1/(p-1))``.  The value of ``k``
  follows from inserting the ansatz into the equation and integrating the
  resulting profile ODE once; the test suite re-derives it with a
  finite-difference residual oracle at ~1e3 sample points rather than
  trusting the algebra.

* The decaying Taylor-Green vortex, an exact solution of the
  incompressible fluid system when the stress is linear (p = 2): the
  advection term is a pure gradient absorbed by the pressure and the
  viscous term reduces to ``(mu1/2) Lap u = -mu1 u``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import GridSpec, ScalarField, VectorField


@dataclasses.dataclass(frozen=True)
class BarenblattParams:
    """Parameters of the self-similar compactly supported solution."""

    p: float
    dim: int
    C: float = 1.0
    mu1: float = 1.0

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError("Barenblatt profiles require p > 2")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not self.C > 0:
            raise ValueError("profile height C must be positive")
        if not self.mu1 > 0:
            raise ValueError("mu1 must be positive")

    @property
    def beta(self) -> float:
        """Self-similar front exponent 1/(p + N(p-2))."""
        return 1.0 / (self.p + self.dim * (self.p - 2.0))

    @property
    def alpha(self) -> float:
        """Amplitude decay exponent, N * beta (mass conservation)."""
        return self.dim * self.beta

    @property
    def k(self) -> float:
        """Profile constant fixing the parabolic contact at the front."""
        return ((self.p - 2.0) / self.p) * (self.beta / self.mu1) ** (1.0 / (self.p - 1.0))


def barenblatt_profile(bp: BarenblattParams, rho) -> np.ndarray:
    """Self-similar profile ``F(rho) = (C - k rho^(p/(p-1)))_+^((p-1)/(p-2))``."""
    rho = np.asarray(rho, dtype=float)
    base = bp.C - bp.k * np.abs(rho) ** (bp.p / (bp.p - 1.0))
    return np.where(base > 0.0, np.clip(base, 0.0, None) ** ((bp.p - 1.0) / (bp.p - 2.0)), 0.0)


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


def barenblatt_front_radius(bp: BarenblattParams, t: float) -> float:
    """Exact support radius ``(C/k)^((p-1)/p) * t^beta``."""
    if not t > 0:
        raise ValueError("Barenblatt solution requires t > 0")
    return float((bp.C / bp.k) ** ((bp.p - 1.0) / bp.p) * t**bp.beta)


def barenblatt_field(bp: BarenblattParams, grid: GridSpec, t: float,
                     center=None) -> ScalarField:
    """Sample the solution on a grid, optionally translated to ``center``."""
    mesh = grid.mesh()
    if center is None:
        center = (0.0,) * grid.dim
    if grid.dim != bp.dim:
        raise ValueError("grid dimension does not match profile dimension")
    r2 = np.zeros(grid.shape)
    for ax, m in enumerate(mesh):
        r2 = r2 + (m - center[ax]) ** 2
    if not t > 0:
        raise ValueError("Barenblatt solution requires t > 0")
    rho = np.sqrt(r2) * t ** (-bp.beta)
    return ScalarField(grid, t ** (-bp.alpha) * barenblatt_profile(bp, rho))


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


# ---------------------------------------------------------------------------
# Taylor-Green vortex
# ---------------------------------------------------------------------------


def taylor_green(mu1: float, x, y, t: float):
    """Decaying vortex ``(sin x cos y, -cos x sin y) * exp(-mu1 t)``.

    Exact solution of the p = 2 fluid system on the 2-pi-periodic box:
    divergence-free, advection is a pure gradient, viscous term equals
    ``-mu1 u``.
    """
    amp = np.exp(-mu1 * t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return amp * np.sin(x) * np.cos(y), -amp * np.cos(x) * np.sin(y)


def taylor_green_field(grid: GridSpec, mu1: float, t: float) -> VectorField:
    xx, yy = grid.mesh()
    u, v = taylor_green(mu1, xx, yy, t)
    return VectorField(grid, (u, v))


# ---------------------------------------------------------------------------
# initial-data helpers shared by experiments
# ---------------------------------------------------------------------------


def halfspace_initial_data(bp: BarenblattParams, grid: GridSpec,
                           t0: float) -> ScalarField:
    """Compactly supported data whose support touches ``x_N = 0`` from the left.

    A Barenblatt snapshot at time ``t0`` translated so its right edge sits
    exactly at the origin.  The parabolic contact at the edge makes the
    front move immediately (a flatter, infinitely smooth ramp would sit
    still for a waiting time and poison early-time envelope calibration).
    """
    r_star = barenblatt_front_radius(bp, t0)
    center = (0.0,) * (grid.dim - 1) + (-r_star,)
    return barenblatt_field(bp, grid, t0, center=center)
