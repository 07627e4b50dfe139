"""Closed-form solutions the experiments start from and compare against.

* The self-similar Barenblatt solution of the scalar degenerate
  diffusion ``u_t = mu1 div(|grad u|^(p-2) grad u)``, ``p > 2``:

      u(x, t) = t^(-alpha) * (C - k (|x| t^(-beta))^(p/(p-1)))_+^((p-1)/(p-2))

  with ``beta = 1/(p + N(p-2))``, ``alpha = N beta`` and the profile
  constant ``k = ((p-2)/p) * (beta/mu1)^(1/(p-1))``.  The value of ``k``
  follows from inserting the ansatz into the equation and integrating the
  resulting profile ODE once.  The pointwise values, the mass and a
  finite-difference re-derivation of ``k`` that check this algebra live
  with the tests, in ``tests/oracles.py``.

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
    C: float
    mu1: float

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
