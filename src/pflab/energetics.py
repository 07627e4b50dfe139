"""Energy functionals over half-space tails and the estimates built on them.

For a trajectory u and a cut position s, the tail energies are

    A_T(s) = integral over (0,T) x {x_N >= s} of |u|^p,
    B_T(s) = integral over (0,T) x {x_N >= s} of |u|^3,

with the combined quantity ``C_T = A_T^(1+beta2) + B_T^(1+beta1)`` and the
jump function ``J_T(s) = max((2c F(T) C_T^beta1)^(1/(p beta)),
(2c F(T) C_T^beta2)^(1/beta))`` whose self-referential decay
``J(s + J(s)) <= eps J(s)`` drives the support bound via the iteration
argument of :mod:`pflab.inequalities`.

The unspecified constants of the underlying estimates are treated as
calibration outputs (measured maximal ratios), never as inputs.  This
module measures and never judges: it returns numbers and raises only on
invalid arguments; which measured value fails a gate is decided by the
experiment that asked for it (:mod:`pflab.experiments`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import ScalarField, gradient, tail_profile
from .inequalities import gn_theta
from .plaplace import Trajectory


@dataclasses.dataclass(frozen=True)
class ScalingExponents:
    """Closed-form exponents of the tail-energy estimates for given (p, N)."""

    p: float
    n: int

    @property
    def alpha1(self) -> float:
        return 2.0 * self.p / self._den2()

    @property
    def beta1(self) -> float:
        return self.p * (self.p - 2.0) / self._den2()

    @property
    def alpha2(self) -> float:
        return (2.0 * self.p + self.n * (self.p - 3.0)) / self._den2()

    @property
    def beta2(self) -> float:
        return self.p / self._den2()

    @property
    def beta(self) -> float:
        return (1.0 + self.beta1) * (1.0 + self.beta2)

    @property
    def theta1(self) -> float:
        return self.n * (self.p - 1.0) / (self.p + self.n * (self.p - 1.0))

    @property
    def theta2(self) -> float:
        return 2.0 * self.n * self.p / (3.0 * (self.p + self.n * (self.p - 1.0)))

    def _den2(self) -> float:
        return 2.0 * self.p + self.n * (self.p - 2.0)

    def F(self, T: float) -> float:
        """Two-branch time factor ``max(T^(a1(1+b2)), T^(a2(1+b1)))``."""
        return float(max(T ** (self.alpha1 * (1.0 + self.beta2)),
                         T ** (self.alpha2 * (1.0 + self.beta1))))

    def identity_residuals(self) -> dict[str, float]:
        """Deviations of the algebraic identities tying these exponents to
        the envelope formulas and the interpolation exponent."""
        p, n = self.p, self.n
        res = {
            "alpha1_over_p": abs(self.alpha1 / p - 2.0 / self._den2()),
            "alpha2_large_branch": abs(
                self.alpha2 - (2.0 * p + n * (p - 3.0)) / self._den2()),
            "l1_reduction": abs(
                (self.beta1 + self.alpha1)
                / (p * (1.0 + self.beta1) + n * self.beta1 * (p - 1.0))
                - 1.0 / (p + n * (p - 2.0))),
            "theta1_vs_gn": abs(self.theta1 - gn_theta(p, 1.0, p, n)),
            "theta2_vs_gn": abs(self.theta2 - gn_theta(3.0, 1.0, p, n)),
        }
        return res


# ---------------------------------------------------------------------------
# tail integrals over trajectories
# ---------------------------------------------------------------------------


class TrajectoryTails:
    """Cached per-snapshot tail profiles so many cut positions are cheap.

    ``kind`` is 'value' for |u|^q or 'gradient' for |grad u|^q.  The
    time integrals run over the whole run, to its last snapshot ``T``.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._profiles: dict = {}
        f0 = traj.fields[0]
        lo, hi, _ = tail_profile(f0, 1.0)
        self.cell_lo, self.cell_hi = lo, hi
        self.T = traj.end_time
        dt = np.diff(traj.times)
        self._weights = np.zeros(len(traj.times))
        self._weights[1:] += 0.5 * dt
        self._weights[:-1] += 0.5 * dt

    def _rows(self, q: float, kind: str) -> np.ndarray:
        key = (q, kind)
        if key not in self._profiles:
            if kind not in ("value", "gradient"):
                raise ValueError(f"unknown tail kind {kind!r}")
            rows = np.empty((len(self.traj.fields), self.cell_lo.size))
            for row, f in zip(rows, self.traj.fields):
                if kind == "gradient":
                    f = ScalarField(f.grid, gradient(f).magnitude())
                row[:] = tail_profile(f, q)[2]
            self._profiles[key] = rows
        return self._profiles[key]

    def space_tail(self, q: float, kind: str, s) -> np.ndarray:
        """Per-snapshot tail integrals at cut(s) s: shape (n_snap,) or
        (n_s, n_snap)."""
        rows = self._rows(q, kind)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        w = np.clip(self.cell_hi[None, :] - np.maximum(self.cell_lo[None, :],
                                                       s_arr[:, None]), 0.0, None)
        out = w @ rows.T
        return out[0] if np.ndim(s) == 0 else out

    def time_integral(self, q: float, kind: str, s):
        """Space-time tail integral over the run (trapezoid over snapshots)."""
        out = np.atleast_2d(self.space_tail(q, kind, s)) @ self._weights
        return float(out[0]) if np.ndim(s) == 0 else out

    def sup_space(self, q: float, kind: str, s):
        """max over the snapshots of the space tail."""
        out = np.atleast_2d(self.space_tail(q, kind, s)).max(axis=1)
        return float(out[0]) if np.ndim(s) == 0 else out


def _tail_energies(tails: TrajectoryTails, p: float, s):
    """``A_T`` and ``B_T`` at the cut(s) ``s``."""
    return (tails.time_integral(p, "value", s),
            tails.time_integral(3.0, "value", s))


def _local_energy(tails: TrajectoryTails, p: float, mu1: float, s):
    """The local-energy left side ``L`` at the cut(s) ``s``: the sup over
    time of the tail of |u|^2, plus its space-time tail over ``T``, plus
    ``mu1`` times the space-time tail of |grad u|^p."""
    return (tails.sup_space(2.0, "value", s)
            + tails.time_integral(2.0, "value", s) / tails.T
            + mu1 * tails.time_integral(p, "gradient", s))


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EnergyLedger:
    """Sampled tail energies over an s-grid, over the whole run (0, T).

    ``L`` is the local-energy left side at each s with unit constant in
    front of the dissipation term (the source estimate leaves that
    constant unnamed).
    """

    T: float
    p: float
    n: int
    s: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    J: np.ndarray
    ctilde: float
    L: np.ndarray

    def with_ctilde(self, ctilde: float) -> EnergyLedger:
        """The same tails with J rebuilt for the constant ``ctilde``."""
        return dataclasses.replace(
            self, J=_jump(self.C, self.p, self.n, self.T, ctilde), ctilde=ctilde)


def build_ledger(tails: TrajectoryTails, p: float, s_grid,
                 mu1: float) -> EnergyLedger:
    """Fill A, B, C, L and J over ``s_grid``, J with its constant ``ctilde``
    in the factor ``2 ctilde F(T)`` at 1; :meth:`EnergyLedger.with_ctilde`
    rebuilds J for another value."""
    n, T = tails.traj.grid.dim, tails.T
    ex = ScalingExponents(p, n)
    s = np.asarray(s_grid, dtype=float)
    a, b = _tail_energies(tails, p, s)
    c = a ** (1.0 + ex.beta2) + b ** (1.0 + ex.beta1)
    return EnergyLedger(T, p, n, s, a, b, c, _jump(c, p, n, T, 1.0), 1.0,
                        _local_energy(tails, p, mu1, s))


def _jump(c: np.ndarray, p: float, n: int, T: float, ctilde: float) -> np.ndarray:
    """The jump function J of the combined tail energy ``c``."""
    ex = ScalingExponents(p, n)
    f_t = ex.F(T)
    j1 = (2.0 * ctilde * f_t * c**ex.beta1) ** (1.0 / (p * ex.beta))
    j2 = (2.0 * ctilde * f_t * c**ex.beta2) ** (1.0 / ex.beta)
    return np.maximum(j1, j2)


# ---------------------------------------------------------------------------
# local energy estimate
# ---------------------------------------------------------------------------


def local_energy_ratio(tails: TrajectoryTails, s: float, delta: float,
                       mu1: float, p: float) -> tuple[float, float, float]:
    """Measured constant of the local energy estimate: ``(lhs, rhs, ratio)``
    with lhs = L(s + delta) and rhs = delta^-p * A_T(s) + delta^-1 * B_T(s).

    Ratio conventions: 0 when both sides vanish, inf when only the right
    side does.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    lhs = _local_energy(tails, p, mu1, s + delta)
    a, b = _tail_energies(tails, p, s)
    rhs = a / delta**p + b / delta
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return float(lhs), float(rhs), float(ratio)


# ---------------------------------------------------------------------------
# iteration mechanism
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class IterationReport:
    holds: np.ndarray
    s0: float | None
    predicted_vanishing: float | None
    vanished_beyond: bool
    tightest_point: float | None = None  # min over admissible onsets

    @property
    def passed(self) -> bool:
        return self.s0 is not None and self.vanished_beyond


def check_iteration(ledger: EnergyLedger, eps: float) -> IterationReport:
    """Test ``J(s + J(s)) <= eps J(s)`` on the ledger's s-grid.

    J is linearly interpolated and extended by its last value.  Where the
    relation holds from some grid point onward, the report carries the
    predicted vanishing point ``s0 + J(s0)/(1 - eps)`` and whether J
    stays below ``1e-12 * max(1, max J)`` beyond it.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    s, j = ledger.s, ledger.J
    j_at = lambda x: np.interp(x, s, j)
    slack = 1e-12 * max(1.0, float(j.max()) if len(j) else 0.0)
    holds = j_at(s + j) <= eps * j + slack
    if holds.all():
        i0 = 0
    elif holds[-1]:
        i0 = int(np.flatnonzero(~holds)[-1]) + 1
    else:
        i0 = None
    if i0 is None:
        return IterationReport(holds, None, None, False)
    s0 = float(s[i0])
    predicted = s0 + float(j[i0]) / (1.0 - eps)
    tightest = float(np.min(s[i0:] + j[i0:] / (1.0 - eps)))
    vanish_tol = 1e-12 * max(1.0, float(j.max()))
    beyond = j[s >= predicted]
    max_beyond = float(beyond.max()) if len(beyond) else float(j_at(predicted))
    return IterationReport(holds, s0, predicted,
                           bool(max_beyond <= vanish_tol), tightest)


# ---------------------------------------------------------------------------
# decay estimate
# ---------------------------------------------------------------------------


def decay_bound(s, T: float, p: float, n: int):
    """Unit-constant tail decay bound ``T (s^(-N(p-1)) + s^(-2N/(p+N(p-3))))``."""
    if p + n * (p - 3.0) <= 0:
        raise ValueError("decay bound undefined: p + N(p-3) <= 0")
    if p < (3 * n + 1) / (n + 1):
        raise ValueError(
            f"decay bound needs p >= (3N+1)/(N+1) = {(3*n+1)/(n+1):.6g}")
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("decay bound is stated for s > 0")
    out = T * (s ** (-n * (p - 1.0)) + s ** (-2.0 * n / (p + n * (p - 3.0))))
    return float(out) if out.ndim == 0 else out


def check_decay(tails: TrajectoryTails, p: float, s_grid) -> float:
    """Measure the decay-bound constant on a trajectory: the maximal ratio
    of the measured ``A_T + B_T`` to the unit-constant bound over the
    s-grid.

    It measures and never judges: the estimate presumes an L1 norm that
    does not grow, and the caller audits that hypothesis and the
    constant's stability under refinement.
    """
    s = np.asarray(s_grid, dtype=float)
    if np.any(s <= 0):
        raise ValueError("decay check needs s > 0")
    a, b = _tail_energies(tails, p, s)
    total = a + b
    unit = decay_bound(s, tails.T, p, tails.traj.grid.dim)
    return float(np.max(np.divide(total, unit, out=np.zeros_like(total),
                                  where=unit > 0)))
