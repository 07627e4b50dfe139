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

    ``kind`` is 'value' for |u|^q or 'gradient' for |grad u|^q.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._profiles: dict = {}
        f0 = traj.fields[0]
        lo, hi, _ = tail_profile(f0, 1.0)
        self.cell_lo, self.cell_hi = lo, hi

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

    def _time_weights(self, T: float) -> np.ndarray:
        t = self.traj.times
        if T > t[-1] + 1e-9 * max(1.0, t[-1]):
            raise ValueError(f"T = {T} beyond trajectory end {t[-1]}")
        if not T > 0:
            raise ValueError("T must be positive")
        tc = np.minimum(t, T)
        w = np.zeros(len(t))
        dt = np.diff(tc)
        w[1:] += 0.5 * dt
        w[:-1] += 0.5 * dt
        return w

    def space_tail(self, q: float, kind: str, s) -> np.ndarray:
        """Per-snapshot tail integrals at cut(s) s: shape (n_snap,) or
        (n_s, n_snap)."""
        rows = self._rows(q, kind)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        w = np.clip(self.cell_hi[None, :] - np.maximum(self.cell_lo[None, :],
                                                       s_arr[:, None]), 0.0, None)
        out = w @ rows.T
        return out[0] if np.ndim(s) == 0 else out

    def time_integral(self, q: float, kind: str, s, T: float):
        """Space-time tail integral up to time T (trapezoid over snapshots)."""
        vals = self.space_tail(q, kind, s)
        w = self._time_weights(T)
        out = np.atleast_2d(vals) @ w
        return float(out[0]) if np.ndim(s) == 0 else out

    def sup_space(self, q: float, kind: str, s, T: float):
        """max over snapshots t <= T of the space tail."""
        vals = np.atleast_2d(self.space_tail(q, kind, s))
        sel = self.traj.times <= T + 1e-12 * max(1.0, T)
        out = vals[:, sel].max(axis=1)
        return float(out[0]) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EnergyLedger:
    """Sampled tail energies over an s-grid at horizon T.

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

    def save_csv(self, path) -> None:
        ex = ScalingExponents(self.p, self.n)
        with open(path, "w") as fh:
            fh.write(f"# T={self.T:.17g} p={self.p:.17g} N={self.n} "
                     f"ctilde={self.ctilde:.17g}\n")
            fh.write(f"# alpha1={ex.alpha1:.17g} beta1={ex.beta1:.17g} "
                     f"alpha2={ex.alpha2:.17g} beta2={ex.beta2:.17g} "
                     f"beta={ex.beta:.17g}\n")
            fh.write("s,A,B,C,J,L\n")
            for i in range(len(self.s)):
                row = [self.s[i], self.A[i], self.B[i], self.C[i], self.J[i],
                       self.L[i]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def build_ledger(tails: TrajectoryTails, p: float, T: float, s_grid,
                 mu1: float) -> EnergyLedger:
    """Fill A, B, C, L and J over ``s_grid``, J with its constant ``ctilde``
    in the factor ``2 ctilde F(T)`` at 1; :meth:`EnergyLedger.with_ctilde`
    rebuilds J for another value."""
    n = tails.traj.grid.dim
    ex = ScalingExponents(p, n)
    s = np.asarray(s_grid, dtype=float)
    a = tails.time_integral(p, "value", s, T)
    b = tails.time_integral(3.0, "value", s, T)
    c = a ** (1.0 + ex.beta2) + b ** (1.0 + ex.beta1)
    sup2 = tails.sup_space(2.0, "value", s, T)
    l2t = tails.time_integral(2.0, "value", s, T)
    dis = tails.time_integral(p, "gradient", s, T)
    ell = sup2 + l2t / T + mu1 * dis
    return EnergyLedger(T, p, n, s, a, b, c, _jump(c, p, n, T, 1.0), 1.0, ell)


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


@dataclasses.dataclass
class LocalEnergyReport:
    s: float
    delta: float
    T: float
    lhs: float
    rhs: float
    ratio: float


def local_energy_ratio(tails: TrajectoryTails, s: float, delta: float, T: float,
                       mu1: float, p: float) -> LocalEnergyReport:
    """Measured constant of the local energy estimate.

    lhs = sup_t tail of |u|^2 at s+delta + (1/T) space-time tail of |u|^2
          + mu1 * space-time tail of |grad u|^p,
    rhs = delta^-p * A_T(s) + delta^-1 * B_T(s).

    Ratio conventions: 0 when both sides vanish, inf when only the right
    side does.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    sd = s + delta
    lhs = (tails.sup_space(2.0, "value", sd, T)
           + tails.time_integral(2.0, "value", sd, T) / T
           + mu1 * tails.time_integral(p, "gradient", sd, T))
    rhs = (tails.time_integral(p, "value", s, T) / delta**p
           + tails.time_integral(3.0, "value", s, T) / delta)
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    else:
        ratio = lhs / rhs
    return LocalEnergyReport(s, delta, T, float(lhs), float(rhs), float(ratio))


# ---------------------------------------------------------------------------
# iteration mechanism
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class IterationReport:
    eps: float
    s: np.ndarray
    holds: np.ndarray
    s0: float | None
    predicted_vanishing: float | None
    vanished_beyond: bool
    max_j_beyond: float
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
        return IterationReport(eps, s, holds, None, None, False,
                               float(j.max()) if len(j) else 0.0)
    s0 = float(s[i0])
    predicted = s0 + float(j[i0]) / (1.0 - eps)
    tightest = float(np.min(s[i0:] + j[i0:] / (1.0 - eps)))
    vanish_tol = 1e-12 * max(1.0, float(j.max()))
    beyond = j[s >= predicted]
    max_beyond = float(beyond.max()) if len(beyond) else float(j_at(predicted))
    return IterationReport(eps, s, holds, s0, predicted,
                           bool(max_beyond <= vanish_tol), max_beyond, tightest)


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


@dataclasses.dataclass
class DecayReport:
    """The measured decay constant: ``tail_sum`` is ``A_T + B_T`` at each
    cut ``s`` and ``ctilde`` its largest ratio to the unit-constant bound.
    It holds numbers only; whether they satisfy the estimate's hypotheses
    or stay stable under refinement is for the caller to judge."""

    T: float
    s: np.ndarray
    tail_sum: np.ndarray
    ctilde: float


def check_decay(tails: TrajectoryTails, T: float, p: float, n: int,
                s_grid) -> DecayReport:
    """Measure the decay-bound constant on a trajectory.

    The constant is the maximal ratio of the measured ``A_T + B_T`` to the
    unit-constant bound over the s-grid.  It measures and never judges:
    the estimate presumes an L1 norm that does not grow, and the caller
    audits that hypothesis and the constant's stability under refinement.
    """
    s = np.asarray(s_grid, dtype=float)
    if np.any(s <= 0):
        raise ValueError("decay check needs s > 0")
    total = (tails.time_integral(p, "value", s, T)
             + tails.time_integral(3.0, "value", s, T))
    unit = decay_bound(s, T, p, n)
    ctilde = float(np.max(np.divide(total, unit, out=np.zeros_like(total),
                                    where=unit > 0)))
    return DecayReport(T, s, total, ctilde)
