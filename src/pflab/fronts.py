"""Support-front extraction, envelope formulas and exponent fitting.

The two-branch support envelopes bound how far an initially half-space
supported velocity field can spread:

* ``support_envelope_l2``: exponents ``2/(2p + N(p-2))`` (small time) and
  ``(2p + N(p-3))/(2p + N(p-2))`` (large time); valid for
  ``p >= (3N+2)/(N+2)``; the constant depends on the L2 norm of the data.
* ``support_envelope_l1``: exponents ``1/(p + N(p-2))`` and
  ``(p + N(p-3))/(p + N(p-2))``; valid for ``p >= (3N+1)/(N+1)`` and data
  whose L1 norm does not grow; the small-time exponent is the classical
  Barenblatt front exponent.

Constants in front of the envelopes are never asserted numerically; they
are calibrated against a measured front at a reference time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import _value_magnitude
from .plaplace import Trajectory


@dataclasses.dataclass
class SupportTrace:
    """Front position per snapshot time; ``nan`` marks an empty support."""

    tau: float
    times: np.ndarray
    fronts: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.fronts = np.asarray(self.fronts, dtype=float)
        if self.times.shape != self.fronts.shape:
            raise ValueError("times/fronts length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.fronts)


@dataclasses.dataclass
class ExponentFit:
    """Least-squares power law ``front ~ exp(intercept) * t^slope``."""

    slope: float
    intercept: float
    window: tuple[float, float]
    residual_rms: float


@dataclasses.dataclass
class EnvelopeReport:
    """Result of calibrating an envelope and checking a trace against it."""

    envelope: str
    c: float
    t_ref: float
    tol: float
    violations: list
    max_ratio: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _interp_crossing(x: np.ndarray, m: np.ndarray, tau: float):
    """Rightmost linear crossing of level tau by profile m(x)."""
    above = m > tau
    if not above.any():
        return None
    j = int(np.flatnonzero(above)[-1])
    if j == len(x) - 1:
        return float(x[-1])
    frac = (m[j] - tau) / (m[j] - m[j + 1])
    return float(x[j] + frac * (x[j + 1] - x[j]))


def support_front(f, tau: float, mode: str):
    """Largest coordinate where the field exceeds ``tau``; None if nowhere.

    ``halfspace`` measures ``sup{x_N : max_k |u_k| > tau}`` with linear
    interpolation to the first sub-threshold node.  ``radial`` measures
    ``sup{|x| : |u| > tau}`` from the origin, where every radial run is
    centred (interpolated in 1-D, node-accurate in 2-D).
    """
    if not tau > 0:
        raise ValueError("threshold tau must be positive")
    grid, mag = _value_magnitude(f)

    if mode == "halfspace":
        axis = grid.dim - 1
        if grid.dim == 2:
            profile = mag.max(axis=0)
        else:
            profile = mag
        return _interp_crossing(grid.coords(axis), profile, tau)

    if mode == "radial":
        if grid.dim == 1:
            x = grid.coords(0)
            right = _interp_crossing(x, mag, tau)
            left = _interp_crossing(-x[::-1], mag[::-1], tau)
            cands = [abs(c) for c in (right, left) if c is not None]
            return max(cands) if cands else None
        xx, yy = grid.mesh()
        r = np.sqrt(xx ** 2 + yy ** 2)
        mask = mag > tau
        if not mask.any():
            return None
        return float(r[mask].max())

    raise ValueError(f"unknown front mode {mode!r}")


def trace_support(traj: Trajectory, tau: float, mode: str,
                  t_offset: float = 0.0) -> SupportTrace:
    """Apply :func:`support_front` to every snapshot.

    ``t_offset`` shifts the recorded times (useful when the data is a
    profile born at some t0 > 0 and fits should use absolute time).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    fronts = [support_front(f, tau, mode) for f in traj.fields]
    fronts = np.array([np.nan if v is None else v for v in fronts])
    return SupportTrace(tau, traj.times + t_offset, fronts)


# ---------------------------------------------------------------------------
# envelope formulas
# ---------------------------------------------------------------------------


def envelope_exponents_l2(p: float, n: int) -> tuple[float, float]:
    den = 2.0 * p + n * (p - 2.0)
    return 2.0 / den, (2.0 * p + n * (p - 3.0)) / den


def envelope_exponents_l1(p: float, n: int) -> tuple[float, float]:
    den = p + n * (p - 2.0)
    return 1.0 / den, (p + n * (p - 3.0)) / den


def _support_envelope(k: int, exponents, p: float, n: int, t, c: float):
    """``c * max(t^e_small, t^e_large)`` with the L^k-data exponent pair
    ``exponents(p, n)``, valid for ``p >= (3N+k)/(N+k)``."""
    p_min = (3 * n + k) / (n + k)
    if p < p_min:
        raise ValueError(
            f"L{k} envelope needs p >= (3N+{k})/(N+{k}) = {p_min:.6g}, got p = {p}")
    if not c > 0:
        raise ValueError("envelope constant must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("envelope is defined for t > 0")
    e_small, e_large = exponents(p, n)
    out = c * np.maximum(t**e_small, t**e_large)
    return float(out) if out.ndim == 0 else out


def support_envelope_l2(p: float, n: int, t, c: float):
    """Two-branch envelope with the L2-data exponent pair."""
    return _support_envelope(2, envelope_exponents_l2, p, n, t, c)


def support_envelope_l1(p: float, n: int, t, c: float):
    """Two-branch envelope with the L1-data (Barenblatt) exponent pair."""
    return _support_envelope(1, envelope_exponents_l1, p, n, t, c)


_ENVELOPES = {"l2": support_envelope_l2, "l1": support_envelope_l1}

# the fewest usable samples a power-law fit takes
MIN_FIT_SAMPLES = 8


# ---------------------------------------------------------------------------
# fitting and envelope verification
# ---------------------------------------------------------------------------


def fit_exponent(trace: SupportTrace, drop_frac: float = 0.1) -> ExponentFit:
    """Least-squares line in (log t, log front).

    The fit window drops the first and last ``drop_frac`` of the usable
    samples (initial transients, boundary proximity).  Requires
    ``MIN_FIT_SAMPLES`` usable samples.
    """
    ok = trace.present & (trace.times > 0) & (trace.fronts > 0)
    t = trace.times[ok]
    f = trace.fronts[ok]
    if len(t) >= MIN_FIT_SAMPLES and drop_frac > 0:
        k = int(math.floor(drop_frac * len(t)))
        if k:
            t, f = t[k:-k], f[k:-k]
    if len(t) < MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {MIN_FIT_SAMPLES} usable samples in the fit "
                         f"window, have {len(t)}")
    lt, lf = np.log(t), np.log(f)
    slope, intercept = np.polyfit(lt, lf, 1)
    resid = lf - (slope * lt + intercept)
    return ExponentFit(float(slope), float(intercept),
                       (float(t[0]), float(t[-1])),
                       float(np.sqrt(np.mean(resid**2))))


def check_envelope(trace: SupportTrace, envelope: str, p: float, n: int,
                   t_ref: float, tol_env: float) -> EnvelopeReport:
    """Calibrate the envelope constant at ``t_ref`` and verify
    ``front(t) <= envelope(t) * (1 + tol_env)`` for all ``t >= t_ref``.

    Violations are reported as data, not raised.
    """
    gamma = _ENVELOPES[envelope]
    ok = trace.present & (trace.times > 0)
    t = trace.times[ok]
    f = trace.fronts[ok]
    if len(t) == 0:
        raise ValueError("trace has no measured fronts")
    i_ref = int(np.argmin(np.abs(t - t_ref)))
    if not np.isclose(t[i_ref], t_ref, rtol=0.25):
        raise ValueError(f"no sample near t_ref = {t_ref} (closest {t[i_ref]})")
    f_ref = f[i_ref]
    if not f_ref > 0:
        raise ValueError("measured front at t_ref must be positive to calibrate")
    c = f_ref / gamma(p, n, t[i_ref], 1.0)
    sel = t >= t[i_ref]
    bound = gamma(p, n, t[sel], c)
    ratio = f[sel] / bound
    bad = ratio > 1.0 + tol_env
    violations = [(float(tv), float(fv), float(bv))
                  for tv, fv, bv in zip(t[sel][bad], f[sel][bad], bound[bad])]
    return EnvelopeReport(envelope, float(c), float(t[i_ref]), tol_env,
                          violations, float(ratio.max()))


def save_trace(trace: SupportTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# tau={trace.tau:.17g}\n")
        fh.write("t,front\n")
        for t, f in zip(trace.times, trace.fronts):
            fh.write(f"{t:.17g},{'' if np.isnan(f) else format(f, '.17g')}\n")
