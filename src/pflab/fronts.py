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


def _fronts(grid, mag: np.ndarray, taus, mode: str, radii=None) -> list:
    """The :func:`support_front` of ``mag``, a magnitude on ``grid``, at
    each threshold of ``taus``; ``radii`` holds the node radii of a
    radial 2-D grid, formed here when None."""
    if mode == "halfspace":
        x = grid.coords(grid.dim - 1)
        profile = mag.max(axis=0) if grid.dim == 2 else mag
        return [_interp_crossing(x, profile, tau) for tau in taus]
    if grid.dim == 1:
        x = grid.coords(0)
        out = []
        for tau in taus:
            right = _interp_crossing(x, mag, tau)
            left = _interp_crossing(-x[::-1], mag[::-1], tau)
            cands = [abs(c) for c in (right, left) if c is not None]
            out.append(max(cands) if cands else None)
        return out
    if radii is None:
        radii = _node_radii(grid)
    out = []
    for tau in taus:
        mask = mag > tau
        out.append(float(radii[mask].max()) if mask.any() else None)
    return out


def _node_radii(grid) -> np.ndarray:
    xx, yy = grid.mesh()
    return np.sqrt(xx ** 2 + yy ** 2)


def _check_thresholds(taus, mode: str) -> None:
    if not all(tau > 0 for tau in taus):
        raise ValueError("threshold tau must be positive")
    if mode not in ("halfspace", "radial"):
        raise ValueError(f"unknown front mode {mode!r}")


def support_front(f, tau: float, mode: str):
    """Largest coordinate where the field exceeds ``tau``; None if nowhere.

    ``halfspace`` measures ``sup{x_N : max_k |u_k| > tau}`` with linear
    interpolation to the first sub-threshold node.  ``radial`` measures
    ``sup{|x| : |u| > tau}`` from the origin, where every radial run is
    centred (interpolated in 1-D, node-accurate in 2-D).
    """
    _check_thresholds((tau,), mode)
    grid, mag = _value_magnitude(f)
    return _fronts(grid, mag, (tau,), mode)[0]


def trace_support(snapshots, taus: tuple, mode: str,
                  t_offset: float = 0.0) -> tuple:
    """One :class:`SupportTrace` per threshold of ``taus``: the
    :func:`support_front` of every snapshot, read in one pass.

    ``snapshots`` is any iterable of ``(t, field)`` in time order: a
    :class:`~pflab.plaplace.Trajectory`, or a solver's stream, whose
    fields the trace drops as it goes.  ``|u|`` is formed once a
    snapshot, and a radial 2-D grid's node radii once a grid.
    ``t_offset`` shifts the recorded times (useful when the data is a
    profile born at some t0 > 0 and fits should use absolute time).
    """
    _check_thresholds(taus, mode)
    times, rows = [], []
    radii = radii_grid = None
    for t, f in snapshots:
        if mode == "radial" and f.grid.dim == 2 and f.grid is not radii_grid:
            radii, radii_grid = _node_radii(f.grid), f.grid
        times.append(t)
        # |u| is a temporary: it is gone before the next snapshot is made
        rows.append(_fronts(*_value_magnitude(f), taus, mode, radii))
    if not times:
        raise ValueError("empty trajectory")
    times = np.asarray(times, dtype=float) + t_offset
    return tuple(SupportTrace(tau, times, [np.nan if row[k] is None else row[k]
                                           for row in rows])
                 for k, tau in enumerate(taus))


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

# the fewest usable samples a power-law fit takes, and the share of them
# dropped at each end of its window
MIN_FIT_SAMPLES = 8
_DROP_FRAC = 0.1


# ---------------------------------------------------------------------------
# fitting and envelope verification
# ---------------------------------------------------------------------------


def fit_exponent(trace: SupportTrace) -> ExponentFit:
    """Least-squares line in (log t, log front).

    The fit window drops the first and last ``_DROP_FRAC`` of the usable
    samples (initial transients, boundary proximity).  Requires
    ``MIN_FIT_SAMPLES`` usable samples.
    """
    ok = trace.present & (trace.times > 0) & (trace.fronts > 0)
    t = trace.times[ok]
    f = trace.fronts[ok]
    if len(t) >= MIN_FIT_SAMPLES:
        k = int(math.floor(_DROP_FRAC * len(t)))
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
