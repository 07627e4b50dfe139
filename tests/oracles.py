"""Independent references the tests check the package against.

None of these runs in an experiment.  They are written from their
definitions (closed forms, quadrature, finite differences and a root
solve), so that a slip in the package's own arithmetic shows up as a
disagreement rather than being copied into the check.  The proximal
derivatives are kept in the slice forms the package's buffered passes
replace, which they must match bit for bit.
"""

import numpy as np

from pflab.core import ScalarField, deformation_tensor
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


# ---------------------------------------------------------------------------
# the proximal objective's derivatives on a dirichlet grid in slice form:
# each adjoint adds shifted copies into a zero array, each derivative
# forms every product afresh.  The package writes the same arithmetic in
# one buffered pass per axis; the tests compare the two bit for bit.
# ---------------------------------------------------------------------------


def _sl(ndim, axis, sl):
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def face_diff(v, axis, h):
    nd = v.ndim
    return (v[_sl(nd, axis, slice(1, None))] - v[_sl(nd, axis, slice(None, -1))]) / h


def face_avg(z, axis):
    nd = z.ndim
    return 0.5 * (z[_sl(nd, axis, slice(None, -1))] + z[_sl(nd, axis, slice(1, None))])


def trans_deriv(v, axis, h):
    nd = v.ndim
    out = np.empty_like(v)
    out[_sl(nd, axis, slice(1, -1))] = (
        v[_sl(nd, axis, slice(2, None))] - v[_sl(nd, axis, slice(None, -2))]
    ) / (2.0 * h)
    out[_sl(nd, axis, 0)] = (v[_sl(nd, axis, 1)] - v[_sl(nd, axis, 0)]) / h
    out[_sl(nd, axis, -1)] = (v[_sl(nd, axis, -1)] - v[_sl(nd, axis, -2)]) / h
    return out


def face_diff_adj(w, node_shape, axis, h):
    out = np.zeros(node_shape)
    nd = out.ndim
    out[_sl(nd, axis, slice(None, -1))] -= w / h
    out[_sl(nd, axis, slice(1, None))] += w / h
    return out


def face_avg_adj(w, node_shape, axis):
    out = np.zeros(node_shape)
    nd = out.ndim
    out[_sl(nd, axis, slice(None, -1))] += 0.5 * w
    out[_sl(nd, axis, slice(1, None))] += 0.5 * w
    return out


def trans_deriv_adj(w, axis, h):
    nd = w.ndim
    out = np.zeros_like(w)
    out[_sl(nd, axis, slice(None, -2))] -= w[_sl(nd, axis, slice(1, -1))] / (2.0 * h)
    out[_sl(nd, axis, slice(2, None))] += w[_sl(nd, axis, slice(1, -1))] / (2.0 * h)
    out[_sl(nd, axis, 0)] -= w[_sl(nd, axis, 0)] / h
    out[_sl(nd, axis, 1)] += w[_sl(nd, axis, 0)] / h
    out[_sl(nd, axis, -2)] -= w[_sl(nd, axis, -1)] / h
    out[_sl(nd, axis, -1)] += w[_sl(nd, axis, -1)] / h
    return out


def _face_gradients(v, grid, axis):
    gn = face_diff(v, axis, grid.spacing[axis])
    if grid.dim == 1:
        return gn, None
    other = 1 - axis
    return gn, face_avg(trans_deriv(v, other, grid.spacing[other]), axis)


def _face_gradients_adj(tn, tt, grid, axis):
    out = face_diff_adj(tn, grid.shape, axis, grid.spacing[axis])
    if tt is not None:
        other = 1 - axis
        out += trans_deriv_adj(face_avg_adj(tt, grid.shape, axis), other,
                               grid.spacing[other])
    return out


def prox_gradient(prob, v):
    """The gradient of ``prob``'s objective at ``v``; the diffusivity is
    the package's (``plaplace._diffusivity_of_a2``)."""
    from pflab.plaplace import _diffusivity_of_a2

    grid, params = prob.grid, prob.cfg.params
    adj = np.zeros(grid.shape)
    for axis in range(grid.dim):
        gn, gt = _face_gradients(v, grid, axis)
        a2 = gn * gn if gt is None else gn * gn + gt * gt
        D = _diffusivity_of_a2(a2, params.p, params.mu1)
        adj += _face_gradients_adj(D * gn, None if gt is None else D * gt,
                                   grid, axis)
    return prob.vol * (v - prob.u) / prob.dt + prob.w * adj


def prox_hess_vec(prob, dv):
    """The Hessian action of ``prob`` at its last gradient point."""
    grid = prob.grid
    adj = np.zeros(grid.shape)
    for axis, (knn, knt, ktt) in enumerate(prob._k):
        dgn, dgt = _face_gradients(dv, grid, axis)
        if dgt is None:
            adj += _face_gradients_adj(knn * dgn, None, grid, axis)
        else:
            adj += _face_gradients_adj(knn * dgn + knt * dgt,
                                       knt * dgn + ktt * dgt, grid, axis)
    return prob.vol * dv / prob.dt + prob.w * adj


def prox_hess_diag(prob):
    """The Hessian diagonal of ``prob`` at its last gradient point."""
    grid = prob.grid
    nd = grid.dim
    diag = np.zeros(grid.shape)
    for axis, (knn, knt, ktt) in enumerate(prob._k):
        h = grid.spacing[axis]
        diag += (2.0 / h**2) * face_avg_adj(knn, grid.shape, axis)
        if ktt is None:
            continue
        other = 1 - axis
        ho = grid.spacing[other]
        z = face_avg_adj(ktt, grid.shape, axis) / (8.0 * ho**2)
        x = face_diff_adj(knt, grid.shape, axis, h) / ho
        for end, sign in ((0, -1.0), (-1, 1.0)):
            e = _sl(nd, other, end)
            z[e] *= 4.0
            diag[e] += z[e] + sign * x[e]
        diag[_sl(nd, other, slice(1, None))] += z[_sl(nd, other, slice(None, -1))]
        diag[_sl(nd, other, slice(None, -1))] += z[_sl(nd, other, slice(1, None))]
    return prob.vol / prob.dt + prob.w * diag


# ---------------------------------------------------------------------------
# the fluid's weak form, one test field and one snapshot at a time, with
# np.roll for the periodic centered difference
# ---------------------------------------------------------------------------


def roll_centered(v, axis, h):
    return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)


def one_field_weak_residual(traj, phi, params):
    """The weak-form residual of one test field ``phi`` over ``traj``,
    snapshot by snapshot: each interior snapshot's three inner products
    with ``phi``, then the trapezoid weights over the interior times (or
    the whole run's length for a single interior snapshot)."""
    grid = phi.grid
    hx, hy = grid.spacing
    dphi = deformation_tensor(phi)
    p, mu1 = params.p, params.mu1
    times = traj.times
    vol = grid.volumes()

    def inner(a, b):
        return float(sum(np.sum(ca * cb * vol) for ca, cb in zip(a, b)))

    totals = []
    for k in range(1, len(times) - 1):
        u_prev, u_now, u_next = traj.fields[k - 1], traj.fields[k], traj.fields[k + 1]
        dt2 = times[k + 1] - times[k - 1]
        ut = [(cn - cp) / dt2 for cn, cp in zip(u_next.components, u_prev.components)]
        term1 = inner(ut, phi.components)
        u0, u1 = u_now.components
        adv = [u0 * roll_centered(q, 0, hx) + u1 * roll_centered(q, 1, hy)
               for q in u_now.components]
        term2 = inner(adv, phi.components)
        du = deformation_tensor(u_now)
        mag2 = np.einsum("ij...,ij...->...", du, du)
        dreg = mu1 * mag2 ** ((p - 2.0) / 2.0) if p != 2.0 else mu1
        pairing = np.einsum("ij...,ij...->...", du, dphi)
        term3 = float(np.sum(dreg * pairing * vol))
        totals.append(term1 + term2 + term3)
    ts = times[1:-1]
    if len(totals) == 1:
        return abs(totals[0] * (times[-1] - times[0]))
    w = np.zeros(len(ts))
    w[1:] += 0.5 * np.diff(ts)
    w[:-1] += 0.5 * np.diff(ts)
    return float(abs(np.dot(w, np.asarray(totals))))
