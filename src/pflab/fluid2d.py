"""2-D incompressible power-law fluid on a periodic box.

Operator-split step: explicit advection, explicit shear-dependent
viscosity ``mu1 div(|Du|^(p-2) Du)`` in conservative face-flux form, then
projection onto divergence-free fields.  The stress is the paper's,
unregularized: for ``p >= 2`` its diffusivity is bounded and continuous
at ``Du = 0``, and for ``p > 2`` it vanishes there, the degeneracy that
finite speed of propagation comes from.  The projection solves the
Poisson problem of the *centered-difference* operators spectrally (real
FFTs, modified wavenumbers), so the divergence measured by
:func:`pflab.core.divergence` vanishes to roundoff after every step.
The pressure is never formed: no result reads it, and the weak form
tests against divergence-free fields.  The periodic stencils are the
shared face operators of :mod:`pflab.plaplace`, built from slices
rather than shifted copies.

Advection is the skew-symmetric average of the divergence and advective
forms with centered differences: second order, exactly energy-neutral
under summation by parts (it adds no numerical dissipation to the
energy balance), momentum-exact once ``div u = 0``.

The time loop is :func:`fluid_snapshots`, a stream of ``(t, field)``
pairs at the schedule's times: the experiments read it once, in time
order, and :func:`weak_residual` holds three snapshots of it at a time.
:func:`simulate_fluid` collects the same stream into a
:class:`~pflab.plaplace.Trajectory`.
"""

from __future__ import annotations

import array
import itertools

import numpy as np

from .core import (GridSpec, ModelParams, VectorField, deformation_tensor,
                   divergence, lp_norm)
from .errors import NumericalError
from .plaplace import (Trajectory, _diffusivity_of_a2, _face_avg, _face_diff,
                        _face_diff_adj, _trans_deriv, normalize_schedule)

_TWO_PI = 2.0 * np.pi
_DT_MAX = 1.0  # the CFL bounds' cap, and the step of a field at rest
_CFL_SAFETY = 0.4  # both CFL bounds' safety factor


def _require_periodic(grid: GridSpec):
    if grid.dim != 2 or not all(grid.is_periodic(a) for a in range(2)):
        raise ValueError("fluid operators require a 2-D periodic box")


def kinetic_energy(v: VectorField) -> float:
    return 0.5 * lp_norm(v, 2.0) ** 2


# ---------------------------------------------------------------------------
# viscosity
# ---------------------------------------------------------------------------


def _face_deformation(v: VectorField, axis: int, both_diagonals: bool = True):
    """Deformation-tensor entries ``(d00, d01, d11)`` at the faces
    orthogonal to ``axis``.  Without ``both_diagonals`` the diagonal entry
    along the other axis, which no face flux reads, is None."""
    grid = v.grid
    h = grid.spacing[axis]
    other = 1 - axis
    ho = grid.spacing[other]
    per, per_o = grid.is_periodic(axis), grid.is_periodic(other)

    def tangential(u):  # d u / d x_other at the faces
        return _face_avg(_trans_deriv(u, other, ho, per_o), axis, per)

    u0, u1 = v.components
    d0_n = _face_diff(u0, axis, h, per)       # d u0 / d x_axis at faces
    d1_n = _face_diff(u1, axis, h, per)
    if axis == 0:
        d11 = tangential(u1) if both_diagonals else None
        return d0_n, 0.5 * (tangential(u0) + d1_n), d11
    d00 = tangential(u0) if both_diagonals else None
    return d00, 0.5 * (d0_n + tangential(u1)), d1_n


def viscous_term(v: VectorField, params: ModelParams) -> VectorField:
    """``mu1 div(|Du|^(p-2) Du)`` with face-centered tensor fluxes.

    Face flux of component i through a face with normal n is
    ``D (Du)_{i n}``; the divergence telescopes, so the integral of the
    output vanishes to roundoff (momentum conservation).  ``D`` is the
    scalar solver's diffusivity of the face ``|Du|^2``; at p = 2 it is
    the constant mu1, so ``|Du|^2`` is not formed.
    """
    grid = v.grid
    _require_periodic(grid)
    p, mu1 = params.p, params.mu1
    linear = p == 2.0
    out = [np.zeros(grid.shape), np.zeros(grid.shape)]
    for axis in range(2):
        h = grid.spacing[axis]
        d00, d01, d11 = _face_deformation(v, axis, both_diagonals=not linear)
        if linear:
            diffusivity = mu1
        else:
            mag2 = d00 * d00 + 2.0 * d01 * d01 + d11 * d11
            diffusivity = _diffusivity_of_a2(mag2, p, mu1)
        flux0 = diffusivity * (d00 if axis == 0 else d01)
        flux1 = diffusivity * (d01 if axis == 0 else d11)
        out[0] -= _face_diff_adj(flux0, grid.shape, axis, h, True)
        out[1] -= _face_diff_adj(flux1, grid.shape, axis, h, True)
    for comp in out:
        if not np.isfinite(comp).all():
            raise NumericalError("viscous term produced non-finite values")
    return VectorField(grid, tuple(out))


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------


def _advection_tendency(v: VectorField) -> list[np.ndarray]:
    """Skew-symmetric ``-0.5 (div(u q) + u . grad q)`` for each component
    ``q``; exactly KE-neutral."""
    hx, hy = v.grid.spacing
    u0, u1 = v.components
    tendency = []
    for q in (u0, u1):
        div_form = (_trans_deriv(u0 * q, 0, hx, True)
                    + _trans_deriv(u1 * q, 1, hy, True))
        adv_form = (u0 * _trans_deriv(q, 0, hx, True)
                    + u1 * _trans_deriv(q, 1, hy, True))
        tendency.append(-0.5 * (div_form + adv_form))
    return tendency


def _speed_max(v: VectorField) -> float:
    """``max |u|``, as ``sqrt(max |u|^2)``: sqrt is monotone and correctly
    rounded, so this is ``max(sqrt(|u|^2))`` exactly, one pass fewer."""
    u0, u1 = v.components
    return float(np.sqrt(np.max(u0 * u0 + u1 * u1)))


def advect(v: VectorField, dt: float, vmax: float | None) -> VectorField:
    """Apply the advection tendency for ``dt``; errors on a CFL violation.
    ``vmax`` is the field's largest speed, or None to measure it here."""
    _require_periodic(v.grid)
    if vmax is None:
        vmax = _speed_max(v)
    h_min = min(v.grid.spacing)
    if vmax * dt > _CFL_SAFETY * h_min * (1.0 + 1e-12):
        raise NumericalError(
            f"advective CFL violated: |u|max dt = {vmax * dt:.3e} > "
            f"{_CFL_SAFETY:.3g} h = {_CFL_SAFETY * h_min:.3e}")
    tend = _advection_tendency(v)
    return VectorField(v.grid, tuple(c + dt * t for c, t in zip(v.components, tend)))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _modified_wavenumbers(grid: GridSpec):
    """``sin(k h) / h`` of the centered difference on the ``rfft2``
    spectrum: every wavenumber along axis 0, the first ``n // 2 + 1``
    along axis 1.  At an even ``n`` the Nyquist sine is exactly 0: the
    centered difference of the checkerboard mode vanishes, so the
    projection leaves that mode alone."""
    sines = []
    for axis in range(2):
        n = grid.node_count(axis)
        h = grid.spacing[axis]
        k = _TWO_PI * np.fft.fftfreq(n, d=h)
        s = np.sin(k * h) / h
        if n % 2 == 0:
            s[n // 2] = 0.0
        sines.append(s)
    return sines[0][:, None], sines[1][None, : grid.node_count(1) // 2 + 1]


def project(v: VectorField) -> VectorField:
    """Remove the centered-difference divergence spectrally.

    Subtracts ``s (s . v_hat) / |s|^2`` from every real-FFT mode, with
    ``s`` the modified wavenumbers, and returns the projected field;
    idempotent.  Raises :class:`NumericalError` when the measured
    divergence afterwards is not at roundoff, or not finite.
    """
    grid = v.grid
    _require_periodic(grid)
    sx, sy = _modified_wavenumbers(grid)
    v0_hat = np.fft.rfft2(v.components[0])
    v1_hat = np.fft.rfft2(v.components[1])
    s2 = sx**2 + sy**2
    inv = np.divide(1.0, s2, out=np.zeros_like(s2), where=s2 > 0)
    coef = (sx * v0_hat + sy * v1_hat) * inv
    v0_new = np.fft.irfft2(v0_hat - sx * coef, s=grid.shape)
    v1_new = np.fft.irfft2(v1_hat - sy * coef, s=grid.shape)
    out = VectorField(grid, (v0_new, v1_new))
    scale = max(1.0, float(np.max(np.abs(v0_new))), float(np.max(np.abs(v1_new))))
    resid = float(np.max(np.abs(divergence(out).values)))
    # no comparison with a NaN holds, and a NaN or Inf in the field makes
    # the residual NaN (the builtin max() then skips it in the scale)
    if not resid <= 1e-10 * scale:
        raise NumericalError(f"projection left divergence residual {resid:.3e}"
                             + ("" if np.isfinite(resid) else
                                ": the field holds a NaN or Inf"))
    return out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def viscous_cfl_dt(v: VectorField, params: ModelParams) -> float:
    """Stable viscous step ``_CFL_SAFETY h_min^2 / (4 D_max (p - 1))``,
    ``D_max`` the diffusivity at the largest face ``|Du|^2``, which for
    ``p >= 2`` (all :class:`ModelParams` allows) is the largest one; at
    p = 2 that is the constant mu1, and ``v`` is not read.  A field at
    rest, whose diffusivity vanishes at p > 2, steps ``_DT_MAX``."""
    p, mu1 = params.p, params.mu1
    if p == 2.0:
        dmax = mu1
    else:
        dmax = 0.0
        for axis in range(2):
            d00, d01, d11 = _face_deformation(v, axis)
            mag2 = d00 * d00 + 2.0 * d01 * d01 + d11 * d11
            m = float(mag2.max())
            dmax = max(dmax, mu1 * m ** ((p - 2.0) / 2.0))
        if dmax == 0.0:
            return _DT_MAX
    h_min = min(v.grid.spacing)
    return float(min(_DT_MAX,
                     _CFL_SAFETY * h_min**2 / (4.0 * dmax * (p - 1.0))))


def advective_cfl_dt(v: VectorField, vmax: float) -> float:
    """``_CFL_SAFETY h_min / vmax``, where ``vmax`` is ``max |u|``."""
    if vmax == 0.0:
        return _DT_MAX
    return float(min(_DT_MAX, _CFL_SAFETY * min(v.grid.spacing) / vmax))


def fluid_step(v: VectorField, params: ModelParams, dt: float,
               vmax: float | None) -> VectorField:
    """advect -> add dt * viscous term -> project.  ``vmax``, the largest
    speed of ``v``, spares :func:`advect` its own pass when the caller
    has it."""
    v = advect(v, dt, vmax)
    visc = viscous_term(v, params)
    v = VectorField(v.grid, tuple(c + dt * w for c, w in zip(v.components, visc.components)))
    return project(v)


def fluid_snapshots(v0: VectorField, params: ModelParams, T: float,
                    snapshot_times, dt_fixed: float | None = None):
    """Run the fluid from ``v0`` (projected first) to horizon ``T``,
    yielding ``(t, field)`` at each time of the normalized schedule.

    ``dt_fixed`` pins the step (reproducible refinement studies);
    otherwise the step adapts to the advective and viscous CFL bounds.
    The arguments are checked at the call; the steps are taken as the
    snapshots are read.  Every field yielded is a fresh array that no
    later step writes, so a reader may keep it or drop it.
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    sched = normalize_schedule(snapshot_times, T)
    return _stepped(project(v0), params, sched, dt_fixed)


def _stepped(v: VectorField, params: ModelParams, sched: np.ndarray,
             dt_fixed: float | None):
    yield sched[0], v
    t = 0.0
    for t_next in sched[1:]:
        while t < t_next - 1e-13 * max(1.0, t_next):
            if dt_fixed is None:
                vmax = _speed_max(v)
                dt = min(advective_cfl_dt(v, vmax),
                         viscous_cfl_dt(v, params),
                         t_next - t)
            else:
                vmax, dt = None, min(dt_fixed, t_next - t)
            v = fluid_step(v, params, dt, vmax)
            t += dt
        yield t_next, v
        t = t_next


def simulate_fluid(*args, **kwargs) -> Trajectory:
    """:func:`fluid_snapshots`, same arguments, collected into a
    :class:`~pflab.plaplace.Trajectory`."""
    times, fields = zip(*fluid_snapshots(*args, **kwargs))
    return Trajectory(times, list(fields))


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------


def _check_test_field(phi: VectorField):
    div_phi = float(np.max(np.abs(divergence(phi).values)))
    scale = max(1.0, float(np.max(phi.magnitude())))
    if div_phi > 1e-10 * scale:
        raise ValueError(f"test field is not divergence-free (max div {div_phi:.3e})")


def _require_grid(grid: GridSpec, other: GridSpec):
    if other != grid:
        raise ValueError(f"grid {other} differs from the first snapshot's {grid}")


def _integrand(u_prev, u_now, u_next, dt2: float, params: ModelParams) -> np.ndarray:
    """``F = u_t + (u.grad)u`` and ``S = D(|Du|^2) Du`` at ``u_now``,
    stacked as one ``(6,) + grid.shape`` array, ``S`` in its last four rows."""
    grid = u_now.grid
    hx, hy = grid.spacing
    u0, u1 = u_now.components
    x = np.empty((6,) + grid.shape)
    for f, qp, q, qn in zip(x, u_prev.components, u_now.components, u_next.components):
        f[...] = (qn - qp) / dt2 + (u0 * _trans_deriv(q, 0, hx, True)
                                    + u1 * _trans_deriv(q, 1, hy, True))
    s = x[2:].reshape((2, 2) + grid.shape)
    s[...] = deformation_tensor(u_now)
    if params.p != 2.0:
        s *= _diffusivity_of_a2(np.einsum("ij...,ij...->...", s, s), params.p, params.mu1)
    elif params.mu1 != 1.0:  # a product with 1 is exact, so that pass is skipped
        s *= params.mu1
    return x


def weak_residual(snapshots, phis, params: ModelParams) -> np.ndarray:
    """Time-integrated residuals of the weak form, one per fixed
    divergence-free test field in ``phis``, over ``snapshots``: ``(t,
    field)`` pairs in time order on the fields' grid, such as a
    :class:`Trajectory` or a :func:`fluid_snapshots` stream.

    Computes ``| sum_t w_t ( <u_t, phi> + <(u.grad)u, phi>
    + mu1 <|Du|^(p-2) Du, D phi> ) |`` for each ``phi``, with
    snapshot-centered time differencing for ``u_t`` and trapezoid weights
    over the interior snapshots.  The pressure drops because
    ``div phi = 0``.  The form is linear in ``phi``, so the run is summed
    over time first, three snapshots at a time: each interior snapshot's
    ``u_t + (u.grad)u`` and ``D(|Du|^2) Du`` (the step's diffusivity)
    enter trapezoid sums, which each field meets once, summing its two
    products in ``np.longdouble``, as they cancel to a far smaller
    residual.  The result differs from a per-snapshot loop's by about
    1e-14 relative on 32^2 runs (the tests allow 1e-12).
    """
    snapshots = iter(snapshots)
    head = list(itertools.islice(snapshots, 1))
    grid = head[0][1].grid if head else None
    if head:
        _require_periodic(grid)
    phis = list(phis)
    for phi in phis:
        _check_test_field(phi)
        if head:
            _require_grid(grid, phi.grid)
    # 8 bytes a snapshot, so a long stream adds next to nothing
    times = array.array("d")
    window, last, total = [], None, None
    for t, u_next in itertools.chain(head, snapshots):
        if times and not t > times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        _require_grid(grid, u_next.grid)
        times.append(t)
        window = window[-2:] + [u_next]
        if len(window) < 3:
            continue
        x = _integrand(*window, times[-1] - times[-3], params)
        if last is not None:  # the trapezoid share of the interval just closed
            last += x
            last *= 0.5 * (times[-2] - times[-3])
            total = last if total is None else np.add(total, last, out=total)
        last = x
    if len(times) < 3:
        raise ValueError("need at least 3 snapshots for centered time differencing")
    if total is None:  # one interior snapshot stands for the whole run
        total = last * (times[-1] - times[0])
    total *= grid.volumes()
    f, s = total[:2], total[2:].reshape((2, 2) + grid.shape)
    return np.array([float(abs(np.sum(f * phi.components, dtype=np.longdouble)
                               + np.sum(s * deformation_tensor(phi), dtype=np.longdouble)))
                     for phi in phis])


def random_stream_coeffs(rng: np.random.Generator) -> list:
    """Fourier coefficients of a random stream function, wavenumbers <= 3.

    Kept separate from sampling so the *same* continuous test field can
    be evaluated on grids of different resolution.
    """
    coeffs = []
    for kx in range(4):
        for ky in range(4):
            if kx == 0 and ky == 0:
                continue
            a, b = rng.normal(size=2) / (1 + kx * kx + ky * ky)
            coeffs.append((kx, ky, float(a), float(b)))
    return coeffs


def stream_field(grid: GridSpec, coeffs) -> VectorField:
    """Divergence-free field: discrete curl of the sampled stream function.

    The curl uses the package's centered differences, so the measured
    divergence commutes away to roundoff.
    """
    _require_periodic(grid)
    xx, yy = grid.mesh()
    lx = grid.upper[0] - grid.lower[0]
    ly = grid.upper[1] - grid.lower[1]
    psi = np.zeros(grid.shape)
    for kx, ky, a, b in coeffs:
        arg = _TWO_PI * (kx * xx / lx + ky * yy / ly)
        psi += a * np.cos(arg) + b * np.sin(arg)
    hx, hy = grid.spacing
    return VectorField(grid, (_trans_deriv(psi, 1, hy, True),
                              -_trans_deriv(psi, 0, hx, True)))
