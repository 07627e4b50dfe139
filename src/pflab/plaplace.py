"""Scalar degenerate diffusion ``u_t = mu1 div(|grad u|^(p-2) grad u)``.

The equation is posed in the whole space; a run stands in for it with a
dirichlet-zero box, and the boundary sentinel stops the run before the
support nears an edge.  Every entry point rejects a grid with a periodic
axis.  Two steppers share one spatial discretization idea (face-centered
diffusivities built from the full gradient magnitude):

* ``explicit``: conservative face-flux update.  Monotone under the CFL
  bound, mass-exact, preserves positivity and grows the support by at
  most one cell per axis per step.  The stepper of choice for
  sharp-front studies.
* ``implicit``: backward Euler realized as a proximal step, i.e. the
  minimizer of ``|v - u|^2 / (2 dt) + (mu1/p) * sum |grad v|^p`` over the
  grid, solved by damped Newton with a monotone line search (exact
  banded solve on 1-D grids, otherwise CG preconditioned by Jacobi with
  the exact Hessian diagonal).  Each Newton iteration
  linearizes once, into a per-face tensor that the Hessian action, the
  diagonal and the band all read.  No CFL limit, so it is the stepper
  for long-horizon exponent fits; a snapshot interval on which Newton
  reaches its iteration cap is taken in halves.

The equation is degenerate (``p > 2``) and unregularized, so both
steppers propagate exact zeros: fluxes vanish where the solution
vanishes, and the Newton linearization decouples outside the support,
so neither stepper contaminates the far field.  Both use this: each
explicit step acts only on the support's bounding window plus a halo,
and the trajectory is bit-identical to full-grid stepping; each
proximal step is solved on such a window, guarded so that it is the
whole-grid solve up to the order of its sums
(:func:`step_implicit_proximal`).
The support's bounds, which the locality audit checks after every step
and the window follows, come from an edge scan seeded by the previous
bounds (:func:`_edge_bounds`), so that bookkeeping costs what the front
costs, not what the window costs.

A run is a stream: :func:`snapshots` yields ``(t, field)`` as it steps,
so a reader that folds each snapshot as it arrives holds a few fields,
not the run; :func:`simulate` collects the same stream into a
:class:`Trajectory`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import (GridSpec, ModelParams, ScalarField, _axis_derivative,
                   _periodic_stencil)
from .errors import BoundarySentinelError, NumericalError

# Support-window stepping (see ``simulate``): the window is rescanned every
# _WINDOW_RESCAN steps and reaches _WINDOW_HALO nodes past the support on
# each axis.  The support grows by at most one cell per step, so
# the field stays zero at least two nodes deep inside the window's edges,
# and every face the window leaves out carries exactly zero flux.
_WINDOW_RESCAN = 16
_WINDOW_HALO = _WINDOW_RESCAN + 2
# The explicit stepper recomputes its CFL bound, _CFL_SAFETY times the
# stable step, every _CFL_STRIDE steps and keeps it in [_DT_MIN, _DT_MAX]
# (a field at rest steps _DT_MAX); it runs the boundary sentinel every
# _SENTINEL_STRIDE steps.  The sentinel raises when the support, the
# nodes above _SENTINEL_TAU_FRAC * max|u0|, comes within _SENTINEL_MARGIN
# of the box's width of its edge.  The proximal stepper's damped Newton
# iteration gives up after _MAX_INNER iterations; a run then takes that
# snapshot interval as two halves, each split again on the same failure,
# at most _MAX_HALVINGS deep (2^_MAX_HALVINGS sub-steps).
_CFL_STRIDE = 8
_CFL_SAFETY = 0.9
_MAX_INNER = 60
_MAX_HALVINGS = 4
_DT_MIN = 1e-14
_DT_MAX = 1.0
_SENTINEL_STRIDE = 100
_SENTINEL_MARGIN = 0.1
_SENTINEL_TAU_FRAC = 1e-8
# Each proximal Newton system is solved on the active box of its
# linearization: the bounding box of the support of the step's data and of
# the iterate, _BOX_MARGIN nodes wider on each side (see _ProxProblem).
_BOX_MARGIN = 4


@dataclasses.dataclass
class SolverConfig:
    """Knobs of the scalar solver of the degenerate equation, ``p > 2``.

    ``stepper`` is ``explicit`` or ``implicit`` (see the module docstring).
    ``tol`` is the inner first-order optimality tolerance of the proximal
    step, measured as the grid-L2 norm of the objective gradient.  Its
    Newton iteration cap, and the explicit stepper's CFL safety factor
    and step cap, are the module constants ``_MAX_INNER``,
    ``_CFL_SAFETY`` and ``_DT_MAX``.  Every explicit run audits its
    support after each step (:func:`_simulate_explicit`).
    """

    params: ModelParams
    stepper: str
    tol: float = 1e-10

    def __post_init__(self):
        if not self.params.degenerate:
            raise ValueError(f"the scalar solver needs p > 2, got p = {self.params.p}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.stepper not in ("explicit", "implicit"):
            raise ValueError(f"unknown stepper {self.stepper!r}")


@dataclasses.dataclass
class Trajectory:
    """Snapshots ``(t_k, field_k)`` with strictly increasing times,
    starting at t = 0 with the initial data."""

    times: np.ndarray
    fields: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.fields):
            raise ValueError("times and fields must have equal length")
        if len(self.times) == 0:
            raise ValueError("empty trajectory")
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    def __iter__(self):
        """The snapshots as ``(t, field)`` pairs, in time order."""
        return zip(self.times, self.fields)

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    @property
    def end_time(self) -> float:
        return float(self.times[-1])


class _NewtonCapError(NumericalError):
    """Damped Newton reached ``_MAX_INNER`` iterations: the one proximal
    failure that a shorter step can cure."""


def _require_dirichlet(grid: GridSpec):
    if any(grid.is_periodic(a) for a in range(grid.dim)):
        raise ValueError("the scalar solver requires a dirichlet-zero grid")


# ---------------------------------------------------------------------------
# face geometry helpers (their periodic branches serve the fluid)
# ---------------------------------------------------------------------------


def _sl(ndim: int, axis: int, sl) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _face_diff(v: np.ndarray, axis: int, h: float, periodic: bool,
               out=None) -> np.ndarray:
    """Normal difference at the faces along ``axis``; a dirichlet one
    writes into ``out`` (fresh when None)."""
    if periodic:
        out = _periodic_stencil(np.subtract, axis, (v, 1), (v, 0))
        out /= h
        return out
    nd = v.ndim
    out = np.subtract(v[_sl(nd, axis, slice(1, None))],
                      v[_sl(nd, axis, slice(None, -1))], out=out)
    out /= h
    return out


def _spread(first, a: np.ndarray, out: np.ndarray, axis: int, k: int = 1):
    """Scatter the faces ``a`` to the nodes ``out`` along ``axis``, in one
    pass with no zero fill: node i gets ``first(0.0, a[i])`` (0.0 past the
    end of ``a``), then ``+ a[i-k]``.  Node by node this is the arithmetic
    of a zero array that takes ``first`` of ``a`` at offset 0 and then
    ``+=`` of it at offset k, so the bits, signed zeros included, are
    those of that slice form.  Returns ``out``."""
    nd = out.ndim
    first(0.0, a, out=out[_sl(nd, axis, slice(None, -k))])
    out[_sl(nd, axis, slice(-k, None))] = 0.0
    out[_sl(nd, axis, slice(k, None))] += a
    return out


def _face_diff_adj(w: np.ndarray, node_shape: tuple, axis: int, h: float,
                   periodic: bool) -> np.ndarray:
    if periodic:
        out = _periodic_stencil(np.subtract, axis, (w, -1), (w, 0))
        out /= h
        return out
    return _spread(np.subtract, w / h, np.empty(node_shape), axis)


def _face_avg(z: np.ndarray, axis: int, periodic: bool, out=None) -> np.ndarray:
    """Mean of the two nodes of each face along ``axis``; a dirichlet one
    writes into ``out`` (fresh when None)."""
    if periodic:
        out = _periodic_stencil(np.add, axis, (z, 0), (z, 1))
        out *= 0.5
        return out
    nd = z.ndim
    out = np.add(z[_sl(nd, axis, slice(None, -1))],
                 z[_sl(nd, axis, slice(1, None))], out=out)
    out *= 0.5
    return out


def _face_avg_adj(w: np.ndarray, node_shape: tuple, axis: int) -> np.ndarray:
    return _spread(np.add, 0.5 * w, np.empty(node_shape), axis)


def _trans_deriv(v: np.ndarray, axis: int, h: float, periodic: bool,
                 out=None) -> np.ndarray:
    """Node-centered derivative along ``axis``: centered inside, 2-point
    one-sided at dirichlet ends (kept first order there so the exact
    adjoint stays short); a dirichlet one writes into ``out`` (fresh when
    None)."""
    if periodic:
        return _axis_derivative(v, axis, h, True)
    nd = v.ndim
    out = np.empty_like(v) if out is None else out
    mid = out[_sl(nd, axis, slice(1, -1))]
    np.subtract(v[_sl(nd, axis, slice(2, None))],
                v[_sl(nd, axis, slice(None, -2))], out=mid)
    mid /= 2.0 * h
    out[_sl(nd, axis, 0)] = (v[_sl(nd, axis, 1)] - v[_sl(nd, axis, 0)]) / h
    out[_sl(nd, axis, -1)] = (v[_sl(nd, axis, -1)] - v[_sl(nd, axis, -2)]) / h
    return out


def _trans_deriv_adj(z: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """Adjoint of the dirichlet :func:`_trans_deriv`, into ``out`` (fresh
    when None); ``z`` is overwritten.  The centred rows spread
    ``z[1:-1]/(2h)`` two nodes apart, then the one-sided rows add
    ``-+z[0]/h`` and ``-+z[-1]/h`` at the two end nodes of each side."""
    nd = z.ndim
    out = np.empty_like(z) if out is None else out
    ends = [z[_sl(nd, axis, end)] / h for end in (0, -1)]
    mid = z[_sl(nd, axis, slice(1, -1))]
    mid /= 2.0 * h
    _spread(np.subtract, mid, out, axis, 2)
    for (lo, hi), e in zip(((0, 1), (-2, -1)), ends):
        out[_sl(nd, axis, lo)] -= e
        out[_sl(nd, axis, hi)] += e
    return out


def _face_gradients(v: np.ndarray, grid: GridSpec, axis: int):
    """Normal and (2-D) transverse-averaged gradient components at the
    faces orthogonal to ``axis`` of a dirichlet grid."""
    h = grid.spacing[axis]
    gn = _face_diff(v, axis, h, False)
    if grid.dim == 1:
        return gn, None
    other = 1 - axis
    dt_node = _trans_deriv(v, other, grid.spacing[other], False)
    gt = _face_avg(dt_node, axis, False)
    return gn, gt


def _face_a2(gn, gt):
    a2 = gn * gn
    if gt is not None:
        a2 = a2 + gt * gt
    return a2


def _diffusivity_of_a2(a2, p: float, mu1: float, out=None):
    e = (p - 2.0) / 2.0
    # p = 3: sqrt beats pow (the 2-D step, the proximal step and the fluid;
    # the 1-D explicit step forms |g| directly, see _diffusion_rhs)
    d = np.sqrt(a2, out=out) if e == 0.5 else np.power(a2, e, out=out)
    if mu1 != 1.0:  # a product with 1 is exact, so that pass is skipped
        d *= mu1
    return d


# ---------------------------------------------------------------------------
# explicit stepper
# ---------------------------------------------------------------------------


def _rhs_work(v: np.ndarray, grid: GridSpec):
    """Fresh work buffers ``(gn, a2, out)`` of the 1-D
    :func:`_diffusion_rhs` on ``v`` of ``grid``, and the spacing ``h`` as
    a 0-d array (numpy divides by one faster than by a Python float, to
    the same bits); None for a 2-D ``v``, whose branch allocates its own."""
    if v.ndim != 1:
        return None
    n = v.shape[0]
    return np.empty(n - 1), np.empty(n - 1), np.empty(n), np.array(grid.spacing[0])


def _diffusion_rhs(v: np.ndarray, grid: GridSpec, cfg: SolverConfig,
                   a2_max: list | None = None, work=None) -> np.ndarray:
    """Face-flux divergence on ``v``: the whole node array of ``grid``, or
    a window of it.  Faces past the ends of ``v`` carry no flux, which at
    a window edge is exact where the field vanishes two nodes deep.  Given
    a list ``a2_max``, the largest ``|face grad|^2`` of each axis is
    appended to it for :func:`_cfl_dt`.  A 1-D ``v`` writes every pass
    into ``work``, the :func:`_rhs_work` of its length (fresh when None),
    and returns its ``out``.  At p = 3 its flux is ``mu1 |g| g``, which
    has the bits of the square-root form ``mu1 sqrt(g*g) g`` unless g*g
    is subnormal (at most one subnormal ulp apart) or, for mu1 < 1,
    overflows (the square-root form is then infinite)."""
    p, mu1 = cfg.params.p, cfg.params.mu1
    if v.ndim == 1:
        # hot path of the 1-D sharp-front studies: no temporaries
        gn, a2, out, h = _rhs_work(v, grid) if work is None else work
        np.subtract(v[1:], v[:-1], out=gn)
        gn /= h
        if p == 3.0:
            # sqrt(fl(g*g)) == |g| in binary64 unless g*g underflows or
            # overflows (Boldo, ENTCS 317, 2015), so |g| replaces the square
            # and its root; rounding is monotone, so fl(max|g|)^2 is the
            # largest fl(g*g)
            flux = np.abs(gn, out=a2)
            if a2_max is not None:
                m = flux.max()
                a2_max.append(m * m)
            if mu1 != 1.0:
                flux *= mu1
        else:
            np.multiply(gn, gn, out=a2)
            if a2_max is not None:
                a2_max.append(a2.max())
            flux = _diffusivity_of_a2(a2, p, mu1, out=a2)
        flux *= gn
        out[0] = flux[0]
        out[-1] = -flux[-1]
        np.subtract(flux[1:], flux[:-1], out=out[1:-1])
        out /= h
        return out
    out = np.zeros(v.shape)
    for axis in range(grid.dim):
        h = grid.spacing[axis]
        gn, gt = _face_gradients(v, grid, axis)
        a2 = _face_a2(gn, gt)
        if a2_max is not None:
            a2_max.append(a2.max())
        flux = _diffusivity_of_a2(a2, p, mu1) * gn
        out += np.diff(flux, axis=axis, prepend=0.0, append=0.0) / h
    return out


def _check_finite(arr: np.ndarray, what: str, win=None):
    """Raise :class:`NumericalError` naming the first NaN/Inf node;
    ``win`` is the window (a tuple of slices) that ``arr`` holds of the
    whole array, so the node is named in whole-array indices."""
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) != finite.size:  # cheaper than .all() on windows
        node = np.argwhere(~finite)[0]
        if win is not None:
            node = node + [s.start for s in win]
        raise NumericalError(
            f"{what}: non-finite value at node {tuple(int(i) for i in node)}")


def _whole(values: np.ndarray) -> tuple:
    return tuple(slice(0, n) for n in values.shape)


def _explicit_step(sub: np.ndarray, rhs: np.ndarray, dt: float,
                   win: tuple | None) -> None:
    """Advance ``sub``, the window ``win`` of the field (None: the whole
    field), in place by one explicit step of ``dt``; ``rhs`` is its
    :func:`_diffusion_rhs`, and is overwritten.  The caller checks the
    result for NaN/Inf."""
    rhs *= dt
    np.add(rhs, sub, out=sub)


def step_explicit(u: ScalarField, cfg: SolverConfig, dt: float) -> ScalarField:
    """One conservative explicit step on the whole grid; caller is
    responsible for the CFL bound (see :func:`cfl_dt`)."""
    _require_dirichlet(u.grid)
    values = u.values.copy()
    _explicit_step(values, _diffusion_rhs(values, u.grid, cfg), dt, None)
    _check_finite(values, "explicit step")
    return ScalarField(u.grid, values)


def _cfl_dt(a2_max: list, grid: GridSpec, cfg: SolverConfig) -> float:
    """The CFL bound from the largest ``|face grad|^2`` of each axis.  For
    ``p > 2`` (all :class:`SolverConfig` allows) the diffusivity there is
    the largest one."""
    p, mu1 = cfg.params.p, cfg.params.mu1
    dmax = 0.0
    for m in a2_max:
        dmax = max(dmax, mu1 * float(m) ** ((p - 2.0) / 2.0))
    if dmax == 0.0:
        return _DT_MAX
    h_min = min(grid.spacing)
    dt = _CFL_SAFETY * h_min**2 / (2.0 * grid.dim * dmax * (p - 1.0))
    return float(min(max(dt, _DT_MIN), _DT_MAX))


def cfl_dt(u: ScalarField, cfg: SolverConfig) -> float:
    """Stable explicit step ``_CFL_SAFETY * h_min^2 / (2 N D_max (p-1))``;
    an all-zero diffusivity yields ``_DT_MAX``."""
    _require_dirichlet(u.grid)
    _check_finite(u.values, "cfl_dt input")
    a2_max = [_face_a2(*_face_gradients(u.values, u.grid, axis)).max()
              for axis in range(u.grid.dim)]
    return _cfl_dt(a2_max, u.grid, cfg)


# ---------------------------------------------------------------------------
# implicit (proximal) stepper
# ---------------------------------------------------------------------------


def _face_weight(grid: GridSpec) -> float:
    w = float(np.prod(grid.spacing))
    return w if grid.dim == 1 else w / 2.0


def _face_fields(v: np.ndarray, grid: GridSpec) -> list:
    """Per axis: the face gradients ``(gn, gt)`` and ``a2 = |face grad|^2``."""
    faces = []
    for axis in range(grid.dim):
        gn, gt = _face_gradients(v, grid, axis)
        faces.append((gn, gt, _face_a2(gn, gt)))
    return faces


def _energy(faces: list, grid: GridSpec, cfg: SolverConfig) -> float:
    """Discrete stored energy ``(mu1/p) * sum_faces |face grad|^p * w``."""
    p, mu1 = cfg.params.p, cfg.params.mu1
    total = sum(float(np.sum(a2 ** (p / 2.0))) for _, _, a2 in faces)
    return (mu1 / p) * _face_weight(grid) * total


def _face_gradients_adj(tn, tt, grid: GridSpec, axis: int, out: np.ndarray,
                        work=None) -> np.ndarray:
    """Adjoint of :func:`_face_gradients`: the node array ``G^T (tn, tt)``,
    into ``out``.  ``tn`` and ``tt`` are overwritten; ``work`` is a node
    buffer for the transverse part (fresh when None)."""
    if tt is not None:  # out holds the face sums of tt until the last spread
        other = 1 - axis
        tt *= 0.5
        work = _trans_deriv_adj(_spread(np.add, tt, out, axis), other,
                                grid.spacing[other], out=work)
    tn /= grid.spacing[axis]
    _spread(np.subtract, tn, out, axis)
    if tt is not None:
        out += work
    return out


class _ProxProblem:
    """Objective ``J(v) = |v - u|^2/(2 dt) + E(v)`` and its derivatives.

    ``u`` holds the nodes of a window of ``grid`` (all of them, or a box),
    and ``vol`` their node weights in ``grid``; the spacing is the grid's.
    :meth:`value`, :meth:`value_and_grad` and :meth:`hess_diag` act on
    arrays of the window's shape.

    :meth:`value_and_grad` also linearizes at ``v``: it takes the active
    ``box`` (a tuple of slices into the window) and, per axis, stores the
    face tensor ``K = D (I + (p-2) m m^T)`` on the box's faces alone, with
    ``m`` the face gradient over its magnitude (0 where that vanishes), as
    ``(k_nn, k_nt, k_tt)``.  The Hessian there is
    ``vol/dt + w * sum_axes G^T K G``, with ``G`` the face gradients of
    :func:`_face_gradients`; :meth:`hess_vec` and :meth:`dot` act on
    arrays of the box's shape.

    The box is the bounding box of ``S = supp(u) | supp(v)`` grown by
    ``_BOX_MARGIN`` nodes a side and clipped to the window.  ``K``
    vanishes where ``|face grad v|`` does (p > 2), so on every face
    whose stencil misses ``S``: its nonzero faces lie within one node of
    ``S``'s box.  So the gradient ``g``, and the right-hand side ``-g``
    of the Newton system, vanish outside ``S``'s box grown by two nodes
    (``G^T`` reaches one node past a face along it and two across it),
    and ``H`` maps every vector on that set into it.  Every Krylov vector
    of the system, and every nonzero ``K`` face, stays at least two nodes
    inside the box's edge.  The box's one-sided transverse rows at its
    ends and the faces it leaves out then read exact zeros, just as the
    window's would, and on the box each node of a Hessian action or a
    Jacobi diagonal does the window's arithmetic on the window's operands
    up to the sign of zeros.  Such signs change no nonzero result, and
    a CG iterate that starts at +0 never holds -0, so the Newton direction
    from the box is the window's bit for bit.
    """

    def __init__(self, u: np.ndarray, vol: np.ndarray, grid: GridSpec,
                 cfg: SolverConfig, dt: float):
        self.u = u
        self.vol = vol
        self.grid = grid
        self.cfg = cfg
        self.dt = dt
        self.w = _face_weight(grid)
        self._u_bounds = _support_bounds(u, 0.0)
        self.box = None  # the active box at the last grad point
        self._k = None  # per-axis (k_nn, k_nt, k_tt) on the box's faces
        self._work = None  # hess_vec's buffers, made at its first call per _k
        self._prods = None  # dot's window buffer, made at its first call per _k

    def _quad(self, v: np.ndarray) -> float:
        return 0.5 / self.dt * float(np.sum((v - self.u) ** 2 * self.vol))

    def value(self, v: np.ndarray) -> float:
        faces = _face_fields(v, self.grid)
        return self._quad(v) + _energy(faces, self.grid, self.cfg)

    def _active_box(self, v: np.ndarray) -> tuple:
        """The box of ``supp(u) | supp(v)`` grown by ``_BOX_MARGIN`` nodes
        a side within the window; the whole window when both vanish."""
        bounds = [b for b in (self._u_bounds, _support_bounds(v, 0.0))
                  if b is not None]
        if not bounds:
            return _whole(v)
        m = _BOX_MARGIN
        return tuple(slice(max(min(lo for lo, _ in axis) - m, 0),
                           min(max(hi for _, hi in axis) + m + 1, n))
                     for axis, n in zip(zip(*bounds), v.shape))

    def value_and_grad(self, v: np.ndarray):
        p, mu1 = self.cfg.params.p, self.cfg.params.mu1
        grid = self.grid
        # the old tensor and the buffers go before the new faces come
        self._k, self._work, self._prods = [], None, None
        box = self.box = self._active_box(v)
        self._vol_box = np.ascontiguousarray(self.vol[box])
        faces = _face_fields(v, grid)
        adj = np.zeros(v.shape)
        for axis, (gn, gt, a2) in enumerate(faces):
            D = _diffusivity_of_a2(a2, p, mu1)
            adj += _face_gradients_adj(D * gn, None if gt is None else D * gt,
                                       grid, axis, np.empty(v.shape))
            # the faces between the box's nodes along axis
            fb = tuple(slice(s.start, s.stop - (a == axis))
                       for a, s in enumerate(box))
            D, gn, a2 = D[fb], gn[fb], a2[fb]
            c = (p - 2.0) * D
            sq = np.sqrt(a2)
            mn = np.divide(gn, sq, out=np.zeros_like(gn), where=a2 > 0)
            if gt is None:
                self._k.append((D + c * mn * mn, None, None))
            else:
                gt = gt[fb]
                mt = np.divide(gt, sq, out=np.zeros_like(gt), where=a2 > 0)
                self._k.append((D + c * mn * mn, c * mn * mt, D + c * mt * mt))
        g = self.vol * (v - self.u) / self.dt + self.w * adj
        return self._quad(v) + _energy(faces, grid, self.cfg), g

    def hess_vec(self, dv: np.ndarray) -> np.ndarray:
        """Exact Hessian action at the last gradient point on an array of
        the box's shape, as a fresh array.  Each axis is one pass of
        in-place ufuncs over five work buffers, made at the first call
        after each linearization, with the arithmetic of the slice forms
        (``tests/oracles.py``) node by node."""
        grid = self.grid
        if self._work is None:
            self._work = [np.empty(dv.size) for _ in range(5)]
        # flat buffers, viewed as node arrays or as the axis's face arrays;
        # one takes its next role once its last is read: sums holds the
        # transverse derivative, then tmp, then the second axis's part, and
        # trans holds gn until the transverse adjoint needs it
        b0, b1, b2, b3, b4 = self._work
        adj, sums, trans = (b.reshape(dv.shape) for b in (b0, b1, b2))
        for axis, (knn, knt, ktt) in enumerate(self._k):
            gn, tmp, gt, tn = (b[:knn.size].reshape(knn.shape)
                               for b in (b2, b1, b3, b4))
            _face_diff(dv, axis, grid.spacing[axis], False, out=gn)
            np.multiply(knn, gn, out=tn)
            if ktt is None:
                gt = None
            else:  # tn = knn gn + knt gt, and gt becomes knt gn + ktt gt
                other = 1 - axis
                _face_avg(_trans_deriv(dv, other, grid.spacing[other], False,
                                       out=sums), axis, False, out=gt)
                tn += np.multiply(knt, gt, out=tmp)
                gt *= ktt
                gn *= knt
                np.add(gn, gt, out=gt)
            # every node of an axis's sum starts at 0.0 - a or 0.0 + a, so
            # it is never -0, and the first axis writes adj itself: the
            # zero array's 0.0 + it would change no bit
            _face_gradients_adj(tn, gt, grid, axis, adj if axis == 0 else sums,
                                trans)
            if axis:
                adj += sums
        out = np.multiply(self._vol_box, dv)
        out /= self.dt
        adj *= self.w
        out += adj
        return out

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """``sum(a * b)`` of two arrays of the box's shape, summed over a
        window buffer that holds 0.0 outside the box: the products, their
        order and so the bits of the same sum over the window."""
        if self._prods is None:
            self._prods = np.zeros(self.u.shape)
            self._prods_box = self._prods[self.box]
        np.multiply(a, b, out=self._prods_box)
        return float(np.sum(self._prods))

    def hess_diag(self) -> np.ndarray:
        """Exact Hessian diagonal on the window, the Jacobi
        preconditioner: ``vol/dt`` outside the box, and inside it ``K``
        weighted by the squared stencil coefficients of the face
        gradients.  The cross term ``k_nt`` enters where a one-sided
        dirichlet end puts a node in both the normal and the transverse
        stencil of a face."""
        grid, box = self.grid, self.box
        shape = tuple(s.stop - s.start for s in box)
        nd = grid.dim
        diag = np.zeros(shape)
        for axis, (knn, knt, ktt) in enumerate(self._k):
            h = grid.spacing[axis]
            diag += (2.0 / h**2) * _face_avg_adj(knn, shape, axis)
            if ktt is None:
                continue
            other = 1 - axis
            ho = grid.spacing[other]
            # k_tt / 4 at both nodes of a face, times the squared transverse
            # coefficient of each node row: 1/(2 ho) centred, 1/ho one-sided
            z = _face_avg_adj(ktt, shape, axis) / (8.0 * ho**2)
            x = _face_diff_adj(knt, shape, axis, h, False) / ho
            for end, sign in ((0, -1.0), (-1, 1.0)):  # one-sided rows
                e = _sl(nd, other, end)
                z[e] *= 4.0
                diag[e] += z[e] + sign * x[e]
            diag[_sl(nd, other, slice(1, None))] += z[_sl(nd, other, slice(None, -1))]
            diag[_sl(nd, other, slice(None, -1))] += z[_sl(nd, other, slice(1, None))]
        out = self.vol / self.dt
        out[box] += self.w * diag
        return out

    def banded_hessian(self) -> np.ndarray:
        """Tridiagonal Hessian on the window in solve_banded layout (1-D
        only); the faces outside the box carry 0."""
        (s,) = self.box
        coef = np.zeros(self.u.shape[0] - 1)
        coef[s.start:s.stop - 1] = self.w * self._k[0][0] / self.grid.spacing[0] ** 2
        ab = np.zeros((3, self.u.shape[0]))
        ab[1, :] = self.vol / self.dt
        ab[1, :-1] += coef
        ab[1, 1:] += coef
        ab[0, 1:] = -coef
        ab[2, :-1] = -coef
        return ab


def solve_banded(l_and_u, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded``, imported on the first call: only 1-D
    proximal steps use it, and ``scipy.linalg`` costs about a third of a
    second to import."""
    from scipy.linalg import solve_banded as banded

    return banded(l_and_u, ab, b)


def _pcg(apply_h, b: np.ndarray, inv_diag: np.ndarray, rtol: float,
         maxiter: int, dot) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients, deterministic, on arrays
    of ``b``'s shape: the active box of the proximal problem, whose
    :meth:`_ProxProblem.dot` is ``dot``.  The updates are in place, and
    each keeps the operands of ``x += alpha p``, ``r -= alpha H p`` and
    ``p = z + beta p``."""
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    tmp = np.empty_like(b)
    rz = dot(r, z)
    b_norm = float(np.sqrt(dot(b, b))) or 1.0
    for _ in range(maxiter):
        hp = apply_h(p)
        alpha = rz / dot(p, hp)
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, hp, out=tmp)
        if np.sqrt(dot(r, r)) <= rtol * b_norm:
            break
        np.multiply(inv_diag, r, out=z)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x


def _grad_residual(g: np.ndarray, vol: np.ndarray) -> float:
    """Grid-L2 norm of the objective gradient in the functional sense."""
    return float(np.sqrt(np.sum(g * g / vol)))


def _outer_rings(win: tuple, shape: tuple) -> list:
    """Indices, into the window ``win`` of a node array of ``shape``, of
    the two outermost node layers of each window side inside the array."""
    rings = []
    for axis, (s, n) in enumerate(zip(win, shape)):
        if s.start > 0:
            rings.append(_sl(len(shape), axis, slice(0, 2)))
        if s.stop < n:
            rings.append(_sl(len(shape), axis, slice(-2, None)))
    return rings


def _proximal_newton(u: np.ndarray, v: np.ndarray, vol: np.ndarray,
                     grid: GridSpec, cfg: SolverConfig, dt: float, rings: list):
    """The proximal step of ``u``, a window of ``grid`` with node weights
    ``vol``, by damped Newton from ``v``, or None as soon as a Newton
    direction is nonzero on one of ``rings`` (the start is zero there, so
    the result is too when every direction is)."""
    prob = _ProxProblem(u, vol, grid, cfg, dt)
    j_u = prob.value(u)
    j, g = prob.value_and_grad(v)
    if j > j_u:  # extrapolated warm start went uphill; fall back
        v = u
        j, g = prob.value_and_grad(v)
    banded = grid.dim == 1
    res = res0 = _grad_residual(g, prob.vol)
    for _ in range(_MAX_INNER):
        if res <= cfg.tol:
            return v
        if banded:
            ab = prob.banded_hessian()
            diag = ab[1]
            delta = solve_banded((1, 1), ab, -g)
        else:
            diag = prob.hess_diag()
            rtol = min(0.1, np.sqrt(res / res0)) if res0 > 0 else 0.1
            box = prob.box
            delta = np.zeros(g.shape)  # the direction vanishes off the box
            delta[box] = _pcg(prob.hess_vec, -g[box], 1.0 / diag[box],
                              rtol=max(rtol, 1e-12), maxiter=600,
                              dot=prob.dot)
        slope = float(np.sum(g * delta))
        if slope >= 0:  # the solve returned a non-descent direction
            delta = -g / diag
            slope = float(np.sum(g * delta))
        if any(_any_nonzero(delta[ring]) for ring in rings):
            return None
        # Armijo with a roundoff-scale slack so terminal Newton steps are
        # accepted once genuine decreases fall below the resolution of J
        slack = 32.0 * np.finfo(float).eps * max(1.0, abs(j))
        step = 1.0
        while True:
            j_new = prob.value(v + step * delta)
            if j_new <= j + 1e-4 * step * slope + slack:
                break
            step *= 0.5
            if step < 1e-14:
                raise NumericalError(
                    f"proximal line search stalled at residual {res:.3e}")
        v = v + step * delta
        j, g = prob.value_and_grad(v)
        res = _grad_residual(g, prob.vol)
    raise _NewtonCapError(
        f"proximal step: {_MAX_INNER} Newton iterations exhausted, "
        f"residual {res:.3e} > tol {cfg.tol:.3e}")


def step_implicit_proximal(u: ScalarField, cfg: SolverConfig, dt: float,
                           v0: np.ndarray | None) -> ScalarField:
    """Proximal (backward Euler) step by damped Newton from ``v0`` (or ``u``).

    Guarantees the energy inequality
    ``E(v) + |v - u|^2/(2 dt) <= E(u) + tol`` because the line search
    never accepts an objective increase from the start point ``u``.

    The step is solved on a window: the bounding box of
    ``supp(u) | supp(v0)`` plus a halo of ``_WINDOW_HALO`` nodes on each
    axis, with the grid's spacing and the window's node weights in the
    grid (a window edge is no trapezoid end).  Where the iterate vanishes
    two nodes deep, the face tensor ``K`` vanishes, so the whole-grid
    Hessian there is ``vol/dt``, the gradient is 0, and every Krylov
    vector, Newton direction and line search point keeps those nodes
    exactly 0: the solve on the window is the whole-grid solve, up to the
    order of its sums.  A guard keeps it so:
    when a Newton direction is nonzero on the outer two nodes of a window
    side inside the grid, the step is redone from its start with twice
    the halo.  A window that reaches the grid edge on every side is the
    whole grid.

    Each Newton linear system is solved on a smaller box still: the
    active box of its linearization, the support of ``u`` and of the
    iterate grown by ``_BOX_MARGIN`` nodes (:class:`_ProxProblem`).  The
    system's right-hand side vanishes off it and its Hessian keeps
    vectors on it, so CG there gives the window CG's direction bit for
    bit.
    """
    grid = u.grid
    _require_dirichlet(grid)
    v0 = u.values if v0 is None else np.asarray(v0, dtype=float)
    whole = _whole(u.values)
    bounds = _support_bounds((u.values != 0.0) | (v0 != 0.0), 0.0)
    halo = _WINDOW_HALO
    while True:
        win = _support_window(bounds, grid, whole, halo)
        v = _proximal_newton(*(np.ascontiguousarray(a[win]) for a in
                               (u.values, v0, grid.volumes())),
                             grid, cfg, dt, _outer_rings(win, grid.shape))
        if v is not None:
            break
        halo *= 2
    _check_finite(v, "implicit step", win)
    out = np.zeros(grid.shape)
    out[win] = v
    return ScalarField(grid, out)


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------


def _support_bounds(values: np.ndarray, tau: float):
    """Per-axis (lo, hi) index bounds of ``|values| > tau``; None if empty."""
    mask = values != 0.0 if tau == 0.0 else np.abs(values) > tau
    if not mask.any():
        return None
    bounds = []
    for axis in range(values.ndim):
        other = tuple(a for a in range(values.ndim) if a != axis)
        line = mask.any(axis=other) if other else mask
        idx = np.flatnonzero(line)
        bounds.append((int(idx[0]), int(idx[-1])))
    return bounds


def _check_sentinel(values: np.ndarray, grid: GridSpec, tau: float, t: float):
    bounds = _support_bounds(values, tau)
    if bounds is None:
        return
    for axis, (lo_i, hi_i) in enumerate(bounds):
        width = grid.upper[axis] - grid.lower[axis]
        x = grid.coords(axis)
        lo_gap = x[lo_i] - grid.lower[axis]
        hi_gap = grid.upper[axis] - x[hi_i]
        if min(lo_gap, hi_gap) < _SENTINEL_MARGIN * width:
            raise BoundarySentinelError(
                f"support reached within {_SENTINEL_MARGIN:.0%} of the box "
                f"on axis {axis} at t = {t:.6g} (gaps {lo_gap:.3g}/"
                f"{hi_gap:.3g}, width {width:.3g}); enlarge the box")


def normalize_schedule(snapshot_times, T: float) -> np.ndarray:
    """Sorted snapshot times covering [0, T]: 0 and T added when missing,
    near-duplicates from schedule arithmetic merged, endpoints snapped to
    exactly 0 and T, which are kept for every T > 0."""
    sched = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    tiny = 1e-12 * max(T, 1.0)
    if len(sched) == 0 or sched[0] > tiny:
        sched = np.concatenate([[0.0], sched])
    if sched[0] < -tiny or sched[-1] > T + tiny:
        raise ValueError("snapshot times must lie in [0, T]")
    if 0.0 < T <= tiny:  # every time merges into an endpoint
        return np.array([0.0, T])
    sched[0] = 0.0
    if abs(sched[-1] - T) <= tiny:
        sched[-1] = T
    elif sched[-1] < T:
        sched = np.concatenate([sched, [T]])
    keep = [0]
    for i in range(1, len(sched)):
        if sched[i] - sched[keep[-1]] > tiny:
            keep.append(i)
    sched = sched[keep]
    sched[-1] = T  # a merge may keep an entry just short of T
    return sched


def _any_nonzero(nodes: np.ndarray) -> bool:
    """Whether a line or a block of nodes holds a nonzero value, by the
    cheaper numpy test for each."""
    if nodes.ndim == 1:
        return np.count_nonzero(nodes) > 0
    return nodes.any()


def _grew_error(axis: int, t: float) -> NumericalError:
    return NumericalError(f"support grew more than one cell on axis {axis} "
                          f"in one step at t = {t:.6g}")


def _edge_bounds(values: np.ndarray, win: tuple, seed, t: float):
    """Per-axis (lo, hi) whole-array bounds of the nonzero nodes of
    ``values[win]``, or None when there are none, at the cost of the front.

    ``seed`` holds per-axis bounds that the nonzero nodes pass by at most
    one node a side: the previous step's support, or ``win`` shrunk by one
    node a side after a step from a field with no support.  On each axis
    the bands between the window's edges and ``seed`` ± 1 must be zero,
    else the support grew more than one cell in one step and
    :class:`NumericalError` names ``t``.  The bounds are found by reading
    slabs (one node in 1-D, one row or column in 2-D) inward from
    ``seed`` ± 1, past any whose nodes underflowed to exact zero.  Later
    axes read only the support's extent on the axes before them.
    """
    if values.ndim == 1:  # the 1-D audit: one count per band, scalar reads
        (lo, hi), s = seed[0], win[0]
        lo = lo - 1 if lo > s.start else s.start  # cheaper than max(), min()
        hi = hi + 1 if hi < s.stop - 1 else s.stop - 1
        # len(nonzero()[0]): np.count_nonzero's count without its Python
        # wrapper and array-function dispatch, on two short bands a step
        if (len(values[s.start:lo].nonzero()[0])
                or len(values[hi + 1:s.stop].nonzero()[0])):
            raise _grew_error(0, t)
        while lo <= hi and values[lo] == 0.0:
            lo += 1
        if lo > hi:
            return None
        while values[hi] == 0.0:
            hi -= 1
        return [(lo, hi)]
    bounds = []
    for axis, (lo, hi) in enumerate(seed):
        s, head, tail = win[axis], win[:axis], win[axis + 1:]
        # slabs[i]: the window's nodes at index i on ``axis``
        slabs = values[head + (slice(None),) + tail].swapaxes(0, axis)
        lo, hi = max(lo - 1, s.start), min(hi + 1, s.stop - 1)
        # each band is read together with the slab at lo (hi): all zero
        # unless the support grew there, and then the band alone must be
        # zero and lo (hi) is the bound; else it lies further in
        lo_hit = _any_nonzero(slabs[s.start:lo + 1])
        hi_hit = _any_nonzero(slabs[hi:s.stop])
        if ((lo_hit and _any_nonzero(slabs[s.start:lo]))
                or (hi_hit and _any_nonzero(slabs[hi + 1:s.stop]))):
            raise _grew_error(axis, t)
        if not lo_hit:
            lo += 1
            while lo <= hi and not _any_nonzero(slabs[lo]):
                lo += 1
            if lo > hi:
                return None
        if not hi_hit:
            hi -= 1
            while not _any_nonzero(slabs[hi]):
                hi -= 1
        bounds.append((lo, hi))
        win = head + (slice(lo, hi + 1),) + tail
    return bounds


def _support_window(bounds, grid: GridSpec, win: tuple, halo: int) -> tuple:
    """Window of the support ``bounds`` (whole-array indices, or None for
    a zero field, which keeps ``win``) grown by ``halo`` nodes a side."""
    if bounds is None:
        return win
    return tuple(slice(max(lo - halo, 0), min(hi + halo + 1, n))
                 for (lo, hi), n in zip(bounds, grid.shape))


def snapshots(u0: ScalarField, cfg: SolverConfig, T: float, snapshot_times):
    """Advance ``u0`` to time ``T``, yielding ``(t, field)`` at each time
    of the schedule, the initial data first.

    ``snapshot_times`` is an increasing sequence of times in ``[0, T]``
    (0 and T are added when missing); the times yielded are the schedule
    :func:`normalize_schedule` makes of it.  ``T``, the grid, the initial
    data's finiteness and the boundary sentinel on it are checked at the
    call; the steps are taken as the snapshots are read, and the sentinel
    checks every snapshot.  ``cfg.stepper`` picks the stepping loop:
    :func:`_simulate_explicit` or :func:`_simulate_implicit`.  Every field
    yielded is a fresh array that no later step writes, so a reader may
    keep it or drop it.
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    _require_dirichlet(u0.grid)
    _check_finite(u0.values, "initial data")
    sched = normalize_schedule(snapshot_times, T)
    # a zero field stays zero, and a zero tau finds no support in it
    tau = _SENTINEL_TAU_FRAC * float(np.max(np.abs(u0.values)))
    _check_sentinel(u0.values, u0.grid, tau, 0.0)
    drive = _simulate_explicit if cfg.stepper == "explicit" else _simulate_implicit
    return drive(u0, cfg, sched, tau)


def simulate(*args, **kwargs) -> Trajectory:
    """:func:`snapshots`, same arguments, collected into a
    :class:`Trajectory`."""
    times, fields = zip(*snapshots(*args, **kwargs))
    return Trajectory(times, list(fields))


def _simulate_explicit(u0: ScalarField, cfg: SolverConfig, sched: np.ndarray,
                       tau: float):
    """The snapshots at ``sched`` of the explicit stepper.

    Each step acts only on the support's bounding window plus a halo of
    ``_WINDOW_HALO`` nodes, rescanned every ``_WINDOW_RESCAN`` steps; the
    CFL bound, the finiteness check and the locality audit read the same
    window.  The nodes outside it hold exact zeros that a whole-grid step
    would leave unchanged, so the trajectory is bit-identical to repeated
    :func:`cfl_dt` / :func:`step_explicit` calls.  The audit checks after
    every step of every run that the support grew by at most one cell a
    side.  The audit and the rescan cost O(front), not O(window): the
    audit's edge scan starts from the last step's bounds, the rescan
    reuses them, and every ``_CFL_STRIDE`` steps the CFL bound is read
    from the ``|face grad|^2`` the step itself forms.  The sentinel
    also runs every ``_SENTINEL_STRIDE`` steps.  A 1-D step writes into
    work buffers that live as long as the window's length, so it
    allocates nothing.  The field is stepped in place and each snapshot
    is a copy of it.

    The window is checked for NaN/Inf every ``_CFL_STRIDE`` steps (before
    the CFL bound, which a NaN would silently turn into a jump to the
    next snapshot), before each snapshot and sentinel call, and before
    an edge scan's growth error is raised.  Each check that passes saves
    the window and the stepping state.  A check that fails restores that
    state and replays from it with a check after every step, so the run
    raises the :class:`NumericalError` of a per-step check: the same node
    after the same step.
    """
    grid = u0.grid
    u = u0.copy()
    yield sched[0], u.copy()
    values = u.values  # stepped in place
    win = _whole(values)
    bounds = _support_bounds(values, 0.0)
    work = _rhs_work(values, grid)
    steps = 0
    t = 0.0
    dt_cfl = saved = None
    every = _CFL_STRIDE  # steps between finiteness checks; 1 in a replay

    def window_seed():  # a field with no support: no band to fail
        return [(s.start + 1, s.stop - 2) for s in win]

    def save():
        nonlocal saved
        saved = values[win].copy(), t, steps, dt_cfl, bounds, win, work

    def finite():
        """Whether the window is finite (then saved); else restore the
        last saved state and replay from it, or raise in a replay."""
        nonlocal t, steps, dt_cfl, bounds, win, work, every
        try:
            _check_finite(values[win], "explicit step", win)
        except NumericalError:
            if every == 1:
                raise
            block, t, steps, dt_cfl, bounds, win, work = saved
            values[...] = 0.0  # as it was outside the saved window
            values[win] = block
            every = 1
            return False
        save()
        return True

    for t_next in sched[1:]:
        t_stop = t_next - 1e-15 * max(t_next, 1.0)
        while True:
            at_snapshot = not t < t_stop
            if (at_snapshot or steps % every == 0) and not finite():
                continue
            if at_snapshot:
                break
            if steps % _WINDOW_RESCAN == 0:
                win = _support_window(bounds, grid, win, _WINDOW_HALO)
                n = win[0].stop - win[0].start
                if work is not None and len(work[2]) != n:
                    work = _rhs_work(values[win], grid)
            sub = values[win]
            if steps % _CFL_STRIDE == 0:
                a2_max = []
                rhs = _diffusion_rhs(sub, grid, cfg, a2_max, work)
                dt_cfl = _cfl_dt(a2_max, grid, cfg)
            else:
                rhs = _diffusion_rhs(sub, grid, cfg, None, work)
            dt = t_next - t  # min(dt_cfl, dt), without the builtin's call
            if dt_cfl < dt:
                dt = dt_cfl
            _explicit_step(sub, rhs, dt, win)
            t += dt
            steps += 1
            try:
                bounds = _edge_bounds(
                    values, win, window_seed() if bounds is None else bounds, t)
            except NumericalError:  # a NaN/Inf in the window is named first
                if finite():
                    raise
                continue
            if steps % _SENTINEL_STRIDE == 0:
                if not finite():
                    continue
                _check_sentinel(values, grid, tau, t)
        _check_sentinel(values, grid, tau, t)
        yield t_next, u.copy()
        t = t_next
        save()  # a replay never goes back past a snapshot


def _proximal_interval(u: ScalarField, cfg: SolverConfig, dt: float,
                       v0: np.ndarray | None, depth: int = 0) -> ScalarField:
    """:func:`step_implicit_proximal` of ``u`` over ``dt`` from ``v0``, or,
    when its Newton iteration reaches the cap, two cold-started halves of
    ``dt`` taken the same way, at most ``_MAX_HALVINGS`` halvings deep.

    The step minimizes a strictly convex functional for every ``dt``, but
    a Newton direction reaches at most one node past the iterate's
    support, so the iterations a step needs grow with how far it moves
    the front.  Every other failure raises at once.
    """
    try:
        return step_implicit_proximal(u, cfg, dt, v0=v0)
    except _NewtonCapError as exc:
        if depth == _MAX_HALVINGS:
            raise NumericalError(f"{exc}, on an interval halved {depth} "
                                 f"times, the most allowed") from exc
    half = _proximal_interval(u, cfg, 0.5 * dt, None, depth + 1)
    return _proximal_interval(half, cfg, 0.5 * dt, None, depth + 1)


def _simulate_implicit(u0: ScalarField, cfg: SolverConfig, sched: np.ndarray,
                       tau: float):
    """The snapshots at ``sched`` of the proximal stepper.

    Each snapshot interval is one :func:`step_implicit_proximal`,
    warm-started by linear extrapolation of the last two fields, or, when
    Newton reaches its iteration cap, a chain of sub-steps
    (:func:`_proximal_interval`).  Each step
    is solved on the window of the support of its data and warm start and
    is the whole-grid step up to the order of its sums: outside the
    support's ring the Newton system decouples to ``vol/dt`` with a zero
    right-hand side, and the window guard redoes the step on a wider
    window whenever a Newton direction reaches the window's edge.
    """
    yield sched[0], u0.copy()
    u, v_prev = u0, None
    for t, t_next in zip(sched[:-1], sched[1:]):
        guess = None if v_prev is None else u.values + (u.values - v_prev)
        v_prev = u.values
        u = _proximal_interval(u, cfg, t_next - t, guess)
        _check_sentinel(u.values, u.grid, tau, t_next)
        yield t_next, u
