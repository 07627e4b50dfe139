"""Uniform-grid fields, norms and discrete calculus shared by all solvers.

Conventions
-----------
* Value arrays are C-ordered with one axis per spatial dimension.  In 2-D
  the *last* axis plays the role of the distinguished coordinate ``x_N``
  used by the half-space analytics (tail integrals, support fronts).
* Periodic axes carry ``cells`` nodes (no duplicated endpoint); a
  ``dirichlet-zero`` axis carries ``cells + 1`` nodes including both
  endpoints, with trapezoid end weights in all quadratures.
* Reductions go through numpy's fixed-order pairwise summation, so every
  result is bit-reproducible across runs regardless of thread counts.
* Boxes are finite stand-ins for the whole space.  The solvers enforce a
  boundary-proximity sentinel (see :mod:`pflab.plaplace`) so that the
  truncation never influences a reported result.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet-zero"
_BC_KINDS = (PERIODIC, DIRICHLET)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform tensor-product lattice on a box, 1-D or 2-D.

    ``lower``/``upper`` give the box per axis, ``cells`` the number of
    grid cells per axis, ``bc`` the closure kind per axis.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]
    bc: tuple[str, ...]

    def __post_init__(self):
        dim = len(self.cells)
        if dim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {dim}")
        if not (len(self.lower) == len(self.upper) == len(self.bc) == dim):
            raise ValueError("lower/upper/cells/bc must agree in length")
        for ax in range(dim):
            if self.cells[ax] < 1:
                raise ValueError(f"axis {ax}: need at least one cell")
            if not self.upper[ax] > self.lower[ax]:
                raise ValueError(f"axis {ax}: upper bound must exceed lower")
            if self.bc[ax] not in _BC_KINDS:
                raise ValueError(f"axis {ax}: unknown boundary kind {self.bc[ax]!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def line(lower: float, upper: float, cells: int) -> "GridSpec":
        return GridSpec((float(lower),), (float(upper),), (int(cells),), (DIRICHLET,))

    @staticmethod
    def box(lower, upper, cells, bc=DIRICHLET) -> "GridSpec":
        """2-D grid; scalar arguments are broadcast to both axes."""
        low = tuple(float(v) for v in (lower if np.iterable(lower) else (lower, lower)))
        upp = tuple(float(v) for v in (upper if np.iterable(upper) else (upper, upper)))
        cel = tuple(int(v) for v in (cells if np.iterable(cells) else (cells, cells)))
        bcs = tuple(bc) if not isinstance(bc, str) else (bc, bc)
        return GridSpec(low, upp, cel, bcs)

    # -- geometry -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (self.upper[a] - self.lower[a]) / self.cells[a] for a in range(self.dim)
        )

    def is_periodic(self, axis: int) -> bool:
        return self.bc[axis] == PERIODIC

    def node_count(self, axis: int) -> int:
        return self.cells[axis] if self.is_periodic(axis) else self.cells[axis] + 1

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.node_count(a) for a in range(self.dim))

    def coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        n = self.node_count(axis)
        return self.lower[axis] + h * np.arange(n)

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*(self.coords(a) for a in range(self.dim)), indexing="ij")

    def quad_weights(self, axis: int) -> np.ndarray:
        """Per-node quadrature weight along one axis (trapezoid on
        dirichlet axes, plain cell width on periodic ones)."""
        h = self.spacing[axis]
        w = np.full(self.node_count(axis), h)
        if not self.is_periodic(axis):
            w[0] = w[-1] = h / 2.0
        return w

    @cached_property
    def _volumes(self) -> np.ndarray:
        w = self.quad_weights(0)
        if self.dim == 1:
            return w
        return np.outer(w, self.quad_weights(1))

    def volumes(self) -> np.ndarray:
        """Quadrature weight of every node, shaped like a value array
        (cached; treat as read-only)."""
        return self._volumes

    def cell_bounds(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Left/right edge of the quadrature cell owned by each node."""
        x = self.coords(axis)
        h = self.spacing[axis]
        lo = x - h / 2.0
        hi = x + h / 2.0
        if not self.is_periodic(axis):
            lo = np.maximum(lo, self.lower[axis])
            hi = np.minimum(hi, self.upper[axis])
        return lo, hi


@dataclasses.dataclass
class ScalarField:
    """Nodal scalar values on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    @staticmethod
    def zeros(grid: GridSpec) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.shape))


@dataclasses.dataclass
class VectorField:
    """One scalar value array per spatial component."""

    grid: GridSpec
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=float) for c in self.components)
        if len(comps) != self.grid.dim:
            raise ValueError("one component per grid axis required")
        for c in comps:
            if c.shape != self.grid.shape:
                raise ValueError("component shape does not match grid")
        self.components = comps

    def copy(self) -> "VectorField":
        return VectorField(self.grid, tuple(c.copy() for c in self.components))

    def magnitude(self) -> np.ndarray:
        out = self.components[0] ** 2
        for c in self.components[1:]:
            out = out + c**2
        return np.sqrt(out)


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Exponent and viscosity of the power-law model.

    ``p`` is the growth exponent of the stress, ``mu1`` the viscosity
    coefficient.  The fluid solver takes ``p >= 2`` and the scalar solver
    ``p > 2``, the regimes their CFL bounds and proximal step are checked
    in.  For ``p > 2`` the diffusivity vanishes with the gradient and
    compactly supported data stays compactly supported.
    """

    p: float
    mu1: float

    def __post_init__(self):
        if not self.mu1 > 0:
            raise ValueError("mu1 must be positive")
        if not (np.isfinite(self.p) and self.p >= 2.0):
            raise ValueError(f"p must be finite and >= 2, got p = {self.p}")

    @property
    def degenerate(self) -> bool:
        """True when the model has a genuine free boundary (p > 2)."""
        return self.p > 2.0


# ---------------------------------------------------------------------------
# discrete differential operators
# ---------------------------------------------------------------------------


def _periodic_stencil(fn, axis: int, *terms) -> np.ndarray:
    """New array ``fn(a[i + s], b[i + t], ..., out=...)`` along a periodic
    ``axis``, for ``terms = ((a, s), (b, t), ...)`` of same-shape arrays
    and shifts in {-1, 0, 1}.

    One pass runs over the arrays flattened in C order, with each shift
    an offset of one ``axis`` stride; that is right at every node where no
    shift wraps.  The end slabs where one does are then written again with
    their wrapped neighbours.  No shifted copy is made, and the values are
    those of ``fn`` applied to ``np.roll(a, -s, axis), ...``, bit for bit.
    """
    shape = terms[0][0].shape
    n = shape[axis]
    stride = math.prod(shape[axis + 1:])
    shifts = [shift for _, shift in terms]
    first, last = min(shifts), max(shifts)
    out = np.empty(shape)
    lo, hi = max(-first, 0) * stride, out.size - max(last, 0) * stride
    if hi > lo:
        fn(*[arr.reshape(-1)[lo + s * stride:hi + s * stride] for arr, s in terms],
           out=out.reshape(-1)[lo:hi])
    lead = (slice(None),) * axis
    for i in [i for i, wraps in ((0, first < 0), (n - 1, last > 0)) if wraps]:
        fn(*[arr[lead + (slice((i + s) % n, (i + s) % n + 1),)] for arr, s in terms],
           out=out[lead + (slice(i, i + 1),)])
    return out


def _axis_derivative(values: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order first derivative along one axis.

    Centered in the interior; on dirichlet axes the endpoints use the
    second-order one-sided stencil (via ``np.gradient`` with
    ``edge_order=2``), on periodic axes the stencil wraps around.
    """
    n = values.shape[axis]
    if n < 2:
        raise ValueError("degenerate grid: need at least 2 nodes per axis")
    if periodic:
        out = _periodic_stencil(np.subtract, axis, (values, 1), (values, -1))
        out /= 2.0 * h
        return out
    if n == 2:
        d = np.diff(values, axis=axis) / h
        return np.concatenate([d, d], axis=axis)
    return np.gradient(values, h, axis=axis, edge_order=2)


def gradient(f: ScalarField) -> VectorField:
    """Discrete gradient of a scalar field, one component per axis."""
    g = f.grid
    comps = tuple(
        _axis_derivative(f.values, a, g.spacing[a], g.is_periodic(a))
        for a in range(g.dim)
    )
    return VectorField(g, comps)


def divergence(v: VectorField) -> ScalarField:
    """Discrete divergence with the same stencils as :func:`gradient`."""
    g = v.grid
    out = np.zeros(g.shape)
    for a, comp in enumerate(v.components):
        out += _axis_derivative(comp, a, g.spacing[a], g.is_periodic(a))
    return ScalarField(g, out)


def deformation_tensor(v: VectorField, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized velocity gradient, shape ``(2, 2) + grid.shape``.

    Built so the off-diagonal entries are the *same* computed values,
    hence bitwise symmetric.  Rigid rotations map to zero.  ``out``, a
    float array of that shape, receives the tensor in place of a new
    array and is returned; its bits are those of the new array.
    """
    g = v.grid
    if g.dim != 2:
        raise ValueError("deformation tensor is defined for 2-D fields; "
                         "use gradient() in 1-D")
    hx, hy = g.spacing
    px, py = g.is_periodic(0), g.is_periodic(1)
    du0_dx = _axis_derivative(v.components[0], 0, hx, px)
    du0_dy = _axis_derivative(v.components[0], 1, hy, py)
    du1_dx = _axis_derivative(v.components[1], 0, hx, px)
    du1_dy = _axis_derivative(v.components[1], 1, hy, py)
    if out is None:
        out = np.empty((2, 2) + g.shape)
    out[0, 0] = du0_dx
    out[1, 1] = du1_dy
    np.add(du0_dy, du1_dx, out=out[0, 1])
    out[0, 1] *= 0.5
    out[1, 0] = out[0, 1]
    return out


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------


def _value_magnitude(f) -> tuple[GridSpec, np.ndarray]:
    if isinstance(f, ScalarField):
        return f.grid, np.abs(f.values)
    if isinstance(f, VectorField):
        return f.grid, f.magnitude()
    raise TypeError(f"expected ScalarField or VectorField, got {type(f).__name__}")


def lp_norm(f, q: float) -> float:
    """``(sum |f|^q * weights)^(1/q)`` with deterministic summation.

    Vector fields are measured through their pointwise Euclidean
    magnitude.
    """
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    grid, mag = _value_magnitude(f)
    return float(np.sum(mag**q * grid.volumes()) ** (1.0 / q))


def tail_profile(f, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node-slab contributions to tail integrals of ``|f|^q``.

    Returns ``(cell_lo, cell_hi, density)`` along the last axis, with the
    other axes integrated out, so that ``|f|^q`` over ``{x_N >= s}`` is
    ``sum(density * clip(cell_hi - max(cell_lo, s), 0))``: a cell straddling
    the cut counts its covered fraction, and many cuts cost one profile.
    """
    density = tail_density(f, q)
    lo, hi = f.grid.cell_bounds(f.grid.dim - 1)
    return lo, hi, density


def tail_density(f, q: float) -> np.ndarray:
    """The ``density`` of :func:`tail_profile` alone, without its cell
    bounds: for a reader that takes the bounds once for many fields on
    one grid."""
    grid, mag = _value_magnitude(f)
    if grid.dim == 1:
        return mag**q
    return np.sum(mag**q * grid.quad_weights(0)[:, None], axis=0)
