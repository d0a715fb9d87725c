"""Rectangular-box collocated grid, field containers, and difference operators.

Conventions
-----------
* Axis 0 is x, axis 1 is y, axis 2 is z.  Field data is stored C-ordered with
  shape ``grid.shape`` plus a trailing component axis where applicable.
* Vector fields carry ``d`` components; symmetric tensor fields carry the
  6-component storage of :mod:`kvsim.constitutive` (zero-padded below 3-D).
* First derivatives use second-order central differences at interior nodes
  and second-order one-sided differences at boundary nodes.
* The Neumann Laplacian uses mirror ghost values, which makes the operator
  symmetric under the trapezoidal inner product and gives it exact zero row
  sums; ``integrate`` is that trapezoidal quadrature.
* The displacement operators (``lame_operator``) act on fields that vanish on
  the boundary and return interior values with zero boundary rows; they are
  exactly self-adjoint on such fields.

Reductions sum in a fixed order, so repeated runs are bitwise reproducible.
Operators never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constitutive import COMPONENT_OF, ddot
from .errors import UsageError


class Grid:
    """A box ``[0, L_1] x ... x [0, L_d]`` with ``n_i`` nodes per axis."""

    def __init__(self, nodes, lengths):
        nodes = tuple(int(n) for n in np.atleast_1d(nodes))
        lengths = tuple(float(c) for c in np.atleast_1d(lengths))
        if not 1 <= len(nodes) <= 3:
            raise UsageError(f"dimension must be 1, 2, or 3, got {len(nodes)}")
        if len(lengths) != len(nodes):
            raise UsageError("nodes and lengths must have the same dimension")
        if any(n < 3 for n in nodes):
            raise UsageError(f"need at least 3 nodes per axis, got {nodes}")
        if not all(0.0 < c < math.inf for c in lengths):
            raise UsageError(f"box lengths must be positive and finite, got {lengths}")
        self.d = len(nodes)
        self.n = nodes
        self.lengths = lengths
        self.h = tuple(c / (n - 1) for c, n in zip(lengths, nodes))
        self.shape = nodes
        self.num_nodes = int(np.prod(nodes))
        # the nodes off the boundary, where the velocity unknowns live
        self.interior = (slice(1, -1),) * self.d
        self.interior_shape = tuple(n - 2 for n in nodes)
        self.axes = [np.linspace(0.0, c, n) for c, n in zip(lengths, nodes)]
        self._cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.lengths == other.lengths
        )

    def __repr__(self):
        return f"Grid(nodes={self.n}, lengths={self.lengths})"

    def coords(self):
        """Meshgrid coordinate arrays (ij indexing), one per axis."""
        if "coords" not in self._cache:
            self._cache["coords"] = np.meshgrid(*self.axes, indexing="ij")
        return self._cache["coords"]

    @property
    def boundary_mask(self):
        if "boundary" not in self._cache:
            mask = np.ones(self.shape, dtype=bool)
            mask[self.interior] = False
            self._cache["boundary"] = mask
        return self._cache["boundary"]

    @property
    def interior_mask(self):
        return ~self.boundary_mask

    @property
    def axis_weights(self):
        """Trapezoidal quadrature weights of each axis, one 1-D array each."""
        if "axis_weights" not in self._cache:
            weights = []
            for h, n in zip(self.h, self.n):
                w = np.full(n, h)
                w[0] = 0.5 * h
                w[-1] = 0.5 * h
                weights.append(w)
            self._cache["axis_weights"] = weights
        return self._cache["axis_weights"]

    @property
    def quad_weights(self):
        """Trapezoidal quadrature weights, shape ``grid.shape``: the outer
        product of the axis weights."""
        if "weights" not in self._cache:
            w = np.ones(())
            for w1 in self.axis_weights:
                w = np.multiply.outer(w, w1)
            self._cache["weights"] = w
        return self._cache["weights"]


def _check_data(grid, data, trailing):
    data = np.ascontiguousarray(data, dtype=float)
    expected = grid.shape + trailing
    if data.shape != expected:
        raise UsageError(f"field data has shape {data.shape}, expected {expected}")
    return data


@dataclass
class ScalarField:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = _check_data(self.grid, self.data, ())

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self):
        return ScalarField(self.grid, self.data.copy())


@dataclass
class VectorField:
    grid: Grid
    data: np.ndarray  # shape (*grid.shape, d)

    def __post_init__(self):
        self.data = _check_data(self.grid, self.data, (self.grid.d,))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape + (grid.d,)))

    def copy(self):
        return VectorField(self.grid, self.data.copy())


@dataclass
class SymTensorField:
    grid: Grid
    data: np.ndarray  # shape (*grid.shape, 6)

    def __post_init__(self):
        self.data = _check_data(self.grid, self.data, (6,))

    def copy(self):
        return SymTensorField(self.grid, self.data.copy())


def boundary_max_abs(field):
    """Largest absolute value the field takes on the boundary nodes."""
    mask = field.grid.boundary_mask
    values = np.abs(field.data[mask])
    return float(values.max()) if values.size else 0.0


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _deriv(data, grid, axis):
    """Second-order first derivative (central inside, one-sided on faces)."""
    return np.gradient(data, grid.h[axis], axis=axis, edge_order=2)


def sym_gradient(u):
    """Symmetric gradient eps(u)_ij = (d_i u_j + d_j u_i) / 2."""
    grid = u.grid
    d = grid.d
    grads = [
        [_deriv(u.data[..., i], grid, j) for j in range(d)] for i in range(d)
    ]
    out = np.zeros(grid.shape + (6,))
    for i in range(d):
        for j in range(i, d):
            value = 0.5 * (grads[i][j] + grads[j][i])
            out[..., COMPONENT_OF[(i, j)]] = value
    return SymTensorField(grid, out)


def tensor_divergence(field):
    """Row-wise divergence of a symmetric tensor field: v_i = d_j S_ij."""
    grid = field.grid
    d = grid.d
    out = np.zeros(grid.shape + (d,))
    for i in range(d):
        acc = np.zeros(grid.shape)
        for j in range(d):
            acc += _deriv(field.data[..., COMPONENT_OF[(i, j)]], grid, j)
        out[..., i] = acc
    return VectorField(grid, out)


def gradient(field):
    """Gradient of a scalar field: g_i = d_i f."""
    grid = field.grid
    grads = [_deriv(field.data, grid, axis) for axis in range(grid.d)]
    return VectorField(grid, np.stack(grads, axis=-1))


def divergence(field):
    """Divergence of a vector field: d_i v_i."""
    grid = field.grid
    out = np.zeros(grid.shape)
    for axis in range(grid.d):
        out += _deriv(field.data[..., axis], grid, axis)
    return ScalarField(grid, out)


def _d2_axis(data, grid, axis, neumann):
    """Second difference along one axis.

    ``neumann=True`` closes the boundary rows with mirror ghosts (zero flux);
    otherwise boundary rows are left at zero (they are masked by the caller).
    """
    h2 = grid.h[axis] ** 2
    out = np.zeros_like(data)
    lo = [slice(None)] * grid.d
    hi = [slice(None)] * grid.d
    mid = [slice(None)] * grid.d
    lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
    out[tuple(mid)] = (
        data[tuple(lo)] - 2.0 * data[tuple(mid)] + data[tuple(hi)]
    ) / h2
    if neumann:
        first = [slice(None)] * grid.d
        second = [slice(None)] * grid.d
        first[axis], second[axis] = 0, 1
        out[tuple(first)] = 2.0 * (data[tuple(second)] - data[tuple(first)]) / h2
        first[axis], second[axis] = -1, -2
        out[tuple(first)] = 2.0 * (data[tuple(second)] - data[tuple(first)]) / h2
    return out


def laplacian_neumann(theta):
    """(2d+1)-point Laplacian with homogeneous Neumann mirror ghosts."""
    grid = theta.grid
    out = np.zeros(grid.shape)
    for axis in range(grid.d):
        out += _d2_axis(theta.data, grid, axis, neumann=True)
    return ScalarField(grid, out)


def _central_zero_extended(data, grid, axis):
    """Central difference along one axis with zero extension past the ends.

    The end rows are (value of the single inside neighbour) / (2h); together
    with pure central rows inside, the resulting matrix is exactly
    antisymmetric, which is what makes the composed displacement operator
    self-adjoint on boundary-zero fields.
    """
    two_h = 2.0 * grid.h[axis]
    out = np.empty_like(data)
    lo = [slice(None)] * grid.d
    hi = [slice(None)] * grid.d
    mid = [slice(None)] * grid.d
    lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
    out[tuple(mid)] = (data[tuple(hi)] - data[tuple(lo)]) / two_h
    first = [slice(None)] * grid.d
    second = [slice(None)] * grid.d
    first[axis], second[axis] = 0, 1
    out[tuple(first)] = data[tuple(second)] / two_h
    first[axis], second[axis] = -1, -2
    out[tuple(first)] = -data[tuple(second)] / two_h
    return out


def lame_operator(u, lam, mu, check_boundary=True):
    """Navier/Lame operator mu*Lap(u) + (lam+mu)*grad(div u).

    Acts on displacement-like fields that vanish on the boundary; the output
    is computed at interior nodes and has zero boundary rows.  Composed from
    3-point second differences (diagonal derivatives) and zero-extended
    central differences (mixed derivatives), the discrete operator is exactly
    self-adjoint and -Q is positive semi-definite on boundary-zero fields.
    """
    grid = u.grid
    d = grid.d
    if check_boundary:
        worst = boundary_max_abs(u)
        scale = 1.0 + float(np.max(np.abs(u.data))) if u.data.size else 1.0
        if worst > 1e-12 * scale:
            raise UsageError(
                f"displacement field must vanish on the boundary "
                f"(max boundary magnitude {worst:.3e})"
            )
    out = np.zeros(grid.shape + (d,))
    diag_deriv = [
        _central_zero_extended(u.data[..., j], grid, j) for j in range(d)
    ]
    for i in range(d):
        acc = np.zeros(grid.shape)
        for axis in range(d):
            acc += mu * _d2_axis(u.data[..., i], grid, axis, neumann=False)
        acc += (lam + mu) * _d2_axis(u.data[..., i], grid, i, neumann=False)
        for j in range(d):
            if j != i:
                acc += (lam + mu) * _central_zero_extended(diag_deriv[j], grid, i)
        out[..., i] = acc
    out[grid.boundary_mask] = 0.0
    return VectorField(grid, out)


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------

def integrate(field):
    """Trapezoidal quadrature of a scalar field over the box."""
    return float(np.sum(field.grid.quad_weights * field.data))


def lp_norm(field, p):
    """Spatial L_p norm (trapezoidal quadrature); ``p = inf`` gives max-abs."""
    if p == np.inf:
        return float(np.max(np.abs(field.data)))
    p = float(p)
    if not p >= 1.0:
        raise UsageError(f"p must be >= 1 or inf, got {p}")
    power = np.sum(field.grid.quad_weights * np.abs(field.data) ** p)
    return float(power ** (1.0 / p))


def l2_norm(grid, data):
    """L2 norm sqrt(integrate(|data|^2)) of raw node data.

    Vector data (one trailing axis more than the grid) sums its squared
    components pointwise before the quadrature.  Picard's stopping rule and
    the MMS error ladder use this arithmetic; ``lp_norm(field, 2)`` takes a
    power instead of a square root and may differ in the last bit.
    """
    sq = data**2
    if sq.ndim > grid.d:
        sq = np.sum(sq, axis=-1)
    return math.sqrt(integrate(ScalarField(grid, sq)))


def magnitude(field):
    """Pointwise Euclidean magnitude of a vector field, as a scalar field."""
    return ScalarField(field.grid, np.sqrt(np.sum(field.data**2, axis=-1)))


def tensor_magnitude(field):
    """Pointwise Frobenius norm of a symmetric tensor field."""
    return ScalarField(field.grid, np.sqrt(ddot(field.data, field.data)))
