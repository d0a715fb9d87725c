"""Rectangular-box collocated grid, field containers, and difference operators.

Conventions
-----------
* Axis 0 is x, axis 1 is y, axis 2 is z.  Field data is stored C-ordered with
  shape ``grid.shape`` plus a trailing component axis where applicable.
* Vector fields carry ``d`` components; symmetric tensor fields carry the
  6-component storage of :mod:`kvsim.constitutive` (zero-padded below 3-D).
* First derivatives use second-order central differences at interior nodes
  and second-order one-sided differences at boundary nodes.
* The Navier and Neumann operators are defined here once, as sparse
  matrices: Kronecker products of three 1-D factors per axis
  (``second_difference``, ``central_difference``, ``neumann_stiffness``).
  ``navier_matrix`` is the Navier operator; ``neumann_terms`` are the
  per-axis terms of the trapezoid-weighted Neumann stiffness.  The velocity
  and heat systems of :mod:`kvsim.linear_step` are built from these, and
  ``lame_operator`` and ``laplacian_neumann`` apply them to fields.
* The Neumann Laplacian uses mirror ghost values, which makes the operator
  symmetric under the trapezoidal inner product and gives it exact zero row
  sums; ``integrate`` is that trapezoidal quadrature.
* The displacement operator (``lame_operator``) acts on fields that vanish
  on the boundary and returns interior values with zero boundary rows; it is
  exactly self-adjoint on such fields.

Reductions sum in a fixed order, so repeated runs are bitwise reproducible.
Operators never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


# ---------------------------------------------------------------------------
# the Navier and Neumann operators: 1-D factors lifted by Kronecker products
# ---------------------------------------------------------------------------

def second_difference(n, h):
    """3-point second difference on ``n`` nodes, with zero end rows."""
    inv_h2 = 1.0 / (h * h)
    lower = np.full(n - 1, inv_h2)
    main = np.full(n, -2.0 * inv_h2)
    upper = np.full(n - 1, inv_h2)
    lower[-1] = main[0] = main[-1] = upper[0] = 0.0
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


def central_difference(n, h):
    """Central difference on ``n`` nodes, with zero end rows.

    Past the ends the field counts as zero, so the block of the inner nodes
    is exactly antisymmetric.
    """
    inv_2h = 1.0 / (2.0 * h)
    lower = np.full(n - 1, -inv_2h)
    upper = np.full(n - 1, inv_2h)
    lower[-1] = upper[0] = 0.0
    return sp.diags([lower, upper], [-1, 1], format="csr")


def neumann_stiffness(n, h):
    """Neumann stiffness (1/h) tridiag(-1, [1, 2, ..., 2, 1], -1).

    Minus the mirror-ghost second difference, weighted by the trapezoid
    rule: symmetric positive semi-definite with exact zero row sums.
    """
    inv_h = 1.0 / h
    main = np.full(n, 2.0 * inv_h)
    main[0] = main[-1] = inv_h
    off = np.full(n - 1, -inv_h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _kron(factors):
    """Kronecker product of one factor per axis, in C order (axis 0 outermost)."""
    result = factors[0]
    for factor in factors[1:]:
        result = sp.kron(result, factor, format="csr")
    return result


def navier_matrix(grid, lam, mu, box=slice(None)):
    """Q = mu Lap + (lam + mu) grad div as a sparse matrix, component-major,
    over the nodes that ``box`` selects on every axis (``slice(1, -1)``: the
    interior box, where -Q is symmetric positive definite).

    Per axis, the second difference gives the diagonal derivatives and the
    central difference the mixed ones, both restricted to ``box``.
    """
    def lifted(factor, axis):
        return _kron([
            factor(n, h)[box, box] if k == axis
            else sp.identity(len(range(n)[box]), format="csr")
            for k, (n, h) in enumerate(zip(grid.n, grid.h))
        ])

    # the mixed blocks are matrix products, not one Kronecker product of two
    # factors: the product's (unsorted) entry order within each row is the
    # summation order of every matvec, so it decides the last bits of a run
    second = [lifted(second_difference, k) for k in range(grid.d)]
    central = [lifted(central_difference, k) for k in range(grid.d)]
    laplace = sum(second[1:], second[0])
    return sp.bmat([
        [
            mu * laplace + (lam + mu) * second[i] if i == j
            else (lam + mu) * (central[i] @ central[j])
            for j in range(grid.d)
        ]
        for i in range(grid.d)
    ], format="csr")


def neumann_terms(grid):
    """The Neumann stiffness of each axis, weighted by the trapezoid rule of
    the others.  Their sum is the discrete Dirichlet form: minus the
    mirror-ghost Laplacian, scaled row-wise by ``quad_weights``."""
    terms = []
    for axis in range(grid.d):
        factors = [sp.diags(w, format="csr") for w in grid.axis_weights]
        factors[axis] = neumann_stiffness(grid.n[axis], grid.h[axis])
        terms.append(_kron(factors))
    return terms


def laplacian_neumann(theta):
    """(2d+1)-point Laplacian with homogeneous Neumann mirror ghosts.

    The axes are applied one at a time: each term maps a constant to an
    exact zero, while their summed matrix would not.
    """
    grid = theta.grid
    flat = theta.data.ravel()
    out = np.zeros(grid.num_nodes)
    for term in neumann_terms(grid):
        out -= term @ flat
    return ScalarField(grid, out.reshape(grid.shape) / grid.quad_weights)


def lame_operator(u, lam, mu, check_boundary=True):
    """Navier/Lame operator mu*Lap(u) + (lam+mu)*grad(div u).

    Acts on displacement-like fields that vanish on the boundary; the output
    is ``navier_matrix`` over all nodes at interior nodes and has zero
    boundary rows.  It is exactly self-adjoint and -Q is positive
    semi-definite on boundary-zero fields.  ``check_boundary=False`` lets a
    field with boundary values through, which the interior rows then see.
    """
    grid = u.grid
    if check_boundary:
        worst = boundary_max_abs(u)
        scale = 1.0 + float(np.max(np.abs(u.data))) if u.data.size else 1.0
        if worst > 1e-12 * scale:
            raise UsageError(
                f"displacement field must vanish on the boundary "
                f"(max boundary magnitude {worst:.3e})"
            )
    q = navier_matrix(grid, lam, mu) @ np.moveaxis(u.data, -1, 0).ravel()
    out = np.moveaxis(q.reshape((grid.d,) + grid.shape), 0, -1)
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
