"""Rectangular-box collocated grid, field containers, and difference operators.

Conventions
-----------
* Axis 0 is x, axis 1 is y, axis 2 is z.  Field data is stored C-ordered with
  shape ``grid.shape`` plus a trailing component axis where applicable.
* Vector fields carry ``d`` components; symmetric tensor fields carry the
  6-component storage of :mod:`kvsim.constitutive` (zero-padded below 3-D).
* The Navier and Neumann operators and the strain map are defined here
  once, as sparse matrices that are Kronecker products of 1-D factors per
  axis.  A factor is its bands, rows of a (3, n) array for the column
  offsets -1, 0, 1: row i of the factor holds bands[k][i] in column
  i + k - 1, and the bands are zero past the ends.
  The factors are ``second_difference``, ``central_difference``,
  ``neumann_stiffness``, ``first_difference`` (``np.gradient`` with
  first-order end rows) and the trapezoid weights.  Each operator is a
  declaration: the nodes its rows and its columns run over, and each
  block row as (column block, coefficient, sum of products), a product
  mapping axes to factors and taking the identity on the others.  One
  writer, ``_kron_csr``, turns every declaration into CSR arrays; it alone
  handles strides, column selection, sparsity pattern, column order and
  diagonal positions.  ``navier_matrix``, ``neumann_matrix`` (the
  trapezoid-weighted Neumann stiffness of all axes or of one) and
  ``strain_matrix`` are declared this way; ``stress_divergence`` applies
  the strain map's weighted adjoint.
* Every strain is the corner average.  A cell's 2^d corners each weigh
  prod(h) / 2^d, and at a corner d_k is the difference over the cell's
  edge on axis k through it.  The corners at a node are a product of the
  node's two sides per axis (one on a face), so their average factors into
  the mean and the half-difference ("jump") of the node's one-sided
  differences: ``first_difference`` and (h/2) ``second_difference``.
  ``strain_density``, ``strain_contraction`` and ``squared_gradient`` are
  the corner averages of (A eps):eps, T:eps and |grad theta|^2.  Weighted,
  they sum to u^T (-W ``navier_matrix``) u and theta^T ``neumann_matrix``
  theta: the step, the heat source and the diagnostics share one
  summation-by-parts pair.  ``strain_stress`` and ``tensor_stress`` are
  the rows whose contractions with the strains give the first two, and
  ``stress_divergence`` takes rows like them to forces.  ``sym_gradient``
  and ``tensor_divergence`` apply ``np.gradient`` with second-order end
  rows; no step or diagnostic calls them.
* The Neumann Laplacian uses mirror ghost values, which makes the operator
  symmetric under the trapezoidal inner product and gives it exact zero row
  sums; ``integrate`` is that trapezoidal quadrature.
* The displacement operator (``lame_operator``) acts on fields that vanish
  on the boundary and returns interior values with zero boundary rows; it is
  exactly self-adjoint on such fields.

Reductions sum in a fixed order, so repeated runs are bitwise reproducible.
Operators never mutate their inputs, but for ``strain_stress`` and
``stress_divergence``, which work in place on the rows they are given.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .constitutive import COMPONENT_OF, DDOT_WEIGHTS
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
        # a vector field over the nodes must fit in one numpy array
        if math.prod(nodes) * len(nodes) > np.iinfo(np.intp).max // 8:
            raise UsageError(f"nodes {nodes} are more than numpy can index")
        self.h = tuple(c / (n - 1) for c, n in zip(lengths, nodes))
        for h in self.h:
            if not (h * h > 0.0 and math.isfinite(1.0 / (h * h))):
                raise UsageError(f"grid spacing {h} is too small: 1/h^2 is "
                                 f"not finite, got lengths {lengths}")
        self.d = len(nodes)
        self.n = nodes
        self.lengths = lengths
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

    @property
    def interior_weights(self):
        """The trapezoid weights of the packed velocity unknowns (the strain
        map's columns): the interior ``quad_weights`` once per component."""
        if "interior_weights" not in self._cache:
            self._cache["interior_weights"] = np.tile(
                self.quad_weights[self.interior].ravel(), self.d)
        return self._cache["interior_weights"]


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


# ---------------------------------------------------------------------------
# the 1-D factors, and the operators declared as Kronecker products of them
# ---------------------------------------------------------------------------

def second_difference(n, h):
    """3-point second difference on ``n`` nodes, with zero end rows."""
    bands = np.full((3, n), 1.0 / (h * h)) * [[1.0], [-2.0], [1.0]]
    bands[:, [0, -1]] = 0.0
    return bands


def central_difference(n, h):
    """Central difference on ``n`` nodes, with zero end rows.

    Past the ends the field counts as zero, so the block of the inner nodes
    is exactly antisymmetric.
    """
    bands = np.full((3, n), 1.0 / (2.0 * h)) * [[-1.0], [0.0], [1.0]]
    bands[:, [0, -1]] = 0.0
    return bands


def first_difference(n, h):
    """The first difference of ``np.gradient(..., edge_order=1)`` on ``n``
    nodes: central inside, first-order one-sided on the end rows.  At every
    node it is the mean of the node's one-sided differences (of its one
    difference on an end row)."""
    bands = np.full((3, n), 0.5 / h) * [[-1.0], [0.0], [1.0]]
    bands[:, 0] = [0.0, -1.0 / h, 1.0 / h]
    bands[:, -1] = [-1.0 / h, 1.0 / h, 0.0]
    return bands


def neumann_stiffness(n, h):
    """Neumann stiffness (1/h) tridiag(-1, [1, 2, ..., 2, 1], -1).

    Minus the mirror-ghost second difference, weighted by the trapezoid
    rule: symmetric positive semi-definite with exact zero row sums.
    """
    bands = np.full((3, n), 1.0 / h) * [[-1.0], [2.0], [-1.0]]
    bands[1, [0, -1]] = 1.0 / h
    bands[0, 0] = bands[2, -1] = 0.0
    return bands


def _factors(grid, factor):
    """The bands of a 1-D factor on each axis of the grid."""
    return [factor(n, h) for n, h in zip(grid.n, grid.h)]


def _kron_csr(grid, rows, columns, block_rows):
    """CSR matrix of a block matrix whose blocks are sums of Kronecker
    products of 1-D factors, and the index in its ``data`` of each row's
    diagonal entry (-1 where the row stores none; None unless ``rows`` and
    ``columns`` are the same).

    The rows run over the nodes that the slice ``rows`` selects on every
    axis, each column block over those that ``columns`` selects.  Block row
    i is ``block_rows[i]``, a list of (column block, coefficient, products):
    the coefficient times the sum of the products.  A product maps axes to
    the bands of their 1-D factors; the axes it does not name are the
    identity.  An entry is keyed by its column block and its band on each
    axis.  Its value at a row is the sum over the terms, in order, of the
    coefficient times the sum of the products' values there, a product's
    value being its factors' band values multiplied in axis order.  It is
    stored where some product's bands are nonzero and its column is
    selected, whatever the values are.  The entries are counted into
    ``indptr``, then a cursor per row writes them in place in ascending
    column order; no lifted factor is formed.
    """
    d = grid.d
    nodes = [np.arange(n)[rows] for n in grid.n]
    spans = [range(n)[columns] for n in grid.n]
    shape, size = tuple(map(len, nodes)), math.prod(map(len, nodes))
    stride = [math.prod(map(len, spans[k + 1:])) for k in range(d)]
    width = math.prod(map(len, spans))

    def along(axis, values):
        return values.reshape([-1 if k == axis else 1 for k in range(d)])

    def mask(axis, where):
        """``where`` along ``axis``, or True where it holds at every node,
        which keeps a presence from growing to the full shape."""
        return True if where.all() else along(axis, where)

    def bands(axis, factor):
        """(band, values, present) of each band of the factor on ``axis``
        (the identity for None) that is nonzero where its column is
        selected."""
        column = nodes[axis] + np.arange(-1, 2)[:, None]
        selected = (column >= spans[axis].start) & (column < spans[axis].stop)
        if factor is None:
            return [(1, None, mask(axis, selected[1]))]
        values = np.where(selected, factor[:, nodes[axis]], 0.0)
        return [(b, along(axis, value), mask(axis, value != 0.0))
                for b, value in enumerate(values) if value.any()]

    def entries(block_row):
        """Each entry's key, presence and, per term, the coefficient and
        each product's factor values, in ascending column order.  Keys are
        bands, not column offsets: where an axis selects one node, two
        axes' strides coincide."""
        out = {}
        for term, (block, coefficient, products) in enumerate(block_row):
            for product in products:
                for choice in itertools.product(*(
                        bands(k, product.get(k)) for k in range(d))):
                    band, values, present = zip(*choice)
                    entry = out.setdefault((block, band), [False, {}])
                    entry[0] = entry[0] | functools.reduce(np.logical_and,
                                                           present)
                    entry[1].setdefault(term, (coefficient, []))[1].append(
                        [v for v in values if v is not None])
        return sorted(out.items())

    block_rows = [entries(block_row) for block_row in block_rows]
    counts = np.zeros((len(block_rows),) + shape, dtype=np.int64)
    for count, row in zip(counts, block_rows):
        for _, (present, _) in row:
            count += present
    indptr = np.append(0, np.cumsum(counts))
    index = np.int32 if indptr[-1] < 2**31 else np.int64
    indptr = indptr.astype(index)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index)
    diagonal = (np.full(len(block_rows) * size, -1, dtype=index)
                if rows == columns else None)
    # each row's own column; an entry's column is at a fixed offset from it
    origin = sum(along(k, (nodes[k] - spans[k].start) * s)
                 for k, s in enumerate(stride)).astype(index).ravel()
    for i, row in enumerate(block_rows):
        cursor = indptr[i * size:(i + 1) * size].copy()
        for (block, band), (present, terms) in row:
            parts = [coefficient * sum(map(math.prod, products))
                     for coefficient, products in terms.values()]
            keep = np.broadcast_to(present, shape).ravel()
            at = cursor[keep]
            # summed from the first part: 0 + -0.0 would flip a zero's sign
            data[at] = np.broadcast_to(sum(parts[1:], parts[0]), shape)[
                keep.reshape(shape)]
            indices[at] = origin[keep] + block * width + sum(
                (b - 1) * s for b, s in zip(band, stride))
            if diagonal is not None and (block, band) == (i, (1,) * d):
                diagonal[i * size:(i + 1) * size][keep] = at
            cursor += keep
    blocks = 1 + max(block for row in block_rows for (block, _), _ in row)
    matrix = sp.csr_matrix((data, indices, indptr),
                           shape=(len(block_rows) * size, blocks * width))
    return matrix, diagonal


def navier_matrix(grid, lam, mu, box=slice(None)):
    """Q = mu Lap + (lam + mu) grad div as a sparse matrix, component-major,
    over the nodes that ``box`` selects on every axis (``slice(1, -1)``: the
    interior box, where -Q is symmetric positive definite), and the index
    of each row's diagonal in its ``data`` (see ``_kron_csr``).

    With D2_k and C_k the second and central difference of axis k, block
    (i, i) is mu * sum_k D2_k + (lam + mu) * D2_i and block (i, j) is
    (lam + mu) * C_i C_j.  All Navier matrices of one grid and box have the
    same sparsity pattern, whatever (lam, mu) are.
    """
    second = _factors(grid, second_difference)
    central = _factors(grid, central_difference)
    laplace = [{k: factor} for k, factor in enumerate(second)]
    return _kron_csr(grid, box, box, [
        [(i, mu, laplace), (i, lam + mu, [laplace[i]])]
        + [(j, lam + mu, [{i: central[i], j: central[j]}])
           for j in range(grid.d) if j != i]
        for i in range(grid.d)])


def neumann_matrix(grid, axes=None):
    """The sum over ``axes`` (default: all) of ``neumann_stiffness`` on one
    axis times the trapezoid weights of the others, and the index of each
    row's diagonal in its ``data`` (see ``_kron_csr``).  Over all axes it
    is the discrete Dirichlet form: minus the mirror-ghost Laplacian, scaled
    row-wise by ``quad_weights``.
    """
    axes = range(grid.d) if axes is None else axes
    weights = [np.outer((0.0, 1.0, 0.0), w) for w in grid.axis_weights]
    stiffness = _factors(grid, neumann_stiffness)
    return _kron_csr(grid, slice(None), slice(None), [[(0, 1.0, [
        dict(enumerate(weights[:a] + [stiffness[a]] + weights[a + 1:]))
        for a in axes])]])


# storage slot -> its (row, column) pair with row <= column
_SLOT_PAIRS = [min(ij for ij, slot in COMPONENT_OF.items() if slot == c)
               for c in range(6)]


def strain_slots(d):
    """The storage slots of :mod:`kvsim.constitutive` that a d-dimensional
    symmetric tensor uses, in storage order: the d diagonal components
    first.  The strain maps stack their components in this order."""
    return [c for c, (i, j) in enumerate(_SLOT_PAIRS) if j < d]


def strain_matrix(grid):
    """The strain map: the packed interior velocity (component-major, as
    ``linear_step.pack_interior`` stacks it; boundary values zero) to its
    corner strains at every node, component-major.  Built once per grid
    and kept on it, so the stepper and the diagnostics share it.

    Row block c < d(d+1)/2 is the mean strain eps_ij of slot
    ``strain_slots(d)[c]``: (1/2) ``first_difference`` along j in column
    block i and along i in column block j (once where i = j).  Row block
    d(d+1)/2 + i d + k is the jump J_ik, (h_k / 2) ``second_difference``
    along k in column block i.  Columns outside the interior box are
    dropped.
    """
    if "strain" in grid._cache:
        return grid._cache["strain"]
    mean = _factors(grid, first_difference)
    jump = _factors(grid, second_difference)
    rows = [[(i, 1.0, [{i: mean[i]}])] if i == j
            else [(i, 0.5, [{j: mean[j]}]), (j, 0.5, [{i: mean[i]}])]
            for i, j in (_SLOT_PAIRS[c] for c in strain_slots(grid.d))]
    rows += [[(i, 0.5 * h, [{k: jump[k]}])]
             for i in range(grid.d) for k, h in enumerate(grid.h)]
    matrix = _kron_csr(grid, slice(None), slice(1, -1), rows)[0]
    grid._cache["strain"] = matrix
    return matrix


@functools.lru_cache(maxsize=64)
def _density_weights(lam, mu, d):
    """The weight of each row's square in ``strain_density`` (read-only,
    kept per (lam, mu, d))."""
    weights = np.concatenate([(2.0 * mu) * DDOT_WEIGHTS[strain_slots(d)],
                              (lam + mu) * np.eye(d).ravel() + mu])
    weights.setflags(write=False)
    return weights


def strain_density(strains, lam, mu, d):
    """The corner average at every node of (A eps):eps, for A the isotropic
    tensor of (lam, mu), from ``strains``, the rows of ``strain_matrix``
    (nodes flat or in ``grid.shape``):

        lam [(tr e)^2 + D] + 2 mu [e:e + (D + T) / 2]

    with e the mean strain, D = sum_i J_ii^2 and T = sum_ik J_ik^2.  At a
    corner, d_k u_i is the mean plus or minus J_ik by the corner's side
    along k, so the average over the sides keeps each jump's square only.
    """
    weights = _density_weights(lam, mu, d)
    trace = strains[:d].sum(axis=0)
    return lam * trace**2 + np.einsum("r,r...,r...->...", weights, strains,
                                      strains)


def strain_stress(strains, lam, mu, d):
    """The rows H s at every node whose contraction with the rows s of
    ``strains`` is ``strain_density``: each row times its weight there,
    plus lam (tr e) in the d diagonal rows of the mean strain.  Works in
    place: ``strains`` becomes the rows it returns."""
    trace = lam * strains[:d].sum(axis=0)
    strains *= _density_weights(lam, mu, d).reshape(
        (-1,) + (1,) * (strains.ndim - 1))
    strains[:d] += trace
    return strains


def tensor_stress(tensor, field, d):
    """The rows at every node of ``field`` times a constant ``tensor``
    (6-component storage) whose contraction with the mean rows of the
    strains is ``field`` times ``strain_contraction``, as ``strain_stress``
    is to ``strain_density``: one row per mean row, shape (rows,
    *field.shape)."""
    slots = strain_slots(d)
    return np.multiply.outer(DDOT_WEIGHTS[slots] * np.asarray(tensor)[slots],
                             field)


def strain_contraction(tensor, strains, d):
    """The corner average tensor : e at every node, for a constant
    ``tensor`` (6-component storage) and e the mean strain of ``strains``."""
    coefficients = tensor_stress(tensor, 1.0, d)
    return np.einsum("r,r...->...", coefficients,
                     strains[:len(coefficients)])


def squared_gradient(theta):
    """The corner average of |grad theta|^2 at every node: per axis, the
    mean of the squared one-sided differences (the one on a face)."""
    grid = theta.grid
    out = np.zeros(grid.shape)
    for axis, h in enumerate(grid.h):
        edges = np.moveaxis((np.diff(theta.data, axis=axis) / h) ** 2, axis, 0)
        node = np.moveaxis(out, axis, 0)  # a view: node j has edges j-1, j
        node[:-1] += 0.5 * edges
        node[1:] += 0.5 * edges
        node[0] += 0.5 * edges[0]
        node[-1] += 0.5 * edges[-1]
    return ScalarField(grid, out)


def stress_divergence(grid, stress):
    """The packed interior force -W^-1 S_k^T (w sigma) of the k rows sigma
    of ``stress`` (shape (k, *grid.shape)), for S_k the first k row blocks
    of ``strain_matrix``, w the trapezoid weights and W those of the
    interior unknowns: minus the strain map's weighted adjoint.  Of
    ``strain_stress``'s rows it is ``navier_matrix`` on the interior box;
    of the mean blocks' components times ``DDOT_WEIGHTS``, their
    divergence d_j sigma_ij (inside, the ``central_difference`` that
    ``tensor_divergence`` takes).  S_k^T is kept on the grid, on views of
    the strain map's arrays.  Works in place: ``stress`` is left holding
    its rows times the weights w.
    """
    key = ("strain_adjoint", stress.size)
    if key not in grid._cache:
        strain, rows = strain_matrix(grid), stress.size
        end = strain.indptr[rows]
        # set after construction: the constructor copies a slice that is
        # less than half of its array
        adjoint = sp.csc_matrix((strain.shape[1], rows))
        adjoint.data, adjoint.indices, adjoint.indptr = (
            strain.data[:end], strain.indices[:end], strain.indptr[:rows + 1])
        grid._cache[key] = adjoint
    stress *= grid.quad_weights
    force = grid._cache[key] @ stress.ravel()
    # -(x / w) is x / (-w) exactly
    force /= grid.interior_weights
    return np.negative(force, out=force)


def laplacian_neumann(theta):
    """(2d+1)-point Laplacian with homogeneous Neumann mirror ghosts.

    The axes are applied one at a time: each axis's stiffness maps a
    constant to an exact zero, while their summed matrix would not.
    """
    grid = theta.grid
    flat = theta.data.ravel()
    out = np.zeros(grid.num_nodes)
    for axis in range(grid.d):
        out -= neumann_matrix(grid, (axis,))[0] @ flat
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
    q = navier_matrix(grid, lam, mu)[0] @ np.moveaxis(u.data, -1, 0).ravel()
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
    components pointwise before the quadrature.  Picard's temperature
    difference and the MMS error ladder use this arithmetic; ``lp_norm(field, 2)`` takes a
    power instead of a square root and may differ in the last bit.
    """
    sq = data**2
    if sq.ndim > grid.d:
        sq = np.sum(sq, axis=-1)
    return math.sqrt(integrate(ScalarField(grid, sq)))


def magnitude(field):
    """Pointwise Euclidean magnitude of a vector field, as a scalar field."""
    return ScalarField(field.grid, np.sqrt(np.sum(field.data**2, axis=-1)))
