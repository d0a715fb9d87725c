"""Assembly and solution of the two linear sub-problems of a nonlinear sweep.

One sweep of the successive-approximation scheme solves, linearised at the
previous iterate,

* an implicit (backward Euler) viscoelastic velocity system
      (1/dt) v - Q1 v - dt Q2 v = (1/dt) v_old + b + Q2 u_old
                                  - div(theta * (A2 alpha))
  on the interior box of nodes (the homogeneous Dirichlet values never
  enter as unknowns), where Q1 and Q2 are the compact Navier operators of
  the viscosity and Lame pairs.  ``velocity_matrix(grid, dt, lam, mu)`` is
  (1/dt) I - Q(lam, mu), which :class:`kvsim.picard.Stepper` builds for
  (lambda1 + dt lambda2, mu1 + dt mu2): Q is linear in its pair, so that is
  the left-hand side above, with u_new = u_old + dt v.  A step computes
  ``velocity_load`` = (1/dt) v_old + b + Q2 u_old once; each sweep's
  ``velocity_rhs`` subtracts the thermal stress divergence, both through
  the strain map's adjoint ``grid.stress_divergence``.  Then

* an implicit heat system, Newton's linearisation at the iterate theta_it
  of the quasilinear heat equation
      (cv/dt) theta (theta - theta_old) + theta (A2 alpha):eps(v) - k Lap theta
          = (A1 eps(v)):eps(v) + g,
  which linearised at theta_it reads
      (cv/dt) q * theta - k Lap theta = (cv/dt) theta_it^2 + (A1 eps):eps + g,
      q = 2 theta_it - theta_old + (dt/cv) (A2 alpha):eps,
  on all nodes with the mirror-ghost Neumann Laplacian, with v the
  velocity the sweep has just solved and eps(v) its corner strains
  (``grid.strain_matrix``).  Where q is not positive everywhere, the sweep
  solves instead the frozen system, whose coefficient is theta_it itself
  (positive above the step's temperature floor):
      (cv/dt) theta_it * theta - k Lap theta
          = (cv/dt) theta_it theta_old - theta_it (A2 alpha):eps
            + (A1 eps):eps + g,
  the same heat equation with theta theta_t and the coupling taken at the
  iterate.  Both systems have the same fixed point.  ``heat_rhs_vector``
  forms the right-hand side and coefficient of the system a sweep solves
  from one product of the strain map.  The heat matrix differs from the
  Neumann stiffness only on the diagonal, (cv/dt) w c for that positive
  coefficient c, which ``heat_matrix`` rewrites in the stiffness's own
  matrix each sweep.

The two couplings are weighted adjoints and the viscous heating sums to
v^T (-W Q1) v, so the systems balance the discrete energy (see
:mod:`kvsim.picard`).

Both systems are symmetric positive-definite sparse matrices (the heat
system while its diagonal coefficient is positive) built from the
operators of :mod:`kvsim.grid`, which writes each from the bands of its 1-D
factors: the velocity matrix from ``navier_matrix`` on the interior box,
the heat stiffness from ``neumann_matrix`` over all nodes.  The heat
system is scaled row-wise by the trapezoidal quadrature weights; that
scaling does not change the solution but makes the Neumann part exactly
symmetric (it is the discrete Dirichlet form), while keeping its row sums
exactly zero.

Solves use conjugate gradients whose inner products sum in numpy's own
order, not through BLAS, so that the result does not depend on the BLAS
thread count.  One preconditioner serves both systems: the symmetric
block Gauss-Seidel sweep over the components (:func:`_block_gauss_seidel`,
the displacement decomposition of Blaheta 1994), in the Kronecker product
of per-axis eigenbases (fast diagonalization, Lynch, Rice & Thomas 1964),
where the separable part of each operator is diagonal.  The velocity
system keeps the whole Lame system: its diagonal component blocks are
separable, and in the eigenbasis each mixed (lam + mu) d_i d_j block is a
Kronecker product of two dense per-axis matrices.  For two components the
sweep bounds the condition number by 1/(1 - gamma^2), where dropping the
mixed blocks gave (1 + gamma)/(1 - gamma), gamma the strengthened
Cauchy-Schwarz constant between them (Axelsson): cold velocity solves take
10-11 iterations at lam = mu where the component-diagonal inverse took
19-21.  The heat system has one component and no mixed block, so its
sweep is the exact inverse of its separable part, the heat matrix with
the diagonal coefficient replaced by its mean.  Both preconditioners are
spectrally equivalent to their operators, so the iteration counts stay
bounded as the grid is refined.  The velocity sweep runs its dense
per-axis products in single precision: it is approximate by design, and
float32 rounding (about 1e-7) lies far below what the sweep leaves out.
The heat sweep, exact for a uniform coefficient, stays in double.  Both
return float64, and the rest of CG (vectors, matrix products, inner
products, residual re-checks and the stopping test) runs in double.

Every 1-D operator on a uniform axis is persymmetric, so each per-axis
eigenvector is even or odd about the middle node (Solomonoff 1992).  On
an axis of at least ``_FOLD_MIN`` modes both preconditioners work on the
folded halves of the axis (see :class:`_AxisBasis`): each product with
the eigenbasis, and each mixed product, which maps even modes to odd ones
and odd to even, takes two half-size products, half the flops of the
dense one.  Shorter axes keep the dense products, whose calls cost less
there.  At 129^2 the half-size float64 products of the heat
preconditioner also give the same bits at one and two OpenBLAS threads,
where the dense ones did not.

A solve stops at the relative residual ``SOLVE_TOL`` (1e-12) or, given a
``reduction``, once it has cut the residual of its initial guess by that
factor: a sweep whose iterate the next sweep replaces needs only to beat
the outer contraction (the forcing term of inexact Newton methods,
Dembo, Eisenstat & Steihaug 1982).  It fails after ``SOLVE_MAX``
iterations.  Given a ``Product``, a solve from the vector that the last
solve returned takes that solve's product a @ x as its start's instead of
forming it again.  A solve is single-caller, and independent solves may
run concurrently as long as they share no ``Product``: each stepper owns
the one buffer of its velocity solves, which run one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DegeneracyError, DomainError, NonConvergenceError, UsageError
from .grid import (
    ScalarField,
    VectorField,
    central_difference,
    navier_matrix,
    neumann_matrix,
    neumann_stiffness,
    second_difference,
    strain_contraction,
    strain_density,
    strain_matrix,
    strain_stress,
    stress_divergence,
    tensor_stress,
)


@dataclass
class SparseOperator:
    """A row-compressed sparse matrix over the free unknowns, with its
    preconditioner.

    ``precondition`` maps a float64 residual r to the float64
    z = P^{-1} r for a symmetric positive-definite P close to the matrix.
    Both ``velocity_matrix`` and ``heat_matrix`` attach the symmetric block
    Gauss-Seidel sweep over their components (:func:`_block_gauss_seidel`),
    over d components in single precision and over one in double, in
    per-axis eigenbases, on the folded halves of each long axis (see
    :class:`_AxisBasis`).
    """

    matrix: sp.csr_matrix
    precondition: Callable[[np.ndarray], np.ndarray]

    @property
    def size(self):
        return self.matrix.shape[0]


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class Product:
    """A buffer, allocated once, that carries a @ x from solve to solve for
    the matrix a of the solves given it: ``value`` holds the product of the
    vector ``x`` (that array, unchanged since) that the last of them
    returned while ``x`` is not None, so that a solve from ``x`` does not
    form it again, and the residual of a solve while it iterates (see
    :func:`solve_spd`).  One buffer serves one matrix whose values do not
    change."""

    def __init__(self, size):
        self.x = None
        self.value = np.empty(size)


# ---------------------------------------------------------------------------
# preconditioners in per-axis eigenbases
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _dense(bands):
    """The dense matrix of 1-D bands (sub, main, super)."""
    sub, main, sup = bands
    return np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


# Modes per axis from which an eigenbasis works on the even and odd halves
# of its axis: below it the fold, the unfold and the twice as many calls
# cost more than the dense products save (the per-apply ladders of both
# preconditioners, forced dense against forced folded, cross between 97
# and 101 modes on 2-D grids).
_FOLD_MIN = 101


def _parity_projections(m):
    """Orthonormal bases (columns) of the even and of the odd vectors of
    length ``m`` about its middle: (e_i + e_{m-1-i}) / sqrt(2), plus the
    middle e_i when ``m`` is odd, and (e_i - e_{m-1-i}) / sqrt(2)."""
    half = m // 2
    pairs = np.arange(half)
    even, odd = np.zeros((m, m - half)), np.zeros((m, half))
    even[pairs, pairs] = even[m - 1 - pairs, pairs] = math.sqrt(0.5)
    odd[pairs, pairs] = math.sqrt(0.5)
    odd[m - 1 - pairs, pairs] = -math.sqrt(0.5)
    if m % 2:
        even[half, half] = 1.0
    return even, odd


def _fortran(dtype, *matrices):
    """``matrices`` rounded to ``dtype`` in Fortran order, read-only."""
    return _read_only(*(np.asfortranarray(m, dtype) for m in matrices))


def _lanes(y, axis):
    """``y`` with ``axis`` last when it is the last, else second to last
    with the axes after it merged, and whether it is last."""
    last = axis == y.ndim - 1
    return y.reshape((-1,) + y.shape[-1:] if last
                     else y.shape[:axis + 1] + (-1,)), last


def _cut(lanes, last, part):
    """The ``part`` (a slice) of the lane axis of ``lanes``."""
    return lanes[..., part] if last else lanes[..., part, :]


def _into(matrix, lanes, out, last):
    """``out`` = ``matrix`` applied along the lane axis of ``lanes``."""
    if last:
        np.matmul(lanes, matrix.T, out=out)
    else:
        np.matmul(matrix, lanes, out=out)


class _AxisBasis:
    """The eigenbasis V of one axis, applied along one axis of an array:
    V^T (``forward``), V (``backward``) and C^ = V^T C V (``coupled``) for
    the axis's central difference C, when built with it.  ``values`` are
    the eigenvalues in the order of the modes.

    Every 1-D operator on a uniform axis is persymmetric, J A J = A for J
    the reversal, so each eigenvector is even or odd about the middle
    (Solomonoff 1992).  On an axis of at least ``_FOLD_MIN`` modes the
    basis comes from the two half-size eigenproblems on the even and on
    the odd vectors, and keeps the modes evens first, with E and O the
    upper halves of the even and the odd eigenvectors (E's rows reach the
    middle node).  Then V^T y = [E^T (y_top + J y_bot); O^T (y_top -
    J y_bot)], where the first fold counts the middle node of an odd
    length twice, so the E it meets has that row halved, and V t is
    E t_e + O t_o on the upper half and, reversed, E t_e - O t_o on the
    lower.  The central difference is skew-persymmetric, J C J = -C, so C^
    maps evens to odds and odds to evens: only its two off-diagonal blocks
    are kept, and each product is two quarter-size ones.  A shorter axis
    keeps the dense V and C^.

    ``dtype`` is the working precision: the vectors and couplings are
    formed in double and rounded to it once.  ``forward`` casts its input
    to it (a fold as it sums), and ``backward`` returns it unless given
    another ``dtype``, which the unfold then writes directly.
    """

    def __init__(self, operator, dtype, scale=None, central=None):
        """The eigenvectors of the symmetric persymmetric matrix
        ``operator``, times ``scale`` row by row when given, with the
        couplings of the matrix ``central`` when given."""
        m = len(operator)
        self.dtype = np.dtype(dtype)
        if m >= _FOLD_MIN:
            halves = [(p, *np.linalg.eigh(p.T @ operator @ p))
                      for p in _parity_projections(m)]
            values = np.concatenate([v for _, v, _ in halves])
            parts = [p @ x for p, _, x in halves]
        else:
            values, vectors = np.linalg.eigh(operator)
            parts = [vectors]
        if scale is not None:
            parts = [scale[:, None] * v for v in parts]
        couplings = [] if central is None else [
            a.T @ central @ b for a, b in zip(parts, parts[::-1])]
        self.folded = len(parts) == 2
        self.odds = m // 2
        self.evens = m - self.odds
        self.values = _read_only(values)[0]
        if not self.folded:
            (self.vectors,) = _read_only(parts[0].astype(dtype))
            self.couplings = _read_only(*(c.astype(dtype) for c in couplings))
            return
        even, odd = parts[0][:self.evens], parts[1][:self.odds]
        halved = even.copy()
        halved[self.odds:] *= 0.5  # the middle row, when m is odd
        # in Fortran order, so that along a last axis, where a product
        # takes the transpose as its second factor, that factor is C order
        # (1.5 to 1.7 times as fast in OpenBLAS's gemm at these sizes; the
        # order makes no difference to a product along another axis)
        self.forward_halves = _fortran(dtype, halved.T, odd.T)
        self.backward_halves = _fortran(dtype, even, odd)
        self.couplings = _fortran(dtype, *couplings)

    def _empty(self, count, lanes, last):
        """A new array of ``lanes``' shape with ``count`` lanes."""
        shape = list(lanes.shape)
        shape[-1 if last else -2] = count
        return np.empty(shape, self.dtype)

    def forward(self, y, axis):
        """V^T applied along ``axis`` of ``y``, in the working precision."""
        if not self.folded:
            return _axis_product(self.vectors.T,
                                 y.astype(self.dtype, copy=False), axis)
        evens, odds = slice(self.evens), slice(self.odds)
        lanes, last = _lanes(y, axis)
        flip = _cut(lanes, last, slice(None, None, -1))
        even = np.add(_cut(lanes, last, evens), _cut(flip, last, evens),
                      out=self._empty(self.evens, lanes, last))
        odd = np.subtract(_cut(lanes, last, odds), _cut(flip, last, odds),
                          out=self._empty(self.odds, lanes, last))
        out = np.empty(y.shape, self.dtype)
        modes, _ = _lanes(out, axis)
        to_even, to_odd = self.forward_halves
        _into(to_even, even, _cut(modes, last, evens), last)
        _into(to_odd, odd,
              _cut(modes, last, slice(self.evens, None)), last)
        return out

    def backward(self, t, axis, dtype=None):
        """V applied along ``axis`` of ``t``, returned as ``dtype`` (the
        working precision when None)."""
        if not self.folded:
            y = _axis_product(self.vectors, t, axis)
            return y if dtype is None else y.astype(dtype, copy=False)
        dtype = self.dtype if dtype is None else dtype
        odds = slice(self.odds)
        modes, last = _lanes(t, axis)
        even = self._empty(self.evens, modes, last)
        odd = self._empty(self.odds, modes, last)
        from_even, from_odd = self.backward_halves
        _into(from_even, _cut(modes, last, slice(self.evens)), even, last)
        _into(from_odd, _cut(modes, last, slice(self.evens, None)),
              odd, last)
        out = np.empty(t.shape, dtype)
        lanes, _ = _lanes(out, axis)
        flip = _cut(lanes, last, slice(None, None, -1))
        upper = _cut(even, last, odds)
        np.add(upper, odd, out=_cut(lanes, last, odds))
        np.subtract(upper, odd, out=_cut(flip, last, odds))
        middle = slice(self.odds, self.evens)
        _cut(lanes, last, middle)[...] = _cut(even, last, middle)
        return out

    def coupled(self, y, axis):
        """C^ applied along ``axis`` of ``y``, in the working precision."""
        if not self.folded:
            return _axis_product(self.couplings[0], y, axis)
        lanes, last = _lanes(y, axis)
        out = np.empty(y.shape, self.dtype)
        modes, _ = _lanes(out, axis)
        evens, odds = slice(self.evens), slice(self.evens, None)
        _into(self.couplings[0], _cut(lanes, last, odds),
              _cut(modes, last, evens), last)
        _into(self.couplings[1], _cut(lanes, last, evens),
              _cut(modes, last, odds), last)
        return out


@lru_cache(maxsize=64)
def _dirichlet_eigen(n, h, dtype):
    """The eigenbasis (see :class:`_AxisBasis`) of minus the interior block
    of ``grid.second_difference(n, h)``, with the couplings of C, the
    interior block of ``grid.central_difference(n, h)``, in the working
    precision ``dtype``."""
    block = _dense(second_difference(n, h))[1:-1, 1:-1]
    central = _dense(central_difference(n, h))[1:-1, 1:-1]
    return _AxisBasis(-block, dtype, central=central)


@lru_cache(maxsize=64)
def _neumann_eigen(h, weights):
    """The eigenbasis (see :class:`_AxisBasis`), in double, of
    ``grid.neumann_stiffness`` against the trapezoid ``weights`` (a tuple,
    one per node): S V = W V diag(values) with V^T W V = I."""
    scale = 1.0 / np.sqrt(np.array(weights))
    stiffness = _dense(neumann_stiffness(len(weights), h))
    return _AxisBasis(scale[:, None] * stiffness * scale, np.float64,
                      scale=scale)


def _outer_sum(values):
    """Sum over axes of one 1-D array per axis, on their tensor grid."""
    total = np.zeros(())
    for v in values:
        total = np.add.outer(total, v)
    return total


def _axis_product(matrix, y, axis):
    """``matrix`` applied along ``axis`` of ``y``: for the last axis one
    product of all rows, else one batched product on a view with that axis
    second to last."""
    if axis == y.ndim - 1:
        return (y.reshape(-1, y.shape[-1]) @ matrix.T).reshape(y.shape)
    if axis == y.ndim - 2:
        return matrix @ y
    return (matrix @ y.reshape(y.shape[:axis + 1] + (-1,))).reshape(y.shape)


def _in_basis(bases, y, back=False, dtype=None):
    """V^T y, or V y returned as ``dtype`` when ``back``, for V the
    Kronecker product of ``bases`` (:class:`_AxisBasis`), one per trailing
    axis of ``y``; a leading axis beyond them is a batch of components.
    V^T y takes the axes in order, V y the last one first and then the
    others in order: the bits of a 3-D heat apply depend on that order."""
    lead = y.ndim - len(bases)
    axes = list(range(len(bases)))
    if not back:
        for k in axes:
            y = bases[k].forward(y, lead + k)
        return y
    axes = axes[-1:] + axes[:-1]
    for k in axes:
        y = bases[k].backward(y, lead + k, dtype if k == axes[-1] else None)
    return y


def _block_gauss_seidel(bases, divisor, scale):
    """Preconditioner r -> P^{-1} r, P = (D + L) D^{-1} (D + U), the
    symmetric block Gauss-Seidel sweep over the components of a block
    matrix D + L + U whose blocks, in the Kronecker product V of
    ``bases``, are diagonal on the diagonal, diag(divisor[i]), and
    -scale * C_i (x) C_j off it, with C_k the couplings of ``bases[k]``
    (see :class:`_AxisBasis`).  ``divisor`` holds one array per
    component, over the nodes of the unknowns: d for a velocity, or one
    for a temperature, whose P is D, so that the sweep is
    V diag(1 / divisor[0]) V^T.

    In that basis, t = V^T r, the forward sweep takes, component by
    component, t_i += scale * C_i sum_{j<i} C_j y_j with y_i = t_i /
    divisor_i, and the backward sweep, in reverse order and in place,
    z_i = (t_i + scale * C_i sum_{j>i} C_j z_j) / divisor_i; the result is
    V z.  Each sum is one product along axis i of the running sum of the
    products C_j y_j (C_j z_j).

    The dtype of ``bases`` is the working precision: 1 / divisor is formed
    in double and rounded to it once, each residual is cast to it, and the
    products and the scaling run in it.  The result is float64.
    """
    dtype = bases[0].dtype
    inverse = (1.0 / divisor).astype(dtype, copy=False)
    scale = dtype.type(scale)
    components = range(len(divisor))
    # the components that each sweep visits after the one it starts from
    forward, backward = components[1:], components[-2::-1]
    last = inverse[-1]

    def precondition(r):
        t = _in_basis(bases, r.reshape(divisor.shape))
        mixed = 0.0
        for i in forward:
            mixed = mixed + bases[i - 1].coupled(t[i - 1] * inverse[i - 1],
                                                 i - 1)
            t[i] += scale * bases[i].coupled(mixed, i)
        t[-1] *= last
        mixed = 0.0
        for i in backward:
            mixed = mixed + bases[i + 1].coupled(t[i + 1], i + 1)
            t[i] += scale * bases[i].coupled(mixed, i)
            t[i] *= inverse[i]
        return _in_basis(bases, t, back=True, dtype=np.float64).ravel()

    return precondition


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def _check_dt(dt):
    if not 0.0 < dt < math.inf:  # NaN too
        raise UsageError(f"dt must be positive and finite, got {dt}")


def velocity_matrix(grid, dt, lam, mu):
    """(1/dt) I - Q over the interior unknowns (component-major layout),
    with Q the ``grid.navier_matrix`` of (lam, mu) on the interior box: -Q
    with 1/dt added through the diagonal positions that Q's writer returns.

    The unknowns are the interior box, ``grid.interior_shape`` nodes per
    component, so the Dirichlet rows never enter the matrix.  The operator
    carries the preconditioner of both systems, the symmetric block
    Gauss-Seidel sweep (:func:`_block_gauss_seidel`), here over the d
    components, applied in single precision in the eigenbasis V of the 1-D
    second differences: there component i's diagonal block is
    1/dt + mu * sum_k l_k + (lam + mu) * l_i,
    and the mixed block (i, j) is -(lam + mu) C^_i (x) C^_j, with
    C^_k = V_k^T C_k V_k for C_k the interior block of
    ``grid.central_difference`` (see :func:`_dirichlet_eigen`).
    """
    _check_dt(dt)
    matrix, diagonal = navier_matrix(grid, lam, mu, box=slice(1, -1))
    matrix.data *= -1.0
    matrix.data[diagonal] += 1.0 / dt

    # float32: the sweep is an approximate inverse, far coarser than
    # float32's rounding
    bases = [_dirichlet_eigen(n, h, np.float32)
             for n, h in zip(grid.n, grid.h)]
    values = [basis.values for basis in bases]
    common = 1.0 / dt + mu * _outer_sum(values)
    divisor = np.stack([
        common + (lam + mu) * values[i].reshape(
            [-1 if k == i else 1 for k in range(grid.d)])
        for i in range(grid.d)
    ])
    precondition = _block_gauss_seidel(bases, divisor, lam + mu)
    return SparseOperator(matrix=matrix, precondition=precondition)


def pack_interior(grid, data):
    """Stack the interior values of a (*shape, d) array component-major."""
    return np.moveaxis(data[grid.interior], -1, 0).flatten()


def unpack_interior(grid, x):
    """Inverse of :func:`pack_interior`; boundary nodes are exactly zero."""
    out = np.zeros(grid.shape + (grid.d,))
    out[grid.interior] = np.moveaxis(
        x.reshape((grid.d,) + grid.interior_shape), 0, -1
    )
    return VectorField(grid, out)


def corner_strains(u):
    """The corner strains of a boundary-zero vector field: the rows of
    ``grid.strain_matrix``, shape (row blocks, *grid.shape)."""
    grid = u.grid
    x = pack_interior(grid, u.data)
    return (strain_matrix(grid) @ x).reshape((-1,) + grid.shape)


def velocity_load(grid, dt, x_v, strains, b, params):
    """The part of the velocity right-hand side that a step's sweeps share,
    packed over interior nodes: (1/dt) v_old + b + Q2 u_old, with ``x_v``
    the packed v_old and Q2 u_old, by summation by parts, the
    ``grid.stress_divergence`` of the ``grid.strain_stress`` under
    (lambda2, mu2) of ``strains``, the corner strains of u_old (see
    :func:`corner_strains`).  Both of those work in place, so it consumes
    ``strains``; it changes no other argument, since the sum builds on the
    new array x_v / dt."""
    load = x_v / dt
    if b is not None:
        load += pack_interior(grid, b.data)
    load += stress_divergence(grid, strain_stress(
        strains, params.lambda2, params.mu2, grid.d))
    return load


def velocity_rhs(load, theta, params):
    """Right-hand side of the velocity system, packed over interior nodes,
    for the iterate temperature ``theta``: load - div(theta * (A2 alpha)),
    with ``load`` from :func:`velocity_load` and div the
    ``grid.stress_divergence`` of the mean strain blocks."""
    grid = theta.grid
    return load - stress_divergence(grid, tensor_stress(
        params.thermal_coupling(), theta.data, grid.d))


# ---------------------------------------------------------------------------
# heat system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatStiffness:
    """k times the trapezoid-weighted Neumann stiffness (symmetric PSD, zero
    row sums), with what every sweep's heat matrix reuses.

    ``matrix`` is the stiffness as built.  The heat matrix differs from it
    only on the diagonal, so :func:`heat_matrix` makes ``matrix`` the heat
    matrix of each sweep by rewriting its diagonal entries, whose positions
    in ``matrix.data`` are ``diagonal`` (``np.intp``, so that writing them
    converts no index) and whose stiffness values are
    ``diagonal_values``: the owner of a stiffness holds one heat matrix.
    ``bases`` holds per axis the eigenvectors V of the 1-D stiffness against
    the trapezoid weights W (V^T W V = I), and ``eigenvalues`` is k times the
    sum of their eigenvalues over ``grid.shape``: in that basis, the heat
    matrix of a uniform temperature is diagonal.
    """

    matrix: sp.csr_matrix
    diagonal: np.ndarray
    diagonal_values: np.ndarray
    bases: tuple
    eigenvalues: np.ndarray


def heat_stiffness(grid, k):
    """k times the trapezoid-weighted Neumann stiffness of
    ``grid.neumann_matrix``, with the diagonal positions that it writes and
    the eigenbasis (see :class:`HeatStiffness`)."""
    matrix, diagonal = neumann_matrix(grid)
    matrix.data *= k
    bases = tuple(_neumann_eigen(h, tuple(w))
                  for h, w in zip(grid.h, grid.axis_weights))
    return HeatStiffness(
        matrix=matrix,
        diagonal=diagonal.astype(np.intp),
        diagonal_values=matrix.data[diagonal],
        bases=bases,
        eigenvalues=k * _outer_sum(basis.values for basis in bases),
    )


def heat_matrix(grid, dt, coefficient, params, stiffness=None):
    """(cv/dt) diag(w * coefficient) + k * weighted Neumann stiffness, for a
    positive diagonal ``coefficient`` (a ScalarField), the one that
    :func:`heat_rhs_vector` returns.

    ``stiffness`` is ``heat_stiffness(grid, params.k)``, built here when
    None.  The matrix is ``stiffness.matrix`` with its diagonal rewritten:
    each call with one stiffness returns the same matrix, so its owner keeps
    one heat matrix for all its sweeps.  The preconditioner is the block
    Gauss-Seidel sweep (:func:`_block_gauss_seidel`) of one component, the
    exact inverse of the same matrix with the coefficient replaced by its
    mean, so it is exact for a uniform coefficient and has condition
    number at most its max/min otherwise.  Raises :class:`DomainError` for a
    coefficient that is not finite, and :class:`DegeneracyError` for one
    that is not positive, before it writes the diagonal.
    """
    _check_dt(dt)
    # a NaN or infinite entry makes the mean NaN or infinite, and is
    # refused before it reaches the stiffness's shared diagonal
    mean = float(coefficient.data.mean())
    if not math.isfinite(mean):
        raise DomainError(
            f"heat coefficient must be finite everywhere, its mean is {mean}")
    c_min = float(np.min(coefficient.data))
    if c_min <= 0.0:
        raise DegeneracyError(
            f"heat coefficient must be positive everywhere, min = {c_min}; "
            f"the heat sub-problem lost parabolicity"
        )
    if stiffness is None:
        stiffness = heat_stiffness(grid, params.k)
    w = grid.quad_weights.ravel()
    matrix = stiffness.matrix
    matrix.data[stiffness.diagonal] = stiffness.diagonal_values + (
        w * (params.cv / dt) * coefficient.data.ravel()
    )
    mean_mass = (params.cv / dt) * mean
    precondition = _block_gauss_seidel(
        stiffness.bases, (mean_mass + stiffness.eigenvalues)[None], 0.0)
    return SparseOperator(matrix=matrix, precondition=precondition)


def heat_rhs_vector(grid, dt, theta_old, theta_it, x_v, g, params):
    """The heat system that a sweep solves at the iterate ``theta_it``, for
    the packed velocity ``x_v`` and its corner strains eps, the product of
    ``grid.strain_matrix`` and ``x_v``: returns (rhs, coefficient, frozen),
    the weighted right-hand side over all nodes, the diagonal coefficient
    (a ScalarField) for :func:`heat_matrix` and whether it is the frozen
    system.

    Newton's system has the right-hand side and coefficient

        w * [(cv/dt) theta_it^2 + (A1 eps):eps + g],
        q = 2 theta_it - theta_old + (dt/cv) (A2 alpha):eps

    (the strain terms the corner averages of :mod:`kvsim.grid`).  Where q
    is not positive everywhere, the frozen system replaces it: the
    coefficient theta_it and the right-hand side above minus
    w (cv/dt) theta_it (q - theta_it).
    """
    d = grid.d
    strains = (strain_matrix(grid) @ x_v).reshape(-1, grid.num_nodes)
    theta = theta_it.data.ravel()
    mass = params.cv / dt
    r = mass * theta * theta + strain_density(
        strains, params.lambda1, params.mu1, d)
    if g is not None:
        r += g.data.ravel()
    q = 2.0 * theta - theta_old.data.ravel() + strain_contraction(
        params.thermal_coupling(), strains, d) / mass
    w = grid.quad_weights.ravel()
    rhs = w * r
    if not float(np.min(q)) > 0.0:
        rhs -= w * mass * theta * (q - theta)
        return rhs, theta_it, True
    return rhs, ScalarField(grid, q.reshape(grid.shape)), False


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------

# relative residual that a solve reaches, unless given a reduction
SOLVE_TOL = 1e-12
# iterations before a solve fails
SOLVE_MAX = 20000
# consecutive true-residual re-checks without progress before CG gives up
_STALLED_RECHECKS = 3


def _dot(a, b):
    """Inner product of two 1-D arrays in numpy's own summation order.

    ``a @ b`` and ``np.linalg.norm`` call BLAS ``ddot``, which splits long
    sums across threads, so their last bits depend on the BLAS thread count.
    """
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def solve_spd(op, rhs, x0=None, reduction=0.0, product=None):
    """Preconditioned conjugate gradients for an SPD operator.

    ``product``, a :class:`Product` of ``op.matrix``, carries a @ x from
    solve to solve: when its ``x`` is ``x0``, its ``value`` is the start's
    product, which the solve then does not form.  The solve keeps its
    residual in that buffer, and leaves there the product of the x it
    returns: that of its true-residual re-check, or at zero iterations the
    start's product that it formed.  It leaves the buffer empty when it
    returns a start whose product it took, or raises.

    Calls ``op.precondition`` once per iteration, on the residual that the
    iteration starts from, so as many times as the report's
    ``iterations``, plus once per restart.  Converges when the true
    residual ||b - A x|| drops to max(tol ||b||, reduction ||b - A x0||),
    with tol the module's ``SOLVE_TOL`` and x0 the initial guess (zero
    when None): a ``reduction`` in (0, 1) stops the solve once it has cut
    its own starting residual by that factor, unless tol is reached
    first; the default 0 asks for tol.  The report's
    ``relative_residual`` is ||b - A x|| / ||b|| either way; a start that
    meets the target returns after zero iterations with the one product
    that formed its residual.  Raises
    :class:`NonConvergenceError` (carrying the report) after ``SOLVE_MAX``
    iterations; when a search direction p has p.Ap <= 0 or not finite (the
    operator is not positive definite); when a nonzero residual r has
    r.z <= 0 or not finite for z its preconditioned residual (the
    preconditioner is not positive definite); or when three consecutive
    true-residual re-checks (each followed by a restart) fail to lower the
    best true residual: the requested residual is then below what
    round-off lets this system attain, and the message states the
    attainable relative residual.  Raises :class:`DomainError` up front
    when the right-hand side or the initial guess is not finite.
    Deterministic given identical inputs.
    """
    ax = None
    if product is not None:
        if product.x is x0 and x0 is not None:
            ax = product.value
        product.x = None
    if not 0.0 <= reduction < 1.0:
        raise UsageError(f"reduction must be in [0, 1), got {reduction}")
    a = op.matrix
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = _norm(rhs)
    if not np.isfinite(rhs_norm):
        raise DomainError(
            f"right-hand side is not finite (norm {rhs_norm}); "
            f"check the sources and the state"
        )
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), LinearSolveReport(0, 0.0, True)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("initial guess x0 is not finite")
    precondition = op.precondition
    if ax is None:
        ax = a @ x
    # one vector fewer: the residual takes the product's buffer
    r = (rhs - ax if product is None
         else np.subtract(rhs, ax, out=product.value))
    res = _norm(r)
    target = SOLVE_TOL * rhs_norm
    if reduction:
        target = max(target, reduction * res)
    p = None
    best_true = np.inf
    stalled = 0
    iterations = 0
    while True:
        # r is the true residual until the first iteration moves x
        if not iterations and res <= target:
            if ax is not r:
                _hand_back(product, x, ax)
            return x, LinearSolveReport(0, res / rhs_norm, True)
        if res <= target or iterations == SOLVE_MAX:
            # guard against recurrence drift: re-check with the true residual
            ax = a @ x
            r_true = rhs - ax
            res_true = _norm(r_true)
            if res_true <= target:
                _hand_back(product, x, ax)
                return x, LinearSolveReport(iterations, res_true / rhs_norm, True)
            if iterations == SOLVE_MAX:
                raise NonConvergenceError(
                    f"conjugate gradients did not reach relative residual "
                    f"{target / rhs_norm:.3e} within {iterations} iterations "
                    f"(relative residual {res_true / rhs_norm:.3e})",
                    report=LinearSolveReport(
                        iterations, res_true / rhs_norm, False),
                )
            if res_true < best_true:
                best_true, stalled = res_true, 0
            else:
                stalled += 1
            if stalled >= _STALLED_RECHECKS:
                attainable = best_true / rhs_norm
                raise NonConvergenceError(
                    f"conjugate gradients stagnated after {iterations} "
                    f"iterations: the attainable relative residual "
                    f"{attainable:.3e} is above the requested "
                    f"{target / rhs_norm:.3e}",
                    report=LinearSolveReport(iterations, attainable, False),
                )
            r, p = r_true, None
        # preconditioned only once the residual has failed the stopping
        # test, which leaves no use for the product of x
        ax = None
        z = precondition(r)
        rz_next = _dot(r, z)
        if p is None:  # the start or a restart
            p = z.copy()
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        if not 0.0 < rz < np.inf:
            raise NonConvergenceError(
                f"conjugate gradients broke down after {iterations} "
                f"iterations: r.z = {rz} for a nonzero residual, so the "
                f"preconditioner is not positive definite",
                report=LinearSolveReport(iterations, res / rhs_norm, False),
            )
        ap = a @ p
        pap = _dot(p, ap)
        if not 0.0 < pap < np.inf:
            raise NonConvergenceError(
                f"conjugate gradients broke down after {iterations} "
                f"iterations: p.Ap = {pap}, so the operator is not positive "
                f"definite or the iterate overflowed",
                report=LinearSolveReport(iterations, res / rhs_norm, False),
            )
        alpha = rz / pap
        # in place: the same arithmetic, one vector fewer alive at a time
        x += alpha * p
        r -= alpha * ap
        res = _norm(r)
        iterations += 1


def _hand_back(product, x, ax):
    if product is not None:
        np.copyto(product.value, ax)
        product.x = x
