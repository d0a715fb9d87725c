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
thread count.  They are preconditioned by fast diagonalization (Lynch, Rice
& Thomas 1964): each operator carries the exact inverse of its separable
part, applied in the Kronecker product of per-axis eigenbases.  For the
velocity system that part drops only the mixed (lam + mu) d_i d_j coupling
blocks; for the heat system it replaces the diagonal coefficient by its
mean.
Both dropped parts are spectrally equivalent, so the iteration counts stay
bounded as the grid is refined.  The velocity preconditioner runs its
dense per-axis products in single precision, in less than half the time:
it is approximate by design, and float32 rounding (about 1e-7) lies far
below what dropping the mixed blocks costs.  The heat preconditioner,
exact for a uniform coefficient, stays in double.  Both return float64,
and the rest of CG (vectors, matrix products, inner products, residual
re-checks and the stopping test) runs in double.

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
    ``velocity_matrix`` and ``heat_matrix`` attach the fast-diagonalization
    inverse of their separable parts, the velocity one applied in single
    precision and the heat one in double.
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
# fast diagonalization: per-axis eigenbases of the separable parts
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _dense(bands):
    """The dense matrix of 1-D bands (sub, main, super)."""
    sub, main, sup = bands
    return np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


@lru_cache(maxsize=64)
def _dirichlet_eigen(n, h):
    """Eigenvalues and orthonormal eigenvectors (columns) of minus the
    interior block of ``grid.second_difference(n, h)``."""
    block = _dense(second_difference(n, h))[1:-1, 1:-1]
    return _read_only(*np.linalg.eigh(-block))


@lru_cache(maxsize=64)
def _neumann_eigen(h, weights):
    """Eigenpairs of ``grid.neumann_stiffness`` against the trapezoid
    ``weights`` (a tuple, one per node): S V = W V diag(values) with
    V^T W V = I."""
    scale = 1.0 / np.sqrt(np.array(weights))
    stiffness = _dense(neumann_stiffness(len(weights), h))
    values, vectors = np.linalg.eigh(scale[:, None] * stiffness * scale)
    return _read_only(values, scale[:, None] * vectors)


def _outer_sum(values):
    """Sum over axes of one 1-D array per axis, on their tensor grid."""
    total = np.zeros(())
    for v in values:
        total = np.add.outer(total, v)
    return total


def _fast_diagonalization(bases, divisor):
    """Preconditioner r -> V diag(1 / divisor) V^T r.

    V is the Kronecker product of ``bases``, one matrix per trailing axis of
    ``divisor``; a leading axis beyond them is a batch of components.  Each
    axis but the last is one batched matrix product on a reshaped view (its
    axis second to last), the last axis a single product of all rows.

    The dtype of ``bases`` is the working precision: 1 / divisor is formed
    in double and rounded to it once, each residual is cast to it, and the
    products and the scaling run in it.  The result is float64 either way.
    """
    shape = divisor.shape
    lead = len(shape) - len(bases)
    views = [shape[:lead + k + 1] + (-1,) for k in range(len(bases) - 1)]
    inner, last = bases[:-1], bases[-1]
    inverse = (1.0 / divisor).astype(last.dtype, copy=False).reshape(
        -1, shape[-1])

    def precondition(r):
        y = r.astype(last.dtype, copy=False)
        for view, v in zip(views, inner):
            y = v.T @ y.reshape(view)
        y = ((y.reshape(-1, shape[-1]) @ last) * inverse) @ last.T
        for view, v in zip(views, inner):
            y = v @ y.reshape(view)
        return y.ravel().astype(np.float64, copy=False)

    return precondition


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def velocity_matrix(grid, dt, lam, mu):
    """(1/dt) I - Q over the interior unknowns (component-major layout),
    with Q the ``grid.navier_matrix`` of (lam, mu) on the interior box, on
    the sparsity pattern of Q.

    The unknowns are the interior box, ``grid.interior_shape`` nodes per
    component, so the Dirichlet rows never enter the matrix.  The operator
    carries the inverse of its diagonal blocks as preconditioner, applied
    in single precision: in the eigenbasis of the 1-D second differences,
    component i's block is 1/dt + mu * sum_k l_k + (lam + mu) * l_i.
    """
    if not dt > 0.0:  # NaN too
        raise UsageError(f"dt must be positive, got {dt}")
    # every row of the interior box stores its diagonal entry, so setting
    # the diagonal keeps the Navier matrix's sparsity pattern
    matrix = navier_matrix(grid, lam, mu, box=slice(1, -1))
    matrix.data *= -1.0
    matrix.setdiag(matrix.diagonal() + 1.0 / dt)

    values, vectors = zip(*(
        _dirichlet_eigen(n, h) for n, h in zip(grid.n, grid.h)
    ))
    common = 1.0 / dt + mu * _outer_sum(values)
    divisor = np.stack([
        common + (lam + mu) * values[i].reshape(
            [-1 if k == i else 1 for k in range(grid.d)])
        for i in range(grid.d)
    ])
    # float32 bases: the preconditioner already drops the mixed blocks,
    # an approximation far coarser than float32's rounding
    precondition = _fast_diagonalization(
        [v.astype(np.float32) for v in vectors], divisor)
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
    values, vectors = zip(*(
        _neumann_eigen(h, tuple(w)) for h, w in zip(grid.h, grid.axis_weights)
    ))
    return HeatStiffness(
        matrix=matrix,
        diagonal=diagonal.astype(np.intp),
        diagonal_values=matrix.data[diagonal],
        bases=vectors,
        eigenvalues=k * _outer_sum(values),
    )


def heat_matrix(grid, dt, coefficient, params, stiffness=None):
    """(cv/dt) diag(w * coefficient) + k * weighted Neumann stiffness, for a
    positive diagonal ``coefficient`` (a ScalarField), the one that
    :func:`heat_rhs_vector` returns.

    ``stiffness`` is ``heat_stiffness(grid, params.k)``, built here when
    None.  The matrix is ``stiffness.matrix`` with its diagonal rewritten:
    each call with one stiffness returns the same matrix, so its owner keeps
    one heat matrix for all its sweeps.  The preconditioner is the exact
    inverse of the same matrix with the coefficient replaced by its mean,
    so it is exact for a uniform coefficient and has condition number at
    most its max/min otherwise.
    """
    if dt <= 0.0:
        raise UsageError(f"dt must be positive, got {dt}")
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
    mean_mass = (params.cv / dt) * float(coefficient.data.mean())
    precondition = _fast_diagonalization(
        stiffness.bases, mean_mass + stiffness.eigenvalues
    )
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
