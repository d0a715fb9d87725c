"""Assembly and solution of the two linear sub-problems of a nonlinear sweep.

One sweep of the successive-approximation scheme solves, with coefficients
frozen at the previous iterate,

* an implicit (backward Euler) viscoelastic velocity system
      (1/dt) v - Q1 v = (1/dt) v_old + div[A2 eps(u) - theta * (A2 alpha)] + b
  on the interior box of nodes (the homogeneous Dirichlet values never
  enter as unknowns), and

* an implicit frozen-coefficient heat system
      (cv/dt) theta_frozen * theta - k Lap theta
          = (cv/dt) theta_frozen * theta_old + heat_rhs(theta_frozen, eps(v), g)
  on all nodes with the mirror-ghost Neumann Laplacian.

Both systems are symmetric positive-definite sparse matrices built from the
operators of :mod:`kvsim.grid`: the velocity matrix from ``navier_matrix``
on the interior box, the heat stiffness from ``neumann_terms``.  The heat
system is scaled row-wise by the trapezoidal quadrature weights; that
scaling does not change the solution but makes the Neumann part exactly
symmetric (it is the discrete Dirichlet form), while keeping its row sums
exactly zero.

Solves use conjugate gradients with deterministic reductions, preconditioned
by fast diagonalization (Lynch, Rice & Thomas 1964): each operator carries
the exact inverse of its separable part, applied in the Kronecker product of
per-axis eigenbases.  For the velocity system that part drops only the mixed
(lambda1 + mu1) d_i d_j coupling blocks; for the heat system it replaces the
frozen temperature by its mean.  Both dropped parts are spectrally
equivalent, so the iteration counts stay bounded as the grid is refined.  A
solve is single-caller but independent solves may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import constitutive as cons
from .errors import DegeneracyError, DomainError, NonConvergenceError, UsageError
from .grid import (
    VectorField,
    navier_matrix,
    neumann_stiffness,
    neumann_terms,
    second_difference,
    sym_gradient,
    tensor_divergence,
)


@dataclass
class SparseOperator:
    """A row-compressed sparse matrix over the free unknowns, with its
    preconditioner.

    ``precondition`` maps a residual r to z = P^{-1} r for a symmetric
    positive-definite P close to the matrix.  ``velocity_matrix`` and
    ``heat_matrix`` attach the fast-diagonalization inverse of their
    separable parts.
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


# ---------------------------------------------------------------------------
# fast diagonalization: per-axis eigenbases of the separable parts
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _dirichlet_eigen(n, h):
    """Eigenvalues and orthonormal eigenvectors (columns) of minus the
    interior block of ``grid.second_difference(n, h)``."""
    block = second_difference(n, h)[1:-1, 1:-1].toarray()
    return _read_only(*np.linalg.eigh(-block))


@lru_cache(maxsize=64)
def _neumann_eigen(h, weights):
    """Eigenpairs of ``grid.neumann_stiffness`` against the trapezoid
    ``weights`` (a tuple, one per node): S V = W V diag(values) with
    V^T W V = I."""
    scale = 1.0 / np.sqrt(np.array(weights))
    stiffness = neumann_stiffness(len(weights), h).toarray()
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
    """
    shape = divisor.shape
    lead = len(shape) - len(bases)
    views = [shape[:lead + k + 1] + (-1,) for k in range(len(bases) - 1)]
    inner, last = bases[:-1], bases[-1]
    inverse = (1.0 / divisor).reshape(-1, shape[-1])

    def precondition(r):
        y = r
        for view, v in zip(views, inner):
            y = v.T @ y.reshape(view)
        y = ((y.reshape(-1, shape[-1]) @ last) * inverse) @ last.T
        for view, v in zip(views, inner):
            y = v @ y.reshape(view)
        return y.ravel()

    return precondition


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def velocity_matrix(grid, dt, lam, mu):
    """(1/dt) I - Q1 over the interior unknowns (component-major layout),
    with Q1 the ``grid.navier_matrix`` of (lam, mu) on the interior box.

    The unknowns are the interior box, ``grid.interior_shape`` nodes per
    component, so the Dirichlet rows never enter the matrix.  The operator
    carries the exact inverse of its diagonal blocks as preconditioner: in
    the eigenbasis of the 1-D second differences, component i's block is
    1/dt + mu * sum_k l_k + (lam + mu) * l_i.
    """
    if dt <= 0.0:
        raise UsageError(f"dt must be positive, got {dt}")
    q_op = navier_matrix(grid, lam, mu, box=slice(1, -1))
    matrix = (sp.identity(q_op.shape[0], format="csr") / dt - q_op).tocsr()

    values, vectors = zip(*(
        _dirichlet_eigen(n, h) for n, h in zip(grid.n, grid.h)
    ))
    common = 1.0 / dt + mu * _outer_sum(values)
    divisor = np.stack([
        common + (lam + mu) * values[i].reshape(
            [-1 if k == i else 1 for k in range(grid.d)])
        for i in range(grid.d)
    ])
    precondition = _fast_diagonalization(vectors, divisor)
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


def velocity_rhs(grid, dt, v_old, u_iter, theta_iter, b, params):
    """Right-hand side of the velocity system, packed over interior nodes."""
    eps = sym_gradient(u_iter)
    tension = cons.apply_isotropic(params.lambda2, params.mu2, eps.data)
    tension = tension - theta_iter.data[..., None] * params.thermal_coupling()
    force = tensor_divergence(type(eps)(grid, tension)).data
    if b is not None:
        force = force + b.data
    return pack_interior(grid, v_old.data / dt + force)


# ---------------------------------------------------------------------------
# heat system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatStiffness:
    """k times the trapezoid-weighted Neumann stiffness (symmetric PSD, zero
    row sums), with what every sweep's heat matrix reuses.

    ``diagonal`` indexes each row's diagonal entry in ``matrix.data``.
    ``bases`` holds per axis the eigenvectors V of the 1-D stiffness against
    the trapezoid weights W (V^T W V = I), and ``eigenvalues`` is k times the
    sum of their eigenvalues over ``grid.shape``: in that basis, the heat
    matrix of a uniform temperature is diagonal.
    """

    matrix: sp.csr_matrix
    diagonal: np.ndarray
    bases: tuple
    eigenvalues: np.ndarray


def heat_stiffness(grid, k):
    """k times the trapezoid-weighted Neumann stiffness (the sum of
    ``grid.neumann_terms``), with its diagonal positions and eigenbasis (see
    :class:`HeatStiffness`)."""
    terms = neumann_terms(grid)
    matrix = (k * sum(terms[1:], terms[0])).tocsr()
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    diagonal = np.flatnonzero(matrix.indices == rows)
    values, vectors = zip(*(
        _neumann_eigen(h, tuple(w)) for h, w in zip(grid.h, grid.axis_weights)
    ))
    return HeatStiffness(
        matrix=matrix,
        diagonal=diagonal,
        bases=vectors,
        eigenvalues=k * _outer_sum(values),
    )


def heat_matrix(grid, dt, theta_frozen, params, stiffness=None):
    """(cv/dt) diag(w * theta_frozen) + k * weighted Neumann stiffness.

    ``stiffness`` is ``heat_stiffness(grid, params.k)``, built here when
    None.  The preconditioner is the exact inverse of the same matrix with
    theta_frozen replaced by its mean, so it is exact for a uniform
    temperature and has condition number at most max/min of theta_frozen
    otherwise.
    """
    if dt <= 0.0:
        raise UsageError(f"dt must be positive, got {dt}")
    theta_min = float(np.min(theta_frozen.data))
    if theta_min <= 0.0:
        raise DegeneracyError(
            f"frozen temperature coefficient must be positive everywhere, "
            f"min = {theta_min}; the heat sub-problem lost parabolicity"
        )
    if stiffness is None:
        stiffness = heat_stiffness(grid, params.k)
    w = grid.quad_weights.ravel()
    matrix = stiffness.matrix.copy()
    matrix.data[stiffness.diagonal] += (
        w * (params.cv / dt) * theta_frozen.data.ravel()
    )
    mean_mass = (params.cv / dt) * float(theta_frozen.data.mean())
    precondition = _fast_diagonalization(
        stiffness.bases, mean_mass + stiffness.eigenvalues
    )
    return SparseOperator(matrix=matrix, precondition=precondition)


def heat_rhs_vector(grid, dt, theta_old, theta_frozen, v_iter, g, params):
    """Weighted right-hand side of the heat system, over all nodes."""
    eps_t = sym_gradient(v_iter).data
    g_data = g.data if g is not None else 0.0
    source = cons.heat_rhs(theta_frozen.data, eps_t, g_data, params)
    r = (params.cv / dt) * theta_frozen.data * theta_old.data + source
    return grid.quad_weights.ravel() * r.ravel()


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------

# consecutive true-residual re-checks without progress before CG gives up
_STALLED_RECHECKS = 3


def solve_spd(op, rhs, tol=1e-12, max_iter=10000, x0=None):
    """Preconditioned conjugate gradients for an SPD operator.

    Applies ``op.precondition`` to every residual.  Converges when the true
    relative residual ||b - A x|| / ||b|| drops to ``tol``.  Raises
    :class:`NonConvergenceError` (carrying the report) when ``max_iter`` is
    exhausted; when a search direction p has p.Ap <= 0 or not finite (the
    operator is not positive definite); or when three consecutive
    true-residual re-checks (each followed by a restart) fail to lower the
    best true residual: ``tol`` is then below what round-off lets this
    system attain, and the message states the attainable relative residual.  Raises :class:`DomainError` up
    front when the right-hand side or the initial guess is not finite.
    Deterministic given identical inputs.
    """
    if tol <= 0.0:
        raise UsageError(f"tol must be positive, got {tol}")
    a = op.matrix
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
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
    r = rhs - a @ x
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    best_true = np.inf
    stalled = 0
    iterations = 0
    while iterations < max_iter:
        res = float(np.linalg.norm(r))
        if res <= tol * rhs_norm:
            # guard against recurrence drift: re-check with the true residual
            r_true = rhs - a @ x
            res_true = float(np.linalg.norm(r_true))
            if res_true <= tol * rhs_norm:
                return x, LinearSolveReport(iterations, res_true / rhs_norm, True)
            if res_true < best_true:
                best_true, stalled = res_true, 0
            else:
                stalled += 1
            if stalled >= _STALLED_RECHECKS:
                attainable = best_true / rhs_norm
                raise NonConvergenceError(
                    f"conjugate gradients stagnated after {iterations} "
                    f"iterations: the attainable relative residual "
                    f"{attainable:.3e} is above tol={tol}",
                    report=LinearSolveReport(iterations, attainable, False),
                )
            r = r_true
            z = precondition(r)
            p = z.copy()
            rz = float(r @ z)
        ap = a @ p
        pap = float(p @ ap)
        if not 0.0 < pap < np.inf:
            raise NonConvergenceError(
                f"conjugate gradients broke down after {iterations} "
                f"iterations: p.Ap = {pap}, so the operator is not positive "
                f"definite or the iterate overflowed",
                report=LinearSolveReport(iterations, res / rhs_norm, False),
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
        iterations += 1
    res_true = float(np.linalg.norm(rhs - a @ x)) / rhs_norm
    report = LinearSolveReport(iterations, res_true, res_true <= tol)
    if not report.converged:
        raise NonConvergenceError(
            f"conjugate gradients did not reach tol={tol} within "
            f"{max_iter} iterations (relative residual {res_true:.3e})",
            report=report,
        )
    return x, report
