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

Both systems are assembled as symmetric positive-definite sparse matrices.
The heat system is scaled row-wise by the trapezoidal quadrature weights;
that scaling does not change the solution but makes the Neumann part exactly
symmetric (it is the discrete Dirichlet form), while keeping its row sums
exactly zero.

Solves use diagonally preconditioned conjugate gradients with deterministic
reductions; a solve is single-caller but independent solves may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import constitutive as cons
from .errors import DegeneracyError, DomainError, NonConvergenceError, UsageError
from .grid import VectorField, sym_gradient, tensor_divergence


@dataclass
class SparseOperator:
    """A row-compressed sparse matrix over the free unknowns."""

    matrix: sp.csr_matrix

    @property
    def size(self):
        return self.matrix.shape[0]


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


# ---------------------------------------------------------------------------
# 1-D building blocks, lifted to the grid by Kronecker products
# ---------------------------------------------------------------------------

def _second_diff_1d(n, h):
    """Standard 3-point second difference with Dirichlet ends."""
    inv_h2 = 1.0 / (h * h)
    return sp.diags(
        [inv_h2, -2.0 * inv_h2, inv_h2], [-1, 0, 1], shape=(n, n), format="csr"
    )


def _central_1d(n, h):
    """Zero-extended central difference: exactly antisymmetric."""
    inv_2h = 1.0 / (2.0 * h)
    return sp.diags([-inv_2h, inv_2h], [-1, 1], shape=(n, n), format="csr")


def _stiffness_1d(n, h):
    """Neumann stiffness (1/h) tridiag(-1, [1,2,...,2,1], -1).

    Equals minus the trapezoid-weighted mirror-ghost Laplacian; symmetric
    positive semi-definite with exact zero row sums.
    """
    inv_h = 1.0 / h
    main = np.full(n, 2.0 * inv_h)
    main[0] = inv_h
    main[-1] = inv_h
    off = np.full(n - 1, -inv_h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _kron(factors):
    """Kronecker product of one factor per axis, in C order (axis 0 outermost)."""
    result = factors[0]
    for factor in factors[1:]:
        result = sp.kron(result, factor, format="csr")
    return result


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def velocity_matrix(grid, dt, lam, mu):
    """(1/dt) I - Q1 over the interior unknowns (component-major layout).

    The unknowns are the interior box, ``grid.interior_shape`` nodes per
    component, so the Dirichlet rows never enter the matrix.
    """
    if dt <= 0.0:
        raise UsageError(f"dt must be positive, got {dt}")

    def lifted(op_1d, axis):
        return _kron([
            op_1d(n, h) if k == axis else sp.identity(n, format="csr")
            for k, (n, h) in enumerate(zip(grid.interior_shape, grid.h))
        ])

    # the mixed blocks are matrix products, not one Kronecker product of two
    # factors: the product's (unsorted) entry order within each row is the
    # summation order of every matvec, so it decides the last bits of a run
    second = [lifted(_second_diff_1d, k) for k in range(grid.d)]
    central = [lifted(_central_1d, k) for k in range(grid.d)]
    laplace = sum(second[1:], second[0])
    blocks = [
        [
            mu * laplace + (lam + mu) * second[i] if i == j
            else (lam + mu) * (central[i] @ central[j])
            for j in range(grid.d)
        ]
        for i in range(grid.d)
    ]
    q_op = sp.bmat(blocks, format="csr")
    m = q_op.shape[0]
    matrix = (sp.identity(m, format="csr") / dt - q_op).tocsr()
    return SparseOperator(matrix=matrix)


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

def heat_stiffness(grid):
    """Trapezoid-weighted Neumann stiffness: symmetric PSD, zero row sums."""
    terms = []
    for k in range(grid.d):
        factors = [sp.diags(w, format="csr") for w in grid.axis_weights]
        factors[k] = _stiffness_1d(grid.n[k], grid.h[k])
        terms.append(_kron(factors))
    return sum(terms[1:], terms[0]).tocsr()


def heat_matrix(grid, dt, theta_frozen, params, stiffness=None):
    """(cv/dt) diag(w * theta_frozen) + k * weighted Neumann stiffness."""
    if dt <= 0.0:
        raise UsageError(f"dt must be positive, got {dt}")
    theta_min = float(np.min(theta_frozen.data))
    if theta_min <= 0.0:
        raise DegeneracyError(
            f"frozen temperature coefficient must be positive everywhere, "
            f"min = {theta_min}; the heat sub-problem lost parabolicity"
        )
    if stiffness is None:
        stiffness = heat_stiffness(grid)
    w = grid.quad_weights.ravel()
    mass = sp.diags(w * (params.cv / dt) * theta_frozen.data.ravel(), format="csr")
    matrix = (mass + params.k * stiffness).tocsr()
    return SparseOperator(matrix=matrix)


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

def solve_spd(op, rhs, tol=1e-12, max_iter=10000, x0=None):
    """Jacobi-preconditioned conjugate gradients for an SPD operator.

    Converges when the true relative residual ||b - A x|| / ||b|| drops to
    ``tol``; raises :class:`NonConvergenceError` (carrying the report) when
    ``max_iter`` is exhausted, and :class:`DomainError` up front when the
    right-hand side or the initial guess is not finite.  Deterministic given
    identical inputs.
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
    inv_diag = 1.0 / a.diagonal()
    r = rhs - a @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    while iterations < max_iter:
        res = float(np.linalg.norm(r))
        if res <= tol * rhs_norm:
            # guard against recurrence drift: re-check with the true residual
            r_true = rhs - a @ x
            res_true = float(np.linalg.norm(r_true))
            if res_true <= tol * rhs_norm:
                return x, LinearSolveReport(iterations, res_true / rhs_norm, True)
            r = r_true
            z = inv_diag * r
            p = z.copy()
            rz = float(r @ z)
        ap = a @ p
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        z = inv_diag * r
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
