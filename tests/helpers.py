"""Shared builders for the test suite."""

import functools
import gc
import itertools
import weakref

import numpy as np
import scipy.sparse as sp

from kvsim import Grid, MaterialParams, ScalarField, SimState, VectorField
from kvsim.cli_io import _cos_profile, _sin_profile
from kvsim.constitutive import matrix_from_sym6
from kvsim import linear_step, picard
from kvsim.linear_step import SparseOperator, pack_interior, velocity_matrix


def default_params(**overrides):
    base = dict(lambda1=1.0, mu1=1.0, lambda2=1.0, mu2=1.0,
                k=1.0, cv=1.0, alpha=0.1, beta=1.0)
    base.update(overrides)
    return MaterialParams(**base)


def bump_state(grid, v_amp=0.2, theta0=1.0, theta_amp=0.1):
    """Boundary-compatible nonequilibrium state: velocity bump + theta hump."""
    profile = _sin_profile(grid)
    v = np.zeros(grid.shape + (grid.d,))
    for i in range(grid.d):
        v[..., i] = v_amp / (1.0 + i) * profile
    theta = theta0 + theta_amp * _cos_profile(grid)
    return SimState(
        t=0.0,
        u=VectorField.zeros(grid),
        v=VectorField(grid, v),
        theta=ScalarField(grid, theta),
    ).validate()


def random_boundary_zero_vector(grid, rng):
    data = rng.standard_normal(grid.shape + (grid.d,))
    data[grid.boundary_mask] = 0.0
    return VectorField(grid, data)


def make_grid(d=2, n=17):
    return Grid((n,) * d, (1.0,) * d)


def corner_gradients(grid):
    """The explicit per-corner reference of the corner strain, by a loop
    over the cells and their 2^d corners.

    Returns the flat index of each corner's node, the corner weight
    prod(h) / 2^d, and the sparse matrix taking a nodal scalar field (all
    nodes, C order) to its d derivatives at every corner, in row
    corner * d + k: the difference along axis k over the edge of the cell
    through the corner.
    """
    return _corner_gradients(grid.n, grid.lengths)


@functools.lru_cache(maxsize=8)
def _corner_gradients(shape, lengths):
    grid = Grid(shape, lengths)
    d = grid.d
    nodes, rows, cols, vals = [], [], [], []
    for cell in itertools.product(*(range(n - 1) for n in grid.n)):
        for side in itertools.product((0, 1), repeat=d):
            node = tuple(c + s for c, s in zip(cell, side))
            for k in range(d):
                ends = [node[:k] + (cell[k] + e,) + node[k + 1:] for e in (1, 0)]
                rows += [len(nodes) * d + k] * 2
                cols += [np.ravel_multi_index(e, grid.shape) for e in ends]
                vals += [1.0 / grid.h[k], -1.0 / grid.h[k]]
            nodes.append(np.ravel_multi_index(node, grid.shape))
    diff = sp.csr_matrix((vals, (rows, cols)),
                         shape=(len(nodes) * d, grid.num_nodes))
    return np.array(nodes), np.prod(grid.h) / 2**d, diff


def corner_strain(grid, data):
    """The strain (corners, d, d) of nodal vector ``data`` at every corner."""
    _, _, diff = corner_gradients(grid)
    grads = np.stack([(diff @ data[..., i].ravel()).reshape(-1, grid.d)
                      for i in range(grid.d)], axis=1)  # [c, i, k] = d_k u_i
    return 0.5 * (grads + np.swapaxes(grads, 1, 2))


def corner_density(eps, lam, mu):
    """(A eps):eps at every corner, for A the isotropic tensor of (lam, mu)."""
    trace = np.trace(eps, axis1=1, axis2=2)
    return lam * trace**2 + 2.0 * mu * np.sum(eps * eps, axis=(1, 2))


def corner_sum(grid, values):
    """The weighted sum over the corners at each node, shape ``grid.shape``."""
    nodes, weight, _ = corner_gradients(grid)
    return (weight * np.bincount(nodes, values, grid.num_nodes)).reshape(
        grid.shape)


def corner_force(grid, stress):
    """div(stress) at every node in the weak form of the corners,
    -W^-1 D^T (w stress), for a (corners, d, d) stress."""
    nodes, weight, diff = corner_gradients(grid)
    out = np.empty(grid.shape + (grid.d,))
    for i in range(grid.d):
        out[..., i] = -(diff.T @ (weight * stress[:, i, :]).ravel()).reshape(
            grid.shape) / grid.quad_weights
    return out


def coupling_matrix(params, d):
    """A2 alpha as a d x d matrix."""
    return matrix_from_sym6(params.thermal_coupling())[:d, :d]


def reference_velocity_rhs(grid, dt, v_old, u, theta, b, params):
    """The velocity right-hand side with all of the elasticity explicit, by
    the per-corner loop, packed over interior nodes:
    (1/dt) v_old + b + div[A2 eps(u) - theta * (A2 alpha)]."""
    nodes, _, _ = corner_gradients(grid)
    eps = corner_strain(grid, u.data)
    trace = np.trace(eps, axis1=1, axis2=2)[:, None, None]
    stress = (params.lambda2 * trace * np.eye(grid.d) + 2.0 * params.mu2 * eps
              - theta.data.ravel()[nodes, None, None]
              * coupling_matrix(params, grid.d))
    force = corner_force(grid, stress)
    if b is not None:
        force = force + b.data
    return pack_interior(grid, v_old.data / dt + force)


def reference_heat_rhs_vector(grid, dt, theta_old, theta_it, v_iter, g,
                              params):
    """Newton's heat system at ``theta_it`` by the per-corner loop: the
    corners at a node sum their weighted viscous heating (A1 eps):eps and
    coupling (A2 alpha):eps of the strain rate of ``v_iter``.  Returns the
    weighted right-hand side w [(cv/dt) theta_it^2 + (A1 eps):eps + g],
    flat, and the coefficient q = 2 theta_it - theta_old + (dt/cv)
    (A2 alpha):eps, in ``grid.shape``."""
    eps = corner_strain(grid, v_iter.data)
    coupling = np.sum(coupling_matrix(params, grid.d) * eps, axis=(1, 2))
    heating = corner_sum(grid, corner_density(eps, params.lambda1, params.mu1))
    g_data = g.data if g is not None else 0.0
    mass = params.cv / dt
    w = grid.quad_weights
    rhs = w * (mass * theta_it.data**2 + g_data) + heating
    q = (2.0 * theta_it.data - theta_old.data
         + corner_sum(grid, coupling) / (w * mass))
    return rhs.ravel(), q


def double_velocity_operator(grid, dt, lam, mu):
    """``velocity_matrix(grid, dt, lam, mu)`` with its preconditioner
    applied in double precision: the same matrix, and the fast
    diagonalization of its component blocks from the float64 bases of
    ``_dirichlet_eigen``, with the divisor written out here."""
    op = velocity_matrix(grid, dt, lam, mu)
    values, vectors = zip(*(
        linear_step._dirichlet_eigen(n, h) for n, h in zip(grid.n, grid.h)
    ))
    axes = np.ix_(*values)
    divisor = np.stack([
        1.0 / dt + mu * sum(axes) + (lam + mu) * axes[i]
        for i in range(grid.d)
    ])
    return SparseOperator(
        matrix=op.matrix,
        precondition=linear_step._fast_diagonalization(vectors, divisor),
    )


class CountedMatrix:
    """``matrix`` with its products ``matrix @ x`` counted in
    ``counts[key]``; every other attribute is the matrix's own."""

    def __init__(self, matrix, counts, key="products"):
        self.matrix, self.counts, self.key = matrix, counts, key

    def __matmul__(self, x):
        self.counts[self.key] = self.counts.get(self.key, 0) + 1
        return self.matrix @ x

    def __getattr__(self, name):
        return getattr(self.matrix, name)


def counted(op, counts):
    """``op`` with its matrix products counted in ``counts["products"]``
    and its preconditioner applies in ``counts["applies"]``."""

    def precondition(r):
        counts["applies"] = counts.get("applies", 0) + 1
        return op.precondition(r)

    return SparseOperator(matrix=CountedMatrix(op.matrix, counts),
                          precondition=precondition)


class AcceptedStates:
    """Watches ``Stepper.step``: keeps a weak reference to the temperature
    of every state it accepts and, at the start of each step, records how
    many of those states are still alive.  ``most_alive`` maps each
    grid's node counts to the most it saw at the start of a step on that
    grid; ``alive()`` counts them now."""

    def __init__(self, monkeypatch):
        self.refs = []
        self.most_alive = {}
        step = picard.Stepper.step

        def watched(stepper, *args, **kwargs):
            key = stepper.grid.n
            self.most_alive[key] = max(self.most_alive.get(key, 0),
                                       self.alive())
            new_state, trace = step(stepper, *args, **kwargs)
            self.refs.append(weakref.ref(new_state.theta.data))
            return new_state, trace

        monkeypatch.setattr(picard.Stepper, "step", watched)

    def alive(self):
        """The watched states alive after ``gc.collect()``.  Reference
        counting frees a state that no cycle holds at once, so the
        (slow) collection runs only when more than two are left."""
        count = sum(ref() is not None for ref in self.refs)
        if count > 2:
            gc.collect()
            count = sum(ref() is not None for ref in self.refs)
        return count
