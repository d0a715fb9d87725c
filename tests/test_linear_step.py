"""Assembly and conjugate-gradient solution of the two linear sub-problems."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from kvsim import (
    DegeneracyError,
    DomainError,
    Grid,
    NonConvergenceError,
    ScalarField,
    Stepper,
    StepperConfig,
    UsageError,
    VectorField,
    lame_operator,
    laplacian_neumann,
    solve_spd,
)
from kvsim import linear_step
from kvsim.grid import (
    central_difference,
    navier_matrix,
    neumann_stiffness,
    second_difference,
)
from kvsim.linear_step import (
    LinearSolveReport,
    Product,
    SparseOperator,
    corner_strains,
    heat_matrix,
    heat_rhs_vector,
    heat_stiffness,
    pack_interior,
    solve_spd as cg,
    unpack_interior,
    velocity_load,
    velocity_matrix,
    velocity_rhs,
)

from helpers import (
    bump_state,
    counted,
    double_velocity_operator,
    make_grid,
    random_boundary_zero_vector,
    reference_heat_rhs_vector,
    reference_velocity_rhs,
)

SMALL = [((9,), (1.0,)), ((13, 19), (0.8, 1.5)), ((7, 8, 9), (1.0, 1.2, 0.9))]
SMALL_IDS = ["1d", "anisotropic", "3d"]
SMALL_GRIDS = pytest.mark.parametrize("nodes,lengths", SMALL, ids=SMALL_IDS)
# grids whose one long axis works on its even and odd halves (see
# test_only_long_axes_fold)
FOLDED = [((129, 5), (1.0, 0.3)), ((4, 4, 129), (0.5, 0.7, 1.2))]
SMALL_AND_FOLDED_GRIDS = pytest.mark.parametrize(
    "nodes,lengths", SMALL + FOLDED,
    ids=SMALL_IDS + ["folded-2d", "folded-3d"])


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def _velocity_rhs(grid, dt, v_old, u_old, theta_iter, b, params):
    """One sweep's velocity right-hand side, through ``velocity_load`` and
    ``velocity_rhs``."""
    load = velocity_load(grid, dt, pack_interior(grid, v_old.data),
                         corner_strains(u_old), b, params)
    return velocity_rhs(load, theta_iter, params)


def test_velocity_zero_data_gives_zero_solution(grid2d, params):
    zero_v = VectorField.zeros(grid2d)
    zero_th = ScalarField.constant(grid2d, 0.0)
    op = velocity_matrix(grid2d, 0.01, params.lambda1, params.mu1)
    rhs = _velocity_rhs(grid2d, 0.01, zero_v, zero_v, zero_th, None, params)
    x, report = solve_spd(op, rhs)
    assert np.all(x == 0.0)
    assert report.converged and report.iterations == 0


def test_velocity_matrix_symmetric_bitwise(grid2d, params):
    op = velocity_matrix(grid2d, 0.02, params.lambda1, params.mu1)
    diff = (op.matrix - op.matrix.T).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_velocity_matrix_positive_definite(rng, params):
    grid = make_grid(d=2, n=9)
    op = velocity_matrix(grid, 0.05, params.lambda1, params.mu1)
    for _ in range(100):
        x = rng.standard_normal(op.size)
        assert x @ (op.matrix @ x) > 0.0


@pytest.mark.parametrize("nodes,lengths", [
    ((3,), (1.0,)),
    ((9,), (1.0,)),
    ((3, 7), (1.0, 2.0)),
    ((13, 19), (0.8, 1.5)),
    ((3, 5, 4), (1.0, 2.0, 1.5)),
    ((7, 8, 9), (1.0, 1.2, 0.9)),
])
def test_velocity_matrix_keeps_the_navier_pattern(params, nodes, lengths):
    """Writing the diagonal inserts no entry: the velocity matrix has the
    ``indptr`` and ``indices`` of ``navier_matrix`` on the interior box."""
    grid = Grid(nodes, lengths)
    navier, _ = navier_matrix(grid, params.lambda1, params.mu1,
                              box=slice(1, -1))
    matrix = velocity_matrix(grid, 0.02, params.lambda1, params.mu1).matrix
    for name in ("indptr", "indices"):
        got, want = getattr(matrix, name), getattr(navier, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("nodes,lengths", [
    ((11, 11), (1.0, 1.0)),
    ((7, 8, 9), (1.0, 1.2, 0.9)),
    ((13, 19), (0.8, 1.5)),
], ids=["square", "3d", "anisotropic"])
def test_velocity_matrix_matches_stencil_operator(rng, params, nodes, lengths):
    grid = Grid(nodes, lengths)
    dt = 0.03
    u = random_boundary_zero_vector(grid, rng)
    op = velocity_matrix(grid, dt, params.lambda1, params.mu1)
    matrix_side = op.matrix @ pack_interior(grid, u.data)
    q = lame_operator(u, params.lambda1, params.mu1)
    stencil_side = pack_interior(grid, u.data / dt - q.data)
    assert np.max(np.abs(matrix_side - stencil_side)) <= 1e-12 * (
        1.0 + np.max(np.abs(stencil_side))
    )


@SMALL_GRIDS
def test_heat_stiffness_matches_neumann_laplacian(rng, nodes, lengths):
    """The stiffness is minus the quadrature-weighted Neumann Laplacian."""
    grid = Grid(nodes, lengths)
    theta = ScalarField(grid, rng.standard_normal(grid.shape))
    stencil_side = (grid.quad_weights * laplacian_neumann(theta).data).ravel()
    matrix_side = -(heat_stiffness(grid, 1.0).matrix @ theta.data.ravel())
    assert np.max(np.abs(matrix_side - stencil_side)) <= 1e-12 * np.max(
        np.abs(stencil_side))


@pytest.mark.parametrize("nodes", [(7,), (6, 9), (5, 6, 7)], ids=["1d", "2d", "3d"])
def test_pack_unpack_interior_round_trip(rng, nodes):
    """Packing keeps exactly the interior box, component-major; unpacking
    restores it with boundary values exactly zero."""
    grid = Grid(nodes, (1.0,) * len(nodes))
    data = rng.standard_normal(grid.shape + (grid.d,))
    x = pack_interior(grid, data)
    size = int(np.prod(grid.interior_shape))
    assert x.shape == (grid.d * size,)
    for i in range(grid.d):
        block = x[i * size:(i + 1) * size].reshape(grid.interior_shape)
        assert np.array_equal(block, data[grid.interior + (i,)])
    back = unpack_interior(grid, x).data
    assert np.array_equal(back[grid.interior], data[grid.interior])
    assert np.all(back[grid.boundary_mask] == 0.0)


def test_velocity_one_step_taylor_limit(params):
    """With zero elastic/thermal load and constant b, one backward-Euler
    step gives v = dt*b away from the viscous boundary layer."""
    grid = make_grid(d=2, n=17)
    dt = 1e-3
    b = VectorField(grid, np.broadcast_to(
        np.array([0.4, -0.2]), grid.shape + (2,)
    ).copy())
    zero_v = VectorField.zeros(grid)
    zero_th = ScalarField.constant(grid, 0.0)
    op = velocity_matrix(grid, dt, params.lambda1, params.mu1)
    rhs = _velocity_rhs(grid, dt, zero_v, zero_v, zero_th, b, params)
    x, _ = solve_spd(op, rhs)
    v = unpack_interior(grid, x)
    xg, yg = grid.coords()
    # the viscous layer decays like exp(-dist/sqrt(mu dt)); measure at the core
    far = (xg > 0.35) & (xg < 0.65) & (yg > 0.35) & (yg < 0.65)
    err = np.max(np.abs(v.data[far] - dt * np.array([0.4, -0.2])))
    assert err <= 2e-3 * dt * 0.4


@SMALL_GRIDS
def test_velocity_rhs_matches_the_gradient_reference(rng, params, nodes,
                                                     lengths):
    """Through the load and the strain map's adjoint, the sweep's
    right-hand side is the per-corner gradients' reference (1/dt) v_old +
    b + div[A2 eps(u_old) - theta * (A2 alpha)], to round-off: the step's
    load holds the elasticity of u_old and no sweep reads an iterate
    displacement."""
    grid = Grid(nodes, lengths)
    dt = 0.03
    v_old, u_old, b = (random_boundary_zero_vector(grid, rng)
                       for _ in range(3))
    theta = ScalarField(grid, 1.0 + rng.random(grid.shape))
    got = _velocity_rhs(grid, dt, v_old, u_old, theta, b, params)
    expected = reference_velocity_rhs(grid, dt, v_old, u_old, theta, b, params)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_velocity_usage_errors(grid2d, params):
    with pytest.raises(UsageError):
        velocity_matrix(grid2d, -0.1, params.lambda1, params.mu1)


@pytest.mark.parametrize("dt", [float("inf"), float("nan"), -float("inf")])
def test_systems_refuse_a_step_that_is_not_finite(grid2d, params, dt):
    """A step length of inf or NaN is refused up front, not by a solve
    that breaks down on the preconditioner it gives."""
    with pytest.raises(UsageError, match="dt must be positive and finite"):
        velocity_matrix(grid2d, dt, params.lambda1, params.mu1)
    with pytest.raises(UsageError, match="dt must be positive and finite"):
        heat_matrix(grid2d, dt, ScalarField.constant(grid2d, 1.0), params)
    with pytest.raises(UsageError, match="must be positive and finite"):
        StepperConfig(dt=dt)


# ---------------------------------------------------------------------------
# heat system
# ---------------------------------------------------------------------------

def _at_rest(grid):
    """The packed velocity of a body at rest."""
    return np.zeros(grid.d * int(np.prod(grid.interior_shape)))


def test_heat_constant_fixed_point(grid2d, params):
    theta = ScalarField.constant(grid2d, 1.7)
    rhs, q, frozen = heat_rhs_vector(grid2d, 0.05, theta, theta,
                                     _at_rest(grid2d), None, params)
    assert np.array_equal(q.data, theta.data) and not frozen
    op = heat_matrix(grid2d, 0.05, q, params)
    x, _ = solve_spd(op, rhs, x0=theta.data.ravel())
    assert np.max(np.abs(x - 1.7)) <= 1e-12


def test_heat_uniform_source_update(grid2d, params):
    """One Newton solve from a uniform temperature under a uniform source
    is exact: cv theta (theta - theta_old) = dt g is linear in the update
    at theta_old, and the solve lands on its linearisation."""
    theta = ScalarField.constant(grid2d, 2.0)
    g = ScalarField.constant(grid2d, 0.8)
    dt = 0.05
    rhs, q, _ = heat_rhs_vector(grid2d, dt, theta, theta, _at_rest(grid2d),
                                g, params)
    op = heat_matrix(grid2d, dt, q, params)
    x, _ = solve_spd(op, rhs, x0=theta.data.ravel())
    expected = 2.0 + dt * 0.8 / (params.cv * 2.0)
    assert np.max(np.abs(x - expected)) <= 1e-10


@SMALL_GRIDS
def test_heat_rhs_matches_the_gradient_reference(rng, params, nodes, lengths):
    """Newton's heat right-hand side and coefficient from the strain map's
    strain rate are the per-corner gradients' reference, to round-off: the
    corners at a node sum their weighted coupling and viscous heating."""
    grid = Grid(nodes, lengths)
    v = random_boundary_zero_vector(grid, rng)
    theta_old, theta = (ScalarField(grid, 1.0 + rng.random(grid.shape))
                        for _ in range(2))
    g = ScalarField(grid, rng.standard_normal(grid.shape))
    got, q, frozen = heat_rhs_vector(grid, 0.02, theta_old, theta,
                                     pack_interior(grid, v.data), g, params)
    assert not frozen
    expected, expected_q = reference_heat_rhs_vector(
        grid, 0.02, theta_old, theta, v, g, params)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(q.data - expected_q)) <= (
        1e-13 * np.max(np.abs(expected_q)))


@SMALL_GRIDS
def test_heat_newton_system_is_the_frozen_one_at_its_fixed_point(
        rng, params, nodes, lengths):
    """At theta_it = theta both heat systems evaluate the residual of the
    heat equation: (cv/dt) theta (theta - theta_old) + theta (A2 alpha):eps
    - k Lap theta - (A1 eps):eps - g, weighted.  So the system that
    ``heat_rhs_vector`` returns leaves that residual at any theta, whether
    it is Newton's, with coefficient q, or the frozen one, with
    coefficient theta where q is not positive everywhere: both share the
    heat equation's fixed point."""
    grid = Grid(nodes, lengths)
    v = random_boundary_zero_vector(grid, rng)
    theta = ScalarField(grid, 1.0 + rng.random(grid.shape))
    x = theta.data.ravel()
    dt = 0.02
    mass = grid.quad_weights.ravel() * (params.cv / dt)
    stiffness = heat_stiffness(grid, params.k).matrix
    # theta_old below theta keeps q positive; 2 above it makes q negative
    for shift, fell_back in ((-0.5, False), (2.0, True)):
        theta_old = ScalarField(grid, theta.data + shift)
        rhs, coefficient, frozen = heat_rhs_vector(
            grid, dt, theta_old, theta, pack_interior(grid, v.data), None,
            params)
        assert frozen == fell_back
        assert (coefficient is theta) == fell_back
        residual = rhs - heat_matrix(grid, dt, coefficient, params).matrix @ x
        newton_rhs, q = reference_heat_rhs_vector(grid, dt, theta_old, theta,
                                                  v, None, params)
        expected = newton_rhs - mass * q.ravel() * x - stiffness @ x
        assert np.max(np.abs(residual - expected)) <= 1e-13 * np.max(
            np.abs(rhs))


def test_heat_matrix_symmetric_and_positive(rng, grid2d, params):
    theta = ScalarField(grid2d, 1.0 + 0.3 * rng.random(grid2d.shape))
    op = heat_matrix(grid2d, 0.02, theta, params)
    diff = (op.matrix - op.matrix.T).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0
    for _ in range(100):
        x = rng.standard_normal(op.size)
        assert x @ (op.matrix @ x) > 0.0


def test_heat_matrix_row_sums_are_mass_diagonal(rng, grid2d, params):
    """The Neumann block contributes exactly zero row sums."""
    theta = ScalarField(grid2d, 1.0 + 0.3 * rng.random(grid2d.shape))
    dt = 0.02
    op = heat_matrix(grid2d, dt, theta, params)
    row_sums = np.asarray(op.matrix @ np.ones(op.size))
    expected = grid2d.quad_weights.ravel() * (params.cv / dt) * theta.data.ravel()
    scale = np.max(np.abs(op.matrix.diagonal()))
    assert np.max(np.abs(row_sums - expected)) <= 1e-12 * scale


def test_heat_matrix_degenerate_coefficient_rejected(grid2d, params):
    theta = ScalarField.constant(grid2d, 1.0)
    theta.data[3, 3] = 0.0
    with pytest.raises(DegeneracyError):
        heat_matrix(grid2d, 0.02, theta, params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heat_matrix_refuses_a_coefficient_that_is_not_finite(params, bad):
    """A NaN or infinite coefficient raises DomainError, not the
    DegeneracyError of a coefficient that is not positive, and leaves the
    stiffness's shared diagonal as it was.  (It used to be written there,
    and CG then failed with "the preconditioner is not positive
    definite".)"""
    grid = make_grid(d=2, n=9)
    stiffness = heat_stiffness(grid, params.k)
    before = stiffness.matrix.data.copy()
    theta = ScalarField.constant(grid, 1.0)
    theta.data[4, 4] = bad
    with pytest.raises(DomainError, match="finite") as excinfo:
        heat_matrix(grid, 0.02, theta, params, stiffness)
    assert not isinstance(excinfo.value, DegeneracyError)
    assert np.array_equal(stiffness.matrix.data, before)


# ---------------------------------------------------------------------------
# preconditioners in per-axis eigenbases
# ---------------------------------------------------------------------------

def _axis_operator(kind, n):
    """The float64 basis of ``kind`` on ``n`` nodes of a unit axis, built
    past the cache, with a dense reference eigenbasis R (columns in the
    basis's mode order, signs matched) and the coupled matrix C (None for
    the Neumann basis)."""
    h = 1.0 / (n - 1)
    if kind == "dirichlet":
        basis = linear_step._dirichlet_eigen.__wrapped__(n, h, np.float64)
        inner = slice(1, -1)
        operator = -linear_step._dense(second_difference(n, h))[inner, inner]
        central = linear_step._dense(central_difference(n, h))[inner, inner]
        values, vectors = np.linalg.eigh(operator)
    else:
        weights = Grid((n,), (1.0,)).axis_weights[0]
        basis = linear_step._neumann_eigen.__wrapped__(h, tuple(weights))
        central = None
        values, vectors = scipy.linalg.eigh(
            linear_step._dense(neumann_stiffness(n, h)), np.diag(weights))
    order = np.argsort(basis.values, kind="stable")
    assert np.allclose(basis.values[order], values, rtol=1e-12, atol=1e-9)
    reference = np.empty_like(vectors)
    reference[:, order] = vectors
    columns = basis.backward(np.eye(len(values)), 0)
    reference *= np.sign(np.sum(columns * reference, axis=0))
    return basis, reference, central


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "dense"])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 129, 130])
def test_axis_basis_products_match_the_dense_eigenbasis(
        monkeypatch, rng, fold, kind, n):
    """V^T, V and C^ = V^T C V along each axis of an array, folded (the
    fold forced on every axis through ``_FOLD_MIN``) or dense, equal the
    products of a dense float64 eigenbasis to round-off, on odd and even
    lengths."""
    monkeypatch.setattr(linear_step, "_FOLD_MIN", 1 if fold else 10**9)
    basis, ref, central = _axis_operator(kind, n)
    m = len(ref)
    assert basis.folded == fold
    for shape, axis in (((m, 3), 0), ((2, m), 1), ((2, m, 3), 1)):
        y = rng.standard_normal(shape)
        lanes = np.moveaxis(y, axis, 0).reshape(m, -1)

        def check(got, want):
            got = np.moveaxis(got, axis, 0).reshape(m, -1)
            assert got.dtype == np.float64
            assert (np.linalg.norm(got - want)
                    <= 1e-11 * np.linalg.norm(want))

        check(basis.forward(y, axis), ref.T @ lanes)
        check(basis.backward(y, axis), ref @ lanes)
        if central is not None:
            check(basis.coupled(y, axis), ref.T @ central @ ref @ lanes)


@pytest.mark.parametrize("n", [5, 8, 129, 130])
def test_folded_couplings_change_parity(monkeypatch, n):
    """In the folded basis, modes evens first, C^ = V^T C V is block
    anti-diagonal: the central difference maps even vectors to odd ones
    and odd to even, so its same-parity blocks are zero to round-off."""
    monkeypatch.setattr(linear_step, "_FOLD_MIN", 1)
    basis, _, central = _axis_operator("dirichlet", n)
    vectors = basis.backward(np.eye(n - 2), 0)
    coupling = vectors.T @ central @ vectors
    evens = basis.evens
    scale = np.linalg.norm(central)
    assert np.max(np.abs(coupling[:evens, :evens])) <= 1e-13 * scale
    assert np.max(np.abs(coupling[evens:, evens:])) <= 1e-13 * scale
    assert np.max(np.abs(coupling[:evens, evens:])) > 0.1 * scale / n


def test_only_long_axes_fold(params):
    """An axis folds from ``_FOLD_MIN`` modes on (n - 2 for the velocity's
    interior nodes, n for the heat's): the long axis of the folded test
    grids does, for both preconditioners, and their short axes and every
    axis of the shipped 33^2 and 17^3 grids keep the dense products."""
    fold = linear_step._FOLD_MIN
    for nodes, lengths in FOLDED + [((33, 33), (1.0, 1.0)),
                                    ((17, 17, 17), (1.0, 1.0, 1.0))]:
        grid = Grid(nodes, lengths)
        assert [linear_step._dirichlet_eigen(n, h, np.float32).folded
                for n, h in zip(grid.n, grid.h)] == [
                    n - 2 >= fold for n in nodes]
        assert [b.folded for b in heat_stiffness(grid, params.k).bases] == [
            n >= fold for n in nodes]
    assert 33 < fold <= 127


def _separable_inverse(bases, divisor, r):
    """V diag(1 / divisor) V^T r in float64, for V the Kronecker product
    of ``bases``, one per axis of ``divisor``: the arithmetic of a
    preconditioner that inverts the separable part of the heat matrix
    directly, with no component axis."""
    y = linear_step._in_basis(bases, r.reshape(divisor.shape))
    y *= 1.0 / divisor
    return linear_step._in_basis(bases, y, back=True).ravel()


@SMALL_AND_FOLDED_GRIDS
def test_heat_preconditioner_exact_for_uniform_temperature(rng, params, nodes, lengths):
    """With a uniform frozen temperature the preconditioner is the inverse of
    the heat matrix, so CG stops after one iteration.  It is the block
    Gauss-Seidel sweep of one component, which gives the bits of
    V diag(1 / divisor) V^T, divisor the mean mass plus the stiffness's
    eigenvalues, whatever the coefficient."""
    grid = Grid(nodes, lengths)
    stiffness = heat_stiffness(grid, params.k)
    op = heat_matrix(grid, 0.02, ScalarField.constant(grid, 1.3), params,
                     stiffness)
    rhs = rng.standard_normal(op.size)
    z = op.precondition(rhs)
    assert np.linalg.norm(op.matrix @ z - rhs) <= 1e-13 * np.linalg.norm(rhs)
    _, report = solve_spd(op, rhs)
    assert report.iterations == 1
    for coefficient in (np.full(grid.shape, 1.3),
                        rng.uniform(0.5, 2.0, grid.shape)):
        op = heat_matrix(grid, 0.02, ScalarField(grid, coefficient), params,
                         stiffness)
        divisor = ((params.cv / 0.02) * float(coefficient.mean())
                   + stiffness.eigenvalues)
        want = _separable_inverse(stiffness.bases, divisor, rhs)
        assert op.precondition(rhs).tobytes() == want.tobytes()


def _gauss_seidel_matrix(matrix, d):
    """P = (D + L) D^-1 (D + U) in double, for D, L and U the diagonal,
    strictly lower and strictly upper component blocks of ``matrix``."""
    m = matrix.shape[0] // d
    blocks = [[matrix[i * m:(i + 1) * m, j * m:(j + 1) * m].toarray()
               for j in range(d)] for i in range(d)]
    zero = np.zeros((m, m))
    lower = np.block([[blocks[i][j] if j <= i else zero for j in range(d)]
                      for i in range(d)])
    upper = np.block([[blocks[i][j] if j >= i else zero for j in range(d)]
                      for i in range(d)])
    diagonal = sp.block_diag([blocks[i][i] for i in range(d)]).toarray()
    return lower @ np.linalg.solve(diagonal, upper)


@SMALL_AND_FOLDED_GRIDS
def test_velocity_preconditioner_inverts_the_block_gauss_seidel_sweep(
        rng, params, nodes, lengths):
    """The velocity preconditioner is the symmetric block Gauss-Seidel
    sweep over the components: its float64 twin inverts
    P = (D + L) D^-1 (D + U), built in double from the matrix's sparse
    blocks, to double round-off.  The operator applies it in single
    precision and returns float64 within float32 round-off of that
    inverse."""
    grid = Grid(nodes, lengths)
    dt, lam, mu = 0.03, params.lambda1, 0.7 * params.mu1
    op = velocity_matrix(grid, dt, lam, mu)
    x = rng.standard_normal(op.size)
    r = _gauss_seidel_matrix(op.matrix, grid.d) @ x
    inverse = double_velocity_operator(grid, dt, lam, mu).precondition(r)
    assert np.linalg.norm(inverse - x) <= 1e-13 * np.linalg.norm(x)
    back = op.precondition(r)
    assert back.dtype == np.float64
    assert np.linalg.norm(back - inverse) <= 1e-5 * np.linalg.norm(inverse)


@SMALL_GRIDS
def test_velocity_preconditioner_is_symmetric_and_positive(
        rng, params, nodes, lengths):
    """Applied in single precision, the velocity preconditioner is a
    symmetric matrix to float32 round-off, and positive on random
    vectors."""
    grid = Grid(nodes, lengths)
    op = velocity_matrix(grid, 0.03, 4.0 * params.lambda1, 0.7 * params.mu1)
    dense = np.column_stack([op.precondition(e) for e in np.eye(op.size)])
    assert (np.linalg.norm(dense - dense.T)
            <= 1e-6 * np.linalg.norm(dense))
    x = rng.standard_normal((20, op.size))
    assert np.all(np.einsum("ki,ki->k", x, [op.precondition(v) for v in x])
                  > 0.0)


def _digests_at_one_and_two_threads(build):
    """The sha256 of one preconditioner apply on a random residual, in a
    subprocess with one and with two OpenBLAS threads, for ``build`` an
    expression of the operator in terms of ``linear_step``'s names."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import hashlib, numpy as np; "
        "from kvsim import Grid, MaterialParams, ScalarField; "
        "from kvsim.linear_step import *; "
        f"op = {build}; "
        "r = np.random.default_rng(7).standard_normal(op.size); "
        "print(hashlib.sha256(op.precondition(r).tobytes()).hexdigest())"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        digests.append(out.stdout.strip())
    return digests


def test_velocity_preconditioner_bits_do_not_depend_on_blas_threads():
    """The 129^2 velocity preconditioner gives the same bits with one and
    with two OpenBLAS threads: its float32 products are big enough for
    OpenBLAS to thread them."""
    first, second = _digests_at_one_and_two_threads(
        "velocity_matrix(Grid((129, 129), (1.0, 1.0)), 0.02, 1.0, 1.0)")
    assert first == second


def test_heat_preconditioner_bits_do_not_depend_on_blas_threads():
    """The 129^2 heat preconditioner gives the same bits with one and with
    two OpenBLAS threads: its float64 products work on the folded halves
    of both axes.  (Its dense 129 x 129 products, which OpenBLAS threads,
    rounded differently at two threads.)"""
    grid = "Grid((129, 129), (1.0, 1.0))"
    params = ("MaterialParams(lambda1=1.0, mu1=1.0, lambda2=1.0, mu2=1.0, "
              "k=1.0, cv=1.0, alpha=0.1, beta=1.0)")
    first, second = _digests_at_one_and_two_threads(
        f"heat_matrix({grid}, 0.02, ScalarField.constant({grid}, 1.3), "
        f"{params})")
    assert first == second


@pytest.mark.parametrize("nodes", [(33, 33), (65, 65), (129, 129), (17, 17, 17)],
                         ids=["33^2", "65^2", "129^2", "17^3"])
def test_preconditioned_iterations_are_grid_independent(rng, params, nodes):
    """Cold-start solves from a random right-hand side take a bounded number
    of iterations on every grid (Jacobi needed 158 to 1218; the velocity
    preconditioner that dropped the mixed blocks took 19-21 at
    lambda = mu and 37-46 at lambda = 10 mu)."""
    grid = Grid(nodes, (1.0,) * len(nodes))
    for lam, bound in ((params.lambda1, 13), (10.0 * params.mu1, 25)):
        velocity = velocity_matrix(grid, 0.02, lam, params.mu1)
        _, report = solve_spd(velocity, rng.standard_normal(velocity.size))
        assert report.iterations <= bound
    theta = ScalarField(grid, 1.0 + 0.3 * rng.random(grid.shape))
    heat = heat_matrix(grid, 0.02, theta, params)
    _, report = solve_spd(heat, rng.standard_normal(heat.size))
    assert report.iterations <= 8


def test_cg_stagnation_fails_fast(params):
    """dt = 50 on a 17^2 bump: the heat solve's attainable residual
    (about 2.5e-12) is above ``SOLVE_TOL`` = 1e-12.  CG gives up after a
    few re-checks without progress instead of running out ``SOLVE_MAX``."""
    grid = make_grid(d=2, n=17)
    stepper = Stepper(grid, params, StepperConfig(dt=50.0))
    with pytest.raises(NonConvergenceError) as excinfo:
        stepper.step(bump_state(grid))
    report = excinfo.value.report
    assert isinstance(report, LinearSolveReport) and not report.converged
    assert report.iterations <= 50
    assert 1e-12 < report.relative_residual < 1e-10
    assert "attainable relative residual" in str(excinfo.value)


# ---------------------------------------------------------------------------
# conjugate gradients
# ---------------------------------------------------------------------------

def _as_op(matrix):
    """Jacobi-preconditioned operator of a small dense test matrix."""
    matrix = sp.csr_matrix(matrix)
    inv_diag = 1.0 / matrix.diagonal()
    return SparseOperator(matrix=matrix, precondition=lambda r: inv_diag * r)


def test_cg_identity_single_iteration(rng):
    rhs = rng.standard_normal(40)
    x, report = cg(_as_op(np.eye(40)), rhs)
    assert np.allclose(x, rhs, atol=1e-13)
    assert report.iterations == 1


def test_cg_small_poisson_matches_direct():
    # 1-d Poisson on 5 nodes, Dirichlet ends: 3 free unknowns
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    rhs = np.array([0.0, 1.0, 0.0])
    x, report = cg(_as_op(a), rhs)
    assert np.max(np.abs(x - np.linalg.solve(a, rhs))) <= 1e-10
    assert report.converged


def test_cg_random_spd_matches_dense_solve(rng):
    b_mat = rng.standard_normal((50, 50))
    a = b_mat.T @ b_mat + np.eye(50)
    rhs = rng.standard_normal(50)
    x, report = cg(_as_op(a), rhs)
    direct = np.linalg.solve(a, rhs)
    assert np.max(np.abs(x - direct)) <= 1e-8 * (1.0 + np.max(np.abs(direct)))
    assert report.relative_residual <= 1e-12


def test_cg_residual_report_matches_recomputation(rng):
    b_mat = rng.standard_normal((30, 30))
    a = b_mat.T @ b_mat + np.eye(30)
    rhs = rng.standard_normal(30)
    x, report = cg(_as_op(a), rhs)
    recomputed = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
    assert abs(report.relative_residual - recomputed) <= 1e-14
    assert np.all(np.isfinite(x))


BREAKDOWNS = pytest.mark.parametrize("op,rhs", [
    (_as_op(np.diag([1.0, -1.0])), [1.0, 1.0]),
    (SparseOperator(sp.csr_matrix(np.diag([1e300, 1e300])), lambda r: r),
     [1e10, 1e10]),
    (SparseOperator(sp.identity(2, format="csr"),
                    lambda r: r * np.array([1.0, -1.0])), [1.0, 1.0]),
], ids=["indefinite", "overflow", "indefinite_preconditioner"])


@BREAKDOWNS
def test_cg_breakdown_raises_non_convergence(op, rhs):
    """p.Ap <= 0, r.z <= 0 or either not finite is a NonConvergenceError
    carrying the report: diag(1, -1) with rhs (1, 1), and the identity with
    the preconditioner diag(1, -1), used to escape as ZeroDivisionErrors."""
    with pytest.raises(NonConvergenceError, match="broke down") as excinfo:
        cg(op, np.array(rhs))
    report = excinfo.value.report
    assert isinstance(report, LinearSolveReport) and not report.converged
    assert report.iterations == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_cg_rejects_non_finite_rhs(bad):
    """A non-finite right-hand side is reported up front: with inf it used
    to pass the residual test at once, with NaN it burned ``SOLVE_MAX``.  So is
    a non-finite initial guess."""
    rhs = np.array([1.0, bad, 0.0, 2.0])
    with pytest.raises(DomainError):
        cg(_as_op(np.eye(4)), rhs)
    x0 = np.array([0.0, bad, 0.0])
    with pytest.raises(DomainError):
        cg(_as_op(np.diag([1.0, 2.0, 3.0])), np.ones(3), x0=x0)


def test_cg_nonconvergence_raises_with_report(monkeypatch, rng):
    """A solve that has not converged after ``SOLVE_MAX`` iterations fails,
    carrying its report."""
    b_mat = rng.standard_normal((40, 40))
    a = b_mat.T @ b_mat + 1e-8 * np.eye(40)
    rhs = rng.standard_normal(40)
    monkeypatch.setattr(linear_step, "SOLVE_MAX", 3)
    with pytest.raises(NonConvergenceError,
                       match="within 3 iterations") as excinfo:
        cg(_as_op(a), rhs)
    assert excinfo.value.report.iterations == 3
    assert not excinfo.value.report.converged


# ---------------------------------------------------------------------------
# residual reduction
# ---------------------------------------------------------------------------

def _laplacian_op(n=400):
    """Jacobi-preconditioned 1-D Dirichlet Laplacian: CG needs hundreds of
    iterations, and round-off stops it near 1e-13 relative residual."""
    off = -np.ones(n - 1)
    return _as_op(sp.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1]))


def _warm_start(rng, op, rhs, scale=1e-4):
    """A guess near the solution, and its residual norm."""
    exact, _ = cg(op, rhs)
    x0 = exact + scale * rng.standard_normal(op.size)
    return x0, np.linalg.norm(rhs - op.matrix @ x0)


@pytest.mark.parametrize("reduction", [1e-3, 0.5])
def test_cg_reduction_stops_on_the_true_residual_of_its_start(
        monkeypatch, rng, reduction):
    """From a warm start, the solve stops once the true residual is at most
    max(tol ||b||, reduction ||b - A x0||), and not an iteration before.
    A target of reduction * ||b|| would accept this warm start untouched."""
    op = _laplacian_op()
    rhs = rng.standard_normal(op.size)
    x0, start = _warm_start(rng, op, rhs)
    rhs_norm = np.linalg.norm(rhs)
    assert start < reduction * rhs_norm
    x, report = cg(op, rhs, x0=x0, reduction=reduction)
    true = np.linalg.norm(rhs - op.matrix @ x)
    assert report.converged and report.iterations > 0
    assert true <= (1.0 + 1e-12) * max(1e-12 * rhs_norm, reduction * start)
    assert report.relative_residual == pytest.approx(true / rhs_norm,
                                                     rel=1e-12)
    monkeypatch.setattr(linear_step, "SOLVE_MAX", report.iterations - 1)
    with pytest.raises(NonConvergenceError):
        cg(op, rhs, x0=x0, reduction=reduction)


def _cg_systems(rng, params):
    """The systems of the CG tests above, each with its keyword arguments;
    the velocity system from a warm start."""
    b_mat = rng.standard_normal((50, 50))
    grid = make_grid(d=2, n=17)
    velocity = velocity_matrix(grid, 0.02, params.lambda1, params.mu1)
    rhs = rng.standard_normal(velocity.size)
    x0, _ = _warm_start(rng, velocity, rhs, scale=1e-2)
    poisson = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                        [0.0, -1.0, 2.0]])
    return [
        (_as_op(np.eye(40)), rng.standard_normal(40), {}),
        (_as_op(poisson), np.array([0.0, 1.0, 0.0]), {}),
        (_as_op(b_mat.T @ b_mat + np.eye(50)), rng.standard_normal(50), {}),
        (_laplacian_op(), rng.standard_normal(400), {}),
        (velocity, rhs, {"x0": x0}),
    ]


@pytest.mark.parametrize("reduction", [0.0, 1e-300])
def test_cg_reduction_below_tol_changes_nothing(rng, params, reduction):
    """A reduction of 0, or one whose target lies below tol ||b||, gives
    the default solve's iterate and report bit for bit."""
    for op, rhs, kwargs in _cg_systems(rng, params):
        x, report = cg(op, rhs, **kwargs)
        y, other = cg(op, rhs, reduction=reduction, **kwargs)
        assert x.tobytes() == y.tobytes()
        assert other == report


def test_cg_preconditions_once_per_iteration(rng, params):
    """A converged solve whose true-residual re-check holds applies the
    preconditioner once per iteration, never to the residual it stops at,
    and makes one product per iteration besides the start's and the
    re-check's; it returns what the uncounted solve does, bit for bit."""
    for op, rhs, kwargs in _cg_systems(rng, params):
        counts = {"products": 0, "applies": 0}
        x, report = cg(counted(op, counts), rhs, **kwargs)
        assert report.converged and report.iterations > 0
        assert counts == {"products": report.iterations + 2,
                          "applies": report.iterations}
        y, other = cg(op, rhs, **kwargs)
        assert x.tobytes() == y.tobytes() and other == report


def test_cg_start_at_its_target_takes_one_product(rng, params):
    """A start that already meets its target returns after zero iterations
    with the one product that formed its residual, and no preconditioner
    apply: the residual it reports is that of its start.  Given the
    product that the solve which returned its start handed back, it forms
    none; its residual has taken that product's buffer, so it hands none
    on."""
    for op, rhs, kwargs in _cg_systems(rng, params):
        kwargs.pop("x0", None)
        product = Product(op.size)
        x, report = cg(op, rhs, product=product, **kwargs)
        counts = {"products": 0, "applies": 0}
        y, again = cg(counted(op, counts), rhs, x0=x, **kwargs)
        assert counts == {"products": 1, "applies": 0}
        assert again == LinearSolveReport(0, report.relative_residual, True)
        assert y.tobytes() == x.tobytes()
        counts = {"products": 0, "applies": 0}
        z, again = cg(counted(op, counts), rhs, x0=x, product=product,
                      **kwargs)
        assert counts == {"products": 0, "applies": 0}
        assert again == LinearSolveReport(0, report.relative_residual, True)
        assert z.tobytes() == x.tobytes() and product.x is None


def test_cg_takes_the_start_product_that_the_last_solve_handed_back(
        rng, params):
    """A solve given a ``Product`` leaves in it the product of the x it
    returns, bit-equal to ``op.matrix @ x``.  A solve from that x takes it
    as its start's product: it forms iterations + 1 products, not
    iterations + 2, and returns what a solve without it does, bit for
    bit.  A solve from another array, even an equal copy, forms its own
    start product."""
    for op, rhs, kwargs in _cg_systems(rng, params):
        product = Product(op.size)
        x, _ = cg(op, rhs, product=product, **kwargs)
        assert product.x is x
        assert product.value.tobytes() == (op.matrix @ x).tobytes()
        rhs = rhs + 1e-3 * rng.standard_normal(op.size)
        counts = {"products": 0, "applies": 0}
        y, report = cg(counted(op, counts), rhs, x0=x, product=product)
        assert report.converged and report.iterations > 0
        assert counts == {"products": report.iterations + 1,
                          "applies": report.iterations}
        z, other = cg(op, rhs, x0=x)
        assert y.tobytes() == z.tobytes() and other == report
        assert product.x is y
        assert product.value.tobytes() == (op.matrix @ y).tobytes()
        counts = {"products": 0, "applies": 0}
        _, report = cg(counted(op, counts), rhs, x0=y.copy(),
                       product=product)
        assert counts["products"] == report.iterations + 1 + bool(
            report.iterations)


@BREAKDOWNS
def test_cg_that_raises_leaves_its_product_empty(op, rhs):
    """A solve that raises hands no product back, so none is taken from
    the x it started at."""
    product = Product(op.size)
    product.x = np.zeros(op.size)
    product.value[:] = 0.0
    with pytest.raises(NonConvergenceError):
        cg(op, np.array(rhs), x0=product.x, product=product)
    assert product.x is None


@pytest.mark.parametrize("reduction", [-0.1, 1.0, 2.0, np.nan])
def test_cg_rejects_bad_reduction(reduction):
    with pytest.raises(UsageError):
        cg(_as_op(np.eye(3)), np.ones(3), reduction=reduction)


@BREAKDOWNS
def test_cg_reduction_keeps_the_breakdown_checks(op, rhs):
    with pytest.raises(NonConvergenceError, match="broke down") as excinfo:
        cg(op, np.array(rhs), reduction=0.5)
    assert excinfo.value.report.iterations == 0


def test_cg_reduction_keeps_the_stagnation_check(monkeypatch, rng):
    """A target below what round-off lets the system attain stagnates as
    the tolerance does: from a start at about 3e-13 relative residual, a
    reduction of 1e-3 asks for about 3e-16 once ``SOLVE_TOL`` lies below
    it."""
    op = _laplacian_op()
    rhs = rng.standard_normal(op.size)
    x0, _ = cg(op, rhs)
    monkeypatch.setattr(linear_step, "SOLVE_TOL", 1e-16)
    with pytest.raises(NonConvergenceError,
                       match="attainable relative residual") as excinfo:
        cg(op, rhs, x0=x0, reduction=1e-3)
    report = excinfo.value.report
    assert not report.converged and report.iterations < 20000
    assert report.relative_residual > 1e-14


def test_cg_start_norm_is_the_einsum_norm(monkeypatch, rng):
    """The starting residual's norm is ``_norm``, numpy's own summation
    order, like every norm of the solve: a BLAS norm would make the
    stopping point depend on the BLAS thread count."""
    op = _laplacian_op()
    rhs = rng.standard_normal(op.size)
    x0, _ = _warm_start(rng, op, rhs)
    seen = []
    norm = linear_step._norm

    def recorded(a):
        seen.append(a.copy())
        return norm(a)

    def blas_norm(*args, **kwargs):
        raise AssertionError("solve_spd called np.linalg.norm")

    monkeypatch.setattr(linear_step, "_norm", recorded)
    monkeypatch.setattr(np.linalg, "norm", blas_norm)
    cg(op, rhs, x0=x0, reduction=1e-3)
    assert seen[0].tobytes() == rhs.tobytes()
    assert seen[1].tobytes() == (rhs - op.matrix @ x0).tobytes()
