"""Assembly and conjugate-gradient solution of the two linear sub-problems."""

import numpy as np
import pytest
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
from kvsim.linear_step import (
    LinearSolveReport,
    SparseOperator,
    heat_matrix,
    heat_rhs_vector,
    heat_stiffness,
    pack_interior,
    solve_spd as cg,
    unpack_interior,
    velocity_matrix,
    velocity_rhs,
)

from helpers import bump_state, make_grid, random_boundary_zero_vector

SMALL_GRIDS = pytest.mark.parametrize("nodes,lengths", [
    ((9,), (1.0,)),
    ((13, 19), (0.8, 1.5)),
    ((7, 8, 9), (1.0, 1.2, 0.9)),
], ids=["1d", "anisotropic", "3d"])


# ---------------------------------------------------------------------------
# velocity system
# ---------------------------------------------------------------------------

def test_velocity_zero_data_gives_zero_solution(grid2d, params):
    zero_v = VectorField.zeros(grid2d)
    zero_th = ScalarField.zeros(grid2d)
    op = velocity_matrix(grid2d, 0.01, params.lambda1, params.mu1)
    rhs = velocity_rhs(grid2d, 0.01, zero_v, zero_v, zero_th, None, params)
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
    zero_th = ScalarField.zeros(grid)
    op = velocity_matrix(grid, dt, params.lambda1, params.mu1)
    rhs = velocity_rhs(grid, dt, zero_v, zero_v, zero_th, b, params)
    x, _ = solve_spd(op, rhs, tol=1e-13)
    v = unpack_interior(grid, x)
    xg, yg = grid.coords()
    # the viscous layer decays like exp(-dist/sqrt(mu dt)); measure at the core
    far = (xg > 0.35) & (xg < 0.65) & (yg > 0.35) & (yg < 0.65)
    err = np.max(np.abs(v.data[far] - dt * np.array([0.4, -0.2])))
    assert err <= 2e-3 * dt * 0.4


def test_velocity_usage_errors(grid2d, params):
    with pytest.raises(UsageError):
        velocity_matrix(grid2d, -0.1, params.lambda1, params.mu1)


# ---------------------------------------------------------------------------
# heat system
# ---------------------------------------------------------------------------

def test_heat_constant_fixed_point(grid2d, params):
    theta = ScalarField.constant(grid2d, 1.7)
    op = heat_matrix(grid2d, 0.05, theta, params)
    rhs = heat_rhs_vector(
        grid2d, 0.05, theta, theta, VectorField.zeros(grid2d), None, params
    )
    x, _ = solve_spd(op, rhs, tol=1e-13, x0=theta.data.ravel())
    assert np.max(np.abs(x - 1.7)) <= 1e-12


def test_heat_uniform_source_update(grid2d, params):
    theta = ScalarField.constant(grid2d, 2.0)
    g = ScalarField.constant(grid2d, 0.8)
    dt = 0.05
    op = heat_matrix(grid2d, dt, theta, params)
    rhs = heat_rhs_vector(
        grid2d, dt, theta, theta, VectorField.zeros(grid2d), g, params
    )
    x, _ = solve_spd(op, rhs, tol=1e-13, x0=theta.data.ravel())
    expected = 2.0 + dt * 0.8 / (params.cv * 2.0)
    assert np.max(np.abs(x - expected)) <= 1e-10


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


# ---------------------------------------------------------------------------
# fast-diagonalization preconditioners
# ---------------------------------------------------------------------------

@SMALL_GRIDS
def test_heat_preconditioner_exact_for_uniform_temperature(rng, params, nodes, lengths):
    """With a uniform frozen temperature the preconditioner is the inverse of
    the heat matrix, so CG stops after one iteration."""
    grid = Grid(nodes, lengths)
    op = heat_matrix(grid, 0.02, ScalarField.constant(grid, 1.3), params)
    rhs = rng.standard_normal(op.size)
    z = op.precondition(rhs)
    assert np.linalg.norm(op.matrix @ z - rhs) <= 1e-13 * np.linalg.norm(rhs)
    _, report = solve_spd(op, rhs)
    assert report.iterations == 1


@SMALL_GRIDS
def test_velocity_preconditioner_inverts_diagonal_blocks(rng, params, nodes, lengths):
    """The velocity preconditioner drops only the mixed (lambda + mu) blocks:
    it inverts the component blocks of the velocity matrix."""
    grid = Grid(nodes, lengths)
    op = velocity_matrix(grid, 0.03, params.lambda1, 0.7 * params.mu1)
    m = int(np.prod(grid.interior_shape))
    blocks = sp.block_diag(
        [op.matrix[i * m:(i + 1) * m, i * m:(i + 1) * m] for i in range(grid.d)],
        format="csr",
    )
    x = rng.standard_normal(op.size)
    back = op.precondition(blocks @ x)
    assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("nodes", [(33, 33), (65, 65), (129, 129), (17, 17, 17)],
                         ids=["33^2", "65^2", "129^2", "17^3"])
def test_preconditioned_iterations_are_grid_independent(rng, params, nodes):
    """Cold-start solves from a random right-hand side take a bounded number
    of iterations on every grid (Jacobi needed 158 to 1218)."""
    grid = Grid(nodes, (1.0,) * len(nodes))
    velocity = velocity_matrix(grid, 0.02, params.lambda1, params.mu1)
    _, report = solve_spd(velocity, rng.standard_normal(velocity.size))
    assert report.iterations <= 25
    theta = ScalarField(grid, 1.0 + 0.3 * rng.random(grid.shape))
    heat = heat_matrix(grid, 0.02, theta, params)
    _, report = solve_spd(heat, rng.standard_normal(heat.size))
    assert report.iterations <= 8


def test_cg_stagnation_fails_fast(params):
    """dt = 50 on a 17^2 bump: the heat solve's attainable residual
    (about 2.5e-12) is above cg_tol = 1e-12.  CG gives up after a few
    re-checks without progress instead of running out cg_max."""
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
    x, report = cg(_as_op(np.eye(40)), rhs, tol=1e-12)
    assert np.allclose(x, rhs, atol=1e-13)
    assert report.iterations == 1


def test_cg_small_poisson_matches_direct():
    # 1-d Poisson on 5 nodes, Dirichlet ends: 3 free unknowns
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    rhs = np.array([0.0, 1.0, 0.0])
    x, report = cg(_as_op(a), rhs, tol=1e-12)
    assert np.max(np.abs(x - np.linalg.solve(a, rhs))) <= 1e-10
    assert report.converged


def test_cg_random_spd_matches_dense_solve(rng):
    b_mat = rng.standard_normal((50, 50))
    a = b_mat.T @ b_mat + np.eye(50)
    rhs = rng.standard_normal(50)
    x, report = cg(_as_op(a), rhs, tol=1e-12, max_iter=2000)
    direct = np.linalg.solve(a, rhs)
    assert np.max(np.abs(x - direct)) <= 1e-8 * (1.0 + np.max(np.abs(direct)))
    assert report.relative_residual <= 1e-12


def test_cg_residual_report_matches_recomputation(rng):
    b_mat = rng.standard_normal((30, 30))
    a = b_mat.T @ b_mat + np.eye(30)
    rhs = rng.standard_normal(30)
    x, report = cg(_as_op(a), rhs, tol=1e-10)
    recomputed = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
    assert abs(report.relative_residual - recomputed) <= 1e-14
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("op,rhs", [
    (_as_op(np.diag([1.0, -1.0])), [1.0, 1.0]),
    (SparseOperator(sp.csr_matrix(np.diag([1e300, 1e300])), lambda r: r),
     [1e10, 1e10]),
], ids=["indefinite", "overflow"])
def test_cg_breakdown_raises_non_convergence(op, rhs):
    """p.Ap <= 0 or not finite is a NonConvergenceError carrying the report:
    diag(1, -1) with rhs (1, 1) used to escape as a ZeroDivisionError."""
    with pytest.raises(NonConvergenceError, match="broke down") as excinfo:
        cg(op, np.array(rhs))
    report = excinfo.value.report
    assert isinstance(report, LinearSolveReport) and not report.converged
    assert report.iterations == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_cg_rejects_non_finite_rhs(bad):
    """A non-finite right-hand side is reported up front: with inf it used
    to pass the residual test at once, with NaN it burned max_iter.  So is
    a non-finite initial guess."""
    rhs = np.array([1.0, bad, 0.0, 2.0])
    with pytest.raises(DomainError):
        cg(_as_op(np.eye(4)), rhs)
    x0 = np.array([0.0, bad, 0.0])
    with pytest.raises(DomainError):
        cg(_as_op(np.diag([1.0, 2.0, 3.0])), np.ones(3), x0=x0)


def test_cg_nonconvergence_raises_with_report(rng):
    b_mat = rng.standard_normal((40, 40))
    a = b_mat.T @ b_mat + 1e-8 * np.eye(40)
    rhs = rng.standard_normal(40)
    with pytest.raises(NonConvergenceError) as excinfo:
        cg(_as_op(a), rhs, tol=1e-14, max_iter=3)
    assert excinfo.value.report.iterations == 3
    assert not excinfo.value.report.converged


def test_cg_rejects_bad_tolerance(rng):
    with pytest.raises(UsageError):
        cg(_as_op(np.eye(3)), np.ones(3), tol=0.0)
