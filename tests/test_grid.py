"""Grid containers, difference operators, and quadrature."""

import numpy as np
import pytest
import scipy.sparse as sp

from kvsim import (
    Grid,
    ScalarField,
    UsageError,
    VectorField,
    integrate,
    lame_operator,
    laplacian_neumann,
    lp_norm,
    sym_gradient,
    tensor_divergence,
)
from kvsim.constitutive import (
    COMPONENT_OF,
    DDOT_WEIGHTS,
    apply_isotropic,
    matrix_from_sym6,
)
from kvsim.grid import (
    SymTensorField,
    boundary_max_abs,
    central_difference,
    first_difference,
    l2_norm,
    navier_matrix,
    neumann_matrix,
    neumann_stiffness,
    second_difference,
    squared_gradient,
    strain_contraction,
    strain_density,
    strain_matrix,
    strain_slots,
    strain_stress,
    stress_divergence,
    tensor_stress,
)
from kvsim.linear_step import heat_stiffness, pack_interior

from helpers import (
    corner_density,
    corner_force,
    corner_gradients,
    corner_strain,
    corner_sum,
    coupling_matrix,
    default_params,
    make_grid,
    random_boundary_zero_vector,
)


# ---------------------------------------------------------------------------
# grid and field plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes,lengths", [
    ((2, 5), (1.0, 1.0)),
    ((5, 5), (1.0, -1.0)),
    ((5, 5, 5, 5), (1.0,) * 4),
    ((5,), (1.0, 1.0)),
    ((5, 5), (1.0, float("nan"))),
    ((5,), (float("inf"),)),
])
def test_grid_validation(nodes, lengths):
    with pytest.raises(UsageError):
        Grid(nodes, lengths)


def test_masks_partition_nodes(grid2d):
    assert np.all(grid2d.boundary_mask ^ grid2d.interior_mask)
    assert grid2d.interior_shape == (17 - 2, 17 - 2)
    assert np.all(grid2d.interior_mask[grid2d.interior])
    assert np.count_nonzero(grid2d.interior_mask) == (17 - 2) ** 2


def test_quad_weights_are_outer_product_of_axis_weights():
    grid = Grid((5, 6, 7), (1.0, 2.0, 0.5))
    wx, wy, wz = grid.axis_weights
    assert [float(np.sum(w)) for w in grid.axis_weights] == pytest.approx(
        [1.0, 2.0, 0.5], rel=1e-14
    )
    assert np.array_equal(
        grid.quad_weights, wx[:, None, None] * wy[None, :, None] * wz
    )


def test_field_shape_validation(grid2d):
    with pytest.raises(UsageError):
        ScalarField(grid2d, np.zeros((3, 3)))
    with pytest.raises(UsageError):
        VectorField(grid2d, np.zeros(grid2d.shape + (3,)))


# ---------------------------------------------------------------------------
# symmetric gradient
# ---------------------------------------------------------------------------

def test_sym_gradient_of_zero(grid2d):
    eps = sym_gradient(VectorField.zeros(grid2d))
    assert np.all(eps.data == 0.0)


def test_sym_gradient_linear_swirl_exact():
    grid = make_grid(d=3, n=5)
    x, y, z = grid.coords()
    u = VectorField(grid, np.stack([y, x, np.zeros_like(x)], axis=-1))
    eps = sym_gradient(u)
    expected = np.zeros(grid.shape + (6,))
    expected[..., COMPONENT_OF[(0, 1)]] = 1.0
    assert np.max(np.abs(eps.data - expected)) <= 1e-13


def test_sym_gradient_second_order():
    errs = []
    for n in (17, 33):
        grid = make_grid(d=2, n=n)
        x, _ = grid.coords()
        u = VectorField(grid, np.stack([np.sin(x), np.zeros_like(x)], axis=-1))
        eps = sym_gradient(u)
        errs.append(np.max(np.abs(eps.data[..., 0] - np.cos(x))))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


# ---------------------------------------------------------------------------
# tensor divergence
# ---------------------------------------------------------------------------

def test_divergence_of_constant_tensor(grid2d):
    data = np.tile(np.array([1.0, 2.0, 0.0, 0.0, 0.0, 3.0]), grid2d.shape + (1,))
    div = tensor_divergence(SymTensorField(grid2d, data))
    interior = grid2d.interior_mask
    assert np.max(np.abs(div.data[interior])) == 0.0


def test_divergence_of_linear_tensor_exact(grid2d):
    x, _ = grid2d.coords()
    data = np.zeros(grid2d.shape + (6,))
    for c in range(3):
        data[..., c] = x  # x1 * identity
    div = tensor_divergence(SymTensorField(grid2d, data))
    assert np.max(np.abs(div.data[..., 0] - 1.0)) <= 1e-13
    assert np.max(np.abs(div.data[..., 1])) <= 1e-13


def test_divergence_second_order():
    errs = []
    for n in (17, 33):
        grid = make_grid(d=2, n=n)
        x, y = grid.coords()
        data = np.zeros(grid.shape + (6,))
        data[..., 0] = np.sin(x) * np.cos(y)
        data[..., 1] = np.cos(x) * np.sin(y)
        data[..., 5] = np.sin(x) * np.sin(y)
        div = tensor_divergence(SymTensorField(grid, data))
        exact_x = np.cos(x) * np.cos(y) + np.sin(x) * np.cos(y)
        exact_y = np.cos(x) * np.sin(y) + np.cos(x) * np.cos(y)
        err = max(
            np.max(np.abs(div.data[..., 0] - exact_x)),
            np.max(np.abs(div.data[..., 1] - exact_y)),
        )
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


# ---------------------------------------------------------------------------
# Neumann Laplacian
# ---------------------------------------------------------------------------

def _sparse(bands):
    """The 1-D factor with the given bands, as a scipy.sparse matrix."""
    sub, main, sup = bands
    return sp.diags([sub[1:], main, sup[:-1]], [-1, 0, 1], format="csr")


def _neumann_by_kronecker(grid, k, axes):
    """k times the weighted Neumann stiffness of ``axes`` by its definition:
    per axis, the Kronecker product of its 1-D stiffness with the diagonal
    trapezoid weights of the other axes, summed with scipy.sparse."""
    terms = []
    for axis in axes:
        factors = [sp.diags(w, format="csr") for w in grid.axis_weights]
        factors[axis] = _sparse(neumann_stiffness(grid.n[axis], grid.h[axis]))
        term = factors[0]
        for factor in factors[1:]:
            term = sp.kron(term, factor, format="csr")
        terms.append(term)
    return (k * sum(terms[1:], terms[0])).tocsr()


_OPERATOR_GRIDS = pytest.mark.parametrize("nodes,lengths", [
    ((9,), (1.0,)),
    ((3, 3), (1.0, 1.0)),
    ((13, 19), (0.8, 1.5)),
    ((5, 6, 7), (1.0, 2.0, 3.0)),
    ((4, 3, 5), (1.0, 1.0, 1.0)),
    # spacings whose products and sums round differently in another order
    ((4, 6, 4), (0.7, 1.5, 2.1)),
], ids=["1d", "3x3", "anisotropic", "3d", "3d-thin", "3d-irregular"])


def _assert_same_csr(matrix, reference):
    assert matrix.has_sorted_indices and reference.has_sorted_indices
    assert np.array_equal(matrix.indptr, reference.indptr)
    assert np.array_equal(matrix.indices, reference.indices)
    assert matrix.data.tobytes() == reference.data.tobytes()


@_OPERATOR_GRIDS
def test_heat_stiffness_is_the_kronecker_definition(nodes, lengths):
    """Written from the bands, the heat stiffness has the CSR arrays of its
    Kronecker definition bit for bit, and its diagonal positions index the
    diagonal entry of every row."""
    grid = Grid(nodes, lengths)
    for k in (1.0, 1.7):
        stiffness = heat_stiffness(grid, k)
        matrix = stiffness.matrix
        _assert_same_csr(matrix, _neumann_by_kronecker(grid, k, range(grid.d)))
        rows = np.repeat(np.arange(grid.num_nodes), np.diff(matrix.indptr))
        assert np.array_equal(stiffness.diagonal,
                              np.flatnonzero(matrix.indices == rows))


@_OPERATOR_GRIDS
def test_neumann_matrix_of_one_axis_is_its_kronecker_term(nodes, lengths):
    """The per-axis matrices that ``laplacian_neumann`` applies are the
    Kronecker terms of the stiffness, bit for bit."""
    grid = Grid(nodes, lengths)
    for axis in range(grid.d):
        matrix, diagonal = neumann_matrix(grid, (axis,))
        _assert_same_csr(matrix, _neumann_by_kronecker(grid, 1.0, (axis,)))
        assert np.array_equal(matrix.indices[diagonal],
                              np.arange(grid.num_nodes))


def test_laplacian_annihilates_constants(grid2d):
    lap = laplacian_neumann(ScalarField.constant(grid2d, 4.2))
    assert np.max(np.abs(lap.data)) == 0.0


def test_laplacian_second_order_on_neumann_profile():
    errs = []
    for n in (17, 33):
        grid = Grid((n, n), (1.0, 1.3))
        x, _ = grid.coords()
        theta = ScalarField(grid, np.cos(np.pi * x / grid.lengths[0]))
        lap = laplacian_neumann(theta)
        exact = -((np.pi / grid.lengths[0]) ** 2) * theta.data
        errs.append(np.max(np.abs(lap.data - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


def test_laplacian_symmetric_under_quadrature(rng, grid2d):
    a = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
    b = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
    lhs = integrate(ScalarField(grid2d, laplacian_neumann(a).data * b.data))
    rhs = integrate(ScalarField(grid2d, a.data * laplacian_neumann(b).data))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_laplacian_flux_conservation(rng, grid2d):
    theta = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
    total = integrate(laplacian_neumann(theta))
    scale = np.max(np.abs(laplacian_neumann(theta).data))
    assert abs(total) <= 1e-12 * (1.0 + scale)


# ---------------------------------------------------------------------------
# displacement operator
# ---------------------------------------------------------------------------

def _navier_by_kronecker(grid, lam, mu, box):
    """The Navier matrix by its definition: a block matrix of Kronecker
    products of the 1-D factors, built with scipy.sparse."""
    def lifted(factor, axis):
        out = sp.identity(1, format="csr")
        for k, (n, h) in enumerate(zip(grid.n, grid.h)):
            f = _sparse(factor(n, h))[box, box] if k == axis else sp.identity(
                len(range(n)[box]))
            out = sp.kron(out, f, format="csr")
        return out

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


@_OPERATOR_GRIDS
@pytest.mark.parametrize("box", [slice(1, -1), slice(None)],
                         ids=["interior", "all-nodes"])
def test_navier_matrix_is_the_kronecker_definition(nodes, lengths, box):
    """Written from the bands of the 1-D factors, the Navier matrix has the
    values of its Kronecker definition, bit for bit, and ascending columns
    in each row.  Its sparsity pattern is the same for every (lam, mu),
    including pairs that zero some blocks.  Its diagonal positions index
    the diagonal entry of every row that stores one: every row of the
    interior box, and all but the rows of the box's corners, which are
    empty, over all nodes."""
    grid = Grid(nodes, lengths)
    first, _ = navier_matrix(grid, 1.0, 1.0, box)
    for lam, mu in ((1.0, 1.0), (0.3, 1.7), (-1.0, 1.0), (1.0, 0.0)):
        q, diagonal = navier_matrix(grid, lam, mu, box)
        assert q.has_sorted_indices
        assert np.array_equal(q.toarray(),
                              _navier_by_kronecker(grid, lam, mu, box).toarray())
        assert np.array_equal(q.indptr, first.indptr)
        assert np.array_equal(q.indices, first.indices)
        rows = np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))
        stored = diagonal >= 0
        assert np.array_equal(diagonal[stored],
                              np.flatnonzero(q.indices == rows))
        assert stored.all() == (box == slice(1, -1))


def test_lame_operator_zero(grid2d):
    out = lame_operator(VectorField.zeros(grid2d), 1.0, 1.0)
    assert np.all(out.data == 0.0)


def test_lame_operator_exact_on_quadratic():
    grid = make_grid(d=3, n=7)
    x, y, z = grid.coords()
    u = VectorField(grid, np.stack([x**2, np.zeros_like(x), np.zeros_like(x)], axis=-1))
    lam, mu = 2.0, 3.0
    out = lame_operator(u, lam, mu, check_boundary=False)
    interior = grid.interior_mask
    assert np.max(np.abs(out.data[interior][:, 0] - (2 * lam + 4 * mu))) <= 1e-12
    assert np.max(np.abs(out.data[interior][:, 1:])) <= 1e-12


def test_lame_operator_requires_boundary_zero(grid2d):
    x, _ = grid2d.coords()
    u = VectorField(grid2d, np.stack([x, x], axis=-1))
    with pytest.raises(UsageError):
        lame_operator(u, 1.0, 1.0)


def test_lame_operator_self_adjoint_and_negative(rng):
    grid = Grid((9, 11), (1.0, 1.3))
    lam, mu = 0.7, 1.1
    u = random_boundary_zero_vector(grid, rng)
    v = random_boundary_zero_vector(grid, rng)
    qu = lame_operator(u, lam, mu)
    qv = lame_operator(v, lam, mu)

    def vdot(a, b):
        return integrate(ScalarField(grid, np.sum(a.data * b.data, axis=-1)))

    lhs, rhs = vdot(qu, v), vdot(u, qv)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    assert vdot(qu, u) <= 0.0


def test_lame_operator_matches_composition_on_quadratics():
    grid = make_grid(d=2, n=9)
    x, y = grid.coords()
    u = VectorField(grid, np.stack([x * y + x**2, y**2 - x * y], axis=-1))
    lam, mu = 1.2, 0.8
    direct = lame_operator(u, lam, mu, check_boundary=False)
    composed = tensor_divergence(SymTensorField(
        grid, apply_isotropic(lam, mu, sym_gradient(u).data)
    ))
    interior = grid.interior_mask
    diff = np.max(np.abs(direct.data[interior] - composed.data[interior]))
    assert diff <= 1e-11 * (1.0 + np.max(np.abs(direct.data)))


def test_lame_operator_matches_composition_second_order(rng):
    # one-sided rows of the composed form touch the first interior cell, so
    # the O(h^2) agreement is measured past that single-cell layer
    errs = []
    for n in (17, 33):
        grid = make_grid(d=2, n=n)
        x, y = grid.coords()
        data = np.stack([
            np.sin(np.pi * x) * np.sin(np.pi * y),
            np.sin(2 * np.pi * x) * np.sin(np.pi * y),
        ], axis=-1)
        u = VectorField(grid, data)
        lam, mu = 1.2, 0.8
        direct = lame_operator(u, lam, mu, check_boundary=False)
        composed = tensor_divergence(SymTensorField(
            grid, apply_isotropic(lam, mu, sym_gradient(u).data)
        ))
        diff = np.abs(direct.data - composed.data)[2:-2, 2:-2]
        errs.append(np.max(diff))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_exact_on_constants_and_linears():
    grid = make_grid(d=2, n=9)
    x, _ = grid.coords()
    assert integrate(ScalarField.constant(grid, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(ScalarField(grid, x)) == pytest.approx(0.5, abs=1e-14)


def test_integrate_second_order_on_quadratic():
    errs = []
    for n in (9, 17):
        grid = make_grid(d=1, n=n)
        (x,) = grid.coords()
        errs.append(abs(integrate(ScalarField(grid, x**2)) - 1.0 / 3.0))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_lp_norm_variants(grid2d):
    f = ScalarField.constant(grid2d, -2.0)
    assert lp_norm(f, np.inf) == 2.0
    assert lp_norm(f, 2) == pytest.approx(2.0, abs=1e-12)
    for p in (0.5, np.nan):
        with pytest.raises(UsageError):
            lp_norm(f, p)


def test_l2_norm_sums_vector_components(grid2d):
    data = np.zeros(grid2d.shape + (2,))
    data[..., 0] = 3.0
    data[..., 1] = -4.0
    assert l2_norm(grid2d, data) == pytest.approx(5.0, rel=1e-14)
    assert l2_norm(grid2d, data[..., 1]) == pytest.approx(4.0, rel=1e-14)


def test_boundary_max_abs(grid2d):
    data = np.zeros(grid2d.shape + (2,))
    data[0, 3, 1] = -7.0
    assert boundary_max_abs(VectorField(grid2d, data)) == 7.0


# ---------------------------------------------------------------------------
# the strain map and its adjoint
# ---------------------------------------------------------------------------

def test_first_difference_is_np_gradient(rng):
    """The mean of the corner strain is np.gradient's first difference with
    first-order one-sided end rows."""
    for n in (3, 4, 9):
        f = rng.standard_normal(n)
        sub, main, sup = first_difference(n, 0.3)
        dense = np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expected = np.gradient(f, 0.3, edge_order=1)
        assert np.max(np.abs(dense @ f - expected)) <= 1e-14 * np.max(
            np.abs(expected))
        assert sub[0] == 0.0 and sup[-1] == 0.0


def test_strain_slots_put_the_diagonal_first():
    assert strain_slots(1) == [0]
    assert strain_slots(2) == [0, 1, 5]
    assert strain_slots(3) == [0, 1, 2, 3, 4, 5]


def _one_sided(data, h, axis):
    """The forward and backward differences of ``data`` at every node along
    ``axis``, zero where the node has no such neighbour."""
    diff = np.diff(data, axis=axis) / h
    pad = np.zeros_like(np.take(diff, [0], axis=axis))
    return (np.concatenate([diff, pad], axis=axis),
            np.concatenate([pad, diff], axis=axis))


@_OPERATOR_GRIDS
def test_strain_matrix_is_sym_gradient(rng, nodes, lengths):
    """On boundary-zero fields, the mean rows of the strain map are the
    symmetric gradient of ``np.gradient(..., edge_order=1)`` and the jump
    rows are half the difference of the one-sided differences (zero on the
    end nodes of their axis), to round-off."""
    grid = Grid(nodes, lengths)
    d, slots = grid.d, strain_slots(grid.d)
    matrix = strain_matrix(grid)
    assert matrix.has_sorted_indices
    assert strain_matrix(grid) is matrix
    for _ in range(3):
        u = random_boundary_zero_vector(grid, rng).data
        got = (matrix @ pack_interior(grid, u)).reshape(-1, grid.num_nodes)
        grads = [[np.gradient(u[..., i], grid.h[k], axis=k, edge_order=1)
                  for k in range(d)] for i in range(d)]
        expected = []
        for c in slots:
            i, j = min(ij for ij, slot in COMPONENT_OF.items() if slot == c)
            expected.append(0.5 * (grads[i][j] + grads[j][i]))
        for i in range(d):
            for k in range(d):
                forward, backward = _one_sided(u[..., i], grid.h[k], k)
                jump = 0.5 * (forward - backward)
                ends = [slice(None)] * d
                ends[k] = [0, -1]
                jump[tuple(ends)] = 0.0
                expected.append(jump)
        expected = np.stack([e.ravel() for e in expected])
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(
            np.abs(expected))


def _strain_by_kronecker(grid):
    """The strain map by its definition: a block matrix of Kronecker
    products of the 1-D factors over all nodes, built with scipy.sparse,
    with its columns restricted to the interior box."""
    d = grid.d

    def lifted(factor, axis, scale=1.0):
        out = sp.identity(1, format="csr")
        for k, (n, h) in enumerate(zip(grid.n, grid.h)):
            f = _sparse(factor(n, h)) if k == axis else sp.identity(
                n, format="csr")
            out = sp.kron(out, f[:, 1:-1], format="csr")
        return scale * out

    rows = []
    for c in strain_slots(d):
        i, j = min(ij for ij, slot in COMPONENT_OF.items() if slot == c)
        row = [None] * d
        if i == j:
            row[i] = lifted(first_difference, i)
        else:
            row[i] = lifted(first_difference, j, 0.5)
            row[j] = lifted(first_difference, i, 0.5)
        rows.append(row)
    for i in range(d):
        for k in range(d):
            row = [None] * d
            row[i] = lifted(second_difference, k, 0.5 * grid.h[k])
            rows.append(row)
    return sp.bmat(rows, format="csr")


@_OPERATOR_GRIDS
def test_strain_matrix_is_the_kronecker_definition(nodes, lengths):
    """Written from the bands of the 1-D factors, the strain map has the
    CSR arrays of its Kronecker definition bit for bit."""
    grid = Grid(nodes, lengths)
    _assert_same_csr(strain_matrix(grid), _strain_by_kronecker(grid))


@_OPERATOR_GRIDS
def test_divergence_matrix_is_tensor_divergence_inside(rng, nodes, lengths):
    """The strain map's adjoint over the mean blocks, ``stress_divergence``
    of the components ``strain_slots`` names times ``DDOT_WEIGHTS``, gives
    the interior rows of ``tensor_divergence`` of any such field, to
    round-off."""
    grid = Grid(nodes, lengths)
    slots = strain_slots(grid.d)
    for _ in range(3):
        data = np.zeros(grid.shape + (6,))
        data[..., slots] = rng.standard_normal(grid.shape + (len(slots),))
        got = stress_divergence(grid, np.moveaxis(
            DDOT_WEIGHTS[slots] * data[..., slots], -1, 0))
        expected = pack_interior(
            grid, tensor_divergence(SymTensorField(grid, data)).data)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(
            np.abs(expected))


@_OPERATOR_GRIDS
def test_stress_divergence_divides_by_the_shared_interior_weights(
        rng, nodes, lengths):
    """``grid.interior_weights`` are the trapezoid weights of the packed
    unknowns, built once per grid; ``stress_divergence`` of the strain
    rows and of the mean rows is -W^-1 S_k^T (w sigma) with them, bit for
    bit."""
    grid = Grid(nodes, lengths)
    weights = pack_interior(grid, np.repeat(
        grid.quad_weights[..., None], grid.d, axis=-1))
    shared = grid.interior_weights
    strain = strain_matrix(grid)
    for rows in (strain.shape[0] // grid.num_nodes, len(strain_slots(grid.d))):
        stress = rng.standard_normal((rows,) + grid.shape)
        expected = (strain[:rows * grid.num_nodes].T
                    @ (stress * grid.quad_weights).ravel()) / -weights
        assert np.array_equal(stress_divergence(grid, stress), expected)
    assert grid.interior_weights is shared
    assert np.array_equal(shared, weights)


# ---------------------------------------------------------------------------
# the corner strain and the compact operators: one summation-by-parts pair
# ---------------------------------------------------------------------------

@_OPERATOR_GRIDS
def test_corner_form_is_the_navier_matrix(rng, nodes, lengths):
    """The per-corner elastic form sum_c w_c (A eps_c):eps_c is
    u^T (-W Q) v by polarisation, for Q the ``navier_matrix`` of (lam, mu)
    on the interior box and W the weights of its nodes."""
    grid = Grid(nodes, lengths)
    weights = np.tile(grid.quad_weights[grid.interior].ravel(), grid.d)
    for lam, mu in ((1.0, 1.0), (0.3, 1.7), (-0.5, 1.0), (2.0, 0.1)):
        q = navier_matrix(grid, lam, mu, box=slice(1, -1))[0]
        for _ in range(3):
            u, v = (random_boundary_zero_vector(grid, rng).data
                    for _ in range(2))
            forms = [np.sum(corner_sum(grid, corner_density(
                corner_strain(grid, a), lam, mu))) for a in (u + v, u - v)]
            got = 0.25 * (forms[0] - forms[1])
            x, y = pack_interior(grid, u), pack_interior(grid, v)
            expected = -x @ (weights * (q @ y))
            scale = np.sqrt(abs(x @ (weights * (q @ x)))
                            * abs(y @ (weights * (q @ y))))
            assert abs(got - expected) <= 1e-14 * scale


@_OPERATOR_GRIDS
def test_corner_form_is_the_neumann_matrix(rng, nodes, lengths):
    """The per-corner form sum_c w_c grad(a)_c . grad(b)_c is
    a^T S b for S the ``neumann_matrix``, by polarisation, and
    ``squared_gradient`` is its density at every node."""
    grid = Grid(nodes, lengths)
    _, _, diff = corner_gradients(grid)
    stiffness = neumann_matrix(grid)[0]
    for _ in range(3):
        a, b = (rng.standard_normal(grid.num_nodes) for _ in range(2))
        squares = [np.sum((diff @ f).reshape(-1, grid.d) ** 2, axis=1)
                   for f in (a, b, a + b, a - b)]
        got = 0.25 * (np.sum(corner_sum(grid, squares[2]))
                      - np.sum(corner_sum(grid, squares[3])))
        scale = np.sqrt((a @ (stiffness @ a)) * (b @ (stiffness @ b)))
        assert abs(got - a @ (stiffness @ b)) <= 1e-14 * scale
        density = squared_gradient(ScalarField(grid, a.reshape(grid.shape)))
        reference = corner_sum(grid, squares[0])
        assert np.max(np.abs(grid.quad_weights * density.data - reference)) \
            <= 1e-14 * np.max(reference)


@_OPERATOR_GRIDS
def test_strain_density_is_the_corner_sum(rng, nodes, lengths):
    """At every node, the mean/jump density of the strain map, times the
    node's weight, is the weighted sum of (A eps):eps over its corners,
    and the rows of ``strain_stress`` contract with the strains to it;
    the contraction with a constant tensor is the corners' mean, and the
    rows of ``tensor_stress`` contract with the strains to it times their
    field."""
    grid = Grid(nodes, lengths)
    tensor = np.array([0.3, -0.7, 1.1, 0.4, -0.2, 0.9])
    full = matrix_from_sym6(tensor)[:grid.d, :grid.d]
    for _ in range(3):
        u = random_boundary_zero_vector(grid, rng).data
        strains = (strain_matrix(grid) @ pack_interior(grid, u)).reshape(
            -1, grid.num_nodes)
        eps = corner_strain(grid, u)
        for lam, mu in ((1.0, 1.0), (0.3, 1.7), (0.0, 0.5)):
            density = strain_density(strains, lam, mu, grid.d)
            got = grid.quad_weights * density.reshape(grid.shape)
            reference = corner_sum(grid, corner_density(eps, lam, mu))
            assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(reference)
            contraction = np.einsum("r...,r...->...", strain_stress(
                strains.copy(), lam, mu, grid.d), strains)
            assert np.max(np.abs(contraction - density)) <= 1e-14 * np.max(
                density)
        contraction = strain_contraction(tensor, strains, grid.d)
        got = grid.quad_weights * contraction.reshape(grid.shape)
        reference = corner_sum(grid, np.sum(full * eps, axis=(1, 2)))
        assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(
            np.abs(reference))
        field = rng.random(grid.num_nodes)
        rows = tensor_stress(tensor, field, grid.d)
        assert rows.shape == (len(strain_slots(grid.d)), grid.num_nodes)
        got = np.einsum("r...,r...->...", rows, strains[:len(rows)])
        assert np.max(np.abs(got - field * contraction)) <= 1e-14 * np.max(
            np.abs(field * contraction))


@_OPERATOR_GRIDS
def test_thermal_coupling_is_the_adjoint_of_the_mean_strain(rng, nodes,
                                                            lengths):
    """For an anisotropic alpha, Div(theta A2 alpha) is the per-corner
    -W^-1 D^T (w theta A2 alpha), and <W v, Div(theta A2 alpha)> =
    -sum w theta (A2 alpha):eps(v); the mean strain of a boundary-zero u
    integrates to zero against A2 alpha."""
    grid = Grid(nodes, lengths)
    params = default_params(lambda2=1.3, mu2=0.6,
                            alpha=[0.1, 0.25, 0.4, 0.05, -0.02, 0.03])
    slots = strain_slots(grid.d)
    coupling = params.thermal_coupling()
    theta = 1.0 + rng.random(grid.shape)
    tension = np.multiply.outer(DDOT_WEIGHTS[slots] * coupling[slots], theta)
    div = stress_divergence(grid, tension)
    nodes_of, _, _ = corner_gradients(grid)
    stress = theta.ravel()[nodes_of, None, None] * coupling_matrix(
        params, grid.d)
    reference = pack_interior(grid, corner_force(grid, stress))
    assert np.max(np.abs(div - reference)) <= 1e-13 * np.max(np.abs(div))
    weights = np.tile(grid.quad_weights[grid.interior].ravel(), grid.d)
    for _ in range(3):
        v = random_boundary_zero_vector(grid, rng).data
        x = pack_interior(grid, v)
        strains = (strain_matrix(grid) @ x).reshape(-1, grid.num_nodes)
        contraction = strain_contraction(coupling, strains, grid.d)
        lhs = x @ (weights * div)
        rhs = -integrate(ScalarField(
            grid, (theta.ravel() * contraction).reshape(grid.shape)))
        scale = np.sum(grid.quad_weights.ravel() * theta.ravel()
                       * np.abs(contraction))
        assert abs(lhs - rhs) <= 1e-14 * scale
        total = integrate(ScalarField(grid, contraction.reshape(grid.shape)))
        assert abs(total) <= 1e-14 * np.sum(
            grid.quad_weights.ravel() * np.abs(contraction))
