"""Pointwise material model: frozen examples and randomized identities.

The stress and the heat source have no pointwise functions: their examples
are checked on the discrete path that uses them, the velocity system's
forces and Newton's heat system on the corner strains of the strain map.
"""

import numpy as np
import pytest

from kvsim import (
    DomainError,
    UsageError,
    apply_isotropic,
    coercivity_bounds,
    ddot,
    dissipation_potential,
    entropy_density,
    entropy_production,
    free_energy,
    internal_energy,
    Grid,
    ScalarField,
)
from kvsim.constitutive import DDOT_WEIGHTS, IDENTITY_6
from kvsim.grid import (
    navier_matrix,
    strain_contraction,
    strain_density,
    strain_matrix,
)
from kvsim.linear_step import (
    corner_strains,
    heat_rhs_vector,
    pack_interior,
    unpack_interior,
    velocity_load,
    velocity_rhs,
)

from helpers import default_params, random_boundary_zero_vector

I6 = IDENTITY_6
N_SAMPLES = 10_000


def random_tensors(rng, count):
    return rng.standard_normal((count, 6))


# ---------------------------------------------------------------------------
# isotropic tensor application
# ---------------------------------------------------------------------------

def test_isotropic_identity_case():
    assert np.allclose(apply_isotropic(1.0, 1.0, I6), 5.0 * I6)


def test_isotropic_zero_strain():
    assert np.all(apply_isotropic(3.7, 0.4, np.zeros(6)) == 0.0)


def test_isotropic_traceless_kills_lambda():
    eps = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(apply_isotropic(2.0, 1.0, eps), 2.0 * eps)


def test_isotropic_symmetry_identity(rng):
    lam, mu = 0.8, 1.3
    eps = random_tensors(rng, N_SAMPLES)
    zeta = random_tensors(rng, N_SAMPLES)
    lhs = ddot(apply_isotropic(lam, mu, eps), zeta)
    rhs = ddot(eps, apply_isotropic(lam, mu, zeta))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs) + 1.0)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (0.0, 1.0), (-0.5, 1.0), (2.0, 0.7)])
def test_coercivity_sandwich(rng, lam, mu):
    bounds = coercivity_bounds(lam, mu)
    eps = random_tensors(rng, N_SAMPLES)
    norm_sq = ddot(eps, eps)
    quad = ddot(apply_isotropic(lam, mu, eps), eps)
    slack = 1e-12 * norm_sq
    assert np.all(quad >= bounds.a_star * norm_sq - slack)
    assert np.all(quad <= bounds.a_sup * norm_sq + slack)


def test_coercivity_bounds_values():
    assert (coercivity_bounds(1.0, 1.0).a_star,
            coercivity_bounds(1.0, 1.0).a_sup) == (2.0, 5.0)
    # lam = 0 makes both candidates coincide: min = max = 2*mu
    assert (coercivity_bounds(0.0, 1.0).a_star,
            coercivity_bounds(0.0, 1.0).a_sup) == (2.0, 2.0)
    # boundary of the admissible range is still admissible
    assert (coercivity_bounds(-0.5, 1.0).a_star,
            coercivity_bounds(-0.5, 1.0).a_sup) == (0.5, 2.0)


def test_coercivity_bounds_rejects_inadmissible():
    with pytest.raises(UsageError):
        coercivity_bounds(-1.0, 1.0)


# ---------------------------------------------------------------------------
# stress, on the discrete path: the velocity system's forces
# ---------------------------------------------------------------------------

def _linear_velocity(grid):
    """The packed field x - 1/2 (boundary values zero) and the flat index of
    the centre node: there every corner strain is the identity, so the
    corner averages take the pointwise values at eps = I."""
    x = np.stack(grid.coords(), axis=-1) - 0.5
    centre = np.ravel_multi_index(tuple(n // 2 for n in grid.n), grid.shape)
    return pack_interior(grid, x), centre


def _centre_strains(grid):
    x, centre = _linear_velocity(grid)
    strains = (strain_matrix(grid) @ x).reshape(-1, grid.num_nodes)
    return strains[:, centre], centre


def _forces(grid, params, u, v, theta):
    """Q1 v + Q2 u - Div(theta A2 alpha): the force of the stress
    A1 eps(v) + A2 (eps(u) - theta alpha) on the packed interior nodes,
    with Q2 u - Div(theta A2 alpha) the velocity right-hand side of a
    step of dt 1 from rest at the displacement u."""
    q1 = navier_matrix(grid, params.lambda1, params.mu1, box=slice(1, -1))
    load = velocity_load(grid, 1.0, np.zeros_like(u),
                         corner_strains(unpack_interior(grid, u)), None,
                         params)
    return q1 @ v + velocity_rhs(load, theta, params)


def test_stress_zero():
    """At rest with a uniform temperature, the stress is uniform and the
    velocity system feels no force."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    p = default_params()
    zero = np.zeros(grid.d * int(np.prod(grid.interior_shape)))
    force = _forces(grid, p, zero, zero, ScalarField.constant(grid, 2.0))
    assert np.max(np.abs(force)) <= 1e-12


def test_stress_elastic_only():
    """The strain eps = I of a linear displacement carries the elastic
    stress A2 I = 5 I, whose work density (A2 I):I is 15 at a node the
    linear field surrounds, and whose uniform stress exerts no force
    there."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    p = default_params()
    strains, centre = _centre_strains(grid)
    assert np.allclose(strains, np.concatenate([I6, np.zeros(9)]),
                       rtol=0.0, atol=1e-14)
    assert strain_density(strains, p.lambda2, p.mu2, 3) == pytest.approx(15.0)
    u, _ = _linear_velocity(grid)
    zero = np.zeros_like(u)
    force = _forces(grid, p, u, zero, ScalarField.constant(grid, 1.0))
    node = list(np.ndindex(grid.interior_shape)).index(
        tuple(n // 2 - 1 for n in grid.n))
    m = int(np.prod(grid.interior_shape))
    assert np.max(np.abs(force[node::m])) <= 1e-12


def test_stress_thermal_only():
    """With alpha = 1 the thermal stress is -theta A2 alpha = -5 theta I,
    so a temperature rising along x pushes every interior node back with
    the force -5 d(theta)/dx along x and none across."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    p = default_params(alpha=1.0)
    x, _, _ = grid.coords()
    zero = np.zeros(grid.d * int(np.prod(grid.interior_shape)))
    force = _forces(grid, p, zero, zero, ScalarField(grid, 2.0 + 0.5 * x))
    m = int(np.prod(grid.interior_shape))
    assert np.allclose(force[:m], -2.5, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(force[m:])) <= 1e-12


def test_stress_splitting(rng):
    """The forces split as the stress does, S = df/deps + A1 eps_t: with
    the corner strains of the strain map, W (Q2 u - Div(theta A2 alpha))
    is minus the u-gradient of the discrete free energy
    sum w [(A2 eps):eps / 2 - theta (A2 alpha):eps], and W Q1 v minus the
    v-gradient of sum w (A1 eps_t):eps_t / 2.  Both forms are quadratic,
    so central differences match to round-off."""
    grid = Grid((7, 8, 9), (1.0, 1.2, 0.9))
    p = default_params(alpha=0.07, lambda1=0.6, mu1=1.3, lambda2=1.4, mu2=0.9)
    strain = strain_matrix(grid)
    w = grid.quad_weights.ravel()
    weights = np.tile(grid.quad_weights[grid.interior].ravel(), grid.d)
    theta = ScalarField(grid, rng.uniform(0.2, 3.0, grid.shape))

    def strains(x):
        return (strain @ x).reshape(-1, grid.num_nodes)

    def free_energy(x):
        e = strains(x)
        return np.sum(w * (0.5 * strain_density(e, p.lambda2, p.mu2, 3)
                           - theta.data.ravel() * strain_contraction(
                               p.thermal_coupling(), e, 3)))

    def viscous_potential(x):
        return np.sum(w * 0.5 * strain_density(strains(x), p.lambda1,
                                               p.mu1, 3))

    zero = np.zeros(strain.shape[1])
    h = 1e-2
    for _ in range(5):
        u, v, z = (pack_interior(grid, random_boundary_zero_vector(
            grid, rng).data) for _ in range(3))
        for potential, force in (
                (free_energy, _forces(grid, p, u, zero, theta)),
                (viscous_potential, _forces(grid, p, zero, v,
                                            ScalarField.constant(grid, 0.0)))):
            at = u if potential is free_energy else v
            slope = (potential(at + h * z) - potential(at - h * z)) / (2 * h)
            expected = -z @ (weights * force)
            assert abs(slope - expected) <= 1e-9 * (1.0 + abs(expected))


# ---------------------------------------------------------------------------
# thermodynamic potentials
# ---------------------------------------------------------------------------

def test_free_energy_caloric_part():
    p = default_params()
    assert free_energy(np.zeros(6), 3.0, p) == pytest.approx(-4.5)


def test_free_energy_elastic_part():
    p = default_params()
    assert free_energy(I6, 0.0, p) == pytest.approx(7.5)


def test_free_energy_with_coupling():
    p = default_params(alpha=1.0)
    assert free_energy(I6, 1.0, p) == pytest.approx(-8.0)


def test_internal_energy_and_entropy_values():
    p = default_params()
    assert internal_energy(np.zeros(6), 2.0, p) == pytest.approx(2.0)
    assert entropy_density(np.zeros(6), 2.0, p) == pytest.approx(2.0)
    p_iso = default_params(alpha=1.0)
    assert internal_energy(I6, 0.0, p_iso) == pytest.approx(7.5)
    assert entropy_density(I6, 0.0, p_iso) == pytest.approx(15.0)


def test_energy_entropy_consistency(rng):
    """e = f + theta * eta to round-off."""
    p = default_params(alpha=0.3, lambda2=2.0, mu2=0.8, cv=1.7)
    eps = random_tensors(rng, N_SAMPLES)
    theta = rng.uniform(0.1, 4.0, N_SAMPLES)
    e = internal_energy(eps, theta, p)
    f = free_energy(eps, theta, p)
    eta = entropy_density(eps, theta, p)
    assert np.max(np.abs(e - (f + theta * eta))) <= 1e-12 * (1.0 + np.max(np.abs(e)))


def test_entropy_is_minus_theta_derivative_of_free_energy(rng):
    p = default_params(alpha=0.2, cv=1.3)
    h = 1e-3
    eps = random_tensors(rng, 200)
    theta = rng.uniform(0.5, 3.0, 200)
    fd = (free_energy(eps, theta - h, p) - free_energy(eps, theta + h, p)) / (2 * h)
    eta = entropy_density(eps, theta, p)
    assert np.max(np.abs(eta - fd)) <= 1.0 * h**2 * (1.0 + np.max(np.abs(eta)))


def test_caloric_specific_heat_is_linear_in_theta(rng):
    """Heat capacity -theta * d2f/dtheta2 equals cv * theta, the origin of
    the quasilinear theta*theta_t term in the heat equation."""
    p = default_params(alpha=0.2, cv=1.7)
    h = 1e-3
    eps = random_tensors(rng, 100)
    theta = rng.uniform(0.5, 3.0, 100)
    second = (
        free_energy(eps, theta + h, p)
        - 2.0 * free_energy(eps, theta, p)
        + free_energy(eps, theta - h, p)
    ) / h**2
    capacity = -theta * second
    assert np.max(np.abs(capacity - p.cv * theta)) <= 1e-6 * (1.0 + np.max(theta))


# ---------------------------------------------------------------------------
# dissipation and entropy production
# ---------------------------------------------------------------------------

def test_dissipation_at_rest_is_zero():
    p = default_params()
    assert dissipation_potential(np.zeros(6), np.zeros(3), 1.0, p) == 0.0


def test_dissipation_viscous_value():
    p = default_params()
    assert dissipation_potential(I6, np.zeros(3), 1.0, p) == pytest.approx(7.5)


def test_dissipation_conduction_value():
    p = default_params()
    got = dissipation_potential(np.zeros(6), np.array([2.0, 0.0, 0.0]), 2.0, p)
    assert got == pytest.approx(0.5)


def test_entropy_production_values():
    p = default_params()
    assert entropy_production(np.zeros(6), np.zeros(3), 1.0, p) == 0.0
    assert entropy_production(I6, np.zeros(3), 1.0, p) == pytest.approx(15.0)


def test_dissipation_and_production_nonnegative(rng):
    p = default_params(lambda1=-0.5, mu1=1.0, alpha=0.1)
    eps_t = random_tensors(rng, N_SAMPLES)
    grad = rng.standard_normal((N_SAMPLES, 3))
    theta = rng.uniform(0.05, 5.0, N_SAMPLES)
    assert np.all(dissipation_potential(eps_t, grad, theta, p) >= 0.0)
    assert np.all(entropy_production(eps_t, grad, theta, p) >= 0.0)


@pytest.mark.parametrize("bad_theta", [0.0, -1.0])
def test_positive_temperature_required(bad_theta):
    p = default_params()
    with pytest.raises(DomainError):
        dissipation_potential(np.zeros(6), np.zeros(3), bad_theta, p)
    with pytest.raises(DomainError):
        entropy_production(np.zeros(6), np.zeros(3), bad_theta, p)


# ---------------------------------------------------------------------------
# heat equation source, on the discrete path: Newton's heat system
# ---------------------------------------------------------------------------

def _heat_source(grid, p, x_v, g=None, theta=1.0, theta_old=1.0, dt=0.05):
    """The viscous heating plus g and the coupling (A2 alpha):eps at every
    node, read back from Newton's heat system at a uniform iterate."""
    theta_it = ScalarField.constant(grid, theta)
    rhs, q, frozen = heat_rhs_vector(
        grid, dt, ScalarField.constant(grid, theta_old), theta_it, x_v, g, p)
    assert not frozen
    mass = p.cv / dt
    heating = rhs / grid.quad_weights.ravel() - mass * theta**2
    coupling = mass * (q.data.ravel() - 2.0 * theta + theta_old)
    return heating, coupling


def test_heat_rhs_zero():
    """At rest and without a source the heat system has no source: its
    right-hand side is the mass term (cv/dt) w theta^2 and its coefficient
    2 theta - theta_old."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    zero = np.zeros(grid.d * int(np.prod(grid.interior_shape)))
    heating, coupling = _heat_source(grid, default_params(), zero,
                                     theta=1.3, theta_old=0.9)
    assert np.max(np.abs(heating)) <= 1e-12
    assert np.max(np.abs(coupling)) <= 1e-12


def test_heat_rhs_exact_cancellation():
    """With alpha = 1, at a node where the strain rate is I, the thermal
    coupling theta (A2 alpha):eps_t = 15 theta cancels the viscous heating
    (A1 eps_t):eps_t = 15 at theta = 1."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    x_v, centre = _linear_velocity(grid)
    heating, coupling = _heat_source(grid, default_params(alpha=1.0), x_v)
    assert heating[centre] - 1.0 * coupling[centre] == pytest.approx(
        0.0, abs=1e-10)
    assert coupling[centre] == pytest.approx(15.0)


def test_heat_rhs_viscous_and_source():
    """At a node where the strain rate is I, the viscous heating
    (A1 I):I = 15 and the source g = 2 add to 17."""
    grid = Grid((7, 7, 7), (1.0, 1.0, 1.0))
    x_v, centre = _linear_velocity(grid)
    heating, _ = _heat_source(grid, default_params(alpha=0.0), x_v,
                              g=ScalarField.constant(grid, 2.0))
    assert heating[centre] == pytest.approx(17.0)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    dict(mu1=0.0),
    dict(mu2=-1.0),
    dict(lambda1=-1.0, mu1=1.0),   # 3*lam + 2*mu = -1
    dict(k=0.0),
    dict(cv=-2.0),
    dict(beta=0.0),
])
def test_invalid_material_params_rejected(overrides):
    with pytest.raises(UsageError):
        default_params(**overrides)


def test_alpha_rejects_a_matrix():
    """alpha is a scalar or a 6-vector; a 3x3 matrix, symmetric or not, is
    refused."""
    m = np.array([[0.1, 0.02, 0.0], [0.02, 0.1, 0.0], [0.0, 0.0, 0.1]])
    for alpha in (m, m + np.triu(m, 1)):
        with pytest.raises(UsageError, match="a scalar or a 6-vector"):
            default_params(alpha=alpha)


def test_thermal_coupling_is_computed_once_and_read_only():
    """thermal_coupling() is apply_isotropic(lambda2, mu2, alpha) bit for
    bit, the same read-only array on every call."""
    p = default_params(lambda2=1.3, mu2=0.6,
                       alpha=np.array([0.1, 0.2, 0.05, 0.01, 0.0, 0.02]))
    coupling = p.thermal_coupling()
    assert p.thermal_coupling() is coupling
    assert (coupling.tobytes()
            == apply_isotropic(1.3, 0.6, p.alpha).tobytes())
    for array in (coupling, p.alpha):
        with pytest.raises(ValueError):
            array[0] = 1.0
