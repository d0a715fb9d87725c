"""Pointwise material model: frozen examples and randomized identities."""

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
    heat_rhs,
    internal_energy,
    stress,
)
from kvsim.constitutive import DDOT_WEIGHTS, IDENTITY_6

from helpers import default_params

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
# stress
# ---------------------------------------------------------------------------

def test_stress_zero():
    p = default_params()
    assert np.all(stress(np.zeros(6), np.zeros(6), 0.0, p) == 0.0)


def test_stress_elastic_only():
    p = default_params()
    assert np.allclose(stress(I6, np.zeros(6), 0.0, p), 5.0 * I6)


def test_stress_thermal_only():
    p = default_params(alpha=1.0)
    got = stress(np.zeros(6), np.zeros(6), 2.0, p)
    assert np.allclose(got, -10.0 * I6)


def test_stress_splitting(rng):
    """S equals the strain derivative of f plus the viscous part A1 eps_t."""
    p = default_params(alpha=0.07, lambda2=1.4, mu2=0.9)
    h = 1e-3
    for _ in range(50):
        eps = rng.standard_normal(6)
        eps_t = rng.standard_normal(6)
        theta = rng.uniform(0.2, 3.0)
        grad_f = np.empty(6)
        for c in range(6):
            delta = np.zeros(6)
            delta[c] = h
            diff = free_energy(eps + delta, theta, p) - free_energy(eps - delta, theta, p)
            # stored off-diagonal components represent two tensor entries
            grad_f[c] = diff / (2.0 * h) / DDOT_WEIGHTS[c]
        viscous = apply_isotropic(p.lambda1, p.mu1, eps_t)
        expected = grad_f + viscous
        got = stress(eps, eps_t, theta, p)
        assert np.max(np.abs(got - expected)) <= 1e-7 * (1.0 + np.max(np.abs(got)))


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
# heat equation right-hand side
# ---------------------------------------------------------------------------

def test_heat_rhs_zero():
    p = default_params()
    assert heat_rhs(0.0, np.zeros(6), 0.0, p) == 0.0


def test_heat_rhs_exact_cancellation():
    p = default_params(alpha=1.0)
    assert heat_rhs(1.0, I6, 0.0, p) == pytest.approx(0.0)


def test_heat_rhs_viscous_and_source():
    p = default_params(alpha=0.0)
    assert heat_rhs(1.0, I6, 2.0, p) == pytest.approx(17.0)


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


def test_alpha_accepts_matrix_and_rejects_asymmetric():
    m = np.array([[0.1, 0.02, 0.0], [0.02, 0.1, 0.0], [0.0, 0.0, 0.1]])
    p = default_params(alpha=m)
    assert p.alpha == pytest.approx([0.1, 0.1, 0.1, 0.0, 0.0, 0.02])
    with pytest.raises(UsageError):
        default_params(alpha=np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0]]))


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
