"""Pointwise material model: symmetric-tensor algebra and thermodynamics.

Symmetric second-order tensors are stored as 6 components in the order

    (xx, yy, zz, yz, xz, xy)

so symmetry can never be violated by construction.  The double-dot product
weighs the off-diagonal slots by 2 to reproduce the full 9-entry contraction.
In fewer than 3 space dimensions the trailing rows/columns are zero-padded,
which keeps a single code path for every constitutive function.

All functions broadcast over leading axes, so they apply equally to a single
tensor of shape ``(6,)`` and to a node-indexed field of shape ``(*grid, 6)``.
Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError

#: Contraction weights: off-diagonal components appear twice in the 3x3 tensor.
DDOT_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

#: The identity tensor in 6-component storage.
IDENTITY_6 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

# (row, col) -> storage slot of the symmetric component.
COMPONENT_OF = {
    (0, 0): 0, (1, 1): 1, (2, 2): 2,
    (1, 2): 3, (2, 1): 3,
    (0, 2): 4, (2, 0): 4,
    (0, 1): 5, (1, 0): 5,
}


def ddot(a, b):
    """Full contraction a : b of two symmetric tensors in 6-component storage."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(DDOT_WEIGHTS * a * b, axis=-1)


def trace(a):
    """Trace of a symmetric tensor in 6-component storage."""
    a = np.asarray(a, dtype=float)
    return a[..., 0] + a[..., 1] + a[..., 2]


def sym6_from_matrix(m, tol=1e-12):
    """Convert a 3x3 symmetric matrix to 6-component storage."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise UsageError(f"expected a 3x3 matrix, got shape {m.shape}")
    skew = np.max(np.abs(m - m.T))
    if skew > tol * (1.0 + np.max(np.abs(m))):
        raise UsageError(f"matrix is not symmetric (max skew {skew:.3e})")
    return np.array([m[0, 0], m[1, 1], m[2, 2], m[1, 2], m[0, 2], m[0, 1]])


def matrix_from_sym6(a):
    """Expand 6-component storage back to a full (..., 3, 3) matrix."""
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape[:-1] + (3, 3))
    for (i, j), c in COMPONENT_OF.items():
        out[..., i, j] = a[..., c]
    return out


def apply_isotropic(lam, mu, eps):
    """Apply the isotropic fourth-order tensor: lam*tr(eps)*I + 2*mu*eps."""
    eps = np.asarray(eps, dtype=float)
    return lam * trace(eps)[..., None] * IDENTITY_6 + 2.0 * mu * eps


@dataclass(frozen=True)
class CoercivityBounds:
    """Sharp constants a_star <= (A eps):eps / |eps|^2 <= a_sup of an
    isotropic tensor with an admissible (lam, mu) pair."""

    a_star: float
    a_sup: float


def coercivity_bounds(lam, mu):
    """Coercivity/boundedness constants min/max{3*lam + 2*mu, 2*mu}."""
    lo = min(3.0 * lam + 2.0 * mu, 2.0 * mu)
    hi = max(3.0 * lam + 2.0 * mu, 2.0 * mu)
    if lo <= 0.0:
        raise UsageError(
            "isotropic tensor outside the elasticity range: "
            f"min(3*lam + 2*mu, 2*mu) = {lo} must be positive"
        )
    return CoercivityBounds(a_star=lo, a_sup=hi)


def _elasticity_range_violations(name_lam, lam, name_mu, mu):
    out = []
    if not mu > 0.0:
        out.append(f"{name_mu} = {mu} violates the elasticity range rule {name_mu} > 0")
    if not 3.0 * lam + 2.0 * mu > 0.0:
        out.append(
            f"3*{name_lam} + 2*{name_mu} = {3.0 * lam + 2.0 * mu} violates the "
            f"elasticity range rule 3*{name_lam} + 2*{name_mu} > 0"
        )
    return out


@dataclass(frozen=True)
class MaterialParams:
    """All physical constants of the model.

    lambda1, mu1   viscosity constants (stress * time)
    lambda2, mu2   Lame constants (stress)
    k              heat conductivity, > 0
    cv             specific-heat coefficient, > 0 (heat capacity is cv*theta)
    alpha          thermal expansion, a constant symmetric tensor; a scalar
                   is promoted to alpha * identity
    beta           availability weight (temperature units), > 0; used only
                   by the diagnostics module
    """

    lambda1: float
    mu1: float
    lambda2: float
    mu2: float
    k: float
    cv: float
    alpha: np.ndarray = field(default_factory=lambda: 0.0 * IDENTITY_6)
    beta: float = 1.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim == 0:
            alpha = float(alpha) * IDENTITY_6
        elif alpha.shape == (3, 3):
            alpha = sym6_from_matrix(alpha)
        elif alpha.shape != (6,):
            raise UsageError(
                f"alpha must be a scalar, a 6-vector, or a symmetric 3x3 matrix, "
                f"got shape {alpha.shape}"
            )
        object.__setattr__(self, "alpha", alpha)

        violations = []
        violations += _elasticity_range_violations("lambda1", self.lambda1, "mu1", self.mu1)
        violations += _elasticity_range_violations("lambda2", self.lambda2, "mu2", self.mu2)
        for name in ("k", "cv", "beta"):
            value = getattr(self, name)
            if not value > 0.0:
                violations.append(f"{name} = {value} must be positive")
        if violations:
            raise UsageError("; ".join(violations))

    def viscosity_bounds(self):
        return coercivity_bounds(self.lambda1, self.mu1)

    def thermal_coupling(self):
        """The constant stress-temperature coupling tensor (elastic tensor
        applied to the thermal expansion), in 6-component storage."""
        return apply_isotropic(self.lambda2, self.mu2, self.alpha)


def stress(eps, eps_t, theta, params):
    """Total stress: viscous part plus thermoelastic part.

    S = A1 eps_t + A2 (eps - theta * alpha), with A1/A2 the isotropic
    viscosity/elasticity tensors of ``params``.
    """
    theta = np.asarray(theta, dtype=float)
    thermal = np.asarray(eps, dtype=float) - theta[..., None] * params.alpha
    return (
        apply_isotropic(params.lambda1, params.mu1, eps_t)
        + apply_isotropic(params.lambda2, params.mu2, thermal)
    )


def free_energy(eps, theta, params):
    """Helmholtz free energy density (caloric + elastic + coupling).

    f = -cv*theta^2/2 + eps:(A2 eps)/2 - theta * eps:(A2 alpha)
    """
    theta = np.asarray(theta, dtype=float)
    elastic = apply_isotropic(params.lambda2, params.mu2, eps)
    return (
        -0.5 * params.cv * theta**2
        + 0.5 * ddot(eps, elastic)
        - theta * ddot(eps, params.thermal_coupling())
    )


def internal_energy(eps, theta, params):
    """Internal energy density e = cv*theta^2/2 + eps:(A2 eps)/2."""
    theta = np.asarray(theta, dtype=float)
    elastic = apply_isotropic(params.lambda2, params.mu2, eps)
    return 0.5 * params.cv * theta**2 + 0.5 * ddot(eps, elastic)


def entropy_density(eps, theta, params):
    """Entropy density eta = cv*theta + (A2 alpha):eps.

    Together with ``free_energy`` and ``internal_energy`` this satisfies
    e = f + theta*eta to round-off (tested property).
    """
    theta = np.asarray(theta, dtype=float)
    return params.cv * theta + ddot(params.thermal_coupling(), eps)


def _require_positive_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise DomainError(
            f"temperature must be positive, min(theta) = {np.min(theta)}"
        )
    return theta


def dissipation_potential(eps_t, grad_theta, theta, params):
    """Dissipation potential (nonnegative, zero at rest):

    D = eps_t:(A1 eps_t) / (2*theta) + (k/2) * |grad theta|^2 / theta^2
    """
    theta = _require_positive_theta(theta)
    grad_theta = np.asarray(grad_theta, dtype=float)
    viscous = ddot(eps_t, apply_isotropic(params.lambda1, params.mu1, eps_t))
    grad_sq = np.sum(grad_theta**2, axis=-1)
    return 0.5 * viscous / theta + 0.5 * params.k * grad_sq / theta**2


def entropy_production(eps_t, grad_theta, theta, params):
    """Entropy production density (nonnegative by construction):

    sigma = k * |grad theta|^2 / theta^2 + eps_t:(A1 eps_t) / theta
    """
    theta = _require_positive_theta(theta)
    grad_theta = np.asarray(grad_theta, dtype=float)
    viscous = ddot(eps_t, apply_isotropic(params.lambda1, params.mu1, eps_t))
    grad_sq = np.sum(grad_theta**2, axis=-1)
    return params.k * grad_sq / theta**2 + viscous / theta


def heat_rhs(theta, eps_t, g, params):
    """Right-hand side of the heat equation:

    -theta * (A2 alpha):eps_t + (A1 eps_t):eps_t + g
    """
    theta = np.asarray(theta, dtype=float)
    coupling = ddot(params.thermal_coupling(), eps_t)
    viscous = ddot(eps_t, apply_isotropic(params.lambda1, params.mu1, eps_t))
    return -theta * coupling + viscous + np.asarray(g, dtype=float)
