"""Shared builders for the test suite."""

import numpy as np

from kvsim import Grid, MaterialParams, ScalarField, SimState, VectorField
from kvsim.cli_io import _cos_profile, _sin_profile
from kvsim.constitutive import apply_isotropic, heat_rhs
from kvsim.grid import SymTensorField, sym_gradient, tensor_divergence
from kvsim.linear_step import pack_interior


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


def make_grid(d=2, n=17, length=1.0):
    return Grid((n,) * d, (length,) * d)


def reference_velocity_rhs(grid, dt, v_old, u_iter, theta_iter, b, params):
    """The velocity right-hand side with all of the elasticity explicit,
    by the np.gradient field operators, packed over interior nodes:
    (1/dt) v_old + b + div[A2 eps(u) - theta * (A2 alpha)]."""
    tension = apply_isotropic(
        params.lambda2, params.mu2, sym_gradient(u_iter).data)
    tension -= theta_iter.data[..., None] * params.thermal_coupling()
    force = tensor_divergence(SymTensorField(grid, tension)).data
    if b is not None:
        force = force + b.data
    return pack_interior(grid, v_old.data / dt + force)


def reference_heat_rhs_vector(grid, dt, theta_old, theta_frozen, v_iter, g,
                              params):
    """The weighted heat right-hand side, with the strain rate of
    ``v_iter`` by ``sym_gradient``."""
    eps_t = sym_gradient(v_iter).data
    g_data = g.data if g is not None else 0.0
    source = heat_rhs(theta_frozen.data, eps_t, g_data, params)
    r = (params.cv / dt) * theta_frozen.data * theta_old.data + source
    return grid.quad_weights.ravel() * r.ravel()
