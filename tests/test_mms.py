"""Manufactured-solutions oracle: forcing derivation and its verification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kvsim import Grid, UsageError
from kvsim.constitutive import (
    COMPONENT_OF,
    apply_isotropic,
    ddot,
    matrix_from_sym6,
)
from kvsim.mms import (
    CASES,
    ManufacturedProblem,
    convergence_study,
    get_case,
    manufacture,
)

from helpers import AcceptedStates, make_grid


# ---------------------------------------------------------------------------
# trivial and hand-derived cases
# ---------------------------------------------------------------------------

def test_rest_case_has_zero_forcing(params):
    grid = make_grid(d=2, n=9)
    problem = manufacture(get_case("rest"), grid, params)
    assert np.max(np.abs(problem.body_force(0.3).data)) == 0.0
    assert np.max(np.abs(problem.heat_source(0.3).data)) == 0.0


def test_cooling_case_matches_hand_derived_forcing(params):
    """Independent closed forms for the cooling profile:

    theta = 2 + A cos(pi x/L) e^{-t}, u = 0, alpha = 0.1 I, so the
    coupling gives b = (A2 alpha) grad theta = 0.5 grad theta and
    g = cv theta theta_t - k lap theta.
    """
    grid = make_grid(d=2, n=13)
    amplitude = 0.5
    problem = manufacture(replace(get_case("cooling"), b=amplitude), grid,
                          params)
    x, _ = grid.coords()
    w = math.pi / grid.lengths[0]
    for t in (0.0, 0.37, 1.0):
        decay = math.exp(-t)
        cos, sin = np.cos(w * x), np.sin(w * x)
        theta = 2.0 + amplitude * cos * decay
        theta_t = -amplitude * cos * decay
        lap = -amplitude * w**2 * cos * decay
        hand_b1 = 0.5 * (-amplitude * w * sin * decay)
        hand_g = params.cv * theta * theta_t - params.k * lap
        got_b = problem.body_force(t).data
        got_g = problem.heat_source(t).data
        assert np.max(np.abs(got_b[..., 0] - hand_b1)) <= 1e-12
        assert np.max(np.abs(got_b[..., 1])) <= 1e-12
        assert np.max(np.abs(got_g - hand_g)) <= 1e-12


class _ShiftedGrid(Grid):
    """A grid whose coordinates are its nodes moved by ``offset``: a case
    bound to it is evaluated off the nodes."""

    def __init__(self, grid, offset):
        super().__init__(grid.n, grid.lengths)
        self.offset = offset

    def coords(self):
        return [c + o for c, o in zip(super().coords(), self.offset)]


def _closed_form(name, lengths, params, h):
    """The grid, the problem, and ``field(t, *moves)``: (u*, theta*) at the
    interior nodes moved by h along each (axis, sign) of ``moves``.  The
    nodes are moved off the grid by a generic offset first, so no profile
    sits on a zero or an extremum."""
    d = len(lengths)
    grid = Grid((6,) * d, lengths)
    case = get_case(name)
    base = 0.0123 * np.arange(1.0, d + 1.0)
    cache = {}

    def field(t, *moves):
        key = (t, tuple(sorted(moves)))
        if key not in cache:
            offset = base.copy()
            for axis, sign in moves:
                offset[axis] += sign * h
            shifted = ManufacturedProblem(case, _ShiftedGrid(grid, offset), params)
            state = shifted.exact_state(t)
            cache[key] = (state.u.data[grid.interior],
                          state.theta.data[grid.interior])
        return cache[key]

    problem = ManufacturedProblem(case, _ShiftedGrid(grid, base), params)
    return grid, problem, field


CASES_AND_BOXES = [
    pytest.param(name, lengths, id=f"{name}-{box}")
    for name in sorted(CASES)
    for box, lengths in (("1d", (1.0,)), ("2d", (1.0, 1.0)),
                         ("3d", (1.0, 1.0, 1.0)), ("0.8x1.5", (0.8, 1.5)))
]


@pytest.mark.parametrize("name,lengths", CASES_AND_BOXES)
def test_a_case_is_one_value_for_every_box(params, name, lengths):
    """A case holds no grid: every box binds the one ``CASES`` value."""
    case = get_case(name)
    assert case is CASES[name]
    grid = Grid((6,) * len(lengths), lengths)
    assert manufacture(case, grid, params).case is case


@pytest.mark.parametrize("name,lengths", CASES_AND_BOXES)
def test_cases_meet_the_boundary_conditions(params, name, lengths):
    """u* vanishes and theta* has zero normal derivative on every face.
    Moving the nodes by one spacing along an axis puts a layer of interior
    nodes (which ``exact_state`` does not clamp) onto each of its faces."""
    d, delta = len(lengths), 1e-4
    grid = Grid((6,) * d, lengths)
    case = get_case(name)

    def fields(offset):
        state = ManufacturedProblem(case, _ShiftedGrid(grid, offset),
                                    params).exact_state(0.4)
        return state.u.data, state.theta.data

    for axis in range(d):
        for sign, layer in ((-1, 1), (1, -2)):
            index = list(grid.interior)
            index[axis] = layer
            index = tuple(index)
            offset = np.zeros(d)
            offset[axis] = sign * grid.h[axis]
            u, _ = fields(offset)
            assert np.max(np.abs(u[index])) <= 1e-14
            offset[axis] += delta
            _, above = fields(offset)
            offset[axis] -= 2 * delta
            _, below = fields(offset)
            normal = (above[index] - below[index]) / (2 * delta)
            assert np.max(np.abs(normal)) <= 1e-6


@pytest.mark.parametrize("name,lengths", CASES_AND_BOXES)
def test_default_case_forcing_consistent_with_finite_differences(
        params, name, lengths):
    """The body force matches u*_tt - Q1 u*_t - Q2 u* + (A2 alpha) grad
    theta* with every derivative differenced from the closed-form fields
    (independent of the analytic derivatives the problem uses)."""
    h, t = 1e-3, 0.4
    grid, problem, field = _closed_form(name, lengths, params, h)
    d = grid.d

    def u(tt, *moves):
        return field(tt, *moves)[0]

    def lap(tt):
        return sum((u(tt, (a, 1)) - 2 * u(tt) + u(tt, (a, -1))) / h**2
                   for a in range(d))

    def grad_div(tt):
        out = np.zeros_like(u(tt))
        for i in range(d):
            for j in range(d):
                if i == j:
                    second = u(tt, (i, 1)) - 2 * u(tt) + u(tt, (i, -1))
                    out[..., i] += second[..., i] / h**2
                else:
                    mixed = (u(tt, (i, 1), (j, 1)) - u(tt, (i, 1), (j, -1))
                             - u(tt, (i, -1), (j, 1)) + u(tt, (i, -1), (j, -1)))
                    out[..., i] += mixed[..., j] / (4 * h**2)
        return out

    u_tt = (u(t + h) - 2 * u(t) + u(t - h)) / h**2
    q1 = (params.mu1 * (lap(t + h) - lap(t - h))
          + (params.lambda1 + params.mu1) * (grad_div(t + h) - grad_div(t - h))
          ) / (2 * h)
    q2 = params.mu2 * lap(t) + (params.lambda2 + params.mu2) * grad_div(t)
    grad_theta = np.stack([
        (field(t, (a, 1))[1] - field(t, (a, -1))[1]) / (2 * h) for a in range(d)
    ], axis=-1)
    coupling = matrix_from_sym6(params.thermal_coupling())[:d, :d]
    b_fd = u_tt - q1 - q2 + grad_theta @ coupling.T
    b = problem.body_force(t).data[grid.interior]
    assert np.max(np.abs(b_fd - b)) <= 1e-5 * (1.0 + np.max(np.abs(b)))


@pytest.mark.parametrize("name,lengths", CASES_AND_BOXES)
def test_default_case_heat_residual_by_finite_differences(params, name, lengths):
    """The heat source matches cv theta* theta*_t - k Lap theta*
    + theta* (A2 alpha):eps(u*_t) - (A1 eps(u*_t)):eps(u*_t) with every
    derivative differenced from the closed-form fields."""
    h, t = 1e-3, 0.3
    grid, problem, field = _closed_form(name, lengths, params, h)
    d = grid.d

    def theta(tt, *moves):
        return field(tt, *moves)[1]

    theta_t = (theta(t + h) - theta(t - h)) / (2 * h)
    lap_theta = sum(
        (theta(t, (a, 1)) - 2 * theta(t) + theta(t, (a, -1))) / h**2
        for a in range(d)
    )
    # grad_u_t[j][..., i] = d/dx_j of u*_i, differenced in time and space
    grad_u_t = [
        ((field(t + h, (j, 1))[0] - field(t + h, (j, -1))[0])
         - (field(t - h, (j, 1))[0] - field(t - h, (j, -1))[0])) / (4 * h * h)
        for j in range(d)
    ]
    rate = np.zeros(theta(t).shape + (6,))
    for i in range(d):
        for j in range(i, d):
            rate[..., COMPONENT_OF[(i, j)]] = 0.5 * (
                grad_u_t[j][..., i] + grad_u_t[i][..., j]
            )
    viscous = ddot(apply_isotropic(params.lambda1, params.mu1, rate), rate)
    g_fd = (params.cv * theta(t) * theta_t - params.k * lap_theta
            + theta(t) * ddot(params.thermal_coupling(), rate) - viscous)
    g = problem.heat_source(t).data[grid.interior]
    assert np.max(np.abs(g_fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))


# ---------------------------------------------------------------------------
# validation of case claims
# ---------------------------------------------------------------------------

def test_manufacture_rejects_nonpositive_temperature(params):
    grid = make_grid(d=2, n=9)
    case = replace(get_case("cooling"), b=2.5)  # dips below zero
    with pytest.raises(UsageError, match="below"):
        manufacture(case, grid, params)


def test_get_case_unknown_name():
    with pytest.raises(UsageError):
        get_case("nope")


def test_exact_solution_is_discrete_near_solution(params):
    """Sampled (u*, theta*) nearly satisfy the implicit update equations:
    the residual shrinks at O(dt + h^2) (momentum measured past the
    one-sided boundary strip)."""
    from kvsim import lame_operator, laplacian_neumann, sym_gradient, tensor_divergence
    from kvsim.constitutive import apply_isotropic, ddot
    from kvsim.grid import SymTensorField

    results = []
    for n, dt in ((9, 0.02), (17, 0.005), (33, 0.00125)):
        grid = make_grid(d=2, n=n)
        problem = manufacture(get_case("default"), grid, params)
        t = 0.1
        old, new = problem.exact_state(t), problem.exact_state(t + dt)
        q1 = lame_operator(new.v, params.lambda1, params.mu1).data
        tension = apply_isotropic(params.lambda2, params.mu2,
                                  sym_gradient(new.u).data)
        tension -= new.theta.data[..., None] * params.thermal_coupling()
        force = tensor_divergence(SymTensorField(grid, tension)).data
        b = problem.body_force(t + dt).data
        r_momentum = (new.v.data - old.v.data) / dt - q1 - force - b

        eps_t = sym_gradient(new.v).data
        viscous = ddot(apply_isotropic(params.lambda1, params.mu1, eps_t), eps_t)
        g = problem.heat_source(t + dt).data
        r_heat = (
            params.cv * new.theta.data * (new.theta.data - old.theta.data) / dt
            - params.k * laplacian_neumann(new.theta).data
            + new.theta.data * ddot(params.thermal_coupling(), eps_t)
            - viscous - g
        )
        scale = dt + grid.h[0] ** 2
        results.append((np.abs(r_momentum[2:-2, 2:-2]).max(),
                        np.abs(r_heat).max(), scale))
    for r_m, r_h, scale in results:
        assert r_m <= 20.0 * scale
        assert r_h <= 20.0 * scale
    # refinement h -> h/2, dt -> dt/4 shrinks both residuals ~4x
    for (m0, h0, _), (m1, h1, _) in zip(results, results[1:]):
        assert 3.0 <= m0 / m1 <= 5.5
        assert 3.0 <= h0 / h1 <= 5.5


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_stationary_case_is_resolved_exactly(params):
    report = convergence_study(
        "rest", params, d=2, resolutions=(5, 9, 17), dt0=0.05, t_end=0.2,
        mode="spatial",
    )
    for level in report.levels:
        assert level.err_u <= 1e-10
        assert level.err_v <= 1e-10
        assert level.err_theta <= 1e-10


def test_convergence_study_keeps_two_states_at_a_time(params, monkeypatch):
    """Each level of the spatial ladder takes its errors as the steps are
    accepted: at no step of any level are more than two earlier accepted
    states alive (the last event's old and new states), where collecting
    the run would hold every one of them (80 steps at 33^2)."""
    watch = AcceptedStates(monkeypatch)
    report = convergence_study("default", params, d=2,
                               resolutions=(9, 17, 33), mode="spatial")
    assert [lv.nodes for lv in report.levels] == [9, 17, 33]
    assert len(watch.refs) == 5 + 20 + 80
    assert sorted(watch.most_alive) == [(9, 9), (17, 17), (33, 33)]
    assert max(watch.most_alive.values()) <= 2
    assert watch.alive() == 0


def test_convergence_study_argument_validation(params):
    with pytest.raises(UsageError):
        convergence_study("default", params, resolutions=(9, 17), mode="spatial")
    with pytest.raises(UsageError):
        convergence_study("default", params, resolutions=(9, 17, 33), mode="bogus")
    with pytest.raises(UsageError):
        convergence_study("default", params, resolutions=(9, 17, 33),
                          mode="temporal", dts=(0.1, 0.05))


def test_order_report_formatting(params):
    report = convergence_study(
        "rest", params, d=1, resolutions=(5, 9, 17), dt0=0.1, t_end=0.2,
        mode="spatial",
    )
    text = report.format()
    assert "observed order" in text and "rest" in text
