"""Time loop and successive-approximation iteration."""

import numpy as np
import pytest

from kvsim import (
    DegeneracyError,
    NonConvergenceError,
    ScalarField,
    SimState,
    Sources,
    Stepper,
    StepperConfig,
    UsageError,
    run,
)
from kvsim.grid import boundary_max_abs, integrate, laplacian_neumann

from helpers import bump_state, make_grid


def l2_diff(a, b, grid):
    d = a.data - b.data
    sq = d**2 if d.ndim == len(grid.shape) else np.sum(d**2, axis=-1)
    return np.sqrt(integrate(ScalarField(grid, sq)))


# ---------------------------------------------------------------------------
# fixed point and contraction
# ---------------------------------------------------------------------------

def test_equilibrium_is_exact_fixed_point(grid2d, params):
    state = SimState.rest(grid2d, theta0=1.3)
    new, trace = Stepper(grid2d, params, StepperConfig(dt=0.05)).step(state)
    assert trace.converged and trace.iterations == 1
    assert np.array_equal(new.u.data, state.u.data)
    assert np.array_equal(new.v.data, state.v.data)
    assert np.array_equal(new.theta.data, state.theta.data)
    assert new.t == pytest.approx(0.05)


def test_contraction_ratios_below_one_and_shrink_with_dt(grid2d, params):
    state = bump_state(grid2d)
    means = {}
    for dt in (0.05, 0.025):
        _, trace = Stepper(grid2d, params, StepperConfig(dt=dt)).step(state)
        ratios = trace.ratios()
        assert len(ratios) >= 2
        assert all(r < 1.0 for r in ratios)
        means[dt] = np.mean(ratios)
    assert means[0.025] < means[0.05]


def test_iterate_sizes_stay_bounded(grid2d, params):
    """The iterate magnitudes recorded per sweep never blow up: they stay
    within a narrow band around the accepted step's size."""
    state = bump_state(grid2d)
    _, trace = Stepper(grid2d, params, StepperConfig(dt=0.05)).step(state)
    sizes = np.asarray(trace.sizes)
    assert np.all(np.isfinite(sizes)) and np.all(sizes > 0.0)
    assert np.max(sizes) <= 2.0 * np.min(sizes)


def test_converged_step_is_insensitive_to_extra_sweeps(grid2d, params):
    state = bump_state(grid2d)
    config = StepperConfig(dt=0.05)
    stepper = Stepper(grid2d, params, config)
    new, trace = stepper.step(state)
    assert trace.converged
    # two more sweeps of the same step change the answer below the threshold
    extra = stepper.sweep(state, new, None, None)
    moved = l2_diff(extra.v, new.v, grid2d) + l2_diff(extra.theta, new.theta, grid2d)
    assert moved <= 2.0 * trace.threshold
    again = stepper.sweep(state, extra, None, None)
    moved2 = l2_diff(again.v, extra.v, grid2d) + l2_diff(again.theta, extra.theta, grid2d)
    assert moved2 <= 2.0 * trace.threshold


def test_picard_nonconvergence_carries_trace(grid2d, params):
    state = bump_state(grid2d)
    config = StepperConfig(dt=0.05, picard_tol=1e-16, picard_max=2)
    with pytest.raises(NonConvergenceError) as excinfo:
        Stepper(grid2d, params, config).step(state)
    assert len(excinfo.value.report.ys) == 2


def test_degeneracy_error_when_cooling_below_floor(grid2d, params):
    state = SimState.rest(grid2d, theta0=1.0)
    sink = ScalarField.constant(grid2d, -50.0)
    with pytest.raises(DegeneracyError):
        Stepper(grid2d, params, StepperConfig(dt=0.05)).step(state, g=sink)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def test_run_zero_data_is_stationary(grid2d, params):
    state = SimState.rest(grid2d, theta0=1.0)
    traj = run(state, params, StepperConfig(dt=0.05), 0.5)
    final = traj.states[-1]
    assert l2_diff(final.u, state.u, grid2d) <= 1e-12
    assert l2_diff(final.v, state.v, grid2d) <= 1e-12
    assert l2_diff(final.theta, state.theta, grid2d) <= 1e-12
    assert final.t == pytest.approx(0.5)
    assert traj.source_free


def test_run_preserves_boundary_conditions(grid2d, params):
    traj = run(bump_state(grid2d), params, StepperConfig(dt=0.05), 0.25)
    for state in traj.states:
        assert boundary_max_abs(state.u) == 0.0
        assert boundary_max_abs(state.v) == 0.0
        assert np.min(state.theta.data) > 0.0
        # discrete insulation: the Neumann flux integrates to zero
        flux = integrate(laplacian_neumann(state.theta))
        assert abs(flux) <= 1e-10


def test_run_monotone_picard_residuals(grid2d, params):
    traj = run(bump_state(grid2d), params, StepperConfig(dt=0.05), 0.25)
    for trace in traj.traces:
        ys = trace.ys
        assert all(ys[k + 1] <= ys[k] for k in range(len(ys) - 1))


def test_run_shortened_final_step(grid2d, params):
    traj = run(SimState.rest(grid2d), params, StepperConfig(dt=0.05), 0.13)
    assert traj.states[-1].t == pytest.approx(0.13)
    assert len(traj.traces) == 3


def test_run_rejects_bad_horizon(grid2d, params):
    with pytest.raises(UsageError):
        run(SimState.rest(grid2d), params, StepperConfig(dt=0.05), 0.0)


def test_run_records_source_extrema(grid2d, params):
    sources = Sources.constant(grid2d, g_value=0.5)
    traj = run(SimState.rest(grid2d), params, StepperConfig(dt=0.05), 0.2,
               sources=sources)
    assert not traj.source_free
    assert all(v == 0.5 for v in traj.g_min)
    assert all(v == 0.0 for v in traj.b_max_abs)


def test_energy_drift_halves_with_dt(params):
    from kvsim.diagnostics import total_energy

    grid = make_grid(d=2, n=17)
    state = bump_state(grid)
    drift = {}
    for dt in (0.05, 0.025):
        traj = run(state, params, StepperConfig(dt=dt), 0.5)
        e0 = total_energy(traj.states[0], params)
        e1 = total_energy(traj.states[-1], params)
        drift[dt] = abs(e1 - e0) / abs(e0)
    ratio = drift[0.05] / drift[0.025]
    assert 1.4 <= ratio <= 2.6


def test_run_on_anisotropic_grid(params):
    from kvsim import Grid
    from kvsim.diagnostics import availability_decay_check

    grid = Grid((13, 19), (0.8, 1.5))
    traj = run(bump_state(grid), params, StepperConfig(dt=0.05), 0.25)
    assert all(float(np.min(s.theta.data)) > 0.0 for s in traj.states)
    passed, _, _ = availability_decay_check(traj, params)
    assert passed


def test_state_validation_rejects_bad_fields(grid2d):
    state = SimState.rest(grid2d)
    state.theta.data[0, 0] = -1.0
    with pytest.raises(Exception):
        state.validate()
    dirty = SimState.rest(grid2d)
    dirty.u.data[0, 3, 0] = 1.0
    with pytest.raises(UsageError):
        dirty.validate()


def test_stepper_config_validation():
    with pytest.raises(UsageError):
        StepperConfig(dt=-1.0)
    with pytest.raises(UsageError):
        StepperConfig(dt=0.1, picard_max=0)
    with pytest.raises(UsageError):
        StepperConfig(dt=0.1, theta_floor=0.0)
