"""Time loop and successive-approximation iteration."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from kvsim import (
    DegeneracyError,
    NonConvergenceError,
    ScalarField,
    SimState,
    Sources,
    Stepper,
    StepperConfig,
    UsageError,
    VectorField,
    run,
    steps,
)
from kvsim import grid as grid_module, linear_step, picard
from kvsim.cli_io import (
    build_initial_state,
    build_sources,
    builtin_scenario,
    load_checkpoint,
    load_config,
    save_checkpoint,
)
from kvsim.diagnostics import (
    DiagnosticsCollector,
    availability_decay_check,
    state_integrals,
    theta_lower_bound_check,
    total_energy,
)
from kvsim.grid import (
    Grid,
    SymTensorField,
    boundary_max_abs,
    integrate,
    l2_norm,
    laplacian_neumann,
    lp_norm,
    navier_matrix,
    tensor_divergence,
)
from kvsim.picard import PICARD_MAX, PICARD_RISES, PICARD_TOL, SWEEP_REDUCTION

from helpers import (
    AcceptedStates,
    bump_state,
    counted,
    default_params,
    double_velocity_operator,
    make_grid,
    random_boundary_zero_vector,
    reference_heat_rhs_vector,
    reference_velocity_rhs,
)

# the tolerance every accepting sweep's solves meet
CG_TOL = linear_step.SOLVE_TOL


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


def _sweep_start(stepper, state):
    """The step's load and zeroth iterate: the packed velocity and the
    temperature of ``state``."""
    grid = stepper.grid
    x_v = linear_step.pack_interior(grid, state.v.data)
    load = linear_step.velocity_load(
        grid, stepper.config.dt, x_v, linear_step.corner_strains(state.u),
        None, stepper.params)
    return load, x_v, state.theta


def _reductions(trace):
    """The residual reduction of each sweep of an accepted step:
    ``SWEEP_REDUCTION`` up to the first sweep that meets the threshold,
    full tolerance (0) after it."""
    reductions, reduction = [], SWEEP_REDUCTION
    for y in trace.ys:
        reductions.append(reduction)
        if y <= trace.threshold:
            reduction = 0.0
    return reductions


def test_iterate_sizes_stay_bounded(grid2d, params):
    """The iterate magnitudes ||v|| + ||theta|| never blow up: sweeping a
    step by hand with the step's own reductions, they stay within a narrow
    band, and the last iterate is the accepted state bit for bit."""
    state = bump_state(grid2d)
    stepper = Stepper(grid2d, params, StepperConfig(dt=0.05))
    new, trace = stepper.step(state)
    load, x_v, theta = _sweep_start(stepper, state)
    sizes = []
    for reduction in _reductions(trace):
        x_v, theta, *_ = stepper.sweep(
            state, x_v, theta, load, None, reduction)
        v = linear_step.unpack_interior(grid2d, x_v)
        sizes.append(l2_norm(grid2d, v.data) + lp_norm(theta, 2))
    sizes = np.asarray(sizes)
    assert np.all(np.isfinite(sizes)) and np.all(sizes > 0.0)
    assert np.max(sizes) <= 2.0 * np.min(sizes)
    assert np.array_equal(v.data, new.v.data)
    assert np.array_equal(theta.data, new.theta.data)


def test_converged_step_is_insensitive_to_extra_sweeps(grid2d, params):
    state = bump_state(grid2d)
    stepper = Stepper(grid2d, params, StepperConfig(dt=0.05))
    new, trace = stepper.step(state)
    assert trace.converged
    # two more sweeps of the same step change the answer below the threshold
    load, _, _ = _sweep_start(stepper, state)
    x_v = linear_step.pack_interior(grid2d, new.v.data)
    iterates = [(new.v, new.theta)]
    theta = new.theta
    for _ in range(2):
        x_v, theta, *_ = stepper.sweep(state, x_v, theta, load, None)
        iterates.append((linear_step.unpack_interior(grid2d, x_v), theta))
    for (v0, theta0), (v1, theta1) in zip(iterates, iterates[1:]):
        moved = l2_diff(v1, v0, grid2d) + l2_diff(theta1, theta0, grid2d)
        assert moved <= 2.0 * trace.threshold


# ---------------------------------------------------------------------------
# the elastic split and the sweep order on the shipped scenarios
# ---------------------------------------------------------------------------

# large data: bump2d on 17^2 at these velocity amplitudes, to t 0.2
LARGE_DATA = {f"large{amplitude}": amplitude for amplitude in (5, 10, 20, 40)}


def _large_data_config(amplitude):
    cfg = load_config(builtin_scenario("bump2d"))
    return replace(
        cfg, grid=Grid((17, 17), (1.0, 1.0)), t_end=0.2,
        initial=replace(cfg.initial, velocity_amplitude=amplitude))


@pytest.fixture(scope="module")
def shipped_runs():
    """Each shipped bump scenario's, ``heated2d``'s and each large-data
    run's config, trajectory and diagnostics records, run once."""
    configs = {name: load_config(builtin_scenario(name))
               for name in ("bump2d", "bump3d", "heated2d")}
    configs.update((name, _large_data_config(amplitude))
                   for name, amplitude in LARGE_DATA.items())
    runs = {}
    for name, cfg in configs.items():
        state = build_initial_state(cfg)
        collector = DiagnosticsCollector(cfg.params, initial_state=state)
        traj = run(state, cfg.params, cfg.stepper, cfg.t_end,
                   sources=build_sources(cfg), observers=[collector])
        runs[name] = cfg, traj, collector.records
    return runs


def _relative_residual(op, x, rhs):
    return np.linalg.norm(rhs - op.matrix @ x) / np.linalg.norm(rhs)


def test_accepted_steps_solve_the_unsplit_jacobi_systems(shipped_runs):
    """The implicit elasticity, the Gauss-Seidel sweep order and Newton's
    heat system leave the fixed point where it was: each accepted step
    solves the velocity system with only the viscosity implicit, and the
    heat system linearised at the accepted temperature, both with the
    strains of the per-corner reference."""
    cfg, traj, _ = shipped_runs["bump2d"]
    grid, params, dt = traj.grid, cfg.params, cfg.stepper.dt
    velocity_op = linear_step.velocity_matrix(
        grid, dt, params.lambda1, params.mu1)
    for old, new in zip(traj.states[:10], traj.states[1:11]):
        rhs_v = reference_velocity_rhs(
            grid, dt, old.v, new.u, new.theta, None, params)
        x_v = linear_step.pack_interior(grid, new.v.data)
        assert _relative_residual(velocity_op, x_v, rhs_v) <= 1e-9
        rhs_h, q = reference_heat_rhs_vector(
            grid, dt, old.theta, new.theta, new.v, None, params)
        heat_op = linear_step.heat_matrix(
            grid, dt, ScalarField(grid, q), params)
        x_h = new.theta.data.ravel()
        assert _relative_residual(heat_op, x_h, rhs_h) <= 1e-9


# velocity CG iterations of any one step; with every solve at CG_TOL the
# steps took 44.7 (bump2d) and 73.3 (bump3d) on average
MAX_STEP_VELOCITY_ITERATIONS = {"bump2d": 40, "bump3d": 50}


@pytest.mark.parametrize("name, max_mean_sweeps", [("bump2d", 6), ("bump3d", 7)])
def test_shipped_scenarios_sweep_and_cg_budgets(shipped_runs, name,
                                                max_mean_sweeps):
    """Sweeps per step and CG iterations per sweep and per step, read from
    the solve reports each trace keeps for every sweep.  Only the accepting
    sweep's solves promise ``CG_TOL``; the earlier ones cut their own
    starting residual by ``SWEEP_REDUCTION``."""
    _, traj, _ = shipped_runs[name]
    max_step_iterations = MAX_STEP_VELOCITY_ITERATIONS[name]
    sweeps = [trace.iterations for trace in traj.traces]
    assert np.mean(sweeps) <= max_mean_sweeps
    for trace in traj.traces:
        assert len(trace.velocity_solves) == len(trace.heat_solves)
        assert len(trace.velocity_solves) == trace.iterations
        for velocity, heat in zip(trace.velocity_solves, trace.heat_solves):
            assert velocity.converged and heat.converged
            assert velocity.iterations <= 25
            assert heat.iterations <= 8
        assert trace.velocity_solves[-1].relative_residual <= CG_TOL
        assert trace.heat_solves[-1].relative_residual <= CG_TOL
        step_iterations = sum(r.iterations for r in trace.velocity_solves)
        assert step_iterations <= max_step_iterations


@pytest.mark.parametrize("name", ["bump2d", "bump3d", "heated2d"])
def test_accepting_sweep_reaches_cg_tol(shipped_runs, name):
    """Every step accepts on a sweep whose two solves reached ``CG_TOL``.
    On heated2d the velocity right-hand side is round-off, so the sweep
    that first meets the Picard threshold has stopped its velocity solve
    early, and one more sweep at full tolerance is the accepting one."""
    _, traj, _ = shipped_runs[name]
    extra = 0
    for trace in traj.traces:
        assert trace.ys[-1] <= trace.threshold
        assert trace.velocity_solves[-1].relative_residual <= CG_TOL
        assert trace.heat_solves[-1].relative_residual <= CG_TOL
        if len(trace.ys) > 1 and trace.ys[-2] <= trace.threshold:
            early = trace.velocity_solves[-2], trace.heat_solves[-2]
            assert max(r.relative_residual for r in early) > CG_TOL
            extra += 1
    assert extra == (len(traj.traces) if name == "heated2d" else 0)


@pytest.mark.parametrize("name", ["bump2d", "bump3d", "heated2d"])
def test_single_precision_preconditioner_keeps_the_iterations(
        monkeypatch, shipped_runs, name):
    """The stepper applies the velocity preconditioner in float32.  Run
    again with its float64 twin (the same matrix), every sweep takes the
    same velocity and heat CG iterations, every step the same sweeps, and
    the accepted states agree to 1e-10 relative."""
    cfg, traj, _ = shipped_runs[name]
    monkeypatch.setattr(linear_step, "velocity_matrix", double_velocity_operator)
    twin = run(traj.states[0], cfg.params, cfg.stepper, cfg.t_end,
               sources=build_sources(cfg))
    assert len(twin.traces) == len(traj.traces)
    for single, double in zip(traj.traces, twin.traces):
        assert single.iterations == double.iterations
        for kind in ("velocity_solves", "heat_solves"):
            assert ([r.iterations for r in getattr(single, kind)]
                    == [r.iterations for r in getattr(double, kind)])
    for single, double in zip(traj.states[1:], twin.states[1:]):
        for field in ("u", "v", "theta"):
            want = getattr(double, field).data
            got = getattr(single, field).data
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _full_tolerance_step(stepper, state):
    """One step of sweeps driven by hand, every solve at ``CG_TOL``, until
    the change of (v, theta) falls to ``PICARD_TOL`` times the first."""
    grid = stepper.grid
    load, x_v, theta = _sweep_start(stepper, state)
    v = state.v
    floor = 1e-14 * (1.0 + lp_norm(state.theta, 2) + l2_norm(grid, v.data))
    moves = []
    while not moves or moves[-1] > max(PICARD_TOL * moves[0], floor):
        assert len(moves) < PICARD_MAX
        x_v, theta_new, *_ = stepper.sweep(state, x_v, theta, load, None)
        v_new = linear_step.unpack_interior(grid, x_v)
        moves.append(l2_diff(v_new, v, grid) + l2_diff(theta_new, theta, grid))
        v, theta = v_new, theta_new
    u = VectorField(grid, state.u.data + stepper.config.dt * v.data)
    return SimState(state.t + stepper.config.dt, u, v, theta)


def test_inexact_sweeps_match_full_tolerance_sweeps(shipped_runs):
    """The bump2d trajectory of early sweeps that only cut their residual
    matches sweeps driven by hand at full tolerance to 1e-10 relative, in
    every state."""
    cfg, traj, _ = shipped_runs["bump2d"]
    stepper = Stepper(traj.grid, cfg.params, traj.config)
    state = traj.states[0]
    for accepted in traj.states[1:]:
        state = _full_tolerance_step(stepper, state)
        for name in ("u", "v", "theta"):
            want = getattr(state, name).data
            got = getattr(accepted, name).data
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_stepper_elastic_operator_shares_the_velocity_pattern(rng):
    """The step's load holds Q2 u_old for Q2 the compact Navier matrix of
    the Lame pair, from the strain map's adjoint alone: ``velocity_load``
    is x_v/dt + b + Q2 u_old, and ``velocity_rhs`` subtracts the interior
    rows of ``tensor_divergence`` of theta A2 alpha for an anisotropic
    alpha, within 1e-15 of the operators' scale, in 1-D, 2-D and 3-D and
    with and without b.  Built in place, the load is bit for bit that
    arithmetic out of place, and it leaves its arguments as they were."""
    params = default_params(lambda1=0.4, mu1=0.9, lambda2=1.3, mu2=0.6,
                            alpha=[0.1, 0.25, 0.4, 0.05, -0.02, 0.03])
    pack, dt = linear_step.pack_interior, 0.05
    for nodes, lengths in (((9,), (1.0,)), ((13, 19), (0.8, 1.5)),
                           ((5, 6, 7), (1.0, 2.0, 3.0))):
        grid = Grid(nodes, lengths)
        q2 = navier_matrix(grid, 1.3, 0.6, box=slice(1, -1))
        v_old, u_old, b_field = (random_boundary_zero_vector(grid, rng)
                                 for _ in range(3))
        x_v, x_u = pack(grid, v_old.data), pack(grid, u_old.data)
        theta = ScalarField(grid, 1.0 + rng.random(grid.shape))
        tension = np.zeros(grid.shape + (6,))
        tension[...] = params.thermal_coupling()
        tension *= theta.data[..., None]
        thermal = pack(grid, tensor_divergence(
            SymTensorField(grid, tension)).data)
        given = x_v.copy(), u_old.data.copy()
        for b in (None, b_field):
            load = linear_step.velocity_load(
                grid, dt, x_v, linear_step.corner_strains(u_old), b, params)
            reference = x_v / dt
            if b is not None:
                reference = reference + pack(grid, b.data)
            reference = reference + grid_module.stress_divergence(
                grid, grid_module.strain_stress(
                    linear_step.corner_strains(u_old.copy()), 1.3, 0.6,
                    grid.d))
            assert load.tobytes() == reference.tobytes()
            expected = x_v / dt + q2 @ x_u
            scale = np.abs(x_v) / dt + abs(q2) @ np.abs(x_u)
            if b is not None:
                expected += pack(grid, b.data)
                scale += np.abs(pack(grid, b.data))
            assert np.max(np.abs(load - expected)) <= 1e-15 * np.max(scale)
            rhs = linear_step.velocity_rhs(load, theta, params)
            scale = np.max(np.abs(load)) + np.max(np.abs(tension)) * sum(
                1.0 / h for h in grid.h)
            assert np.max(np.abs(rhs - (load - thermal))) <= 1e-15 * scale
        assert np.array_equal(x_v, given[0])
        assert np.array_equal(u_old.data, given[1])


def _counting(monkeypatch, modules, name, calls, record=None):
    """Rebind ``name`` in each module to a wrapper that counts its calls
    in ``calls[name]`` and passes each result to ``record``."""
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        result = real(*args, **kwargs)
        if record is not None:
            record(args, result)
        return result

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def test_step_takes_no_field_derivative(monkeypatch, shipped_runs):
    """A step on bump2d takes every strain and stress divergence from the
    stepper's maps: no np.gradient call.  The sweep calls its right-hand
    sides and heat matrix through ``linear_step``, once per sweep."""
    cfg, traj, _ = shipped_runs["bump2d"]
    stepper = Stepper(traj.grid, cfg.params, traj.config)
    calls = {}
    _counting(monkeypatch, [np], "gradient", calls)
    for name in ("sym_gradient", "tensor_divergence"):
        _counting(monkeypatch, [grid_module], name, calls)
    for name in ("velocity_rhs", "heat_rhs_vector", "heat_matrix"):
        _counting(monkeypatch, [linear_step], name, calls)
    new, trace = stepper.step(traj.states[3])
    assert trace.iterations > 1
    assert calls == {name: trace.iterations for name in
                     ("velocity_rhs", "heat_rhs_vector", "heat_matrix")}
    assert np.array_equal(new.theta.data, traj.states[4].theta.data)


def test_step_packs_and_unpacks_the_velocity_once(monkeypatch, shipped_runs):
    """The Picard iterate is the solver's own unknowns: a step on bump2d
    packs ``state.v`` once, unpacks the accepted velocity once and builds
    one SimState, however many sweeps it takes.  ``velocity_load`` takes
    that packed velocity and packs only ``state.u`` (and b, which bump2d
    has not), once per step."""
    cfg, traj, _ = shipped_runs["bump2d"]
    stepper = Stepper(traj.grid, cfg.params, traj.config)
    state = traj.states[3]
    calls, packed = {}, []
    _counting(monkeypatch, [linear_step], "pack_interior", calls,
              lambda args, _: packed.append(args[1]))
    _counting(monkeypatch, [linear_step], "unpack_interior", calls)
    _counting(monkeypatch, [picard], "SimState", calls)
    new, trace = stepper.step(state)
    assert trace.iterations > 1
    assert calls == {"pack_interior": 2, "unpack_interior": 1, "SimState": 1}
    assert sum(data is state.v.data for data in packed) == 1
    for name in ("u", "v", "theta"):
        assert np.array_equal(getattr(new, name).data,
                              getattr(traj.states[4], name).data)


def test_stepper_rewrites_one_heat_matrix(monkeypatch, shipped_runs):
    """Every sweep's heat matrix is the stepper's one matrix: its index
    arrays and data are shared, and each rewritten ``data`` is bit-equal
    to a freshly built ``heat_matrix`` of that sweep's diagonal
    coefficient, Newton's q."""
    cfg, traj, _ = shipped_runs["bump2d"]
    grid, params, dt = traj.grid, cfg.params, cfg.stepper.dt
    stepper = Stepper(grid, params, traj.config)
    fresh_heat_matrix = linear_step.heat_matrix
    sweeps, newton = [], []

    def record(args, op):
        sweeps.append((args[2].data.copy(), op.matrix, op.matrix.data.copy()))

    _counting(monkeypatch, [linear_step], "heat_rhs_vector", {},
              lambda args, result: newton.append(result[1].data.copy()))
    _counting(monkeypatch, [linear_step], "heat_matrix", {}, record)
    _, trace = stepper.step(traj.states[3])
    assert len(sweeps) == trace.iterations >= 2
    assert trace.frozen_sweeps == 0
    first = sweeps[0][1]
    for q, (coefficient, matrix, data) in zip(newton, sweeps):
        assert np.array_equal(coefficient, q)
        assert matrix is first
        fresh = fresh_heat_matrix(
            grid, dt, ScalarField(grid, coefficient), params).matrix
        assert not np.shares_memory(fresh.data, first.data)
        assert np.array_equal(fresh.indptr, matrix.indptr)
        assert np.array_equal(fresh.indices, matrix.indices)
        assert data.tobytes() == fresh.data.tobytes()


def test_shortened_final_step_rebuilds_only_the_velocity_matrix(
        monkeypatch, grid2d, params):
    """A run whose t_end is not a multiple of dt builds the strain map and
    the heat stiffness once, and its diagnostics build no matrix; the final
    step rebuilds only the velocity matrix."""
    calls = {}
    _counting(monkeypatch, [grid_module, linear_step], "navier_matrix", calls)
    _counting(monkeypatch, [grid_module, linear_step], "neumann_matrix", calls)
    _counting(monkeypatch, [picard], "strain_matrix", calls)
    _counting(monkeypatch, [grid_module], "_kron_csr", calls)
    steppers = []
    _counting(monkeypatch, [linear_step], "velocity_matrix", calls,
              lambda args, op: steppers.append((args[1], op)))
    state = bump_state(grid2d)
    collector = DiagnosticsCollector(params, initial_state=state)
    traj = run(state, params, StepperConfig(dt=0.05), 0.13,
               observers=[collector])
    assert traj.states[-1].t == pytest.approx(0.13)
    # four matrices are written from bands: the strain map, whose adjoint
    # the velocity system applies on its arrays, the heat stiffness and two
    # velocity matrices; the diagnostics read the stepper's map
    assert calls == {"navier_matrix": 2, "neumann_matrix": 1,
                     "strain_matrix": 1, "velocity_matrix": 2,
                     "_kron_csr": 4}
    assert [dt for dt, _ in steppers] == pytest.approx([0.05, 0.03])


def test_with_dt_shares_the_elastic_values_on_the_new_pattern(grid2d):
    """``with_dt`` shares the strain map, whose adjoint carries the
    elasticity of the load, and the heat stiffness; it builds only the
    velocity matrix of the new dt."""
    params = default_params(lambda1=0.4, mu1=0.9, lambda2=1.3, mu2=0.6)
    stepper = Stepper(grid2d, params, StepperConfig(dt=0.05))
    short = stepper.with_dt(0.02)
    assert short.config.dt == 0.02 and stepper.config.dt == 0.05
    for name in ("strain", "stiffness"):
        assert getattr(short, name) is getattr(stepper, name)
    assert stepper.strain is grid_module.strain_matrix(grid2d)
    velocity = short.velocity_op.matrix
    assert velocity is not stepper.velocity_op.matrix
    expected = linear_step.velocity_matrix(grid2d, 0.02, 0.4 + 0.02 * 1.3,
                                           0.9 + 0.02 * 0.6).matrix
    assert velocity.data.tobytes() == expected.data.tobytes()


def _reachable(root):
    """Every sparse matrix and array reachable from ``root`` through
    attributes, containers and closures (not through modules, classes or
    function globals)."""
    seen, matrices, arrays, stack = set(), [], [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, type(np))):
            continue
        seen.add(id(obj))
        if sp.issparse(obj):
            matrices.append(obj)
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif callable(obj) and hasattr(obj, "__code__"):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return matrices, arrays


def test_stepper_stores_only_what_a_sweep_multiplies(grid2d):
    """The sparse matrices a stepper and its ``with_dt`` copy reach are the
    grid's strain map, the adjoint's views of its arrays, the two velocity
    matrices and the heat stiffness; no array of Q2's size but the
    velocity matrices' own."""
    params = default_params(lambda1=0.4, mu1=0.9, lambda2=1.3, mu2=0.6)
    stepper = Stepper(grid2d, params, StepperConfig(dt=0.05))
    short = stepper.with_dt(0.02)
    stepper.step(bump_state(grid2d))
    strain = grid_module.strain_matrix(grid2d)
    velocity = [stepper.velocity_op.matrix, short.velocity_op.matrix]
    own = [strain, stepper.stiffness.matrix] + velocity
    matrices, arrays = _reachable([stepper, short])
    views = [m for m in matrices if not any(m is o for o in own)]
    assert len(matrices) == len(own) + len(views)
    assert views, "the adjoint keeps its views on the grid"
    for view in views:
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(view, name), getattr(strain, name))
    q2 = navier_matrix(grid2d, 1.3, 0.6, box=slice(1, -1))
    for array in arrays:
        if array.size == q2.nnz:
            assert any(np.shares_memory(array, getattr(m, name))
                       for m in velocity for name in ("data", "indices"))


def _bit_equal(a, b):
    return all(getattr(a, name).data.tobytes()
               == getattr(b, name).data.tobytes()
               for name in ("u", "v", "theta"))


def test_velocity_solves_take_the_product_the_last_one_handed_back(
        monkeypatch, grid2d, params):
    """From sweep to sweep and from step to step, a velocity solve takes
    its start product from the solve before it: over a run at one dt the
    velocity matrix forms one product per CG iteration and that of each
    true-residual re-check, and a start product only for the first solve
    and after a solve that returned the start it took a product for (its
    residual took the product's buffer)."""
    counts = {}
    build = linear_step.velocity_matrix
    monkeypatch.setattr(linear_step, "velocity_matrix",
                        lambda *args: counted(build(*args), counts))
    traj = run(bump_state(grid2d), params, StepperConfig(dt=0.05), 0.2)
    solves = [r for t in traj.traces for r in t.velocity_solves]
    assert len(traj.traces) == 4 and len(solves) > 8
    starts, held = 0, False
    for r in solves:
        starts += not held
        held = not held or r.iterations > 0
    assert counts["products"] == starts + sum(
        r.iterations + bool(r.iterations) for r in solves)
    assert starts < len(solves) / 2


def test_held_products_cross_no_change(monkeypatch, tmp_path):
    """A stepper takes the velocity product into its next step only from
    the state it last returned, and a state holds the corner strains of
    its u only from a record of it.  Each of these gives a fresh
    stepper's state bit for bit: a step of a ``with_dt`` copy from the
    state the original returned; a step from a state the stepper did not
    produce; a step after a NonConvergenceError and one after a
    DegeneracyError in mid-step (raised after a velocity solve has handed
    its product back), from the state the stepper returned before it; a
    recorded run resumed from a checkpoint, against the whole run, record
    for record.  A streamed 33^2 run keeps at most two accepted states."""
    grid, params = make_grid(d=2, n=17), default_params()
    config = StepperConfig(dt=0.02)  # every step's last solve iterates

    def fresh(state, dt=0.02):
        return Stepper(grid, params, StepperConfig(dt=dt)).step(state)[0]

    stepper = Stepper(grid, params, config)
    state, _ = stepper.step(bump_state(grid))
    assert _bit_equal(stepper.with_dt(0.05).step(state)[0],
                      fresh(state, 0.05))
    other = bump_state(grid, v_amp=0.3)  # while the returned state lives
    assert _bit_equal(stepper.step(other)[0], fresh(other))
    state, _ = stepper.step(state)
    monkeypatch.setattr(picard, "PICARD_MAX", 1)
    with pytest.raises(NonConvergenceError):
        stepper.step(state)
    monkeypatch.setattr(picard, "PICARD_MAX", PICARD_MAX)
    assert _bit_equal(stepper.step(state)[0], fresh(state))
    state, _ = stepper.step(state)
    heat_matrix = linear_step.heat_matrix

    def degenerate(*args, **kwargs):
        raise DegeneracyError("the heat sub-problem lost parabolicity")

    monkeypatch.setattr(linear_step, "heat_matrix", degenerate)
    with pytest.raises(DegeneracyError):
        stepper.step(state)
    monkeypatch.setattr(linear_step, "heat_matrix", heat_matrix)
    assert _bit_equal(stepper.step(state)[0], fresh(state))

    initial = bump_state(grid)
    whole = DiagnosticsCollector(params, initial_state=initial)
    traj = run(initial, params, config, 0.1, observers=[whole])
    save_checkpoint(traj.states[2], str(tmp_path / "step2.ckpt"))
    resumed, _ = load_checkpoint(str(tmp_path / "step2.ckpt"))
    collector = DiagnosticsCollector(params, initial_state=resumed)
    rest = run(resumed, params, config, 0.1, observers=[collector])
    assert len(rest.states) == 4
    for a, b in zip(rest.states[1:], traj.states[3:]):
        assert _bit_equal(a, b) and a.t == b.t
    assert collector.records[1:] == whole.records[3:]

    watch = AcceptedStates(monkeypatch)
    initial = bump_state(make_grid(d=2, n=33))
    collector = DiagnosticsCollector(params, initial_state=initial)
    for event in steps(initial, params, StepperConfig(dt=0.02), 0.1):
        collector(event)
    assert len(watch.refs) == 5 and watch.most_alive[(33, 33)] <= 2


def test_picard_nonconvergence_carries_trace():
    """A 9x9 bump with thermal expansion 2 does not contract at dt 0.5:
    the coupling of velocity and temperature, which Newton's heat system
    does not touch, lifts the Y ratios above 1 from the sixth sweep.  The
    step fails at the third consecutive rise of Y, at sweep 8, carrying
    every sweep's trace; no sweep has taken the frozen fallback (run to
    the 50-sweep cap, 27 did).  (The earlier input, velocity amplitude 10
    at dt 0.05, failed by the substitution in cv theta theta_t; with
    Newton it converges in 9 sweeps.)"""
    grid = make_grid(d=2, n=9)
    state = bump_state(grid)
    stepper = Stepper(grid, default_params(alpha=2.0), StepperConfig(dt=0.5))
    with pytest.raises(NonConvergenceError,
                       match=f"rose in {PICARD_RISES} consecutive sweeps"
                       ) as excinfo:
        stepper.step(state)
    trace = excinfo.value.report
    assert not trace.converged
    assert len(trace.ys) == trace.iterations <= 8
    assert len(trace.velocity_solves) == len(trace.heat_solves) == len(
        trace.ys)
    assert all(r > 1.0 for r in trace.ratios()[-PICARD_RISES:])
    assert trace.frozen_sweeps == 0


def test_picard_sweep_cap_carries_trace(monkeypatch):
    """A step that contracts but has not met its threshold after
    ``PICARD_MAX`` sweeps fails, carrying every sweep's trace: a 9x9 bump
    at dt 0.05 that needs more than two sweeps, with the cap at 2."""
    grid = make_grid(d=2, n=9)
    state = bump_state(grid)
    stepper = Stepper(grid, default_params(), StepperConfig(dt=0.05))
    _, converged = stepper.step(state)
    assert converged.iterations > 2
    monkeypatch.setattr(picard, "PICARD_MAX", 2)
    with pytest.raises(NonConvergenceError, match="for 2 sweeps") as excinfo:
        stepper.step(state)
    trace = excinfo.value.report
    assert not trace.converged
    assert len(trace.ys) == trace.iterations == 2
    assert len(trace.velocity_solves) == len(trace.heat_solves) == 2
    assert trace.threshold < trace.ys[1] < trace.ys[0]
    assert trace.ys == converged.ys[:2]


# ---------------------------------------------------------------------------
# Newton's heat system and its frozen fallback
# ---------------------------------------------------------------------------

def test_heat_only_newton_error_squares(params):
    """With the velocity held fixed, Newton's heat solves square the error
    from sweep to sweep: on a 17^2 bump of velocity amplitude 5 at dt 0.02,
    whose viscous heating lifts theta from 1 to about 9 in the step, the
    errors 8.4, 2.8, 0.57, 0.034, 1.4e-4, 2.1e-9 each stay below 0.2 times
    the square of the one before.  (The frozen substitution cuts them by
    about 0.7 per sweep.)"""
    grid = make_grid(d=2, n=17)
    state = bump_state(grid, v_amp=5.0)
    dt = 0.02
    stepper = Stepper(grid, params, StepperConfig(dt=dt))
    x_v = linear_step.pack_interior(grid, state.v.data)
    theta, iterates = state.theta, []
    for _ in range(7):
        rhs, q, frozen = linear_step.heat_rhs_vector(
            grid, dt, state.theta, theta, x_v, stepper.strain, None, params)
        assert not frozen
        op = linear_step.heat_matrix(grid, dt, q, params,
                                     stiffness=stepper.stiffness)
        x, _ = linear_step.solve_spd(op, rhs, x0=theta.data.ravel())
        theta = ScalarField(grid, x.reshape(grid.shape))
        iterates.append(x)
    limit = iterates[-1]
    errors = [np.max(np.abs(x - limit)) for x in iterates[:-1]]
    above_roundoff = [(a, b) for a, b in zip(errors, errors[1:])
                      if b > 1e-12 * np.max(limit)]
    assert len(above_roundoff) >= 4
    assert errors[0] > 1.0
    for a, b in above_roundoff:
        assert b <= 0.2 * a**2


def test_nonpositive_newton_coefficient_takes_the_frozen_system(
        monkeypatch, params):
    """A sweep whose Newton coefficient q is not positive everywhere solves
    the frozen system, (cv/dt) w theta_it theta - k Lap theta =
    w [(cv/dt) theta_it theta_old - theta_it (A2 alpha):eps + (A1 eps):eps],
    and the trace counts it; every other sweep solves Newton's system.
    The sweep solves the system that ``heat_rhs_vector`` returns, checked
    here against the per-corner reference.  A 33^2 bump of velocity
    amplitude 80 at dt 0.02 to t 0.2 has one such sweep, and still
    converges."""
    grid = make_grid(d=2, n=33)
    dt = 0.02
    linearised, coefficients, heat_rhs = [], [], []

    def linearisation(args, result):
        linearised.append((args[2], args[3], args[4].copy()) + result)

    def solve(args, result):
        if args[0].size == grid.num_nodes:
            heat_rhs.append(args[1].copy())

    _counting(monkeypatch, [linear_step], "heat_rhs_vector", {}, linearisation)
    _counting(monkeypatch, [linear_step], "heat_matrix", {},
              lambda args, op: coefficients.append(args[2]))
    _counting(monkeypatch, [linear_step], "solve_spd", {}, solve)
    traj = run(bump_state(grid, v_amp=80.0), params, StepperConfig(dt=dt),
               0.2)
    assert all(trace.converged for trace in traj.traces)
    assert len(linearised) == len(coefficients) == len(heat_rhs)
    frozen = [fell_back for *_, fell_back in linearised]
    assert sum(frozen) == sum(t.frozen_sweeps for t in traj.traces) >= 1
    mass = grid.quad_weights.ravel() * (params.cv / dt)
    for (theta_old, theta, x_v, rhs, coefficient, fell_back), matrix_of, \
            solved in zip(linearised, coefficients, heat_rhs):
        assert matrix_of is coefficient
        assert np.array_equal(solved, rhs)
        newton_rhs, q = reference_heat_rhs_vector(
            grid, dt, theta_old, theta,
            linear_step.unpack_interior(grid, x_v), None, params)
        assert (not np.min(q) > 0.0) == fell_back
        if not fell_back:
            continue
        assert coefficient is theta
        theta_old, theta = theta_old.data.ravel(), theta.data.ravel()
        coupling = mass * (q.ravel() - 2.0 * theta + theta_old)
        heating = newton_rhs - mass * theta**2
        expected = mass * theta * theta_old - theta * coupling + heating
        assert np.max(np.abs(solved - expected)) <= 1e-12 * np.max(
            np.abs(expected))


@pytest.mark.parametrize("amplitude", [10.0, 20.0])
def test_large_data_converges_at_the_shipped_dt(params, amplitude):
    """A 33^2 bump of velocity amplitude 10 or 20 runs at dt 0.02 to t 0.2
    (with the heat capacity iterated by substitution, both failed with
    NonConvergenceError): every step's Y sequence is monotone with ratios
    below 1, theta stays above its lower bound, and the entropy production
    is nonnegative."""
    grid = make_grid(d=2, n=33)
    state = bump_state(grid, v_amp=amplitude)
    collector = DiagnosticsCollector(params, initial_state=state)
    traj = run(state, params, StepperConfig(dt=0.02), 0.2,
               observers=[collector])
    assert traj.states[-1].t == pytest.approx(0.2)
    for trace in traj.traces:
        assert all(b <= a for a, b in zip(trace.ys, trace.ys[1:]))
        assert all(r < 1.0 for r in trace.ratios())
    passed, _ = theta_lower_bound_check(traj, params)
    assert passed
    assert all(record.entropy_production >= 0.0
               for record in collector.records)
    for s in traj.states:
        for name in ("u", "v", "theta"):
            assert np.all(np.isfinite(getattr(s, name).data))


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
    assert traj.sources == Sources()
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


@pytest.mark.parametrize("dt,t_end", [(0.02, 1.0), (0.0125, 0.25),
                                      (0.03, 1.0), (0.05, 0.13)])
def test_run_states_are_at_their_source_times(params, dt, t_end):
    """Each accepted state is at the time its sources were evaluated at,
    k * dt on the ladder and exactly t_end at the end: adding dt step by
    step used to end 50 steps of 0.02 at 1.0000000000000004 and put a state
    up to 6.7e-16 away from its sources' time."""
    grid = make_grid(d=2, n=5)
    b_times, g_times = [], []

    def b(t):
        b_times.append(t)
        return VectorField.zeros(grid)

    def g(t):
        g_times.append(t)
        return ScalarField.constant(grid, 0.0)

    traj = run(SimState.rest(grid), params, StepperConfig(dt=dt), t_end,
               sources=Sources(b=b, g=g))
    times = [s.t for s in traj.states[1:]]
    assert times == b_times == g_times
    assert times[:-1] == [k * dt for k in range(1, len(times))]
    assert times[-1] == t_end


def test_run_rejects_bad_horizon(grid2d, params):
    with pytest.raises(UsageError):
        run(SimState.rest(grid2d), params, StepperConfig(dt=0.05), 0.0)


def test_run_is_steps_collected(params):
    """``run`` is ``steps`` collected: bit-equal states at the same times,
    equal traces, and each observer called once per event, in order, with
    the event ``steps`` yields.  The 0.13 span ends in a shortened step."""
    grid = make_grid(d=2, n=9)
    state = bump_state(grid)
    config = StepperConfig(dt=0.05)
    sources = Sources.constant(grid, g_value=0.5)
    events = list(steps(state, params, config, 0.13, sources=sources))
    seen = []
    traj = run(state, params, config, 0.13, sources=sources,
               observers=[seen.append, seen.append])
    assert [e.index for e in seen] == [0, 0, 1, 1, 2, 2]
    assert all(a is b for a, b in zip(seen[::2], seen[1::2]))
    assert traj.states[0] is state
    assert len(traj.states) == len(events) + 1 == 4
    for event, observed, old, new, trace in zip(
            events, seen[::2], traj.states, traj.states[1:], traj.traces):
        assert observed.state_old is old and observed.state_new is new
        assert observed.trace is trace
        assert event.trace == trace
        assert (event.index, event.dt) == (observed.index, observed.dt)
        for want, got in ((event.state_old, old), (event.state_new, new)):
            assert want.t == got.t
            for name in ("u", "v", "theta"):
                assert np.array_equal(getattr(want, name).data,
                                      getattr(got, name).data)
    assert [e.dt for e in events] == [0.05, 0.05, pytest.approx(0.03)]
    assert traj.config == StepperConfig(
        dt=0.05, theta_floor=0.5 * float(np.min(state.theta.data)))


def test_steps_validates_at_its_first_next(grid2d, params):
    """``steps`` is a generator: a horizon at or before the initial time
    and an initial state that does not vanish on the boundary raise
    ``UsageError`` at its first ``next()``; ``run`` raises at once."""
    rest = SimState.rest(grid2d)
    moving = SimState.rest(grid2d)
    moving.v.data[0, 0, 0] = 1.0
    config = StepperConfig(dt=0.05)
    for initial, t_end in ((rest, 0.0), (rest, -1.0), (moving, 0.5)):
        events = steps(initial, params, config, t_end)
        with pytest.raises(UsageError):
            next(events)
        with pytest.raises(UsageError):
            run(initial, params, config, t_end)


def test_run_keeps_its_sources(grid2d, params):
    sources = Sources.constant(grid2d, g_value=0.5)
    traj = run(SimState.rest(grid2d), params, StepperConfig(dt=0.05), 0.2,
               sources=sources)
    assert traj.sources is sources
    assert not traj.source_free


def test_a_zero_source_callable_is_a_source(params):
    """``source_free`` asks whether a run has a ``b`` or ``g`` callable,
    not what it returns: a run whose body force is a callable returning
    zeros is not source-free, and the availability check refuses it."""
    grid = make_grid(d=2, n=5)
    sources = Sources(b=lambda t: VectorField.zeros(grid))
    traj = run(SimState.rest(grid), params, StepperConfig(dt=0.05), 0.1,
               sources=sources)
    assert traj.sources is sources
    assert not traj.source_free
    with pytest.raises(UsageError, match="source-free"):
        availability_decay_check(traj, params)


def test_energy_drift_halves_with_dt(params):
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


def test_energy_drift_has_no_floor():
    """On the 17^2 bump to t = 0.1, halving dt from 6.25e-4 to 3.125e-4
    halves the energy drift: all of it is the O(dt) dissipation of backward
    Euler.  (With the np.gradient strains of the heat source and the
    diagnostics, this ratio was 1.51: a floor of about 5e-5.)"""
    params = default_params()
    grid = make_grid(d=2, n=17)
    state = bump_state(grid)
    drift = []
    for dt in (6.25e-4, 3.125e-4):
        traj = run(state, params, StepperConfig(dt=dt), 0.1)
        e0 = total_energy(traj.states[0], params)
        drift.append(abs(total_energy(traj.states[-1], params) - e0) / e0)
    assert drift[0] / drift[1] >= 1.9


def _backward_euler_dissipation(grid, params, old, new):
    """ND = 1/2 |dv|_W^2 + 1/2 du^T (-W Q2) du + 1/2 cv |dtheta|_W^2 of one
    step, with the weights W of the trapezoid rule."""
    pack = linear_step.pack_interior
    weights = np.tile(grid.quad_weights[grid.interior].ravel(), grid.d)
    q2 = navier_matrix(grid, params.lambda2, params.mu2, box=slice(1, -1))
    dv = pack(grid, new.v.data - old.v.data)
    du = pack(grid, new.u.data - old.u.data)
    d_theta = new.theta.data - old.theta.data
    return 0.5 * (dv @ (weights * dv) - du @ (weights * (q2 @ du))
                  + params.cv * np.sum(grid.quad_weights * d_theta**2))


@pytest.mark.parametrize("name", ["bump2d", "bump3d", "heated2d", *LARGE_DATA])
def test_accepted_steps_balance_the_discrete_energy(shipped_runs, name):
    """E_new - E_old - dt * work + ND = 0 at every step, with ND backward
    Euler's dissipation, within PICARD_TOL * (1 + |E_new|); and the
    ``energy_residual`` column is ND / (1 + |E_new|) within the same.

    The identity is exact at the sweep's fixed point, where the heat
    coefficient and both couplings are frozen at the accepted temperature.
    A step is accepted once a sweep changes (v, theta) by PICARD_TOL times
    the first sweep's change, so the frozen temperature misses the
    accepted one by at most that; the defect is that miss times the step's
    change of theta, weighted by cv, and the CG residuals (1e-12 relative)
    add less.  Both stay far below PICARD_TOL times the energy scale
    (measured: at most 6.4e-13 relative on the shipped runs, 6.2e-13 on
    the large-data ones, whose ND fraction peaks at 0.30-0.71)."""
    cfg, traj, records = shipped_runs[name]
    grid, params = traj.grid, cfg.params
    sources = build_sources(cfg)
    for old, new, record in zip(traj.states, traj.states[1:], records[1:]):
        dt = new.t - old.t
        work = 0.0
        if sources.b is not None:
            work += integrate(ScalarField(
                grid, np.sum(sources.b(new.t).data * new.v.data, axis=-1)))
        if sources.g is not None:
            work += integrate(sources.g(new.t))
        energy = state_integrals(new, params).energy
        change = energy - state_integrals(old, params).energy
        dissipation = _backward_euler_dissipation(grid, params, old, new)
        scale = 1.0 + abs(energy)
        assert abs(change - dt * work + dissipation) <= PICARD_TOL * scale
        assert abs(record.energy_residual - dissipation / scale) <= PICARD_TOL


@pytest.mark.parametrize("name", LARGE_DATA)
def test_large_data_passes_the_trajectory_checks(shipped_runs, name):
    """At large data the availability decays and the temperature stays
    above its exponential lower bound, and no sweep takes the frozen
    fallback of the heat system."""
    cfg, traj, _ = shipped_runs[name]
    assert availability_decay_check(traj, cfg.params)[0]
    assert theta_lower_bound_check(traj, cfg.params)[0]
    assert all(trace.frozen_sweeps == 0 for trace in traj.traces)


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
        StepperConfig(dt=0.0)
    with pytest.raises(UsageError):
        StepperConfig(dt=0.1, theta_floor=0.0)
