"""Energy/entropy/availability monitors, norms, and the Gronwall comparison."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kvsim import (
    DomainError,
    ScalarField,
    SimState,
    Sources,
    StepperConfig,
    Trajectory,
    UsageError,
    integrate,
    run,
    steps,
)
from kvsim.cli_io import perturb_state
from kvsim.diagnostics import (
    CSV_FIELDS,
    DiagnosticsCollector,
    availability_decay_check,
    default_theta_decay_rate,
    gronwall_compare,
    gronwall_rate_constant,
    initial_record,
    mixed_norm,
    record_for_step,
    state_integrals,
    theta_lower_bound_check,
    total_energy,
    v2_norm,
)
from kvsim import diagnostics, grid as grid_module
from kvsim.grid import (
    lp_norm,
    neumann_matrix,
    squared_gradient,
    strain_density,
)
from kvsim.linear_step import corner_strains

from helpers import CountedMatrix, bump_state, default_params, make_grid


@pytest.fixture
def stationary(grid2d):
    return SimState.rest(grid2d, theta0=1.5)


# the Picard trace of a step built by hand, for a record of it
ONE_SWEEP = SimpleNamespace(iterations=1)


def small_run(grid, params, dt=0.05, t_end=0.25, state=None, sources=None):
    state = state if state is not None else bump_state(grid)
    collector = DiagnosticsCollector(params, initial_state=state)
    traj = run(state, params, StepperConfig(dt=dt), t_end,
               sources=sources, observers=[collector])
    return traj, collector.records


# ---------------------------------------------------------------------------
# record basics
# ---------------------------------------------------------------------------

def test_csv_schema_is_frozen():
    assert CSV_FIELDS == (
        "t", "kinetic_energy", "elastic_energy", "thermal_energy",
        "total_energy", "entropy", "availability", "theta_min", "theta_max",
        "entropy_production", "energy_residual", "entropy_residual",
        "clausius_duhem_defect", "grad_theta_dissipation",
        "strain_rate_dissipation", "picard_iterations",
    )


def test_total_energy_is_exact_sum(grid2d, params):
    rec = initial_record(bump_state(grid2d), params)
    assert rec.total_energy == rec.kinetic_energy + rec.elastic_energy + rec.thermal_energy


def test_stationary_residuals_vanish(stationary, params):
    new = SimState(0.05, stationary.u, stationary.v, stationary.theta)
    rec = record_for_step(stationary, new, ONE_SWEEP, None, None, 0.05,
                          params, state_integrals(stationary, params))
    assert rec.energy_residual <= 1e-15
    assert rec.entropy_residual <= 1e-15 and rec.entropy_production == 0.0
    assert rec.clausius_duhem_defect <= 1e-13


def test_records_take_one_strain_per_state(grid2d, params, monkeypatch):
    """A recorded step applies the strain map sweeps + 2 times: once per
    sweep for its heat system, and in its record once each to v_new and
    u_new.  The step's load takes eps(u_old) from the previous record,
    which leaves it on its state, and the collector takes u_old's
    integrals from that record; the initial record applies the map to u
    and v.  A record given u_old's integrals, of a new state that holds
    no strains, applies it to v_new and u_new, and leaves u_new's; a
    record of a state that holds them applies it to v alone.  None calls
    np.gradient."""
    counts = {}
    monkeypatch.setitem(grid2d._cache, "strain", CountedMatrix(
        grid_module.strain_matrix(grid2d), counts, "strain"))
    calls = []
    gradient = np.gradient
    monkeypatch.setattr(np, "gradient",
                        lambda *a, **k: calls.append(a) or gradient(*a, **k))
    state = bump_state(grid2d)
    collector = DiagnosticsCollector(params, initial_state=state)
    assert counts == {"strain": 2} and state.strain is not None
    per_step = []

    def observe(event):
        before = counts["strain"]
        collector(event)
        per_step.append(counts["strain"] - before)

    traj = run(state, params, StepperConfig(dt=0.05), 0.15,
               observers=[observe])
    assert len(traj.traces) == 3 and per_step == [2, 2, 2]
    assert counts["strain"] == 2 + sum(t.iterations + 2 for t in traj.traces)
    assert traj.states[-1].strain is not None
    assert all(s.strain is None for s in traj.states[:-1])
    old = state_integrals(traj.states[0], params)
    counts.clear()
    record_for_step(traj.states[0], traj.states[1], traj.traces[0],
                    None, None, 0.05, params, old)
    assert counts == {"strain": 2}
    counts.clear()
    # the strains of u_1, which the record above left on its state
    diagnostics.initial_record(traj.states[1], params)
    assert counts == {"strain": 1}
    assert not calls


def _midpoint_sigma(old, new, params):
    """The midpoint temperature of a step and its entropy production
    density k |grad theta|^2/theta^2 + eps(v_new):A1 eps(v_new)/theta."""
    grid = old.grid
    theta_mid = ScalarField(grid, 0.5 * (old.theta.data + new.theta.data))
    theta = theta_mid.data
    return theta, ScalarField(grid, (
        params.k * squared_gradient(theta_mid).data / theta**2
        + strain_density(corner_strains(new.v), params.lambda1, params.mu1,
                         grid.d) / theta
    ))


def test_record_fields_equal_public_functions(grid2d, params):
    """Each record field equals the direct computation from the states'
    integrals, the sources and sigma, bit for bit."""
    dt = 0.05
    sources = Sources.constant(grid2d, b_value=(0.1, -0.05), g_value=0.3)
    traj, records = small_run(grid2d, params, dt=dt, t_end=0.2,
                              sources=sources)
    for old, new, rec in zip(traj.states, traj.states[1:], records[1:]):
        b, g = sources.b(new.t), sources.g(new.t)
        theta, sigma = _midpoint_sigma(old, new, params)
        before, after = state_integrals(old, params), state_integrals(new, params)
        work = (integrate(ScalarField(grid2d, np.sum(b.data * new.v.data,
                                                     axis=-1)))
                + integrate(g))
        production = dt * integrate(sigma)
        entropy_defect = abs(
            after.entropy - before.entropy - production
            - dt * integrate(ScalarField(grid2d, g.data / theta)))
        assert rec.energy_residual == (
            abs(after.energy - before.energy - dt * work)
            / (1.0 + abs(after.energy)))
        assert rec.entropy_residual == (
            entropy_defect / (1.0 + abs(after.entropy)))
        assert rec.entropy_production == production / dt
        assert rec.clausius_duhem_defect == entropy_defect / dt
        assert (rec.kinetic_energy, rec.elastic_energy, rec.thermal_energy,
                rec.entropy) == after
        assert rec.availability == after.availability(params.beta)
        assert rec.total_energy == total_energy(new, params)


def test_entropy_balance_requires_positive_theta(grid2d, params):
    state = SimState.rest(grid2d)
    bad = state.copy()
    bad.theta.data[:] = -1.0
    with pytest.raises(DomainError):
        record_for_step(state, bad, ONE_SWEEP, None, None, 0.05, params,
                        state_integrals(state, params))


def test_collector_refuses_an_event_out_of_sequence(grid2d, params):
    """An event must start from the state of the collector's last record:
    one from another initial state, a skipped event and a repeated one are
    refused, and write no record."""
    rest = DiagnosticsCollector(params, initial_state=SimState.rest(grid2d))
    state = bump_state(grid2d)
    collector = DiagnosticsCollector(params, initial_state=state)
    events = steps(state, params, StepperConfig(dt=0.05), 0.15)
    first = next(events)
    with pytest.raises(UsageError, match="last record"):
        rest(first)
    collector(first)
    with pytest.raises(UsageError, match="last record"):
        collector(first)
    next(events)
    with pytest.raises(UsageError, match="last record"):
        collector(next(events))
    assert len(rest.records) == 1 and len(collector.records) == 2


# ---------------------------------------------------------------------------
# balances along runs
# ---------------------------------------------------------------------------

def test_uniform_heating_energy_budget(grid2d, params):
    """u = 0, constant g: the energy gain tracks dt*integral(g) with an
    O(dt^2) per-step defect from the frozen-coefficient quasilinearity."""
    state = SimState.rest(grid2d, theta0=1.0)
    dt, g_val = 0.01, 0.5
    sources = Sources.constant(grid2d, g_value=g_val)
    traj, records = small_run(grid2d, params, dt=dt, t_end=0.1,
                              state=state, sources=sources)
    for old, new, rec in zip(traj.states, traj.states[1:], records[1:]):
        gain = total_energy(new, params) - total_energy(old, params)
        d_theta = np.max(new.theta.data) - np.min(old.theta.data)
        budget = dt * g_val  # unit box volume
        assert abs(gain - budget) <= 0.51 * params.cv * d_theta**2 + 1e-14
        assert rec.entropy_production >= 0.0


def test_entropy_production_nonnegative_along_run(grid2d, params):
    _, records = small_run(grid2d, params)
    assert all(r.entropy_production >= 0.0 for r in records)


def test_residual_richardson_first_order(params):
    grid = make_grid(d=2, n=17)
    state = bump_state(grid)
    sums = {}
    for dt in (0.05, 0.025):
        _, records = small_run(grid, params, dt=dt, t_end=0.5, state=state)
        sums[dt] = (
            sum(r.energy_residual for r in records),
            sum(r.entropy_residual for r in records),
            np.mean([r.clausius_duhem_defect for r in records[1:]]),
        )
    for coarse, fine in zip(sums[0.05], sums[0.025]):
        assert 1.3 <= coarse / fine <= 2.8


# ---------------------------------------------------------------------------
# availability
# ---------------------------------------------------------------------------

def test_availability_constant_on_stationary_run(grid2d, params):
    state = SimState.rest(grid2d, theta0=1.0)
    traj, _ = small_run(grid2d, params, state=state)
    passed, worst, series = availability_decay_check(traj, params)
    assert passed and worst == 0.0
    assert np.max(np.abs(series - series[0])) <= 1e-12


def test_availability_decays_on_bump_run(grid2d, params):
    traj, _ = small_run(grid2d, params, t_end=0.5)
    passed, worst, series = availability_decay_check(traj, params)
    assert passed
    assert series[-1] < series[0]


def test_availability_beta_zero_reduces_to_energy(grid2d, params):
    state = bump_state(grid2d)
    assert state_integrals(state, params).availability(0.0) == pytest.approx(
        total_energy(state, params), rel=1e-14
    )


def test_decay_check_rejects_sourced_runs(grid2d, params):
    sources = Sources.constant(grid2d, g_value=0.1)
    traj, _ = small_run(grid2d, params, state=SimState.rest(grid2d),
                        sources=sources)
    with pytest.raises(UsageError):
        availability_decay_check(traj, params)


# ---------------------------------------------------------------------------
# temperature lower bound
# ---------------------------------------------------------------------------

def test_default_decay_rate_value(params):
    # |A2 alpha|^2 = 3*(0.5)^2 = 0.75, a_1* = 2, cv = 1
    assert default_theta_decay_rate(params) == pytest.approx(0.09375)
    assert gronwall_rate_constant(params) == pytest.approx(0.1875)


def test_theta_lower_bound_on_conduction_only_run(grid2d, params):
    state = SimState.rest(grid2d, theta0=1.0)
    traj, _ = small_run(grid2d, params, state=state)
    passed, margins = theta_lower_bound_check(traj, params)
    assert passed
    assert margins[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(margins >= 0.0)


def test_theta_lower_bound_on_bump_run(grid2d, params):
    traj, _ = small_run(grid2d, params, t_end=0.5)
    passed, margins = theta_lower_bound_check(traj, params)
    assert passed and np.all(margins >= -1e-15)


def test_theta_lower_bound_rejects_negative_sources(grid2d, params):
    sources = Sources.constant(grid2d, g_value=-0.05)
    traj, _ = small_run(grid2d, params, state=SimState.rest(grid2d, 2.0),
                        sources=sources)
    with pytest.raises(UsageError):
        theta_lower_bound_check(traj, params)


def test_theta_lower_bound_reads_the_source_at_every_accepted_time(grid2d,
                                                                   params):
    """A heat source that is nonnegative at the first accepted time and
    negative at a later one is refused, with the least value it takes at
    the accepted times."""

    def g(t):
        return ScalarField.constant(grid2d, 0.05 if t < 0.075 else -0.01)

    traj, _ = small_run(grid2d, params, t_end=0.15,
                        state=SimState.rest(grid2d, 2.0), sources=Sources(g=g))
    assert float(np.min(g(traj.states[1].t).data)) >= 0.0
    with pytest.raises(UsageError, match=r"min\(g\) = -0\.01$"):
        theta_lower_bound_check(traj, params)


def test_theta_lower_bound_of_a_trajectory_without_steps(grid2d, params):
    """A trajectory holding only its initial state, with a heat source or
    none, has no accepted state to check: it passes with the initial
    margin 0, and, source-free, the availability check with its one
    value.  One holding no state at all is a usage error to both."""
    for sources in (Sources.constant(grid2d, g_value=0.1), Sources()):
        alone = Trajectory(states=[SimState.rest(grid2d)], sources=sources)
        passed, margins = theta_lower_bound_check(alone, params)
        assert passed and margins.tolist() == [0.0]
        empty = Trajectory(sources=sources)
        checks = [theta_lower_bound_check]
        if sources.g is None:
            passed, worst, series = availability_decay_check(alone, params)
            assert passed and worst == 0.0 and len(series) == 1
            checks.append(availability_decay_check)
        for check in checks:
            with pytest.raises(UsageError, match="holds no state"):
                check(empty, params)


def _fabricated_trajectory(states):
    """Source-free trajectory wrapper around hand-built states."""
    return Trajectory(states=states, traces=[None] * (len(states) - 1))


def test_theta_lower_bound_nontrivial_dip():
    """Strong thermal coupling with an expanding motion cools the material
    below its initial minimum, yet stays above the exponential bound."""
    from kvsim import VectorField, run as run_solver

    params = default_params(alpha=0.4)
    grid = make_grid(d=2, n=17)
    x, y = grid.coords()
    v = np.stack([
        0.4 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(np.pi * x),
        0.4 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(np.pi * y),
    ], axis=-1)
    v[grid.boundary_mask] = 0.0
    state = SimState(0.0, VectorField.zeros(grid), VectorField(grid, v),
                     ScalarField.constant(grid, 1.0))
    traj = run_solver(state, params, StepperConfig(dt=0.01), 0.5)
    mins = [float(s.theta.data.min()) for s in traj.states]
    assert min(mins) < 1.0  # the dip actually happens
    passed, margins = theta_lower_bound_check(traj, params)
    assert passed
    assert np.all(margins[1:] > 0.0)


def test_theta_lower_bound_detects_violation(grid2d, params):
    """A temperature decaying faster than the bound must be flagged."""
    c0 = default_theta_decay_rate(params)
    states = [
        replace(SimState.rest(grid2d, theta0=float(np.exp(-3.0 * c0 * t))),
                t=t)
        for t in (0.0, 1.0, 2.0)
    ]
    traj = _fabricated_trajectory(states)
    passed, margins = theta_lower_bound_check(traj, params)
    assert not passed
    assert margins[-1] < 0.0


def test_availability_check_detects_entropy_decrease(grid2d, params):
    """Energy-preserving but entropy-decreasing evolution violates decay;
    the checker must flag it (the slack cannot absorb it)."""
    from kvsim.cli_io import _cos_profile

    uniform = SimState.rest(grid2d, theta0=1.0)
    shaped = uniform.copy()
    profile = 1.0 + 0.3 * _cos_profile(grid2d)
    # rescale so the thermal energy (hence total energy) is unchanged
    target = integrate_theta_sq(uniform)
    profile *= np.sqrt(target / integrate_theta_sq_field(grid2d, profile))
    shaped.theta.data[:] = profile
    shaped.t = 0.1
    traj = _fabricated_trajectory([uniform, shaped])
    passed, worst, _ = availability_decay_check(traj, params)
    assert not passed
    assert worst > 0.0


def integrate_theta_sq(state):
    return integrate_theta_sq_field(state.grid, state.theta.data)


def integrate_theta_sq_field(grid, data):
    from kvsim import integrate
    return integrate(ScalarField(grid, data**2))


def test_gronwall_detects_divergence(grid2d, params):
    """Twin runs with one tampered state must trip the envelope flag."""
    state = bump_state(grid2d)
    base = run(state, params, StepperConfig(dt=0.05), 0.25)
    tampered = run(state, params, StepperConfig(dt=0.05), 0.25)
    bad_final = tampered.states[-1].copy()
    bad_final.v.data *= 2.0
    tampered.states[-1] = bad_final
    report = gronwall_compare(tampered, base, params)
    assert report.violation


# ---------------------------------------------------------------------------
# mixed norms
# ---------------------------------------------------------------------------

def test_mixed_norm_of_unit_field(grid2d):
    fields = [ScalarField.constant(grid2d, 1.0) for _ in range(11)]
    times = 0.1 * np.arange(11)
    for p, p0 in ((2, 3), (1, 1), (np.inf, 2), (2, np.inf), (np.inf, np.inf)):
        assert mixed_norm(fields, times, p, p0) == pytest.approx(1.0, abs=1e-12)


def test_mixed_norm_p_equals_p0_matches_spacetime_norm(rng, grid2d):
    fields = [ScalarField(grid2d, rng.random(grid2d.shape)) for _ in range(6)]
    dt, p = 0.2, 3.0
    got = mixed_norm(fields, dt * np.arange(6), p, p)
    direct = (sum(
        dt * np.sum(grid2d.quad_weights * np.abs(f.data) ** p)
        for f in fields[:-1]
    )) ** (1.0 / p)
    assert got == pytest.approx(direct, rel=1e-12)


def test_mixed_norm_linear_in_time_converges_first_order(grid2d):
    """f = t on [0, 1], on a uniform ladder and on t_k = s_k + 0.3 s_k
    (1 - s_k) for uniform s_k, whose intervals run from 1.3/n down to
    0.7/n: the left-endpoint sum weighted by each interval converges at
    first order on both."""
    p, p0 = 2.0, 4.0
    exact = (1.0 / (p0 + 1.0)) ** (1.0 / p0)
    for warp in (0.0, 0.3):
        errs = []
        for steps in (10, 20, 40):
            s = np.arange(steps + 1) / steps
            times = s + warp * s * (1.0 - s)
            fields = [ScalarField.constant(grid2d, t) for t in times]
            errs.append(abs(mixed_norm(fields, times, p, p0) - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 <= coarse / fine <= 2.4


def test_mixed_norm_weighs_each_interval(rng, grid2d):
    """Each snapshot but the last weighs the interval to the next one."""
    fields = [ScalarField(grid2d, rng.random(grid2d.shape)) for _ in range(4)]
    times = [0.0, 0.03, 0.06, 0.07]
    p, p0 = 2.0, 3.0
    norms = [np.sum(grid2d.quad_weights * f.data**p) ** (1.0 / p)
             for f in fields]
    want = (0.03 * norms[0]**p0 + 0.03 * norms[1]**p0
            + 0.01 * norms[2]**p0) ** (1.0 / p0)
    assert mixed_norm(fields, times, p, p0) == pytest.approx(want, rel=1e-13)
    assert mixed_norm(fields, times, p, np.inf) == max(
        lp_norm(f, p) for f in fields)


@pytest.mark.parametrize("times", [
    [0.0, 0.1, 0.1], [0.0, 0.2, 0.1], [0.0, np.nan, 0.2], [0.0, 0.1],
    [[0.0, 0.1, 0.2]], 0.1,
], ids=["repeated", "falling", "nan", "too-few", "2-d", "a-dt"])
def test_norms_reject_times_that_do_not_fit(grid2d, times):
    """Times that repeat, fall, are not numbers or are not one per
    snapshot (a step length among them) are a usage error, for p0 = inf
    too."""
    fields = [ScalarField.constant(grid2d, 1.0)] * 3
    for p0 in (2.0, np.inf):
        with pytest.raises(UsageError, match="strictly increase"):
            mixed_norm(fields, times, 2.0, p0)
    with pytest.raises(UsageError, match="one per snapshot"):
        v2_norm(fields, times)


def test_norms_reject_an_empty_trajectory():
    """No snapshots is a usage error, not max() of an empty sequence."""
    for norm in (lambda: mixed_norm([], [], 2.0, np.inf),
                 lambda: mixed_norm([], [], 2.0, 2.0),
                 lambda: v2_norm([], [])):
        with pytest.raises(UsageError, match="got 0 snapshots"):
            norm()


def test_mixed_norm_rejects_bad_exponents(grid2d):
    fields = [ScalarField.constant(grid2d, 1.0)] * 3
    times = 0.1 * np.arange(3)
    with pytest.raises(UsageError):
        mixed_norm(fields, times, 0.5, 2)
    with pytest.raises(UsageError):
        mixed_norm(fields, times, 2, 0.0)
    with pytest.raises(UsageError):
        mixed_norm(fields, times, np.nan, 2)


def test_v2_norm_of_constant(grid2d):
    fields = [ScalarField.constant(grid2d, 2.0)] * 5
    assert v2_norm(fields, 0.25 * np.arange(5)) == pytest.approx(2.0, abs=1e-12)


def test_v2_norm_second_order_on_cosine_profile():
    """On f = cos(pi x) cos(2 pi y), held for a unit time, the V2 norm is
    ||f|| + ||grad f|| = 1/2 + sqrt(5/4) pi, to O(h^2); its gradient part
    is f^T S f of the Neumann stiffness S, to round-off."""
    errs = []
    for n in (17, 33):
        grid = make_grid(d=2, n=n)
        x, y = grid.coords()
        f = ScalarField(grid, np.cos(np.pi * x) * np.cos(2.0 * np.pi * y))
        got = v2_norm([f] * 5, 0.25 * np.arange(5))
        stiffness = neumann_matrix(grid)[0]
        grad_sq = f.data.ravel() @ (stiffness @ f.data.ravel())
        assert got - lp_norm(f, 2) == pytest.approx(np.sqrt(grad_sq),
                                                    rel=1e-13)
        errs.append(abs(got - (0.5 + np.sqrt(1.25) * np.pi)))
    assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3


# ---------------------------------------------------------------------------
# Gronwall comparison
# ---------------------------------------------------------------------------

def test_gronwall_identical_runs(grid2d, params):
    state = bump_state(grid2d)
    t1 = run(state, params, StepperConfig(dt=0.05), 0.25)
    t2 = run(state, params, StepperConfig(dt=0.05), 0.25)
    report = gronwall_compare(t1, t2, params)
    assert np.all(report.x == 0.0)
    assert not report.violation
    assert np.all(np.diff(report.bound) >= 0.0)


def test_gronwall_perturbation_scaling(grid2d, params):
    base_state = bump_state(grid2d)
    base = run(base_state, params, StepperConfig(dt=0.05), 0.25)
    finals = {}
    for delta in (1e-6, 5e-7):
        pert = perturb_state(base_state, "theta0", delta)
        other = run(pert, params, StepperConfig(dt=0.05), 0.25)
        report = gronwall_compare(other, base, params)
        assert not report.violation
        assert report.x[0] > 0.0
        assert np.all(np.diff(report.bound) >= 0.0)
        finals[delta] = report.x[-1]
    ratio = finals[1e-6] / finals[5e-7]
    assert 2.0 <= ratio <= 8.0


def test_gronwall_perturbed_velocity(grid2d, params):
    base_state = bump_state(grid2d)
    base = run(base_state, params, StepperConfig(dt=0.05), 0.25)
    pert = perturb_state(base_state, "u1", 1e-6)
    other = run(pert, params, StepperConfig(dt=0.05), 0.25)
    report = gronwall_compare(other, base, params)
    assert not report.violation


def test_gronwall_takes_one_strain_per_state_pair(grid2d, params, monkeypatch):
    """X(t) and the rate A(t) share the corner strains of the first run's
    states: one application of the strain map per state and run."""
    state = bump_state(grid2d)
    base = run(state, params, StepperConfig(dt=0.05), 0.25)
    other = run(perturb_state(state, "theta0", 1e-6), params,
                StepperConfig(dt=0.05), 0.25)
    calls = []

    def counting(field):
        calls.append(field)
        return real(field)

    real = diagnostics.corner_strains
    monkeypatch.setattr(diagnostics, "corner_strains", counting)
    gronwall_compare(other, base, params)
    assert len(calls) == 2 * len(base.states)


def test_gronwall_rejects_runs_of_different_lengths(grid2d, params):
    """Runs whose times agree as far as the shorter one goes, but which
    differ in length, have different time ladders, in either order; two
    empty runs have nothing to compare."""
    state = bump_state(grid2d)
    short = run(state, params, StepperConfig(dt=0.05), 0.1)
    long = run(state, params, StepperConfig(dt=0.05), 0.15)
    assert [s.t for s in short] == [s.t for s in long][:len(short.states)]
    for run1, run2, match in ((short, long, "different time ladders"),
                              (long, short, "different time ladders"),
                              ([], [], "no state")):
        with pytest.raises(UsageError, match=match):
            gronwall_compare(run1, run2, params)


def test_gronwall_rejects_mismatched_grids(params):
    a = run(SimState.rest(make_grid(n=9)), params, StepperConfig(dt=0.1), 0.2)
    b = run(SimState.rest(make_grid(n=11)), params, StepperConfig(dt=0.1), 0.2)
    with pytest.raises(UsageError):
        gronwall_compare(a, b, params)


def test_record_for_step_production_matches_sigma(grid2d, params):
    state = bump_state(grid2d)
    traj, records = small_run(grid2d, params, dt=0.05, t_end=0.1, state=state)
    got = records[1].entropy_production
    _, sigma = _midpoint_sigma(traj.states[0], traj.states[1], params)
    assert got == pytest.approx(integrate(sigma), rel=1e-12)
