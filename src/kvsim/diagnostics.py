"""Per-step monitors and post-hoc analyses of the thermodynamic structure.

Everything with a discrete realization is checked here:

* balance of the total energy (kinetic + elastic + thermal) against the
  work of the sources,
* balance of the entropy against the nonnegative entropy production,
* the availability functional  integral(e + |u_t|^2/2 - beta*eta), which is
  a Lyapunov functional on source-free solution paths,
* the exponential-in-time lower bound on the temperature,
* the Gronwall continuous-dependence envelope for pairs of runs,
* mixed space-time norms used as regularity monitors.

All residuals are relative with a +1 absolute floor, so resting states do
not divide by zero.  A step's balances are columns of its
``DiagnosticsRecord`` (``record_for_step``), the one per-step result.
Functions here operate on immutable snapshots and reduce in a fixed order.
They take the corner strains of a state's u from the state when it holds
them (``picard.SimState.strain``), and a record leaves those of its state
on it, for the next step from it to consume; they change nothing else.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields as dataclass_fields
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from . import constitutive as cons
from .errors import DomainError, UsageError
from .grid import (
    ScalarField,
    integrate,
    lp_norm,
    squared_gradient,
    strain_contraction,
    strain_density,
)
from .linear_step import corner_strains


@dataclass
class DiagnosticsRecord:
    """Scalar outputs of one accepted step (field order fixes the CSV schema)."""

    t: float
    kinetic_energy: float
    elastic_energy: float
    thermal_energy: float
    total_energy: float
    entropy: float
    availability: float
    theta_min: float
    theta_max: float
    entropy_production: float
    energy_residual: float
    entropy_residual: float
    clausius_duhem_defect: float
    grad_theta_dissipation: float
    strain_rate_dissipation: float
    picard_iterations: int


CSV_FIELDS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


# ---------------------------------------------------------------------------
# per-state integrals
# ---------------------------------------------------------------------------

class StateIntegrals(NamedTuple):
    """The energies and the entropy of one state."""

    kinetic: float
    elastic: float
    thermal: float
    entropy: float

    @property
    def energy(self):
        """Total energy: the exact sum kinetic + elastic + thermal."""
        return self.kinetic + self.elastic + self.thermal

    def availability(self, beta):
        """integral(e + |u_t|^2/2 - beta*eta); beta = 0 gives the energy."""
        return self.energy - beta * self.entropy


def _strain(state):
    """The corner strains of u: those ``state`` holds, else formed."""
    held = state.strain
    return corner_strains(state.u) if held is None else held


def _hold_strain(state):
    """Leave the corner strains of u on ``state`` for the next step from
    it, unless it holds them."""
    if state.strain is None:
        state.strain = corner_strains(state.u)


def state_integrals(state, params):
    """All integrals of one state, from the corner strains of its u (those
    the state holds, else formed here).

    The elastic energy sums to 1/2 u^T (-W Q2) u, with Q2 the compact
    elastic operator of the velocity system, and the coupling part of the
    entropy, (A2 alpha) : eps(u), sums to zero for a boundary-zero u.
    """
    grid, d = state.grid, state.grid.d
    eps = _strain(state)
    theta = state.theta.data
    coupling = strain_contraction(params.thermal_coupling(), eps, d)
    return StateIntegrals(
        kinetic=0.5 * integrate(
            ScalarField(grid, np.sum(state.v.data**2, axis=-1))
        ),
        elastic=0.5 * integrate(ScalarField(
            grid, strain_density(eps, params.lambda2, params.mu2, d))),
        thermal=0.5 * params.cv * integrate(ScalarField(grid, theta**2)),
        entropy=integrate(ScalarField(grid, params.cv * theta + coupling)),
    )


def total_energy(state, params):
    return state_integrals(state, params).energy


# ---------------------------------------------------------------------------
# per-step records
# ---------------------------------------------------------------------------

def _strain_rate_dissipation(state, strain_rate):
    """|| eps(u_t)/sqrt(theta) ||_L2 of ``state``, with eps:eps the corner
    average ``grid.strain_density`` of ``strain_rate``, the corner strains
    of u_t: the discrete value of a dissipative energy-estimate term."""
    return math.sqrt(integrate(ScalarField(
        state.grid,
        strain_density(strain_rate, 0.0, 0.5, state.grid.d)
        / state.theta.data)))


def _record(state, params, integrals, **step_fields):
    """One CSV row for ``state``; ``step_fields`` carry the step's balances
    and its ``strain_rate_dissipation``.

    The other dissipation column, || grad(theta)/theta ||_L2, takes
    |grad theta|^2 as the corner average ``grid.squared_gradient``.
    """
    grid = state.grid
    theta = state.theta.data
    return DiagnosticsRecord(
        t=state.t,
        kinetic_energy=integrals.kinetic,
        elastic_energy=integrals.elastic,
        thermal_energy=integrals.thermal,
        total_energy=integrals.energy,
        entropy=integrals.entropy,
        availability=integrals.availability(params.beta),
        theta_min=float(np.min(theta)),
        theta_max=float(np.max(theta)),
        grad_theta_dissipation=math.sqrt(integrate(ScalarField(
            grid, squared_gradient(state.theta).data / theta**2
        ))),
        **step_fields,
    )


def record_for_step(state_old, state_new, trace, b, g, dt, params, old):
    """The CSV row of one step, from the corner strains of each state.

    ``old`` is the :class:`StateIntegrals` of ``state_old``; ``b`` and ``g``
    are the step's sources at the new time (None when absent).  The strain
    rate is eps(v_new) = (eps_new - eps_old)/dt by the displacement update
    rule, the step's exact mean strain rate; sigma, the entropy production
    density, and the g/theta source take the midpoint-in-time temperature.
    It leaves the corner strains of u_new on ``state_new``, formed once
    those of v_new are freed unless the state holds them.  The balances:

    * ``energy_residual``: |E_new - E_old - dt * integral(b . u_t_new + g)|
      over 1 + |E_new|;
    * ``entropy_production``: dt * integral(sigma) over dt;
    * ``entropy_residual``: the entropy defect |S_new - S_old -
      dt * integral(sigma) - dt * integral(g/theta)| over 1 + |S_new|;
    * ``clausius_duhem_defect``: that defect over dt, that of
      integral(eta_t + div(q/theta) - g/theta - sigma), whose flux term
      integrates to zero; the inequality form holds within it because
      sigma >= 0 is kept explicit.
    """
    grid = state_old.grid
    theta_mid = ScalarField(
        grid, 0.5 * (state_old.theta.data + state_new.theta.data))
    if np.min(theta_mid.data) <= 0.0 or np.min(state_old.theta.data) <= 0.0:
        raise DomainError("the step's balances require positive temperature")
    rate = corner_strains(state_new.v)
    theta = theta_mid.data
    sigma = ScalarField(grid, (
        params.k * squared_gradient(theta_mid).data / theta**2
        + strain_density(rate, params.lambda1, params.mu1, grid.d) / theta
    ))
    dissipation = _strain_rate_dissipation(state_new, rate)
    del rate  # not alive beside the strains of u_new
    _hold_strain(state_new)
    new = state_integrals(state_new, params)
    sigma_integral = integrate(sigma)
    work = 0.0
    source_integral = 0.0
    if b is not None:
        work += integrate(
            ScalarField(grid, np.sum(b.data * state_new.v.data, axis=-1))
        )
    if g is not None:
        work += integrate(g)
        source_integral = integrate(ScalarField(grid, g.data / theta))
    # The entropy flux div(q/theta) integrates to zero: the insulated walls
    # annihilate it, and so does the discrete weak form, whose test
    # function 1 has no corner gradient.  So the defect holds no flux term.
    energy_defect = new.energy - old.energy - dt * work
    production = dt * sigma_integral
    entropy_defect = abs(
        new.entropy - old.entropy - production - dt * source_integral)
    return _record(
        state_new, params, new,
        strain_rate_dissipation=dissipation,
        entropy_production=production / dt,
        energy_residual=abs(energy_defect) / (1.0 + abs(new.energy)),
        entropy_residual=entropy_defect / (1.0 + abs(new.entropy)),
        clausius_duhem_defect=entropy_defect / dt,
        picard_iterations=trace.iterations,
    )


def initial_record(state, params):
    """Row for t = t0: energies and state extrema, zero residuals.  It
    leaves the corner strains of ``state.u`` on ``state``."""
    dissipation = _strain_rate_dissipation(state, corner_strains(state.v))
    _hold_strain(state)
    return _record(
        state, params, state_integrals(state, params),
        strain_rate_dissipation=dissipation,
        entropy_production=0.0,
        energy_residual=0.0,
        entropy_residual=0.0,
        clausius_duhem_defect=0.0,
        picard_iterations=0,
    )


class DiagnosticsCollector:
    """Observer that turns step events into diagnostics records.

    Each event must start from the state of the previous record (the
    ``initial_state``, then each event's ``state_new``), as the events of
    ``picard.steps`` do: that record holds the integrals of the step's old
    state, so they are not computed again.  An event that starts from any
    other state is a ``UsageError``.  The collector holds that state by a
    weak reference only, so it keeps no state alive.
    """

    def __init__(self, params, initial_state):
        self.params = params
        self.records = [initial_record(initial_state, params)]
        self._last = weakref.ref(initial_state)

    def __call__(self, event):
        if event.state_old is not self._last():
            raise UsageError(
                "a step event must start from the state of the collector's "
                "last record")
        last = self.records[-1]
        old = StateIntegrals(last.kinetic_energy, last.elastic_energy,
                             last.thermal_energy, last.entropy)
        self.records.append(record_for_step(
            event.state_old, event.state_new, event.trace,
            event.b, event.g, event.dt, self.params, old,
        ))
        self._last = weakref.ref(event.state_new)


# ---------------------------------------------------------------------------
# trajectory-level checks
# ---------------------------------------------------------------------------

def availability_decay_check(trajectory, params):
    """Verify the Lyapunov property on a source-free run, a run with
    neither a ``b`` nor a ``g`` source (``trajectory.source_free``).

    Passes iff the availability series, with the weight ``params.beta``,
    is non-increasing up to a per-step slack of ten times the absolute
    energy-balance defect (plus a round-off floor).  Returns (passed,
    worst_violation, series).
    """
    if not trajectory.source_free:
        raise UsageError(
            "availability decay is only guaranteed for source-free runs "
            "(b = 0, g = 0); this trajectory has a b or g source"
        )
    integrals = [state_integrals(s, params) for s in trajectory.states]
    series = np.array([i.availability(params.beta) for i in integrals])
    worst = 0.0
    passed = True
    for k in range(1, len(series)):
        # source-free, so the energy-balance defect is the energy change
        defect = abs(integrals[k].energy - integrals[k - 1].energy)
        slack = 10.0 * defect + 1e-14 * (1.0 + abs(series[k]))
        violation = series[k] - series[k - 1] - slack
        if violation > 0.0:
            passed = False
            worst = max(worst, violation)
    return passed, worst, series


def default_theta_decay_rate(params):
    """Derived candidate for the temperature lower-bound rate.

    Tracking the constants of the truncated-test-function argument (Young's
    inequality with the weight chosen to absorb the viscous term) gives

        c0 = |A2 alpha|^2 / (4 * a_1* * cv),

    with |.| the Frobenius norm and a_1* the viscosity coercivity constant.
    The continuous theory only asserts existence of some rate.
    """
    coupling_norm_sq = float(cons.ddot(
        params.thermal_coupling(), params.thermal_coupling()
    ))
    a1_star = params.viscosity_bounds().a_star
    return coupling_norm_sq / (4.0 * a1_star * params.cv)


def theta_lower_bound_check(trajectory, params):
    """Check min theta(t) >= theta_underbar * exp(-c0 * t) along the run,
    with theta_underbar the initial minimum and c0 =
    :func:`default_theta_decay_rate`.

    Requires a nonnegative heat source throughout (the hypothesis of the
    exponential bound), read from ``trajectory.sources`` at each accepted
    state's time, where the run evaluated it.  Returns (passed, margins)
    where margins[k] is min theta(t_k) minus the bound.
    """
    if not trajectory.states:
        raise UsageError("the trajectory holds no state, not even its "
                         "initial one")
    g = trajectory.sources.g
    if g is not None:
        g_min = min((float(np.min(g(s.t).data))
                     for s in trajectory.states[1:]), default=0.0)
        if g_min < 0.0:
            raise UsageError(
                "the temperature lower bound assumes g >= 0 throughout; "
                f"this run has min(g) = {g_min}"
            )
    t0 = trajectory.states[0].t
    theta_underbar = float(np.min(trajectory.states[0].theta.data))
    c0 = default_theta_decay_rate(params)
    margins = []
    passed = True
    for s in trajectory.states:
        bound = theta_underbar * math.exp(-c0 * (s.t - t0))
        margin = float(np.min(s.theta.data)) - bound
        margins.append(margin)
        if margin < 0.0:
            passed = False
    return passed, np.array(margins)


# ---------------------------------------------------------------------------
# mixed space-time norms
# ---------------------------------------------------------------------------

def _interval_widths(snapshots, times):
    """times[k+1] - times[k], the weight of snapshot k in a left-endpoint
    sum; there must be a snapshot, and the times must be one per snapshot
    and strictly increase."""
    times = np.asarray(times, dtype=float)
    if (len(snapshots) == 0 or times.shape != (len(snapshots),)
            or not np.all(np.diff(times) > 0.0)):
        raise UsageError(
            f"snapshot times must strictly increase, one per snapshot; got "
            f"{len(snapshots)} snapshots at t = {times.tolist()}")
    return np.diff(times)


def mixed_norm(snapshots, times, p, p0):
    """Discrete L_{p,p0} norm (L_p in space inside, L_p0 in time outside)
    of the snapshots taken at ``times``, at any spacing.

    Finite p0 uses a left-endpoint Riemann sum, each snapshot but the last
    weighted by the interval to the next one: the first-order-in-time
    quadrature matching the stepper's accuracy.
    """
    for q in (p, p0):
        if q != np.inf and not float(q) >= 1.0:
            raise UsageError(f"norm exponents must be >= 1 or inf, got {q}")
    widths = _interval_widths(snapshots, times)
    space = [lp_norm(f, p) for f in snapshots]
    if p0 == np.inf:
        return float(max(space))
    return float(sum(w * s**p0 for w, s in zip(widths, space)) ** (1.0 / p0))


def v2_norm(snapshots, times):
    """max_t ||f||_L2 + ||grad f||_L2(space-time), with ||grad f||^2 the
    integral of ``grid.squared_gradient``: f^T S f for S the
    ``grid.neumann_matrix``, as a sum of squares, in time the left-endpoint
    sum of ``mixed_norm``."""
    widths = _interval_widths(snapshots, times)
    sup = max(lp_norm(f, 2) for f in snapshots)
    grad_sq = sum(w * integrate(squared_gradient(f))
                  for w, f in zip(widths, snapshots))
    return float(sup + math.sqrt(grad_sq))


# ---------------------------------------------------------------------------
# continuous dependence (Gronwall) comparison
# ---------------------------------------------------------------------------

@dataclass
class GronwallReport:
    """Difference functional of two runs against its Gronwall envelope."""

    times: np.ndarray
    x: np.ndarray          # X(t) = int(U_t^2 + (A2 E):E + cv*theta2*vartheta^2)
    a: np.ndarray          # A(t) rate series (a[0] = 0; backward differences)
    bound: np.ndarray      # X(0) * exp(int_0^t A)
    slack: float
    violation: bool


def gronwall_rate_constant(params):
    """The Young-inequality constant |A2 alpha|^2 / (2 a_1*) of the estimate."""
    coupling_norm_sq = float(cons.ddot(
        params.thermal_coupling(), params.thermal_coupling()
    ))
    return coupling_norm_sq / (2.0 * params.viscosity_bounds().a_star)


def gronwall_compare(run1, run2, params):
    """Compare two runs on the same grid and time ladder in the difference
    functional X(t) and flag any escape from the Gronwall envelope.  Each
    run is an iterable of states in time order (a ``Trajectory``, say),
    read once, in lockstep with the other: only the last pair is kept."""
    c1 = gronwall_rate_constant(params)
    times, x, a, bound = [], [], [], []
    scale = acc = rate = 0.0
    previous = None
    for s1, s2 in zip_longest(run1, run2):
        if (s1 is None or s2 is None
                or abs(s1.t - s2.t) > 1e-12 * (1 + abs(s1.t))):
            raise UsageError("runs have different time ladders")
        grid = s1.grid
        if previous is None and grid != s2.grid:
            raise UsageError("runs live on different grids")
        du = s1.v.data - s2.v.data
        eps1 = corner_strains(s1.u)
        eps_diff = eps1 - corner_strains(s2.u)
        dtheta = s1.theta.data - s2.theta.data
        integrand = (
            np.sum(du**2, axis=-1)
            + strain_density(eps_diff, params.lambda2, params.mu2, grid.d)
            + params.cv * s2.theta.data * dtheta**2
        )
        x.append(integrate(ScalarField(grid, integrand)))
        magnitude = integrate(ScalarField(
            grid,
            np.sum(s1.v.data**2, axis=-1)
            + strain_density(eps1, params.lambda2, params.mu2, grid.d)
            + params.cv * s1.theta.data**2,
        ))
        scale = max(scale, magnitude)
        if previous is not None:
            p1, p2, eps1_old = previous
            dt = s1.t - p1.t
            th1_t = ScalarField(grid, (s1.theta.data - p1.theta.data) / dt)
            th2_t = ScalarField(grid, (s2.theta.data - p2.theta.data) / dt)
            eps1_t_sq = strain_density(
                (eps1 - eps1_old) / dt, 0.0, 0.5, grid.d)
            rate = (
                c1
                + params.k
                + lp_norm(th1_t, 3) ** 2
                + lp_norm(th2_t, 3) ** 2
                + lp_norm(ScalarField(grid, np.sqrt(eps1_t_sq)), 3) ** 2
                + lp_norm(s2.theta, np.inf) ** 2
            )
            acc += rate * dt
        a.append(rate)
        bound.append(x[0] * math.exp(acc))
        times.append(s1.t)
        previous = s1, s2, eps1
    x, bound = np.array(x), np.array(bound)
    slack = 1e-12 * (1.0 + scale)
    violation = bool(np.any(x > bound + slack))
    return GronwallReport(times=np.array(times), x=x, a=np.array(a),
                          bound=bound, slack=slack, violation=violation)
