"""Outer time loop and per-step successive-approximation iteration.

Each time step linearises the nonlinearity at the previous iterate and
solves the two linear sub-problems in turn, in Gauss-Seidel order:

1. velocity solve with the iterate's temperature in the thermal stress,
   then the displacement update ``u_new = u_old + dt * v_new`` (which keeps
   the discrete compatibility d(eps)/dt = eps(v_new) exact),
2. heat solve, Newton's linearisation at the iterate of the heat equation's
   own nonlinearity cv theta theta_t and thermal coupling, with the strain
   rate of the velocity just solved (see :mod:`kvsim.linear_step`).

Newton's heat system is symmetric positive-definite while its diagonal
coefficient q is positive; where it is not, a sweep solves the frozen
system instead, and the step's :class:`PicardTrace` counts it.
:func:`kvsim.linear_step.heat_rhs_vector` defines both and returns the
one to solve.  Both systems have the same fixed point, so the accepted
step does not depend on which one a sweep took, only the number of sweeps
does: Newton's heat error squares from sweep to sweep, and what remains
to contract is the coupling between the two sub-problems.

The elastic stress is implicit: with Q2 the compact Navier operator of the
Lame pair (``grid.navier_matrix`` on the interior box), the velocity matrix
is (1/dt) I - Q1 - dt Q2, which is Q2 u_new = Q2 (u_old + dt v_new) moved
to the left, and a step's load holds Q2 u_old.  A sweep iterates only the
heat capacity, the thermal coupling and the viscous heating.  These and
Q2 u_old take the corner strains of ``grid.strain_matrix`` (the velocity
system through its weighted adjoint, ``grid.stress_divergence``), built
once per grid, so no sweep takes a field derivative.  They sum to the
compact operators, so a converged step balances the discrete energy

    E_new - E_old - dt * work + ND = 0

up to the Picard tolerance, with E the kinetic, elastic and thermal energy
of :mod:`kvsim.diagnostics`, work the source work at the new time, and ND
= 1/2 |v_new - v_old|_W^2 + 1/2 du^T (-W Q2) du + 1/2 cv |theta_new -
theta_old|_W^2 the dissipation of backward Euler (W the trapezoid weights,
du = u_new - u_old).

An iterate is the solver's unknowns: the packed interior velocity and the
temperature.  The zeroth iterate is the step's initial state itself: the
constant-in-time extension of its data.  Iteration stops when the
difference norm

    Y = ||v_new - v_prev||_L2 + ||theta_new - theta_prev||_L2

falls below ``PICARD_TOL`` relative to the first difference norm (with a
round-off floor), mirroring the contraction that makes the scheme converge
for small dt.  A step fails once Y has risen in ``PICARD_RISES``
consecutive sweeps, or when it has not contracted after ``PICARD_MAX``
sweeps.  The iteration aborts rather than accept a temperature below the
stepper's floor (see :class:`Stepper`).

Each sweep replaces the iterate it started from, so its two solves need
only beat the contraction: until a sweep meets the threshold, every solve
stops once it has cut its own starting residual by ``SWEEP_REDUCTION``
(or reached ``linear_step.SOLVE_TOL``).  A step accepts only a sweep whose
two solves reached ``SOLVE_TOL``; when the sweep that met the threshold
stopped early, the step sweeps on at full tolerance until one meets it.

The time loop is strictly sequential, and observers receive its states
as snapshots.  One change to a snapshot is kept: a diagnostics record
(``diagnostics.initial_record``, ``diagnostics.record_for_step``) may
attach the corner strains of its state's displacement
(``SimState.strain``), which the load of the next step from that state
consumes and detaches.  Nothing else changes a snapshot; an observer
must not.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linear_step
from .errors import DegeneracyError, DomainError, NonConvergenceError, UsageError
from .grid import (
    ScalarField,
    VectorField,
    boundary_max_abs,
    l2_norm,
    lp_norm,
)

PICARD_TOL = 1e-10  # relative contraction tolerance of a step
PICARD_MAX = 50  # sweeps before a step fails
PICARD_RISES = 3  # consecutive rises of Y before a step fails
SWEEP_REDUCTION = 1e-3  # residual cut of each solve of a step's early sweeps


@dataclass
class SimState:
    """One time slice: displacement, velocity, temperature at time ``t``.

    ``strain`` is not part of the state: it is the corner strains of u
    (``linear_step.corner_strains``) when the state holds them, as a
    record of the state leaves them for the next step from it, whose load
    consumes them; None otherwise.
    """

    t: float
    u: VectorField
    v: VectorField
    theta: ScalarField
    strain: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def grid(self):
        return self.u.grid

    def copy(self):
        return SimState(self.t, self.u.copy(), self.v.copy(), self.theta.copy())

    def validate(self):
        for name, fld in (("u", self.u), ("v", self.v)):
            worst = boundary_max_abs(fld)
            if worst != 0.0:
                raise UsageError(
                    f"{name} must vanish exactly on the boundary, "
                    f"max boundary magnitude {worst:.3e}"
                )
        theta_min = float(np.min(self.theta.data))
        if theta_min <= 0.0:
            raise DomainError(f"temperature must be positive, min = {theta_min}")
        for name, fld in (("u", self.u), ("v", self.v), ("theta", self.theta)):
            if not np.all(np.isfinite(fld.data)):
                raise DomainError(f"state field {name} contains non-finite values")
        return self

    @classmethod
    def rest(cls, grid, theta0=1.0):
        """State at rest with uniform temperature, at t = 0."""
        return cls(
            t=0.0,
            u=VectorField.zeros(grid),
            v=VectorField.zeros(grid),
            theta=ScalarField.constant(grid, theta0),
        )


@dataclass(frozen=True)
class StepperConfig:
    """The time step.  The temperature floor is the :class:`Stepper`'s, and
    the solver's tolerances and caps are module constants (``PICARD_*``,
    ``SWEEP_REDUCTION`` and ``linear_step.SOLVE_TOL``/``SOLVE_MAX``)."""

    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # NaN too
            raise UsageError(f"dt = {self.dt} must be positive and finite")


@dataclass
class PicardTrace:
    """Contraction diagnostics of one step's successive approximations.

    ``ys`` holds the iterate difference norms that drive the stopping rule,
    one per sweep, so ``iterations``, the number of sweeps, is ``len(ys)``.
    ``velocity_solves`` and ``heat_solves`` hold each sweep's
    :class:`~kvsim.linear_step.LinearSolveReport`: CG iterations and final
    relative residual of the two sub-problems.  ``frozen_sweeps`` counts
    the sweeps that took the frozen fallback instead of Newton's heat
    system.
    """

    ys: list
    velocity_solves: list
    heat_solves: list
    converged: bool
    threshold: float
    frozen_sweeps: int

    @property
    def iterations(self):
        return len(self.ys)

    def ratios(self):
        """Contraction ratios Y_{n+1} / Y_n (skipping zero denominators)."""
        return [b / a for a, b in zip(self.ys, self.ys[1:]) if a > 0.0]


class Stepper:
    """Caches the assembly work that is constant across a run.

    The Neumann stiffness with its eigenbasis and the heat matrix it owns
    depend on the grid and the conductivity.  The strain map, whose
    adjoint gives the velocity system Q2 u_old and the thermal stress
    divergence, is the grid's own (``grid.strain_matrix``): a sweep
    reaches it through the grid, and a stepper keeps no copy.  The
    velocity matrix (1/dt) I - Q(lambda1 + dt lambda2, mu1 + dt mu2), with
    its preconditioner, also depends on ``dt``, the step length a stepper
    keeps; :meth:`with_dt` rebuilds only it.  Q is ``grid.navier_matrix``
    on the interior box.

    The velocity matrix times the velocity that its last solve returned is
    the start product of the next velocity solve: a stepper holds it (a
    ``linear_step.Product`` of its own) from sweep to sweep, and into its
    next step when that step starts from the state it last returned, of
    which it keeps only a weak reference.  No step accepts a temperature
    below the stepper's floor: half the minimum temperature of the state
    its first step starts from, which :meth:`with_dt` copies keep once set.
    """

    def __init__(self, grid, params, config):
        self.grid = grid
        self.params = params
        self.stiffness = linear_step.heat_stiffness(grid, params.k)
        self._floor = None  # set by the first step
        self._set_dt(config.dt)

    def _set_dt(self, dt):
        self.dt = dt
        self.velocity_op = linear_step.velocity_matrix(
            self.grid, dt, self.params.lambda1 + dt * self.params.lambda2,
            self.params.mu1 + dt * self.params.mu2,
        )
        self._product = linear_step.Product(self.velocity_op.size)
        self._returned = None  # weak reference to the last state returned

    def with_dt(self, dt):
        """A stepper of this grid and material for steps of ``dt``.  It
        shares everything that does not depend on dt; only the velocity
        matrix and its preconditioner are built."""
        other = copy.copy(self)
        other._set_dt(dt)
        return other

    def sweep(self, state, x_v, theta, load, g, reduction=0.0):
        """One successive-approximation sweep from the iterate ``x_v`` (the
        packed interior velocity, the velocity solve's initial guess) and
        ``theta``, at which the nonlinearity is linearised.  ``load`` is the
        step's ``linear_step.velocity_load``.  The heat solve is the system
        of ``linear_step.heat_rhs_vector``: Newton's, or the frozen fallback
        where Newton's coefficient is not positive everywhere.  Each solve
        starts from the iterate and stops at ``linear_step.SOLVE_TOL`` or,
        with ``reduction`` > 0, once it has cut its starting residual by
        that factor.  Returns the next ``x_v`` and ``theta``, the velocity
        and heat :class:`~kvsim.linear_step.LinearSolveReport` and whether
        the sweep fell back to the frozen system.
        """
        grid, dt = self.grid, self.dt
        self._returned = None  # the held product is now this sweep's
        # the right-hand side is freed once solved: the held product
        # takes its place
        x_v, velocity = linear_step.solve_spd(
            self.velocity_op,
            linear_step.velocity_rhs(load, theta, self.params),
            x0=x_v, reduction=reduction, product=self._product)
        rhs_h, coefficient, frozen = linear_step.heat_rhs_vector(
            grid, dt, state.theta, theta, x_v, g, self.params)
        heat_op = linear_step.heat_matrix(
            grid, dt, coefficient, self.params, stiffness=self.stiffness)
        x_h, heat = linear_step.solve_spd(
            heat_op, rhs_h, x0=theta.data.ravel(), reduction=reduction)
        return (x_v, ScalarField(grid, x_h.reshape(grid.shape)), velocity,
                heat, frozen)

    def step(self, state, b=None, g=None):
        """Advance one time step; returns (new state, Picard trace).  The
        accepted state is the iterate of a sweep that met the Picard
        threshold with both solves at ``linear_step.SOLVE_TOL``.  A step
        whose Y rises in ``PICARD_RISES`` consecutive sweeps, or has not
        met the threshold after ``PICARD_MAX``, raises
        :class:`NonConvergenceError` carrying the trace of its sweeps."""
        grid, dt = self.grid, self.dt
        returned = self._returned and self._returned()
        theta_min = float(np.min(state.theta.data))
        if self._floor is None:
            self._floor = 0.5 * theta_min
        floor = self._floor
        if theta_min < floor:
            raise DegeneracyError(
                f"initial temperature of the step is below the floor "
                f"{floor}: min = {theta_min}"
            )
        scale = lp_norm(state.theta, 2) + l2_norm(grid, state.v.data)
        x_v, theta = linear_step.pack_interior(grid, state.v.data), state.theta
        # the held product is that of the accepted x_v, which state.v holds
        if returned is state:
            self._product.x = x_v
        load = linear_step.velocity_load(
            grid, dt, x_v, _take_strain(state), b, self.params)
        ys, velocity_solves, heat_solves = [], [], []
        frozen_sweeps = rises = 0
        reduction = SWEEP_REDUCTION
        failure = None
        for sweep_count in range(1, PICARD_MAX + 1):
            x_new, theta_new, velocity, heat, frozen = self.sweep(
                state, x_v, theta, load, g, reduction)
            velocity_solves.append(velocity)
            heat_solves.append(heat)
            frozen_sweeps += frozen
            theta_min = float(np.min(theta_new.data))
            if theta_min < floor:
                raise DegeneracyError(
                    f"temperature iterate dropped below the floor {floor} "
                    f"(min = {theta_min}) at sweep {sweep_count}"
                )
            ys.append(
                math.sqrt(float(np.sum(
                    grid.interior_weights * (x_new - x_v) ** 2)))
                + l2_norm(grid, theta_new.data - theta.data)
            )
            rises = rises + 1 if len(ys) > 1 and ys[-1] > ys[-2] else 0
            x_v, theta = x_new, theta_new
            # relative stopping rule, with a round-off floor so a step that
            # starts at a fixed point is accepted immediately
            threshold = max(PICARD_TOL * ys[0], 1e-14 * (1.0 + scale))
            if ys[-1] <= threshold:
                # accept only an iterate whose two solves reached the
                # solver's tolerance; else sweep on at full tolerance
                residual = max(velocity.relative_residual,
                               heat.relative_residual)
                if residual <= linear_step.SOLVE_TOL:
                    break
                reduction = 0.0
            elif rises == PICARD_RISES:
                failure = (f"Y rose in {rises} consecutive sweeps, to "
                           f"{ys[-1]:.3e} at sweep {sweep_count}")
                break
        else:
            failure = (f"Y stayed above {threshold:.3e} for {PICARD_MAX} "
                       f"sweeps (last Y = {ys[-1]:.3e})")
        trace = PicardTrace(ys, velocity_solves, heat_solves, failure is None,
                            threshold, frozen_sweeps)
        if failure is not None:
            raise NonConvergenceError(
                f"successive approximations did not contract: {failure}",
                report=trace)
        v = linear_step.unpack_interior(grid, x_v)
        u = VectorField(grid, state.u.data + dt * v.data)
        new_state = SimState(state.t + dt, u, v, theta)
        if self._product.x is x_v:  # the last solve left its product
            self._returned = weakref.ref(new_state)
        self._product.x = None  # state.v holds it
        return new_state, trace


def _take_strain(state):
    """The corner strains of ``state.u``, which the state held or formed
    here, for a step's load to consume: the state holds them no longer."""
    strains, state.strain = state.strain, None
    return linear_step.corner_strains(state.u) if strains is None else strains


@dataclass
class Sources:
    """Time-dependent body force and heat source bound to a grid.

    Either callable may be None, meaning identically zero.
    """

    b: Optional[Callable[[float], VectorField]] = None
    g: Optional[Callable[[float], ScalarField]] = None

    @classmethod
    def constant(cls, grid, b_value=None, g_value=None):
        b_fn = None
        if b_value is not None and np.any(np.asarray(b_value) != 0.0):
            b_data = np.broadcast_to(
                np.asarray(b_value, dtype=float), grid.shape + (grid.d,)
            ).copy()
            b_fn = lambda t, f=VectorField(grid, b_data): f  # noqa: E731
        g_fn = None
        if g_value is not None and g_value != 0.0:
            g_fn = lambda t, f=ScalarField.constant(grid, g_value): f  # noqa: E731
        return cls(b=b_fn, g=g_fn)


@dataclass
class StepEvent:
    """Snapshot handed to observers after each accepted step."""

    index: int
    state_old: SimState
    state_new: SimState
    trace: PicardTrace
    b: Optional[VectorField]
    g: Optional[ScalarField]
    dt: float


@dataclass
class Trajectory:
    """All accepted states of a run, their Picard traces, and the sources
    the run evaluated at each accepted state's time."""

    states: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    sources: Sources = field(default_factory=Sources)

    def __iter__(self):
        return iter(self.states)

    @property
    def source_free(self):
        return self.sources.b is None and self.sources.g is None


def steps(initial, params, config, t_end, sources=None):
    """Advance ``initial`` to ``t_end`` by repeated Picard steps, yielding a
    :class:`StepEvent` after every accepted step.

    Step k (from 0) evaluates the sources at, and its state is at,
    ``initial.t + (k + 1) * dt``; the last step's at exactly ``t_end``,
    with a final step of its own length when dt does not divide the span.
    When ``initial.t`` is exactly ``k0 * dt`` for an integer k0, as at a
    checkpoint of a run from t = 0, that time is ``(k0 + k + 1) * dt``:
    the time the whole run gave the same step, to the bit.
    The generator keeps only the state it steps from and the one it
    yields, so a consumer that keeps no events runs in memory that does
    not grow with the number of steps.  It validates its arguments at
    the first ``next()`` and fails fast on any step error.  No step
    accepts a temperature below half the initial minimum.
    """
    initial.validate()
    if not initial.t < t_end < math.inf:  # NaN too
        raise UsageError(f"t_end = {t_end} must be finite and exceed "
                         f"initial time {initial.t}")
    if sources is None:
        sources = Sources()
    n_steps = max(1, math.ceil((t_end - initial.t) / config.dt - 1e-9))
    stepper = Stepper(initial.grid, params, config)
    k0 = round(initial.t / config.dt)
    origin, k0 = (0.0, k0) if k0 * config.dt == initial.t else (initial.t, 0)
    state = initial
    for k in range(n_steps):
        t_new = origin + (k0 + k + 1) * config.dt
        if k == n_steps - 1:
            if abs(t_new - t_end) > 1e-12 * max(1.0, abs(t_end)):
                stepper = stepper.with_dt(t_end - state.t)
            t_new = t_end
        b_field = sources.b(t_new) if sources.b is not None else None
        g_field = sources.g(t_new) if sources.g is not None else None
        new_state, trace = stepper.step(state, b=b_field, g=g_field)
        new_state.t = t_new  # not state.t + dt, which drifts by round-off
        yield StepEvent(
            index=k, state_old=state, state_new=new_state, trace=trace,
            b=b_field, g=g_field, dt=stepper.dt,
        )
        state = new_state


def run(initial, params, config, t_end, sources=None, observers=()):
    """Collect :func:`steps` into a :class:`Trajectory`: all states,
    including the initial one, their traces and the sources; no step
    accepts a temperature below half the initial minimum.  Observers are
    invoked with each :class:`StepEvent` as its step is accepted.
    """
    if sources is None:
        sources = Sources()
    states, traces = [initial], []
    for event in steps(initial, params, config, t_end, sources):
        states.append(event.state_new)
        traces.append(event.trace)
        for observer in observers:
            observer(event)
    return Trajectory(states=states, traces=traces, sources=sources)
