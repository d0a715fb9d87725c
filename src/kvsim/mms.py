"""Manufactured-solutions verification oracle.

Every manufactured case has one separable form,

    u*_i   = a_i U(t) sin(pi x_1/L_1) ... sin(pi x_d/L_d),
    theta* = 2 + b R(t) prod_{k in axes} cos(pi x_k/L_k),

and is described by data only, with no grid in it: the three amplitudes
``a``, the amplitude ``b`` and the axes theta* varies on, among 0-2.  On a
grid of dimension d a case uses the first d amplitudes and the named axes
below d, so ``CASES`` binds to any box.  Every case shares the time
factors U(t) = cos t and R(t) = exp(-t), with their derivatives.  The sine
profile vanishes on the box boundary and the cosine profile has zero
normal derivative on every face, so each case meets the solver's boundary
conditions by construction.
Every spatial derivative the forcing needs is a product of the 1-D profiles
and their derivatives (the product rule); the derivatives are analytic,
never differenced, so the oracle stays independent of the solver's
numerics.  From them the module derives the body force and heat source
that make (u*, theta*) an exact solution:

    b = u*_tt - Q1 u*_t - Q2 u* + (A2 alpha) grad theta*
    g = cv theta* theta*_t - k Lap theta*
        + theta* (A2 alpha):eps(u*_t) - (A1 eps(u*_t)):eps(u*_t)

with Q_p w = mu_p Lap w + (lam_p + mu_p) grad(div w).  Binding a case to a
grid and material (``manufacture``) evaluates the time-independent spatial
parts of these terms once on ``grid.coords()``; every forcing or exact-state
evaluation is then a few time scalars times the cached arrays.
``manufacture`` also rejects a case whose theta* is not positive: its
floor 2 - |b| holds at every t >= 0, since 0 < R <= 1 there.

``convergence_study`` then runs the full solver against the manufactured
forcing over a refinement ladder and fits the observed orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constitutive as cons
from .errors import UsageError
from .grid import Grid, ScalarField, VectorField, l2_norm
from .picard import SimState, Sources, StepperConfig, steps

# the uniform temperature that every case's temperature varies about
_THETA_BASE = 2.0
# U(t) = cos t with its first two derivatives, R(t) = exp(-t) with its first
_COSINE = (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))
_DECAY = (lambda t: math.exp(-t), lambda t: -math.exp(-t))


@dataclass(frozen=True)
class ManufacturedCase:
    """One separable manufactured solution (see the module docstring).

    ``a`` holds the three displacement amplitudes, ``b`` the temperature
    amplitude and ``theta_axes`` the axes theta* varies on.
    """

    name: str
    a: tuple = (0.0, 0.0, 0.0)
    b: float = 0.0
    theta_axes: tuple = ()

    @property
    def theta_min(self):
        """The floor of theta* at t >= 0, where 0 < R <= 1."""
        return _THETA_BASE - abs(self.b)


def _partial(profiles, *axes):
    """d/dx_{axes[0]} d/dx_{axes[1]} ... of the product of the per-axis
    profiles, by the product rule: axis k contributes its derivative of the
    order k occurs in ``axes``.  ``profiles[k]`` holds the profile of axis
    k and its first two derivatives."""
    out = profiles[0][axes.count(0)]
    for k in range(1, len(profiles)):
        out = out * profiles[k][axes.count(k)]
    return out


@dataclass
class ManufacturedProblem:
    """A case bound to a grid and material: forcing, initial and exact states.

    Construction evaluates the time-independent spatial parts of u*,
    theta* and the forcing once on ``grid.coords()``; the methods scale
    them by the case's time factors.
    """

    case: ManufacturedCase
    grid: Grid
    params: object

    def __post_init__(self):
        case, params, d = self.case, self.params, self.grid.d
        x = self.grid.coords()
        sines, cosines = [], []
        for k in range(d):
            w = math.pi / self.grid.lengths[k]
            sin, cos = np.sin(w * x[k]), np.cos(w * x[k])
            sines.append((sin, w * cos, -w**2 * sin))
            if k in case.theta_axes:
                cosines.append((cos, -w * sin, -w**2 * cos))
            else:
                cosines.append((np.ones_like(sin),) + (np.zeros_like(sin),) * 2)
        a = np.asarray(case.a[:d], dtype=float)
        # u* = U(t) * self._u, with self._u[..., i] = a_i * the sine product
        self._u = _partial(sines)[..., None] * a
        lap = sum(_partial(sines, j, j) for j in range(d))[..., None] * a
        grad_div = np.stack([
            sum(a[j] * _partial(sines, i, j) for j in range(d))
            for i in range(d)
        ], axis=-1)
        self._q1 = params.mu1 * lap + (params.lambda1 + params.mu1) * grad_div
        self._q2 = params.mu2 * lap + (params.lambda2 + params.mu2) * grad_div
        coupling = params.thermal_coupling()
        grad_theta = case.b * np.stack(
            [_partial(cosines, j) for j in range(d)], axis=-1
        )
        self._coupled_grad_theta = np.einsum(
            "ij,...j->...i", cons.matrix_from_sym6(coupling)[:d, :d], grad_theta
        )
        # theta* = 2 + R(t) * self._theta
        self._theta = case.b * _partial(cosines)
        self._lap_theta = case.b * sum(_partial(cosines, j, j) for j in range(d))
        # eps(u*_t) = U'(t) * rate, with rate the symmetrized gradient of self._u
        grad_s = [_partial(sines, j) for j in range(d)]
        rate = np.zeros(self.grid.shape + (6,))
        for i in range(d):
            for j in range(i, d):
                rate[..., cons.COMPONENT_OF[(i, j)]] = 0.5 * (
                    a[i] * grad_s[j] + a[j] * grad_s[i]
                )
        self._coupled_rate = cons.ddot(coupling, rate)
        self._viscous = cons.ddot(
            cons.apply_isotropic(params.lambda1, params.mu1, rate), rate
        )

    def _temperature(self, t):
        return _THETA_BASE + _DECAY[0](t) * self._theta

    def exact_state(self, t):
        u = _COSINE[0](t) * self._u
        v = _COSINE[1](t) * self._u
        # the discrete Dirichlet condition is exact; clamp the round-off the
        # sine profile leaves on the boundary so states validate strictly
        u[self.grid.boundary_mask] = 0.0
        v[self.grid.boundary_mask] = 0.0
        return SimState(
            t=t,
            u=VectorField(self.grid, u),
            v=VectorField(self.grid, v),
            theta=ScalarField(self.grid, self._temperature(t)),
        )

    def initial_state(self):
        return self.exact_state(0.0)

    def body_force(self, t):
        u, u_t, u_tt = (f(t) for f in _COSINE)
        out = (u_tt * self._u - u_t * self._q1 - u * self._q2
               + _DECAY[0](t) * self._coupled_grad_theta)
        return VectorField(self.grid, out)

    def heat_source(self, t):
        params = self.params
        r, r_t = (f(t) for f in _DECAY)
        u_t = _COSINE[1](t)
        theta = self._temperature(t)
        g = (
            theta * (params.cv * r_t * self._theta + u_t * self._coupled_rate)
            - params.k * r * self._lap_theta
            - u_t**2 * self._viscous
        )
        return ScalarField(self.grid, g)

    def sources(self):
        return Sources(b=self.body_force, g=self.heat_source)


def manufacture(case, grid, params):
    """Bind a case to a grid after checking that theta* stays positive.

    The sine and cosine profiles meet the boundary conditions by
    construction; a case whose floor ``theta_min`` is not positive is
    rejected.
    """
    if case.theta_min <= 0.0:
        raise UsageError(
            f"case '{case.name}': theta* falls to {case.theta_min} = 2 - |b|, "
            f"below zero"
        )
    return ManufacturedProblem(case=case, grid=grid, params=params)


# ---------------------------------------------------------------------------
# built-in cases
# ---------------------------------------------------------------------------

CASES = {
    # u*_i = (0.1 / i) sin(pi x_1/L_1) ... sin(pi x_d/L_d) cos(t),
    # theta* = 2 + 0.5 cos(pi x_1/L_1) ... cos(pi x_d/L_d) exp(-t)
    "default": ManufacturedCase(
        "default", a=tuple(0.1 / (1.0 + i) for i in range(3)), b=0.5,
        theta_axes=(0, 1, 2)),
    # u* = 0, theta* = 2: zero forcing, exact discrete solution
    "rest": ManufacturedCase("rest"),
    # u* = 0, theta* = 2 + 0.5 cos(pi x_1/L_1) exp(-t)
    "cooling": ManufacturedCase("cooling", b=0.5, theta_axes=(0,)),
}


def get_case(name):
    if name not in CASES:
        raise UsageError(
            f"unknown manufactured case '{name}'; available: {sorted(CASES)}"
        )
    return CASES[name]


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class OrderLevel:
    nodes: int
    h: float
    dt: float
    err_u: float
    err_v: float
    err_theta: float


@dataclass
class OrderReport:
    case: str
    mode: str  # "spatial" or "temporal"
    levels: list
    orders: dict  # variable -> fitted slope

    def format(self):
        lines = [
            f"convergence study: case={self.case} mode={self.mode}",
            f"{'nodes':>7} {'h':>12} {'dt':>12} {'err_u':>12} "
            f"{'err_v':>12} {'err_theta':>12}",
        ]
        for lv in self.levels:
            lines.append(
                f"{lv.nodes:>7d} {lv.h:>12.5e} {lv.dt:>12.5e} "
                f"{lv.err_u:>12.5e} {lv.err_v:>12.5e} {lv.err_theta:>12.5e}"
            )
        for var in ("u", "v", "theta"):
            lines.append(f"observed order ({var}): {self.orders[var]:.3f}")
        return "\n".join(lines)


def _linf_l2_errors(problem, config, t_end):
    """Run the solver against the manufactured forcing; return the
    L_inf-in-time of the spatial L2 errors of (u, v, theta).  Each state's
    errors are taken as its step is accepted, so no state is kept."""
    worst = {"u": 0.0, "v": 0.0, "theta": 0.0}

    def measure(state):
        exact = problem.exact_state(state.t)
        for key, got, want in (
            ("u", state.u, exact.u),
            ("v", state.v, exact.v),
            ("theta", state.theta, exact.theta),
        ):
            err = l2_norm(problem.grid, got.data - want.data)
            worst[key] = max(worst[key], err)

    for event in steps(problem.initial_state(), problem.params, config,
                       t_end, sources=problem.sources()):
        if event.index == 0:
            measure(event.state_old)  # the initial state, now validated
        measure(event.state_new)
    return worst


def _fit_order(hs, errs):
    """Least-squares slope of log(err) vs log(h), excluding the coarsest point."""
    hs = np.asarray(hs, dtype=float)[1:]
    errs = np.asarray(errs, dtype=float)[1:]
    if len(hs) < 2:
        raise UsageError("need at least 3 ladder levels to fit an order")
    if np.any(errs <= 0.0):
        return float("inf")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def convergence_study(case_name, params, d=2, resolutions=(9, 17, 33),
                      dt0=0.05, t_end=0.25, mode="spatial", dts=None):
    """Measure the solver's observed convergence orders against a case on
    the unit box, with a :class:`StepperConfig` of each level's dt.

    ``mode="spatial"`` refines the grid geometrically with dt proportional
    to h^2 (so both error sources scale together at second order in h);
    ``mode="temporal"`` fixes the finest grid, with one manufactured
    problem for every dt, and sweeps ``dts``.
    """
    if d not in (1, 2, 3):
        raise UsageError(f"dimension must be 1, 2, or 3, got {d}")
    if len(resolutions) < 3:
        raise UsageError("a convergence ladder needs at least 3 resolutions")
    lengths = (1.0,) * d
    case = get_case(case_name)
    if mode == "spatial":
        h0 = lengths[0] / (resolutions[0] - 1)
        problems = (manufacture(case, Grid((n,) * d, lengths), params)
                    for n in resolutions)
        ladder = ((p, dt0 * (p.grid.h[0] / h0) ** 2) for p in problems)
    elif mode == "temporal":
        if dts is None or len(dts) < 3:
            raise UsageError("temporal mode needs at least 3 dt values")
        problem = manufacture(
            case, Grid((resolutions[-1],) * d, lengths), params)
        ladder = ((problem, dt) for dt in dts)
    else:
        raise UsageError(f"mode must be 'spatial' or 'temporal', got {mode!r}")
    levels = []
    for problem, dt in ladder:
        errs = _linf_l2_errors(problem, StepperConfig(dt=dt), t_end)
        levels.append(OrderLevel(problem.grid.n[0], problem.grid.h[0], dt,
                                 errs["u"], errs["v"], errs["theta"]))
    xs = [lv.h if mode == "spatial" else lv.dt for lv in levels]
    orders = {
        "u": _fit_order(xs, [lv.err_u for lv in levels]),
        "v": _fit_order(xs, [lv.err_v for lv in levels]),
        "theta": _fit_order(xs, [lv.err_theta for lv in levels]),
    }
    return OrderReport(case=case_name, mode=mode, levels=levels, orders=orders)
