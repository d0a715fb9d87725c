"""Manufactured-solutions verification oracle.

A manufactured case supplies closed-form fields (u*, theta*) together with
every derivative the forcing terms need; the derivatives are written by the
case author, never differenced, so the oracle stays independent of the
solver's numerics.  From those the module derives the body force and heat
source that make (u*, theta*) an exact solution:

    b = u*_tt - Q1 u*_t - Q2 u* + (A2 alpha) grad theta*
    g = cv theta* theta*_t - k Lap theta*
        + theta* (A2 alpha):eps(u*_t) - (A1 eps(u*_t)):eps(u*_t)

with Q_p w = mu_p Lap w + (lam_p + mu_p) grad(div w).  Cases must satisfy
the boundary conditions of the solver: u* = 0 on the box boundary and
n . grad theta* = 0 there, and theta* must stay positive; ``manufacture``
rejects violations by sampling.

``convergence_study`` then runs the full solver against the manufactured
forcing over a refinement ladder and fits the observed orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constitutive as cons
from .errors import UsageError
from .grid import Grid, ScalarField, VectorField, l2_norm
from .picard import SimState, Sources, StepperConfig, run


@dataclass
class ManufacturedCase:
    """Closed-form fields and the spatial derivatives the forcing needs.

    Every callable takes (x, t) where x is the tuple of meshgrid coordinate
    arrays; vector-valued evaluators return shape (..., d), matrix-valued
    (grad_u) return (..., d, d) with entry [i, j] = d u_i / d x_j.
    """

    name: str
    d: int
    lengths: tuple
    u: Callable
    u_t: Callable
    u_tt: Callable
    grad_u: Callable
    grad_u_t: Callable
    lap_u: Callable
    lap_u_t: Callable
    grad_div_u: Callable
    grad_div_u_t: Callable
    theta: Callable
    theta_t: Callable
    grad_theta: Callable
    lap_theta: Callable
    theta_min: float


def _sym_from_grad(grad, d):
    """Symmetrize an analytic (..., d, d) gradient into 6-component storage."""
    out = np.zeros(grad.shape[:-2] + (6,))
    for i in range(d):
        for j in range(i, d):
            out[..., cons.COMPONENT_OF[(i, j)]] = 0.5 * (
                grad[..., i, j] + grad[..., j, i]
            )
    return out


@dataclass
class ManufacturedProblem:
    """A case bound to a grid and material: forcing, initial and exact states."""

    case: ManufacturedCase
    grid: Grid
    params: object

    def _x(self):
        return self.grid.coords()

    def exact_state(self, t):
        x = self._x()
        u = np.array(self.case.u(x, t), dtype=float)
        v = np.array(self.case.u_t(x, t), dtype=float)
        # the discrete Dirichlet condition is exact; clamp the round-off the
        # closed forms leave on the boundary so states validate strictly
        u[self.grid.boundary_mask] = 0.0
        v[self.grid.boundary_mask] = 0.0
        theta = np.broadcast_to(
            np.asarray(self.case.theta(x, t), dtype=float), self.grid.shape
        ).copy()
        return SimState(
            t=t,
            u=VectorField(self.grid, u),
            v=VectorField(self.grid, v),
            theta=ScalarField(self.grid, theta),
        )

    def initial_state(self):
        return self.exact_state(0.0)

    def body_force(self, t):
        case, params = self.case, self.params
        x = self._x()
        out = np.asarray(case.u_tt(x, t), dtype=float).copy()
        for lam, mu, lap, grad_div in (
            (params.lambda1, params.mu1, case.lap_u_t, case.grad_div_u_t),
            (params.lambda2, params.mu2, case.lap_u, case.grad_div_u),
        ):
            out -= mu * np.asarray(lap(x, t), dtype=float)
            out -= (lam + mu) * np.asarray(grad_div(x, t), dtype=float)
        coupling = cons.matrix_from_sym6(params.thermal_coupling())
        grad_theta = np.asarray(case.grad_theta(x, t), dtype=float)
        out += np.einsum(
            "ij,...j->...i", coupling[: case.d, : case.d], grad_theta
        )
        return VectorField(self.grid, out)

    def heat_source(self, t):
        case, params = self.case, self.params
        x = self._x()
        theta = np.asarray(case.theta(x, t), dtype=float)
        rate = _sym_from_grad(
            np.asarray(case.grad_u_t(x, t), dtype=float), case.d
        )
        coupling = params.thermal_coupling()
        viscous = cons.ddot(
            cons.apply_isotropic(params.lambda1, params.mu1, rate), rate
        )
        g = (
            params.cv * theta * np.asarray(case.theta_t(x, t), dtype=float)
            - params.k * np.asarray(case.lap_theta(x, t), dtype=float)
            + theta * cons.ddot(coupling, rate)
            - viscous
        )
        return ScalarField(self.grid, np.broadcast_to(g, self.grid.shape).copy())

    def sources(self):
        return Sources(b=self.body_force, g=self.heat_source)


def manufacture(case, grid, params, time_span=(0.0, 1.0)):
    """Bind a case to a grid after verifying its boundary/positivity claims.

    Sampling five times across ``time_span``: u* must vanish on the
    boundary, the normal derivative of theta* must vanish there, and theta*
    must stay above a positive floor.  Violations are rejected with the
    offending location.
    """
    if grid.d != case.d or tuple(grid.lengths) != tuple(case.lengths):
        raise UsageError(
            f"case '{case.name}' is built for d={case.d}, lengths={case.lengths}; "
            f"grid has d={grid.d}, lengths={grid.lengths}"
        )
    x = grid.coords()
    mask = grid.boundary_mask
    times = np.linspace(time_span[0], time_span[1], 5)
    for t in times:
        u = np.asarray(case.u(x, t), dtype=float)
        worst = np.max(np.abs(u[mask])) if np.any(mask) else 0.0
        if worst > 1e-10 * (1.0 + np.max(np.abs(u))):
            where = np.unravel_index(
                np.argmax(np.abs(np.where(mask[..., None], u, 0.0)).max(axis=-1)),
                grid.shape,
            )
            raise UsageError(
                f"case '{case.name}': u does not vanish on the boundary at "
                f"node {where}, t={t} (|u| = {worst:.3e})"
            )
        grad_theta = np.asarray(case.grad_theta(x, t), dtype=float)
        for axis in range(grid.d):
            for face in (0, -1):
                index = [slice(None)] * grid.d
                index[axis] = face
                normal_deriv = grad_theta[tuple(index)][..., axis]
                worst = float(np.max(np.abs(normal_deriv)))
                if worst > 1e-10 * (1.0 + np.max(np.abs(grad_theta))):
                    raise UsageError(
                        f"case '{case.name}': normal derivative of theta is "
                        f"{worst:.3e} on face x_{axis + 1} = "
                        f"{0.0 if face == 0 else case.lengths[axis]}, t={t}"
                    )
        theta = np.asarray(case.theta(x, t), dtype=float)
        theta_min = float(np.min(theta))
        if theta_min <= 0.0 or theta_min < 0.5 * case.theta_min:
            raise UsageError(
                f"case '{case.name}': theta reaches {theta_min} at t={t}, below "
                f"the declared floor {case.theta_min}"
            )
    return ManufacturedProblem(case=case, grid=grid, params=params)


# ---------------------------------------------------------------------------
# built-in cases
# ---------------------------------------------------------------------------

def _zero_vector_case_parts(d):
    def zeros_vec(x, t):
        return np.zeros(np.broadcast(*x).shape + (d,))

    def zeros_mat(x, t):
        return np.zeros(np.broadcast(*x).shape + (d, d))

    return zeros_vec, zeros_mat


def rest_case(d, lengths, theta0=2.0):
    """u* = 0, theta* = const: zero forcing, exact discrete solution."""
    zeros_vec, zeros_mat = _zero_vector_case_parts(d)

    def theta(x, t):
        return np.full(np.broadcast(*x).shape, theta0)

    def zero_scalar(x, t):
        return np.zeros(np.broadcast(*x).shape)

    return ManufacturedCase(
        name="rest", d=d, lengths=tuple(lengths),
        u=zeros_vec, u_t=zeros_vec, u_tt=zeros_vec,
        grad_u=zeros_mat, grad_u_t=zeros_mat,
        lap_u=zeros_vec, lap_u_t=zeros_vec,
        grad_div_u=zeros_vec, grad_div_u_t=zeros_vec,
        theta=theta, theta_t=zero_scalar,
        grad_theta=zeros_vec, lap_theta=zero_scalar,
        theta_min=theta0,
    )


def cooling_case(d, lengths, amplitude=0.5, base=2.0):
    """u* = 0, theta* = base + amplitude * cos(pi x1 / L1) * exp(-t)."""
    zeros_vec, zeros_mat = _zero_vector_case_parts(d)
    w = math.pi / lengths[0]

    def profile(x):
        return np.cos(w * x[0])

    def theta(x, t):
        return base + amplitude * profile(x) * math.exp(-t)

    def theta_t(x, t):
        return -amplitude * profile(x) * math.exp(-t)

    def grad_theta(x, t):
        shape = np.broadcast(*x).shape
        out = np.zeros(shape + (d,))
        out[..., 0] = -amplitude * w * np.sin(w * x[0]) * math.exp(-t)
        return out

    def lap_theta(x, t):
        return -amplitude * w**2 * profile(x) * math.exp(-t)

    return ManufacturedCase(
        name="cooling", d=d, lengths=tuple(lengths),
        u=zeros_vec, u_t=zeros_vec, u_tt=zeros_vec,
        grad_u=zeros_mat, grad_u_t=zeros_mat,
        lap_u=zeros_vec, lap_u_t=zeros_vec,
        grad_div_u=zeros_vec, grad_div_u_t=zeros_vec,
        theta=theta, theta_t=theta_t,
        grad_theta=grad_theta, lap_theta=lap_theta,
        theta_min=base - amplitude,
    )


def default_case(d, lengths, u_amp=0.1, theta_amp=0.5, base=2.0):
    """Product-sine displacement and product-cosine temperature profile.

    u*_i = a_i sin(pi x_1/L_1) ... sin(pi x_d/L_d) cos(t)  (vanishing on the
    boundary), theta* = base + theta_amp cos(pi x_1/L_1) ... cos(pi x_d/L_d)
    exp(-t) (zero normal derivative on every face, positive).
    """
    lengths = tuple(lengths)
    w = [math.pi / c for c in lengths]
    amps = np.array([u_amp / (1.0 + i) for i in range(d)])

    def sin_prod(x):
        out = np.sin(w[0] * x[0])
        for k in range(1, d):
            out = out * np.sin(w[k] * x[k])
        return out

    def cos_prod(x):
        out = np.cos(w[0] * x[0])
        for k in range(1, d):
            out = out * np.cos(w[k] * x[k])
        return out

    def time_u(t):
        return math.cos(t)

    def time_u_t(t):
        return -math.sin(t)

    def time_u_tt(t):
        return -math.cos(t)

    def _vector(x, scalar):
        shape = np.broadcast(*x).shape
        out = np.empty(shape + (d,))
        for i in range(d):
            out[..., i] = amps[i] * scalar
        return out

    def u(x, t):
        return _vector(x, sin_prod(x)) * time_u(t)

    def u_t(x, t):
        return _vector(x, sin_prod(x)) * time_u_t(t)

    def u_tt(x, t):
        return _vector(x, sin_prod(x)) * time_u_tt(t)

    def _partial_sin_prod(x, j):
        """d/dx_j of the product-sine profile."""
        out = w[j] * np.cos(w[j] * x[j])
        for k in range(d):
            if k != j:
                out = out * np.sin(w[k] * x[k])
        return out

    def _second_partial_sin_prod(x, j):
        return -(w[j] ** 2) * sin_prod(x)

    def _mixed_partial_sin_prod(x, i, j):
        out = w[i] * np.cos(w[i] * x[i]) * w[j] * np.cos(w[j] * x[j])
        for k in range(d):
            if k not in (i, j):
                out = out * np.sin(w[k] * x[k])
        return out

    def _grad(x, t, time_factor):
        shape = np.broadcast(*x).shape
        out = np.empty(shape + (d, d))
        for i in range(d):
            for j in range(d):
                out[..., i, j] = amps[i] * _partial_sin_prod(x, j)
        return out * time_factor(t)

    def grad_u(x, t):
        return _grad(x, t, time_u)

    def grad_u_t(x, t):
        return _grad(x, t, time_u_t)

    def _lap(x, t, time_factor):
        lap_profile = sum(_second_partial_sin_prod(x, j) for j in range(d))
        return _vector(x, lap_profile) * time_factor(t)

    def lap_u(x, t):
        return _lap(x, t, time_u)

    def lap_u_t(x, t):
        return _lap(x, t, time_u_t)

    def _grad_div(x, t, time_factor):
        shape = np.broadcast(*x).shape
        out = np.zeros(shape + (d,))
        # div u = sum_j a_j d_j(profile);  (grad div u)_i = sum_j a_j d_i d_j
        for i in range(d):
            acc = np.zeros(shape)
            for j in range(d):
                if i == j:
                    acc += amps[j] * _second_partial_sin_prod(x, j)
                else:
                    acc += amps[j] * _mixed_partial_sin_prod(x, i, j)
            out[..., i] = acc
        return out * time_factor(t)

    def grad_div_u(x, t):
        return _grad_div(x, t, time_u)

    def grad_div_u_t(x, t):
        return _grad_div(x, t, time_u_t)

    def theta(x, t):
        return base + theta_amp * cos_prod(x) * math.exp(-t)

    def theta_t(x, t):
        return -theta_amp * cos_prod(x) * math.exp(-t)

    def grad_theta(x, t):
        shape = np.broadcast(*x).shape
        out = np.empty(shape + (d,))
        for j in range(d):
            partial = -w[j] * np.sin(w[j] * x[j])
            for k in range(d):
                if k != j:
                    partial = partial * np.cos(w[k] * x[k])
            out[..., j] = theta_amp * partial * math.exp(-t)
        return out

    def lap_theta(x, t):
        return -sum(w[j] ** 2 for j in range(d)) * theta_amp * cos_prod(x) * math.exp(-t)

    return ManufacturedCase(
        name="default", d=d, lengths=lengths,
        u=u, u_t=u_t, u_tt=u_tt,
        grad_u=grad_u, grad_u_t=grad_u_t,
        lap_u=lap_u, lap_u_t=lap_u_t,
        grad_div_u=grad_div_u, grad_div_u_t=grad_div_u_t,
        theta=theta, theta_t=theta_t,
        grad_theta=grad_theta, lap_theta=lap_theta,
        theta_min=base - theta_amp,
    )


CASES = {
    "default": default_case,
    "rest": rest_case,
    "cooling": cooling_case,
}


def get_case(name, d, lengths):
    if name not in CASES:
        raise UsageError(
            f"unknown manufactured case '{name}'; available: {sorted(CASES)}"
        )
    return CASES[name](d, lengths)


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
    L_inf-in-time of the spatial L2 errors of (u, v, theta)."""
    initial = problem.initial_state()
    traj = run(initial, problem.params, config, t_end, sources=problem.sources())
    worst = {"u": 0.0, "v": 0.0, "theta": 0.0}
    for state in traj.states:
        exact = problem.exact_state(state.t)
        for key, got, want in (
            ("u", state.u, exact.u),
            ("v", state.v, exact.v),
            ("theta", state.theta, exact.theta),
        ):
            err = l2_norm(problem.grid, got.data - want.data)
            worst[key] = max(worst[key], err)
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
    the unit box, with the default :class:`StepperConfig` at each dt.

    ``mode="spatial"`` refines the grid geometrically with dt proportional
    to h^2 (so both error sources scale together at second order in h);
    ``mode="temporal"`` fixes the finest grid and sweeps ``dts``.
    """
    if len(resolutions) < 3:
        raise UsageError("a convergence ladder needs at least 3 resolutions")
    lengths = (1.0,) * d
    levels = []
    if mode == "spatial":
        h0 = lengths[0] / (resolutions[0] - 1)
        for n in resolutions:
            grid = Grid((n,) * d, lengths)
            h = grid.h[0]
            dt = dt0 * (h / h0) ** 2
            problem = manufacture(
                get_case(case_name, d, lengths), grid, params,
                time_span=(0.0, t_end),
            )
            errs = _linf_l2_errors(problem, StepperConfig(dt=dt), t_end)
            levels.append(OrderLevel(n, h, dt, errs["u"], errs["v"], errs["theta"]))
        xs = [lv.h for lv in levels]
    elif mode == "temporal":
        if dts is None or len(dts) < 3:
            raise UsageError("temporal mode needs at least 3 dt values")
        n = resolutions[-1]
        grid = Grid((n,) * d, lengths)
        problem = manufacture(
            get_case(case_name, d, lengths), grid, params,
            time_span=(0.0, t_end),
        )
        for dt in dts:
            errs = _linf_l2_errors(problem, StepperConfig(dt=dt), t_end)
            levels.append(OrderLevel(n, grid.h[0], dt,
                                     errs["u"], errs["v"], errs["theta"]))
        xs = [lv.dt for lv in levels]
    else:
        raise UsageError(f"mode must be 'spatial' or 'temporal', got {mode!r}")

    orders = {
        "u": _fit_order(xs, [lv.err_u for lv in levels]),
        "v": _fit_order(xs, [lv.err_v for lv in levels]),
        "theta": _fit_order(xs, [lv.err_theta for lv in levels]),
    }
    return OrderReport(case=case_name, mode=mode, levels=levels, orders=orders)
