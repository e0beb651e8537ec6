"""Incompressible Navier-Stokes / Euler limit system with temperature.

The velocity obeys the pressure-free projected momentum equation and the
temperature is advected with heat conduction and viscous self-heating:

    dv/dt     = P(-(v.grad)v) + mu lap(v)
    dtheta/dt = -(v.grad)theta + kappa lap(theta)
                + (mu/2) sum_ij (d_i v_j + d_j v_i)^2

Pressure is eliminated by the Leray projection during stepping and recovered
on demand from the Poisson equation lap(Pi) = -div((v.grad)v - mu lap(v)).
Time stepping is RK4 with exact integrating factors for both Laplacians, so
the Euler case (all coefficients zero) degenerates to classical RK4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, NonpositiveTemperatureError
from .projections import leray_p
from .spectral import (SpectralScalar, SpectralVector, as_vector, divergence,
                       inverse_laplacian, laplacian, physical_derivative, sobolev_norm,
                       stack, to_physical, to_spectral, vector_from_samples)
from .stepping import (BLOWUP_FACTOR, Snapshots, all_finite, diffusion,
                       integrate, time_grid)

DIV_TOL = 1e-10


@dataclass(frozen=True)
class PhysParams:
    """Viscosity / conduction coefficients (c_V = R = 1 throughout)."""

    mu: float = 0.0
    nu: float = 0.0
    kappa: float = 0.0

    @property
    def is_euler(self) -> bool:
        return self.mu == 0.0 and self.nu == 0.0 and self.kappa == 0.0

    def validate(self, dims: int) -> None:
        if self.mu < 0 or self.kappa < 0:
            raise ValueError("mu and kappa must be non-negative")
        if not self.is_euler:
            if self.mu <= 0 or 2.0 * self.mu + dims * self.nu <= 0:
                raise ValueError(
                    "viscous mode needs mu > 0 and 2*mu + N*nu > 0 "
                    f"(got mu={self.mu}, nu={self.nu})")


@dataclass(eq=False)
class LimitState:
    """Divergence-free velocity and positive temperature."""

    v: SpectralVector
    theta: SpectralScalar

    @property
    def grid(self):
        return self.v.grid

    def validate(self) -> None:
        div_norm = sobolev_norm(divergence(self.v), 0)
        if div_norm > DIV_TOL * max(1.0, sobolev_norm(self.v, 0)):
            raise ValueError(f"velocity is not divergence-free: |div v| = {div_norm:.3e}")
        if self.theta.samples().min() <= 0.0:
            raise NonpositiveTemperatureError("initial temperature not positive")


def gradient_terms(v: SpectralVector, vs, mu: float | None = None):
    """Samples of div v, of (mu/2) sum_ij (d_i v_j + d_j v_i)^2 (None
    without mu) and of each component of (v.grad)v, from v and the samples
    vs[a] of v_a.  Each pair d_i v_j, d_j v_i (i <= j) is sampled, added
    into every sum in index order and dropped.  Sums start from int 0 as
    sum() does, the strain sum from 0.0: every bit is the whole gradient's."""
    grid = v.grid
    div, strain, advection = 0, 0.0, [0] * grid.dims
    for i in range(grid.dims):
        for j in range(i, grid.dims):
            gij = physical_derivative(grid, v[j].coeffs, i)
            gji = gij if i == j else physical_derivative(grid, v[i].coeffs, j)
            advection[j] += vs[i] * gij
            if i == j:
                div += gij
            else:
                advection[i] += vs[j] * gji
            if mu is not None:
                sij = gji + gij
                strain += sij * sij if i == j else 2.0 * sij * sij
    return div, None if mu is None else (0.5 * mu) * strain, advection


def ns_rhs(state: LimitState, params: PhysParams):
    """Full tendency (dv, dtheta) of the limit system.

    Each velocity component and each first derivative of v and theta is
    sampled once, the velocity gradient pair by pair (gradient_terms); each
    tendency component is forward-transformed once.
    """
    grid = state.grid
    v, theta = state.v, state.theta
    vs = [to_physical(grid, c.coeffs) for c in v]
    _, heating, advection = gradient_terms(v, vs, params.mu if params.mu != 0.0 else None)
    dv = leray_p(-vector_from_samples(grid, advection))
    if params.mu != 0.0:
        dv = dv + params.mu * laplacian(v)
    pointwise = -sum(vs[a] * physical_derivative(grid, theta.coeffs, a)
                     for a in range(grid.dims))
    if heating is not None:
        pointwise = pointwise + heating
    dtheta = SpectralScalar(grid, to_spectral(grid, pointwise))
    if params.kappa != 0.0:
        dtheta = dtheta + params.kappa * laplacian(theta)
    return dv, dtheta


def recover_pressure(state: LimitState, params: PhysParams | None = None) -> SpectralScalar:
    """Mean-zero Pi with lap(Pi) = -div((v.grad)v - mu lap(v)); v is sampled
    once and its gradient pair by pair, as in ns_rhs."""
    grid, v = state.grid, state.v
    mu = params.mu if params is not None else 0.0
    # The unmasked transform, then the mask, not the pruned transform: the
    # signed zeros this leaves past the band reach the Nyquist planes of Pi,
    # which qnl limit's snapshot files keep bit for bit.
    unprojected = as_vector(grid, [
        to_spectral(grid, a, masked=False) * grid.dealias_mask
        for a in gradient_terms(v, [to_physical(grid, c.coeffs) for c in v])[2]])
    if mu != 0.0:
        unprojected = unprojected - mu * laplacian(v)
    return inverse_laplacian(-divergence(unprojected))


def _make_ops(grid, params: PhysParams, guard: float, nodes=None):
    """explicit, propagate and settle of the (v, theta) state for integrate.
    settle re-projects v, guards the state and returns it with its first-stage
    tendency (FSAL); given a node store nodes, it also appends each node's
    time, velocity (the state's own arrays) and Hermite slope to its lists."""
    k_sq = grid.k_sq
    n = grid.dims

    def explicit(y, t):
        state = LimitState(leray_p(as_vector(grid, y[:n])), SpectralScalar(grid, y[n]))
        dv, dtheta = ns_rhs(state, params)
        return (*(dv[a].coeffs + params.mu * k_sq * state.v[a].coeffs for a in range(n)),
                dtheta.coeffs + params.kappa * k_sq * y[n])

    def settle(y, t):
        v, theta = leray_p(as_vector(grid, y[:n])), SpectralScalar(grid, y[n])
        if not all_finite(y) or sobolev_norm(v, 1) > guard:
            raise BlowUpError(f"limit solution blew up or is not finite at t = {t:.4f}")
        if theta.samples().min() <= 0.0:
            raise NonpositiveTemperatureError(
                f"limit temperature lost positivity at t = {t:.4f}")
        y = stack(v, theta)
        n1 = explicit(y, t)
        if nodes is not None:
            nodes.node_times.append(t)
            nodes.v_nodes.append(y[:n])
            nodes.dv_nodes.append(tuple(d - params.mu * k_sq * c for d, c in zip(n1, y[:n])))
        return y, n1

    return explicit, diffusion(k_sq, (params.mu,) * n + (params.kappa,)), settle


def advective_dt(u: SpectralVector) -> float:
    """Advective CFL bound 0.5 h / |u|_inf of a velocity."""
    umax = max(np.abs(c.samples()).max() for c in u)
    return 0.5 * u.grid.spacing / max(umax, 1e-12)


@dataclass(eq=False)
class LimitTrajectory(Snapshots):
    """The limit states at the snapshot times, plus the velocity and its
    tendency at every step node (at node_times), from which v_at
    interpolates the velocity at any time."""

    grid: object
    node_times: np.ndarray
    v_nodes: list           # per node: the dims coefficient arrays of v
    dv_nodes: list          # per node: the dims arrays of its tendency

    def _vector(self, node) -> SpectralVector:
        return as_vector(self.grid, [c.copy() for c in node])

    def v_at(self, t: float) -> SpectralVector:
        """Cubic Hermite interpolation of the velocity, component by component."""
        times = self.node_times
        if t <= times[0]:
            return self._vector(self.v_nodes[0])
        if t >= times[-1]:
            return self._vector(self.v_nodes[-1])
        i = int(np.searchsorted(times, t, side="right")) - 1
        if abs(times[i] - t) < 1e-13:
            return self._vector(self.v_nodes[i])
        h = times[i + 1] - times[i]
        s = (t - times[i]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return as_vector(self.grid, [
            h00 * v0 + h01 * v1 + h * (h10 * d0 + h11 * d1)
            for v0, v1, d0, d1 in zip(self.v_nodes[i], self.v_nodes[i + 1],
                                      self.dv_nodes[i], self.dv_nodes[i + 1])])

    def keep_last_node(self) -> None:
        """Forget every node but the last, on node lists that limit_states
        grows: v_at then reads the next snapshot interval only, with the
        values it would read from every node."""
        del self.node_times[:-1], self.v_nodes[:-1], self.dv_nodes[:-1]


def limit_states(initial: LimitState, params: PhysParams, t_end: float, dt: float,
                 snapshot_times, nodes: LimitTrajectory | None = None):
    """Integrate the limit system with steps of at most dt, yielding the
    state at each snapshot time; the core of run_limit.  Each step node goes
    to the node lists of nodes, if given, whose v_at then reaches up to the
    last state yielded; with nodes None, no node is recorded."""
    grid = initial.grid
    params.validate(grid.dims)
    initial.validate()
    times = time_grid(snapshot_times, t_end)
    guard = BLOWUP_FACTOR * max(sobolev_norm(initial.v, 1), 1e-8)
    explicit, propagate, settle = _make_ops(grid, params, guard, nodes)
    n = grid.dims
    y0 = stack(initial.v, initial.theta.copy())
    yield from map(lambda y: LimitState(as_vector(grid, y[:n]), SpectralScalar(grid, y[n])),
                   integrate(y0, times, dt, explicit, propagate, settle))


def run_limit(initial: LimitState, params: PhysParams, t_end: float, dt: float,
              snapshot_times=None) -> LimitTrajectory:
    """Integrate the limit system with steps of at most dt; the states at the
    snapshot times, with every node's velocity for interpolation."""
    traj = LimitTrajectory(time_grid(snapshot_times, t_end), [], initial.grid, [], [], [])
    traj.states = list(limit_states(initial, params, t_end, dt, snapshot_times, traj))
    traj.node_times = np.asarray(traj.node_times)
    return traj
