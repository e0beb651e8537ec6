"""Rescaled compressible Navier-Stokes-Poisson solver on the torus.

State is (rho, u, theta, phi) with the elliptic constraint
-lambda * lap(phi) = rho - 1.  The singular 1/lambda coupling lives entirely
in the skew exchange between the gradient velocity part Qu and the electric
gradient grad(phi); the stepper advances that pair in rotated (filtered)
variables so the exchange is integrated exactly, while everything else --
transport, pressure, viscous and heating terms, and the O(1) electric
residue of the continuity equation -- is advanced explicitly by RK4 with
integrating factors for the constant-coefficient Laplacians on the
divergence-free velocity part and the temperature.  After each step phi is
re-solved from the Poisson equation, projecting the state back onto the
constraint manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BlowUpError, DegenerateDensityError, MassDefectError,
                     NonpositiveTemperatureError)
from .limit_solver import PhysParams, advective_dt, strain_heating
from .oscillation import rotate_slots
from .projections import decompose, leray_q
from .spectral import (MEAN_TOL, SpectralScalar, SpectralVector, as_vector,
                       constant_scalar, divergence, gradient, laplacian,
                       physical_derivative, physical_gradient, sobolev_norm,
                       stack, to_physical, to_spectral, vector_from_samples,
                       zeros_scalar)
from .stepping import BLOWUP_FACTOR, all_finite, integrate, time_grid, time_index

RHO_FLOOR = 1e-6
DEFAULT_DT_MAX = 0.01
DEFAULT_PHASE_RESOLUTION = 16


@dataclass(eq=False)
class NSPState:
    """Density (mean 1), velocity, positive temperature, rescaled potential."""

    rho: SpectralScalar
    u: SpectralVector
    theta: SpectralScalar
    phi: SpectralScalar | None = None

    @property
    def grid(self):
        return self.rho.grid

    def mass(self) -> float:
        return self.rho.mean

    def poisson_residual(self, lam: float) -> float:
        """L2 norm of -lambda*lap(phi) - (rho - 1)."""
        if self.phi is None:
            return float("nan")
        res = (-lam) * laplacian(self.phi) - self.rho + constant_scalar(self.grid, 1.0)
        return sobolev_norm(res, 0)


def poisson_solve(rho: SpectralScalar, lam: float,
                  mean_tol: float = MEAN_TOL) -> SpectralScalar:
    """Mean-zero phi with -lambda*lap(phi) = rho - 1."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    defect = abs(rho.mean - 1.0)
    if defect > mean_tol:
        raise MassDefectError(f"density mean differs from 1 by {defect:.3e}")
    grid = rho.grid
    coeffs = rho.coeffs * grid.inv_k_sq / lam  # k = 0 mode killed by inv_k_sq
    return SpectralScalar(grid, coeffs)


def _inverse_density(rho: SpectralScalar) -> np.ndarray:
    """Dealiased samples of 1/rho, formed from the unmasked samples of rho."""
    grid = rho.grid
    samples = rho.samples()
    if samples.min() <= RHO_FLOOR:
        raise DegenerateDensityError(
            f"density reached floor: min rho = {samples.min():.3e}")
    return to_physical(grid, to_spectral(grid, 1.0 / samples, masked=False))


def nsp_rhs_nonstiff(state: NSPState, params: PhysParams, lam: float):
    """Tendencies (drho, du, dtheta) excluding the 1/lambda skew exchange.

    The momentum tendency omits the electric term -(1/lambda) grad(phi)
    entirely (it is exactly the rotated pair's generator); everything else,
    including the density-weighted viscous terms, is assembled here.  Each
    field and first derivative is sampled once, every tendency component is
    forward-transformed once, and the nested products (pressure and heat
    times 1/rho) keep their dealiasing round trip.
    """
    grid = state.grid
    dims = grid.dims
    ik = grid.ik
    rho, u, theta = state.rho, state.u, state.theta
    inv_rho = _inverse_density(rho)
    rs = to_physical(grid, rho.coeffs)
    us = [to_physical(grid, c.coeffs) for c in u]
    grad_u = physical_gradient(u)
    div_u = sum(grad_u[a][a] for a in range(dims))

    drho = -sum(ik[a] * to_spectral(grid, rs * us[a]) for a in range(dims))

    # Pressure gradient and viscous stress enter as one factor of 1/rho.
    ts = to_physical(grid, theta.coeffs)
    pressure = to_spectral(grid, rs * ts)
    div_coeffs = divergence(u).coeffs
    du = []
    for b in range(dims):
        force = -ik[b] * pressure
        if params.mu != 0.0 or params.nu != 0.0:
            force = force + params.mu * laplacian(u[b]).coeffs \
                + (params.mu + params.nu) * ik[b] * div_coeffs
        du.append(inv_rho * to_physical(grid, force)
                  - sum(us[a] * grad_u[a][b] for a in range(dims)))

    pointwise = -ts * div_u - sum(us[a] * physical_derivative(grid, theta.coeffs, a)
                                  for a in range(dims))
    if not params.is_euler:
        heat = params.kappa * laplacian(theta).coeffs
        if params.mu != 0.0 or params.nu != 0.0:
            quadratic = strain_heating(grad_u, params.mu) + params.nu * div_u * div_u
            heat = heat + to_spectral(grid, quadratic)
        pointwise = pointwise + inv_rho * to_physical(grid, heat)
    return (SpectralScalar(grid, drho), vector_from_samples(grid, du),
            SpectralScalar(grid, to_spectral(grid, pointwise)))


def _electric_residue(u: SpectralVector, grad_phi: SpectralVector) -> SpectralVector:
    """Nonstiff part of d/dt grad(phi): -Q(u * lap(phi))."""
    grid = u.grid
    lap_phi = to_physical(grid, divergence(grad_phi).coeffs)
    return -leray_q(vector_from_samples(
        grid, [to_physical(grid, c.coeffs) * lap_phi for c in u]))


def _make_ops(grid, params: PhysParams, lam: float, guard: float):
    """explicit, propagate and settle of the NSP state for integrate.

    The state is stack(rho, Pu, Qu, grad phi, theta); settle accepts any
    split of u between the Pu and Qu slots and ignores the grad phi slot.
    """
    k_sq = grid.k_sq
    n = grid.dims
    pu_, qu_, gphi_ = slice(1, 1 + n), slice(1 + n, 1 + 2 * n), slice(1 + 2 * n, 1 + 3 * n)

    def explicit(y, t):
        rho, theta = SpectralScalar(grid, y[0]), SpectralScalar(grid, y[-1])
        pu, qu, gphi = (as_vector(grid, y[part]) for part in (pu_, qu_, gphi_))
        u = pu + qu
        drho, du, dtheta = nsp_rhs_nonstiff(NSPState(rho, u, theta, None), params, lam)
        duq = leray_q(du)
        dpu = [du[a].coeffs - duq[a].coeffs + params.mu * k_sq * pu[a].coeffs
               for a in range(n)]
        return (drho.coeffs, *dpu, *stack(duq, _electric_residue(u, gphi)),
                dtheta.coeffs + params.kappa * k_sq * theta.coeffs)

    def propagate(y, delta):
        fv = np.exp(-params.mu * k_sq * delta) if params.mu else None
        ft = np.exp(-params.kappa * k_sq * delta) if params.kappa else None
        pu = [c if fv is None else fv * c for c in y[pu_]]
        qu, gphi = (as_vector(grid, y[part]) for part in (qu_, gphi_))
        qu, gphi = rotate_slots(delta / lam, qu, gphi)
        return (y[0], *pu, *stack(qu, gphi), y[-1] if ft is None else ft * y[-1])

    def settle(y, t):
        state = _state(grid, y, lam)
        if state.theta.samples().min() <= 0.0:
            raise NonpositiveTemperatureError(
                f"NSP temperature not positive at t = {t:.4f}")
        if not all_finite(y) or sobolev_norm(state.u, 1) > guard:
            raise BlowUpError(f"NSP solution blew up or is not finite at t = {t:.4f}")
        pu, qu, _ = decompose(state.u)
        return stack(state.rho, pu, qu, gradient(state.phi), state.theta), None

    return explicit, propagate, settle


def _unsettled(state: NSPState) -> tuple:
    """The NSP state layout with all of u in the Pu slot; settle splits it."""
    zero = zeros_scalar(state.grid)
    return stack(state.rho, state.u, *(zero,) * (2 * state.grid.dims), state.theta)


def _state(grid, y, lam: float) -> NSPState:
    """The NSPState of a state tuple, phi re-solved from rho."""
    n = grid.dims
    rho = SpectralScalar(grid, y[0])
    u = as_vector(grid, y[1:1 + n]) + as_vector(grid, y[1 + n:1 + 2 * n])
    return NSPState(rho, u, SpectralScalar(grid, y[-1]), poisson_solve(rho, lam))


def nsp_dt(cfl: float, lam: float, phase_resolution: int, dt_max: float) -> float:
    """min(cfl, one oscillation period / phase_resolution, dt_max)."""
    return min(cfl, 2.0 * np.pi * lam / phase_resolution, dt_max)


@dataclass(eq=False)
class NSPTrajectory:
    """Snapshot states plus per-snapshot diagnostics of one NSP run."""

    times: np.ndarray
    states: list
    diagnostics: list = field(default_factory=list)

    def state_at(self, t: float) -> NSPState:
        return self.states[time_index(self.times, t)]


def _diagnostic_row(t, state: NSPState, lam: float, norm_s: float):
    return {
        "t": t,
        "mass": state.mass(),
        "min_rho": float(state.rho.samples().min()),
        "min_theta": float(state.theta.samples().min()),
        "rho_hs": sobolev_norm(state.rho, norm_s),
        "u_hs": sobolev_norm(state.u, norm_s),
        "theta_hs": sobolev_norm(state.theta, norm_s),
        "grad_phi_hs1": sobolev_norm(gradient(state.phi), norm_s + 1.0),
        "poisson_residual": state.poisson_residual(lam),
    }


def run_nsp(initial: NSPState, params: PhysParams, lam: float, t_end: float,
            dt: float | None = None, snapshot_times=None, norm_s: float = 3.0,
            phase_resolution: int = DEFAULT_PHASE_RESOLUTION,
            dt_max: float = DEFAULT_DT_MAX) -> NSPTrajectory:
    """Integrate to t_end, recording snapshots and diagnostics; dt defaults
    to nsp_dt at the advective CFL step of the initial velocity."""
    grid = initial.grid
    params.validate(grid.dims)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    times = time_grid(snapshot_times, t_end)
    if dt is None:
        dt = nsp_dt(advective_dt(initial.u), lam, phase_resolution, dt_max)

    guard = BLOWUP_FACTOR * max(sobolev_norm(initial.u, 1), sobolev_norm(initial.rho, 1), 1e-8)
    explicit, propagate, settle = _make_ops(grid, params, lam, guard)
    states = list(map(lambda y: _state(grid, y, lam), integrate(
        _unsettled(initial), times, dt, explicit, propagate, settle)))
    diag = [_diagnostic_row(t, state, lam, norm_s) for t, state in zip(times, states)]
    return NSPTrajectory(times, states, diag)
