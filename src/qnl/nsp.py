"""Rescaled compressible Navier-Stokes-Poisson solver on the torus.

State is (rho, u, theta, phi) with the elliptic constraint
-lambda * lap(phi) = rho - 1.  The singular 1/lambda coupling lives entirely
in the skew exchange between the gradient velocity part Qu and the electric
field grad(phi).  Both are gradients, so the stepper carries them by their
potentials: its state is (rho, Pu, chi, phi, theta) with Qu = grad(chi),
dims + 4 coefficient arrays where vector slots took 3 dims + 2.  The
exchange is then the rotation of the scalar pair (chi, phi) at angular
speed 1/lambda, which the stepper applies exactly in rotated (filtered)
variables, while everything else -- transport, pressure, viscous and
heating terms, and the O(1) electric residue of the continuity equation --
is advanced explicitly by RK4 with integrating factors for the
constant-coefficient Laplacians on the divergence-free velocity part and
the temperature.  The gradient part's viscous term stays explicit, which
bounds the step (viscous_dt).  After each step u is re-split by its
potential and phi is re-solved from the Poisson equation, projecting the
state back onto the constraint manifold.

Only the rotation is exact, not the exchange: rho's slot is stepped by
explicit RK4, and its tendency -div(rho u) carries the 1/lambda
oscillation into the phi that settle re-solves.  The linearized pair
returns after one period 2 pi lambda with an error that falls as
(dt/lambda)^4 (1.5e-7 at 64 steps a period, 9.3e-10 at 512, at 32^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import (BlowUpError, DegenerateDensityError, MassDefectError,
                     NonpositiveTemperatureError)
from .limit_solver import PhysParams, strain_heating
from .projections import gradient_potential
from .spectral import (MEAN_TOL, SpectralScalar, SpectralVector, as_vector,
                       constant_scalar, divergence, gradient, laplacian,
                       physical_derivative, physical_gradient, sobolev_norm,
                       stack, to_physical, to_spectral, vector_from_samples,
                       zeros_scalar)
from .stepping import (BLOWUP_FACTOR, Snapshots, all_finite, diffusion,
                       integrate, time_grid)

RHO_FLOOR = 1e-6
# The gradient part's viscous term -(2 mu + nu) k^2 chi / rho is explicit,
# and RK4 holds a decay rate a only while z = a h <= 2.785 (Hairer & Wanner,
# Solving ODEs II, IV.2).  The exact (chi, phi) rotation raises that bound
# on a linear 2x2 model (2.81 at h/lambda = 0.39, 3.34 at pi/2); bisected on
# the solver at 64^2, 32^2 and 24^3, a step grew a seeded top-band
# perturbation from z = 2.87 to 3.59.  The safety factor keeps z <= 2.09,
# which RK4 holds with an advective part of up to 1.4i beside it and room
# for the density to fall during a run.
VISCOUS_Z = 2.785
VISCOUS_SAFETY = 0.75


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


def poisson_solve(rho: SpectralScalar, lam: float) -> SpectralScalar:
    """Mean-zero phi with -lambda*lap(phi) = rho - 1."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    defect = abs(rho.mean - 1.0)
    if defect > MEAN_TOL:
        raise MassDefectError(f"density mean differs from 1 by {defect:.3e}")
    grid = rho.grid
    coeffs = rho.coeffs * grid.inv_k_sq / lam  # k = 0 mode killed by inv_k_sq
    return SpectralScalar(grid, coeffs)


def _inverse_density(rho: SpectralScalar) -> np.ndarray:
    """Dealiased samples of 1/rho, formed from the unmasked samples of rho.
    The forward transform of 1/rho is masked: the masked inverse reads only
    the band, and gives the samples of the unmasked transform bit for bit."""
    grid = rho.grid
    samples = rho.samples()
    if samples.min() <= RHO_FLOOR:
        raise DegenerateDensityError(
            f"density reached floor: min rho = {samples.min():.3e}")
    return to_physical(grid, to_spectral(grid, 1.0 / samples))


def nsp_rhs_nonstiff(state: NSPState, params: PhysParams, lam: float, us=None):
    """Tendencies (drho, du, dtheta) excluding the 1/lambda skew exchange.

    The momentum tendency omits the electric term -(1/lambda) grad(phi)
    entirely (it is exactly the rotated pair's generator); everything else,
    including the density-weighted viscous terms, is assembled here.  Each
    field and first derivative is sampled once, every tendency component is
    forward-transformed once, and the nested products (pressure and heat
    times 1/rho) keep their dealiasing round trip.  us are the dealiased
    samples of u, if the caller has them already; sampled here otherwise.

    Each sample array is dropped once its last product is formed, and each
    tendency is forward-transformed as soon as it is complete: the samples
    of rho go with the pressure, those of theta and the heating terms with
    dtheta, and each du[b] is transformed before du[b + 1] is formed.  The
    samples of u and its gradient stay until the last du.  Every output's
    arithmetic is that of the formula, so the order changes no bit.
    """
    grid = state.grid
    dims = grid.dims
    ik = grid.ik
    rho, u, theta = state.rho, state.u, state.theta
    inv_rho = _inverse_density(rho)
    rs = to_physical(grid, rho.coeffs)
    if us is None:
        us = [to_physical(grid, c.coeffs) for c in u]
    grad_u = physical_gradient(u)
    div_u = sum(grad_u[a][a] for a in range(dims))

    drho = -sum(ik[a] * to_spectral(grid, rs * us[a]) for a in range(dims))
    ts = to_physical(grid, theta.coeffs)
    pressure = to_spectral(grid, rs * ts)
    del rs

    pointwise = -ts * div_u - sum(us[a] * physical_derivative(grid, theta.coeffs, a)
                                  for a in range(dims))
    del ts
    if not params.is_euler:
        heat = params.kappa * laplacian(theta).coeffs
        if params.mu != 0.0 or params.nu != 0.0:
            heat = heat + to_spectral(
                grid, strain_heating(grad_u, params.mu) + params.nu * div_u * div_u)
        pointwise = pointwise + inv_rho * to_physical(grid, heat)
        del heat
    del div_u
    dtheta = to_spectral(grid, pointwise)
    del pointwise

    # Pressure gradient and viscous stress enter as one factor of 1/rho.
    div_coeffs = divergence(u).coeffs
    du = []
    for b in range(dims):
        force = -ik[b] * pressure
        if params.mu != 0.0 or params.nu != 0.0:
            force = force + params.mu * laplacian(u[b]).coeffs \
                + (params.mu + params.nu) * ik[b] * div_coeffs
        du.append(to_spectral(grid, inv_rho * to_physical(grid, force)
                              - sum(us[a] * grad_u[a][b] for a in range(dims))))
    return (SpectralScalar(grid, drho), as_vector(grid, du),
            SpectralScalar(grid, dtheta))


def _electric_residue(us, phi: SpectralScalar) -> SpectralScalar:
    """Potential of the nonstiff part of d/dt grad(phi), -Q(u * lap(phi)),
    from the dealiased samples us of u."""
    grid = phi.grid
    lap_phi = to_physical(grid, divergence(gradient(phi)).coeffs)
    return -gradient_potential(vector_from_samples(grid, [s * lap_phi for s in us]))


def _make_ops(grid, params: PhysParams, lam: float, guard: float):
    """explicit, propagate and settle of the NSP state for integrate.

    The state is stack(rho, Pu, chi, phi, theta), dims + 4 arrays: the
    gradient part of u and the electric field are carried by their
    potentials, Qu = grad(chi).  propagate rotates the pair (chi, phi) by
    delta/lambda and diffuses Pu and theta; explicit returns the potentials
    of the tendencies of the gradient slots.  settle accepts any split of u
    between Pu and grad(chi), re-splits it by its potential and re-solves
    phi from rho, so the phi slot it is given is ignored.
    """
    k_sq, ik = grid.k_sq, grid.ik
    n = grid.dims
    chi_, phi_ = 1 + n, 2 + n

    def explicit(y, t):
        rho, theta = SpectralScalar(grid, y[0]), SpectralScalar(grid, y[-1])
        u = as_vector(grid, [y[1 + a] + ik[a] * y[chi_] for a in range(n)])
        us = [to_physical(grid, c.coeffs) for c in u]
        drho, du, dtheta = nsp_rhs_nonstiff(NSPState(rho, u, theta, None), params, lam, us)
        dchi = gradient_potential(du).coeffs
        dpu = [du[a].coeffs - ik[a] * dchi + params.mu * k_sq * y[1 + a]
               for a in range(n)]
        del du
        dphi = _electric_residue(us, SpectralScalar(grid, y[phi_])).coeffs
        return (drho.coeffs, *dpu, dchi, dphi,
                dtheta.coeffs + params.kappa * k_sq * theta.coeffs)

    diffuse = diffusion(k_sq, (0.0, *(params.mu,) * n, 0.0, 0.0, params.kappa))

    def propagate(y, delta):
        c, s = cos(delta / lam), sin(delta / lam)
        y = diffuse(y, delta)
        chi, phi = y[chi_], y[phi_]
        return (*y[:chi_], c * chi - s * phi, s * chi + c * phi, y[-1])

    def settle(y, t):
        state = _state(grid, y, lam)
        if state.theta.samples().min() <= 0.0:
            raise NonpositiveTemperatureError(
                f"NSP temperature not positive at t = {t:.4f}")
        if not all_finite(y) or sobolev_norm(state.u, 1) > guard:
            raise BlowUpError(f"NSP solution blew up or is not finite at t = {t:.4f}")
        chi = gradient_potential(state.u)
        return stack(state.rho, state.u - gradient(chi), chi, state.phi, state.theta), None

    return explicit, propagate, settle


def _unsettled(state: NSPState) -> tuple:
    """The NSP state layout with all of u in the Pu slot; settle splits it."""
    zero = zeros_scalar(state.grid)
    return stack(state.rho, state.u, zero, zero, state.theta)


def _state(grid, y, lam: float) -> NSPState:
    """The NSPState of a state tuple, phi re-solved from rho."""
    n = grid.dims
    rho = SpectralScalar(grid, y[0])
    u = as_vector(grid, y[1:1 + n]) + gradient(SpectralScalar(grid, y[1 + n]))
    return NSPState(rho, u, SpectralScalar(grid, y[-1]), poisson_solve(rho, lam))


def viscous_dt(params: PhysParams, grid, min_rho: float) -> float:
    """The step bound VISCOUS_SAFETY * VISCOUS_Z / ((2 mu + nu) k^2_max /
    min_rho) of the chi slot's explicit viscous decay, k^2_max the largest
    |k|^2 the 2/3 mask keeps; inf if there is no decay or min_rho <= 0 (the
    run then fails on its density)."""
    rate = (2.0 * params.mu + params.nu) * grid.k_sq[grid.dealias_mask].max()
    if rate <= 0.0 or min_rho <= 0.0:
        return np.inf
    return VISCOUS_SAFETY * VISCOUS_Z * min_rho / rate


def nsp_dt(cfl: float, lam: float, phase_resolution: int, dt_max: float,
           viscous: float = np.inf) -> float:
    """min(cfl, one oscillation period / phase_resolution, dt_max, viscous),
    viscous being the viscous_dt of the run."""
    return min(cfl, 2.0 * np.pi * lam / phase_resolution, dt_max, viscous)


def run_nsp(initial: NSPState, params: PhysParams, lam: float, t_end: float,
            dt: float, snapshot_times=None, on_snapshot=None) -> Snapshots | None:
    """Integrate to t_end with steps of at most dt (the sweep takes nsp_dt);
    the states at the snapshot times, phi re-solved from rho in each.  With
    on_snapshot, each state goes to on_snapshot(t, state) as soon as it is
    reached, none is kept here, and the result is None."""
    grid = initial.grid
    params.validate(grid.dims)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    times = time_grid(snapshot_times, t_end)
    guard = BLOWUP_FACTOR * max(sobolev_norm(initial.u, 1), sobolev_norm(initial.rho, 1), 1e-8)
    explicit, propagate, settle = _make_ops(grid, params, lam, guard)
    run = integrate(_unsettled(initial), times, dt, explicit, propagate, settle)
    del initial  # the first settle replaces its u and phi; the run owns the rest
    states = map(lambda y: _state(grid, y, lam), run)
    if on_snapshot is None:
        return Snapshots(times, list(states))
    for t in times:
        on_snapshot(t, next(states))
    return None
