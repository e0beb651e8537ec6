"""Fast-oscillation ansatz: filtered pair system, correctors, assembly.

The filtered pair (grad_q, grad_p) obeys a lambda-independent linear system
driven by the limit velocity,

    d/dt g = -(1/2) Q((v.grad)g + (g.grad)v + v div g)
             + (mu + nu/2) grad(div g),

one copy per slot, with initial data (Q u0, grad phi0).  The physical
oscillation at Debye length lambda is the pair rotated by t/lambda, and the
oscillating density is rho_osc = -lap(phi_osc).  The O(lambda) correctors
solve a forced rotation in the fast time tau = t/lambda with the slow-time
fields frozen, which has the closed-form Duhamel solution

    u_cor   = sin(tau) k4 - (1 - cos(tau)) m
    gphi_cor = (1 - cos(tau)) k4 + sin(tau) m,      m = grad((-lap)^-1 k2),

and theta_cor = tau * k5.  Correctors vanish identically at tau = 0 and for
well-prepared data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import BlowUpError
from .limit_solver import PhysParams, default_limit_dt, strain_dissipation
from .nsp import NSPState
from .oscillation import GradientPair, apply_group
from .projections import leray_p, leray_q
from .spectral import (SpectralScalar, SpectralVector, advect, as_vector,
                       constant_scalar, divergence, gradient,
                       inverse_laplacian, laplacian, physical_gradient,
                       product, sobolev_norm, stack, to_physical,
                       vector_from_samples, zeros_vector)
from .stepping import BLOWUP_FACTOR, all_finite, integrate, time_grid, time_index


def _transport(g: SpectralVector, vs, grad_v) -> SpectralVector:
    """Q((v.grad)g + (g.grad)v + v div g) from the samples vs[a] of v_a and
    grad_v[a][b] of d_a v_b; g is sampled here, once per field."""
    grid = g.grid
    dims = grid.dims
    gs = [to_physical(grid, c.coeffs) for c in g]
    grad_g = physical_gradient(g)
    div_g = sum(grad_g[a][a] for a in range(dims))
    return leray_q(vector_from_samples(grid, [
        sum(vs[a] * grad_g[a][b] + gs[a] * grad_v[a][b] for a in range(dims))
        + vs[b] * div_g for b in range(dims)]))


def osc_rhs(pair: GradientPair, v_now: SpectralVector,
            params: PhysParams) -> GradientPair:
    """Full tendency of the filtered pair system; v is sampled once for
    both slots."""
    coeff = params.mu + 0.5 * params.nu
    grid = pair.grid
    vs = [to_physical(grid, c.coeffs) for c in v_now]
    grad_v = physical_gradient(v_now)

    def one(g):
        out = -0.5 * _transport(g, vs, grad_v)
        if coeff != 0.0:
            out = out + coeff * gradient(divergence(g))
        return out

    return GradientPair(one(pair.grad_q), one(pair.grad_psi))


@dataclass(eq=False)
class PairTrajectory:
    """Filtered pair sampled at snapshot times (lambda-independent)."""

    times: np.ndarray
    pairs: list
    growth_factor: float
    norm_s: float

    def pair_at(self, t: float) -> GradientPair:
        return self.pairs[time_index(self.times, t)]


def solve_osc(pair0: GradientPair, v_source, params: PhysParams, t_end: float,
              dt: float | None = None, snapshot_times=None,
              norm_s: float = 3.0) -> PairTrajectory:
    """Integrate the pair system with v interpolated from the limit solve.

    v_source may be a LimitTrajectory (cubic Hermite interpolation in time)
    or None for v identically zero.
    """
    grid = pair0.grid
    n = grid.dims
    coeff = params.mu + 0.5 * params.nu
    times = time_grid(snapshot_times, t_end)

    if v_source is None:
        zero = zeros_vector(grid)
        v_at = lambda _t: zero  # noqa: E731
    else:
        v_at = v_source.v_at
    if dt is None:
        dt = t_end if v_source is None else default_limit_dt(v_source.state_at(0.0))

    def pair_of(y) -> GradientPair:
        return GradientPair(as_vector(grid, y[:n]), as_vector(grid, y[n:]))

    def explicit(y, t):
        tend = osc_rhs(pair_of(y), v_at(t), params)
        return tuple(c + coeff * grid.k_sq * yi
                     for c, yi in zip(stack(tend.grad_q, tend.grad_psi), y))

    def propagate(y, delta):
        if coeff == 0.0:
            return y
        f = np.exp(-coeff * grid.k_sq * delta)
        return tuple(f * yi for yi in y)

    norm0 = max(sobolev_norm(pair0, norm_s), 1e-300)
    guard = BLOWUP_FACTOR * max(norm0, 1e-8)
    growth = 1.0

    def settle(y, t):
        nonlocal growth
        norm = sobolev_norm(pair_of(y), norm_s)
        if not all_finite(y) or norm > guard:
            raise BlowUpError(
                f"oscillating pair blew up or is not finite at t = {t:.4f}")
        growth = max(growth, norm / norm0)
        return y, None

    y0 = stack(pair0.grad_q.copy(), pair0.grad_psi.copy())
    pairs = list(map(pair_of, integrate(y0, times, dt, explicit, propagate, settle)))
    return PairTrajectory(times, pairs, growth, norm_s)


@dataclass(eq=False)
class OscillationFields:
    """Physical oscillation at a given (t, lambda)."""

    u_osc: SpectralVector
    grad_phi_osc: SpectralVector
    rho_osc: SpectralScalar


def build_oscillation(t: float, lam: float, pair: GradientPair) -> OscillationFields:
    """Rotate the pair to physical variables and derive rho_osc = -lap(phi_osc)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    rotated = apply_group(t / lam, pair)
    rho_osc = -divergence(rotated.grad_psi)
    return OscillationFields(rotated.grad_q, rotated.grad_psi, rho_osc)


@dataclass(eq=False)
class CorrectorForcings:
    """Slow-time-frozen forcings of the corrector system."""

    k2: SpectralScalar
    k4: SpectralVector
    k5: SpectralScalar
    m: SpectralVector  # grad((-lap)^-1 k2)


def corrector_forcings(v: SpectralVector, theta: SpectralScalar,
                       osc: OscillationFields,
                       params: PhysParams) -> CorrectorForcings:
    """Assemble k2, k4, k5 from the frozen slow-time fields."""
    grid = v.grid
    u_osc, gphi, rho_osc = osc.u_osc, osc.grad_phi_osc, osc.rho_osc
    visc2 = params.mu + 0.5 * params.nu
    lap_phi = divergence(gphi)
    div_uo = divergence(u_osc)

    w = v + u_osc
    flux = SpectralVector(grid, tuple(product(rho_osc, w[a]) for a in range(grid.dims)))
    bracket = advect(v, gphi) + advect(gphi, v) + SpectralVector(
        grid, tuple(product(v[a], lap_phi) for a in range(grid.dims)))
    k2 = divergence(flux) + 0.5 * divergence(bracket)
    if visc2 != 0.0:
        k2 = k2 - visc2 * laplacian(lap_phi)

    sym = advect(v, u_osc) + advect(u_osc, v)
    anti = SpectralVector(grid, tuple(product(v[a], div_uo) for a in range(grid.dims)))
    k3 = 0.5 * leray_q(sym - anti) + advect(u_osc, u_osc) + leray_p(sym)
    if visc2 != 0.0:
        k3 = k3 + visc2 * gradient(div_uo)

    k4 = -k3 - gradient(theta)
    if params.mu != 0.0 or params.nu != 0.0:
        k4 = k4 + params.mu * laplacian(u_osc) \
            + (params.mu + params.nu) * gradient(div_uo)

    k5 = -advect(u_osc, theta) - product(theta, div_uo)
    if params.nu != 0.0:
        k5 = k5 + params.nu * product(div_uo, div_uo)
    if params.mu != 0.0:
        k5 = k5 + strain_dissipation(v + u_osc, params.mu)

    m = -gradient(inverse_laplacian(k2))
    return CorrectorForcings(k2, k4, k5, m)


@dataclass(eq=False)
class CorrectorState:
    """O(lambda) corrector fields at fast time tau, with their forcings."""

    tau: float
    u_cor: SpectralVector
    grad_phi_cor: SpectralVector
    theta_cor: SpectralScalar
    rho_cor: SpectralScalar
    forcings: CorrectorForcings


def corrector_state(tau: float, forcings: CorrectorForcings) -> CorrectorState:
    """Closed-form Duhamel solution of the forced rotation at fast time tau."""
    s, c1 = sin(tau), 1.0 - cos(tau)
    u_cor = s * forcings.k4 - c1 * forcings.m
    gphi_cor = c1 * forcings.k4 + s * forcings.m
    theta_cor = tau * forcings.k5
    rho_cor = -divergence(gphi_cor)
    return CorrectorState(tau, u_cor, gphi_cor, theta_cor, rho_cor, forcings)


def corrector_rhs(state: CorrectorState):
    """Fast-time tendencies (du_cor, dgrad_phi_cor, dtheta_cor)."""
    f = state.forcings
    du = -state.grad_phi_cor + f.k4
    dgphi = state.u_cor + f.m
    return du, dgphi, f.k5.copy()


def assemble_ansatz(t: float, lam: float, limit_state, osc: OscillationFields,
                    corrector: CorrectorState | None = None) -> NSPState:
    """Truncated expansion state (leading order, plus correctors if given)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    grid = osc.u_osc.grid
    rho = constant_scalar(grid, 1.0) + lam * osc.rho_osc
    u = limit_state.v + osc.u_osc
    theta = limit_state.theta.copy()
    phi = inverse_laplacian(divergence(osc.grad_phi_osc))
    if corrector is not None:
        if limit_state.pi is None:
            raise ValueError("corrector assembly needs the recovered pressure Pi")
        rho = rho + (lam ** 2) * (laplacian(limit_state.pi) + corrector.rho_cor)
        u = u + lam * corrector.u_cor
        theta = theta + lam * corrector.theta_cor
        phi_cor = inverse_laplacian(divergence(corrector.grad_phi_cor))
        phi = phi + lam * (limit_state.pi + phi_cor)
    return NSPState(rho, u, theta, phi)
