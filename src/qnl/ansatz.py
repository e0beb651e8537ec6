"""Fast-oscillation ansatz: filtered pair system and corrector closed form.

The filtered pair (grad_q, grad_p) obeys a lambda-independent linear system
driven by the limit velocity,

    d/dt g = -(1/2) Q((v.grad)g + (g.grad)v + v div g)
             + (mu + nu/2) grad(div g),

one copy per slot, with initial data (Q u0, grad phi0).  The physical
oscillation at Debye length lambda is the pair rotated by t/lambda, and the
oscillating density is rho_osc = -lap(phi_osc).

`corrector_state` is the closed-form Duhamel solution, at fast time tau,
of the forced rotation d(u_cor)/dtau = -gphi_cor + k4, d(gphi_cor)/dtau =
u_cor + m, d(theta_cor)/dtau = k5 from zero data with constant forcings:

    u_cor   = sin(tau) k4 - (1 - cos(tau)) m
    gphi_cor = (1 - cos(tau)) k4 + sin(tau) m,      m = grad((-lap)^-1 k2),

and theta_cor = tau * k5.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import BlowUpError
from .limit_solver import LimitTrajectory, PhysParams
from .oscillation import GradientPair, apply_group
from .projections import leray_q
from .spectral import (SpectralScalar, SpectralVector, as_vector, divergence,
                       gradient, physical_gradient, sobolev_norm, stack,
                       to_physical, vector_from_samples)
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

    def pair_at(self, t: float) -> GradientPair:
        return self.pairs[time_index(self.times, t)]


def solve_osc(pair0: GradientPair, limit: LimitTrajectory, params: PhysParams,
              t_end: float, dt: float, snapshot_times=None,
              norm_s: float = 3.0) -> PairTrajectory:
    """Integrate the pair system with steps of at most dt, the velocity
    interpolated in time from the limit solve (limit.v_at)."""
    grid = pair0.grid
    n = grid.dims
    coeff = params.mu + 0.5 * params.nu
    times = time_grid(snapshot_times, t_end)

    def pair_of(y) -> GradientPair:
        return GradientPair(as_vector(grid, y[:n]), as_vector(grid, y[n:]))

    def explicit(y, t):
        tend = osc_rhs(pair_of(y), limit.v_at(t), params)
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
    return PairTrajectory(times, pairs, growth)


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
