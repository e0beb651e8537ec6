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

from .errors import BlowUpError
from .limit_solver import LimitTrajectory, PhysParams
from .oscillation import GradientPair, rotate_slots
from .projections import leray_q
from .spectral import (SpectralScalar, SpectralVector, as_vector, divergence,
                       gradient, physical_gradient, sobolev_norm, stack,
                       to_physical, vector_from_samples)
from .stepping import (BLOWUP_FACTOR, Snapshots, all_finite, diffusion,
                       integrate, time_grid)


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


def velocity_samples(v: SpectralVector):
    """The dealiased samples (vs, grad_v) of v and its gradient that
    osc_rhs reads."""
    return [to_physical(v.grid, c.coeffs) for c in v], physical_gradient(v)


def osc_rhs(pair: GradientPair, v_now: SpectralVector,
            params: PhysParams, samples=None) -> GradientPair:
    """Full tendency of the filtered pair system; v is sampled once for
    both slots, or samples are its velocity_samples if the caller has them."""
    coeff = params.mu + 0.5 * params.nu
    vs, grad_v = velocity_samples(v_now) if samples is None else samples

    def one(g):
        out = -0.5 * _transport(g, vs, grad_v)
        if coeff != 0.0:
            out = out + coeff * gradient(divergence(g))
        return out

    return GradientPair(one(pair.grad_q), one(pair.grad_psi))


@dataclass(eq=False)
class PairTrajectory(Snapshots):
    """The filtered pair (lambda-independent) at the snapshot times, and the
    largest ratio of its H^s norm to the initial one at any step."""

    growth_factor: float


def solve_osc(pair0: GradientPair, limit: LimitTrajectory, params: PhysParams,
              t_end: float, dt: float, snapshot_times=None,
              norm_s: float = 3.0) -> PairTrajectory:
    """Integrate the pair system with steps of at most dt, the velocity
    interpolated in time from the limit solve (limit.v_at); the pairs at the
    snapshot times and the H^norm_s growth factor.

    The velocity and its samples are kept for the last two stage times: a
    step's two midpoint stages share one, and its last stage shares its
    time with the next step's first whenever the two sums of floats agree.
    """
    grid = pair0.grid
    n = grid.dims
    coeff = params.mu + 0.5 * params.nu
    times = time_grid(snapshot_times, t_end)
    recent = {}  # stage time -> (v, its velocity_samples)

    def pair_of(y) -> GradientPair:
        return GradientPair(as_vector(grid, y[:n]), as_vector(grid, y[n:]))

    def velocity(t):
        if t not in recent:
            if len(recent) == 2:
                del recent[min(recent)]
            v = limit.v_at(t)
            recent[t] = v, velocity_samples(v)
        return recent[t]

    def explicit(y, t):
        v, samples = velocity(t)
        tend = osc_rhs(pair_of(y), v, params, samples)
        return tuple(c + coeff * grid.k_sq * yi
                     for c, yi in zip(stack(tend.grad_q, tend.grad_psi), y))

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
    propagate = diffusion(grid.k_sq, (coeff,) * (2 * n))
    pairs = list(map(pair_of, integrate(y0, times, dt, explicit, propagate, settle)))
    return PairTrajectory(times, pairs, growth)


@dataclass(eq=False)
class OscillationFields:
    """Physical oscillation at a given (t, lambda)."""

    u_osc: SpectralVector
    grad_phi_osc: SpectralVector
    rho_osc: SpectralScalar


def build_oscillation(t: float, lam: float, pair: GradientPair) -> OscillationFields:
    """Rotate the pair to physical variables and derive rho_osc = -lap(phi_osc).

    The pair is not re-validated: the pair solve keeps it a gradient pair, and
    two curl checks per snapshot dominated measure_errors."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    u_osc, grad_phi_osc = rotate_slots(t / lam, pair.grad_q, pair.grad_psi)
    return OscillationFields(u_osc, grad_phi_osc, -divergence(grad_phi_osc))


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
