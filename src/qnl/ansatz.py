"""Fast-oscillation ansatz: filtered pair system and corrector closed form.

The filtered pair (grad_q, grad_p) obeys a lambda-independent linear system
driven by the limit velocity,

    d/dt g = -(1/2) Q((v.grad)g + (g.grad)v + v div g)
             + (mu + nu/2) grad(div g),

one copy per slot, with initial data (Q u0, grad phi0).  Both slots and
both tendencies are gradients, so the pair solve steps their potentials
(q, psi), two coefficient arrays where the vector slots took 2 dims: one
slot's tendency samples grad(q) and the dims (dims + 1)/2 entries
d_a d_b q, a <= b, of its symmetric Hessian, which is the Jacobian of g,
and forward-transforms the transport vector, whose potential it keeps
(`projections.gradient_potential`).  With the samples of v and its
gradient, shared by the two slots, a pair RHS makes 20 transforms in 2D
and 36 in 3D (22 and 42 with vector slots).  The physical oscillation at
Debye length lambda is the pair rotated by t/lambda, and the oscillating
density is rho_osc = -lap(phi_osc).

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
from .oscillation import GradientPair, check_gradient, rotate_slots
from .projections import gradient_potential
from .spectral import (SpectralScalar, SpectralVector, divergence, gradient,
                       physical_derivative, physical_gradient, sobolev_norm,
                       to_physical, vector_from_samples)
from .stepping import (BLOWUP_FACTOR, Snapshots, all_finite, diffusion,
                       integrate, time_grid)


def _transport_potential(q: SpectralScalar, vs, grad_v) -> SpectralScalar:
    """The potential of Q((v.grad)g + (g.grad)v + v div g) for g = grad(q),
    from the samples vs[a] of v_a and grad_v[a][b] of d_a v_b.  q is sampled
    here: grad(q), and d_a d_b q once per pair a <= b."""
    grid = q.grid
    dims = grid.dims
    gs = [physical_derivative(grid, q.coeffs, a) for a in range(dims)]
    hess = [[None] * dims for _ in range(dims)]
    for b in range(dims):
        g_b = grid.ik[b] * q.coeffs
        for a in range(b + 1):
            hess[a][b] = hess[b][a] = physical_derivative(grid, g_b, a)
    div_g = sum(hess[a][a] for a in range(dims))
    return gradient_potential(vector_from_samples(grid, [
        sum(vs[a] * hess[a][b] + gs[a] * grad_v[a][b] for a in range(dims))
        + vs[b] * div_g for b in range(dims)]))


def velocity_samples(v: SpectralVector):
    """The dealiased samples (vs, grad_v) of v and its gradient that
    osc_potential_rhs reads."""
    return [to_physical(v.grid, c.coeffs) for c in v], physical_gradient(v)


def osc_potential_rhs(q: SpectralScalar, psi: SpectralScalar, v_now: SpectralVector,
                      params: PhysParams, samples=None):
    """Full tendency of the filtered pair system by potentials: the scalars
    whose gradients are the tendencies of grad(q) and grad(psi).  v is
    sampled once for both slots, or samples are its velocity_samples if the
    caller has them."""
    coeff = params.mu + 0.5 * params.nu
    vs, grad_v = velocity_samples(v_now) if samples is None else samples

    def one(p):
        out = -0.5 * _transport_potential(p, vs, grad_v)
        if coeff != 0.0:
            out = out + coeff * divergence(gradient(p))
        return out

    return one(q), one(psi)


def osc_rhs(pair: GradientPair, v_now: SpectralVector,
            params: PhysParams, samples=None) -> GradientPair:
    """Full tendency of the filtered pair system, by osc_potential_rhs on
    the potentials of the slots (a curl part of a slot is not seen)."""
    dq, dpsi = osc_potential_rhs(gradient_potential(pair.grad_q),
                                 gradient_potential(pair.grad_psi), v_now, params, samples)
    return GradientPair(gradient(dq), gradient(dpsi))


@dataclass(eq=False)
class PairTrajectory(Snapshots):
    """The filtered pair (lambda-independent) at the snapshot times, and the
    largest ratio of its H^s norm to the initial one at any step."""

    growth_factor: float


def potential_pair(grid, potentials) -> GradientPair:
    """The GradientPair of the gradients of the potentials (q, psi), two
    coefficient arrays."""
    return GradientPair(*(gradient(SpectralScalar(grid, p)) for p in potentials))


def pair_potentials(pair0: GradientPair, limit: LimitTrajectory, params: PhysParams,
                    t_end: float, dt: float, snapshot_times=None, norm_s: float = 3.0):
    """Integrate the pair system with steps of at most dt, yielding at each
    snapshot time the potentials (q, psi) of the slots, as coefficient
    arrays, and the H^norm_s growth factor so far; the core of solve_osc.
    The velocity is interpolated in time from the limit solve
    (limit.v_at), whose nodes must reach each step's end when it is taken.

    pair0 must be a gradient pair (NotGradientError otherwise: a curl part
    would be dropped).  The velocity and its samples are kept for the last
    two stage times: a step's two midpoint stages share one, and its last
    stage shares its time with the next step's first whenever the two sums
    of floats agree.
    """
    check_gradient(pair0.grad_q)
    check_gradient(pair0.grad_psi)
    grid = pair0.grid
    coeff = params.mu + 0.5 * params.nu
    times = time_grid(snapshot_times, t_end)
    recent = {}  # stage time -> (v, its velocity_samples)

    def velocity(t):
        if t not in recent:
            if len(recent) == 2:
                del recent[min(recent)]
            v = limit.v_at(t)
            recent[t] = v, velocity_samples(v)
        return recent[t]

    def explicit(y, t):
        v, samples = velocity(t)
        tend = osc_potential_rhs(SpectralScalar(grid, y[0]), SpectralScalar(grid, y[1]),
                                 v, params, samples)
        return tuple(d.coeffs + coeff * grid.k_sq * p for d, p in zip(tend, y))

    norm0 = max(sobolev_norm(pair0, norm_s), 1e-300)
    guard = BLOWUP_FACTOR * max(norm0, 1e-8)
    growth = 1.0

    def settle(y, t):
        nonlocal growth
        norm = sobolev_norm(potential_pair(grid, y), norm_s)
        if not all_finite(y) or norm > guard:
            raise BlowUpError(
                f"oscillating pair blew up or is not finite at t = {t:.4f}")
        growth = max(growth, norm / norm0)
        return y, None

    y0 = (gradient_potential(pair0.grad_q).coeffs, gradient_potential(pair0.grad_psi).coeffs)
    propagate = diffusion(grid.k_sq, (coeff, coeff))
    yield from map(lambda y: (y, growth),
                   integrate(y0, times, dt, explicit, propagate, settle))


def solve_osc(pair0: GradientPair, limit: LimitTrajectory, params: PhysParams,
              t_end: float, dt: float, snapshot_times=None,
              norm_s: float = 3.0) -> PairTrajectory:
    """Integrate the pair system by pair_potentials, the velocity
    interpolated in time from the limit solve; the pairs at the snapshot
    times, each the gradients of the stepped potentials, and the H^norm_s
    growth factor."""
    grid = pair0.grid
    pairs, growth = [], 1.0
    for potentials, growth in pair_potentials(pair0, limit, params, t_end, dt,
                                              snapshot_times, norm_s):
        pairs.append(potential_pair(grid, potentials))
        del potentials  # not held through the next snapshot interval
    return PairTrajectory(time_grid(snapshot_times, t_end), pairs, growth)


@dataclass(eq=False)
class OscillationFields:
    """Physical oscillation at a given (t, lambda)."""

    u_osc: SpectralVector
    grad_phi_osc: SpectralVector

    @property
    def rho_osc(self) -> SpectralScalar:
        """-lap(phi_osc), formed on each access: measure_errors never reads it."""
        return -divergence(self.grad_phi_osc)


def build_oscillation(t: float, lam: float, pair: GradientPair) -> OscillationFields:
    """Rotate the pair to physical variables; rho_osc = -lap(phi_osc) is
    formed when it is read.

    The pair is not re-validated: the pair solve keeps it a gradient pair, and
    two curl checks per snapshot dominated measure_errors."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    u_osc, grad_phi_osc = rotate_slots(t / lam, pair.grad_q, pair.grad_psi)
    return OscillationFields(u_osc, grad_phi_osc)


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
