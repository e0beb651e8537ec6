"""Oscillation construction, corrector closed forms, leading-order ansatz."""

import numpy as np
import pytest

from qnl.ansatz import (CorrectorForcings, build_oscillation, corrector_state,
                        osc_potential_rhs, osc_rhs, potential_pair, solve_osc,
                        velocity_samples)
from qnl.errors import BlowUpError, NonZeroMeanError, NotGradientError
from qnl.limit_solver import LimitState, PhysParams, run_limit
from qnl.nsp import NSPState
from qnl.oscillation import GradientPair
from qnl.projections import gradient_potential, leray_p, leray_q
from qnl.spectral import (SpectralScalar, as_vector, constant_scalar, divergence,
                          gradient, inverse_laplacian, laplacian, make_grid,
                          physical_gradient, scalar_from_function,
                          sobolev_norm, stack, to_physical,
                          vector_from_functions, vector_from_samples,
                          zeros_scalar, zeros_vector)
from qnl.stepping import diffusion, integrate, time_grid

from conftest import smooth_scalar, smooth_vector


def still_limit(grid, t_end, dt):
    """A limit trajectory with v identically zero."""
    return run_limit(LimitState(zeros_vector(grid), constant_scalar(grid, 1.0)),
                     PhysParams(0, 0, 0), t_end, dt=dt)


def gradient_pair(grid, rng):
    return GradientPair(gradient(smooth_scalar(grid, rng)),
                        gradient(smooth_scalar(grid, rng)))


def random_forcings(grid, rng):
    k2 = smooth_scalar(grid, rng)
    k2 = k2 - constant_scalar(grid, k2.mean)
    return CorrectorForcings(k2, leray_q(smooth_vector(grid, rng)),
                             smooth_scalar(grid, rng),
                             -gradient(inverse_laplacian(k2)))


class TestOscRhs:
    def test_frozen_without_velocity_or_viscosity(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        tend = osc_rhs(pair, zeros_vector(grid2d), PhysParams(0, 0, 0))
        assert sobolev_norm(tend, 0) < 1e-14

    def test_single_mode_viscous_decay_rate(self, grid2d):
        # grad(div(grad q)) = grad(lap q) has factor -|k|^2 = -1 on mode one
        g = gradient(scalar_from_function(grid2d, lambda x, y: np.sin(x)))
        pair = GradientPair(g, 0.0 * g)
        params = PhysParams(0.2, 0.2, 0.0)  # mu + nu/2 = 0.3
        tend = osc_rhs(pair, zeros_vector(grid2d), params)
        assert sobolev_norm(tend.grad_q + 0.3 * g, 0) < 1e-13
        assert sobolev_norm(tend.grad_psi, 0) < 1e-14

    def test_output_stays_in_gradient_range(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        v = leray_p(smooth_vector(grid2d, rng))
        tend = osc_rhs(pair, v, PhysParams(0.05, 0.0, 0.0))
        for g in (tend.grad_q, tend.grad_psi):
            assert sobolev_norm(leray_q(g) - g, 0) <= 1e-12 * max(1.0, sobolev_norm(g, 0))


class TestSolveOsc:
    def test_constant_without_velocity(self, grid2d, rng):
        pair0 = gradient_pair(grid2d, rng)
        traj = solve_osc(pair0, still_limit(grid2d, 1.0, 0.1), PhysParams(0, 0, 0),
                         1.0, dt=0.1, snapshot_times=[0.0, 0.5, 1.0])
        for t in traj.times:
            pair = traj.at(t)
            assert sobolev_norm(pair.grad_q - pair0.grad_q, 0) < 1e-13
            assert sobolev_norm(pair.grad_psi - pair0.grad_psi, 0) < 1e-13

    def test_single_mode_exponential_decay(self, grid2d):
        g = gradient(scalar_from_function(grid2d, lambda x, y: np.sin(x)))
        pair0 = GradientPair(g, g.copy())
        params = PhysParams(0.3, 0.0, 0.0)  # mu + nu/2 = 0.3
        traj = solve_osc(pair0, still_limit(grid2d, 1.0, 0.25), params, 1.0,
                         dt=0.25, snapshot_times=[0.0, 1.0])
        end = traj.at(1.0)
        factor = np.exp(-0.3)
        assert sobolev_norm(end.grad_q - factor * g, 0) < 1e-12
        assert sobolev_norm(end.grad_psi - factor * g, 0) < 1e-12

    def test_gradient_range_preserved_and_bounded(self, grid2d, rng):
        params = PhysParams(0.05, 0.0, 0.05)
        v0 = leray_p(smooth_vector(grid2d, rng))
        limit = run_limit(LimitState(v0, constant_scalar(grid2d, 2.0)),
                          params, 0.4, dt=0.01,
                          snapshot_times=np.linspace(0, 0.4, 5))
        pair0 = gradient_pair(grid2d, rng)
        traj = solve_osc(pair0, limit, params, 0.4, dt=0.01,
                         snapshot_times=np.linspace(0, 0.4, 5), norm_s=2.0)
        assert np.isfinite(traj.growth_factor)
        for t in traj.times:
            pair = traj.at(t)
            for g in (pair.grad_q, pair.grad_psi):
                assert sobolev_norm(leray_q(g) - g, 0) <= 1e-10 * max(1.0, sobolev_norm(g, 0))
            assert sobolev_norm(pair, 2.0) <= traj.growth_factor * sobolev_norm(pair0, 2.0) + 1e-12

    def test_non_gradient_pair_is_rejected(self, grid2d, rng):
        # the solve steps the slots' potentials, which would drop a curl part
        good = gradient_pair(grid2d, rng)
        curl = leray_p(smooth_vector(grid2d, rng))
        for pair0 in (GradientPair(good.grad_q + curl, good.grad_psi),
                      GradientPair(good.grad_q, good.grad_psi + curl)):
            with pytest.raises(NotGradientError):
                solve_osc(pair0, still_limit(grid2d, 0.2, 0.1), PhysParams(0.05, 0, 0),
                          0.2, dt=0.1)

    def test_non_finite_pair_raises_blow_up(self, grid2d, rng):
        pair0 = gradient_pair(grid2d, rng)
        pair0.grad_q[0].coeffs[2, 1] = np.nan
        with pytest.raises(BlowUpError):
            solve_osc(pair0, still_limit(grid2d, 0.2, 0.1), PhysParams(0.05, 0, 0),
                      0.2, dt=0.1, snapshot_times=[0.0, 0.2])


def vector_transport(g, vs, grad_v):
    """Q((v.grad)g + (g.grad)v + v div g), g sampled with its full Jacobian:
    the pair solve's transport when it stepped the slots as vectors."""
    grid = g.grid
    dims = grid.dims
    gs = [to_physical(grid, c.coeffs) for c in g]
    grad_g = physical_gradient(g)
    div_g = sum(grad_g[a][a] for a in range(dims))
    return leray_q(vector_from_samples(grid, [
        sum(vs[a] * grad_g[a][b] + gs[a] * grad_v[a][b] for a in range(dims))
        + vs[b] * div_g for b in range(dims)]))


def vector_solve_osc(pair0, limit, params, t_end, dt, snapshot_times):
    """The pair system stepped on its 2 dims vector components, the
    formulation the potential solve replaced; the pairs at the snapshot
    times."""
    grid = pair0.grid
    n = grid.dims
    coeff = params.mu + 0.5 * params.nu

    def explicit(y, t):
        vs, grad_v = velocity_samples(limit.v_at(t))
        out = []
        for g in (as_vector(grid, y[:n]), as_vector(grid, y[n:])):
            tend = -0.5 * vector_transport(g, vs, grad_v) + coeff * gradient(divergence(g))
            out += [c.coeffs + coeff * grid.k_sq * gi.coeffs for c, gi in zip(tend, g)]
        return tuple(out)

    states = integrate(stack(pair0.grad_q, pair0.grad_psi), time_grid(snapshot_times, t_end),
                       dt, explicit, diffusion(grid.k_sq, (coeff,) * (2 * n)),
                       lambda y, t: (y, None))
    return [GradientPair(as_vector(grid, y[:n]), as_vector(grid, y[n:])) for y in states]


def moving_pair_problem(dims, resolution):
    """(pair0, limit, params, t_end, dt, times): a random gradient pair in
    a random divergence-free flow with viscosity, bulk viscosity and heat
    conduction."""
    grid = make_grid(dims, resolution)
    rng = np.random.default_rng(dims)
    params = PhysParams(0.05, 0.02, 0.05)
    times = [0.0, 0.03, 0.06]
    limit = run_limit(LimitState(leray_p(smooth_vector(grid, rng)), constant_scalar(grid, 1.0)),
                      params, 0.06, dt=0.01, snapshot_times=times)
    return gradient_pair(grid, rng), limit, params, 0.06, 0.01, times


@pytest.mark.parametrize("dims, resolution", [(2, 32), (3, 12)], ids=["32sq", "12cube"])
def test_potential_solve_matches_the_vector_formulation(dims, resolution):
    pair0, limit, params, t_end, dt, times = moving_pair_problem(dims, resolution)
    got = solve_osc(pair0, limit, params, t_end, dt, snapshot_times=times)
    expected = vector_solve_osc(pair0, limit, params, t_end, dt, times)
    assert sobolev_norm(expected[-1] - pair0, 3.0) > 1e-3 * sobolev_norm(pair0, 3.0)
    for pair, ref in zip(got.states, expected, strict=True):
        assert sobolev_norm(pair - ref, 3.0) <= 1e-12 * sobolev_norm(ref, 3.0)


def test_three_dimensional_pair_solve_keeps_both_slots_curl_free():
    pair0, limit, params, t_end, dt, times = moving_pair_problem(3, 12)
    traj = solve_osc(pair0, limit, params, t_end, dt, snapshot_times=times)
    for pair in traj.states:
        for g in (pair.grad_q, pair.grad_psi):
            assert sobolev_norm(leray_q(g) - g, 0) <= 1e-12 * sobolev_norm(g, 0)


class TestBuildOscillation:
    def test_time_zero_identity(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        osc = build_oscillation(0.0, 0.1, pair)
        assert sobolev_norm(osc.u_osc - pair.grad_q, 0) < 1e-14
        assert sobolev_norm(osc.grad_phi_osc - pair.grad_psi, 0) < 1e-14
        assert sobolev_norm(osc.rho_osc + divergence(pair.grad_psi), 0) < 1e-14

    def test_free_rotation(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        lam, t = 0.05, 0.4
        osc = build_oscillation(t, lam, pair)
        tau = t / lam
        expected = (float(np.cos(tau)) * pair.grad_q
                    - float(np.sin(tau)) * pair.grad_psi)
        assert sobolev_norm(osc.u_osc - expected, 0) < 1e-12

    def test_period_in_time(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        lam = 0.07
        a = build_oscillation(0.3, lam, pair)
        b = build_oscillation(0.3 + 2 * np.pi * lam, lam, pair)
        assert sobolev_norm(a.u_osc - b.u_osc, 0) < 1e-11

    def test_isometry_in_time(self, grid2d, rng):
        pair = gradient_pair(grid2d, rng)
        lam = 0.03
        e0 = None
        for t in (0.0, 0.1, 0.27):
            osc = build_oscillation(t, lam, pair)
            e = sobolev_norm(osc.u_osc, 2.0) ** 2 + sobolev_norm(osc.grad_phi_osc, 2.0) ** 2
            if e0 is None:
                e0 = e
            assert abs(e - e0) <= 1e-12 * e0

    def test_well_prepared_is_identically_zero(self, grid2d):
        zero = zeros_vector(grid2d)
        pair = GradientPair(zero, zero.copy())
        for t in (0.0, 0.11, 0.5):
            osc = build_oscillation(t, 0.05, pair)
            assert sobolev_norm(osc.u_osc, 0) == 0.0
            assert sobolev_norm(osc.grad_phi_osc, 0) == 0.0
            assert sobolev_norm(osc.rho_osc, 0) == 0.0

    def test_rejects_nonpositive_lambda(self, grid2d, rng):
        with pytest.raises(ValueError):
            build_oscillation(0.1, 0.0, gradient_pair(grid2d, rng))


class TestCorrector:
    def test_zero_forcings_stay_zero(self, grid2d):
        forcings = CorrectorForcings(zeros_scalar(grid2d), zeros_vector(grid2d),
                                     zeros_scalar(grid2d), zeros_vector(grid2d))
        state = corrector_state(1.3, forcings)
        assert sobolev_norm(state.u_cor, 0) == 0.0
        assert sobolev_norm(state.grad_phi_cor, 0) == 0.0
        assert sobolev_norm(state.theta_cor, 0) == 0.0

    def test_constant_k4_closed_form(self, grid2d):
        # forced 2x2 rotation: u_cor = sin(tau) c, gphi_cor = (1 - cos(tau)) c
        c = vector_from_functions(grid2d,
                                  lambda x, y: np.full_like(x, 0.7),
                                  lambda x, y: np.full_like(x, -0.2))
        forcings = CorrectorForcings(zeros_scalar(grid2d), c,
                                     zeros_scalar(grid2d), zeros_vector(grid2d))
        for tau in (0.0, 0.9, 2.5):
            state = corrector_state(tau, forcings)
            assert sobolev_norm(state.u_cor - float(np.sin(tau)) * c, 0) < 1e-10
            assert sobolev_norm(state.grad_phi_cor - float(1 - np.cos(tau)) * c, 0) < 1e-10

    def test_constant_k5_linear_growth(self, grid2d, rng):
        k5 = smooth_scalar(grid2d, rng)
        forcings = CorrectorForcings(zeros_scalar(grid2d), zeros_vector(grid2d),
                                     k5, zeros_vector(grid2d))
        state = corrector_state(0.8, forcings)
        assert sobolev_norm(state.theta_cor - 0.8 * k5, 0) < 1e-13

    def test_vanish_at_tau_zero(self, grid2d, rng):
        forcings = random_forcings(grid2d, rng)
        state = corrector_state(0.0, forcings)
        assert sobolev_norm(state.u_cor, 0) < 1e-15
        assert sobolev_norm(state.grad_phi_cor, 0) < 1e-15
        assert sobolev_norm(state.theta_cor, 0) < 1e-15

    def test_mean_bearing_k2_is_rejected(self, grid2d):
        # a doctored forcing with non-zero mean has no inverse Laplacian
        bad_k2 = constant_scalar(grid2d, 0.3)
        with pytest.raises(NonZeroMeanError):
            inverse_laplacian(bad_k2)

    def test_rhs_is_derivative_of_closed_form(self, grid2d, rng):
        # the closed form solves the forced rotation it stands for
        forcings = random_forcings(grid2d, rng)
        tau, eps = 0.6, 1e-6
        mid = corrector_state(tau, forcings)
        lo = corrector_state(tau - eps, forcings)
        hi = corrector_state(tau + eps, forcings)
        du = -mid.grad_phi_cor + forcings.k4
        dgphi = mid.u_cor + forcings.m
        fd_u = (hi.u_cor - lo.u_cor) * (0.5 / eps)
        fd_g = (hi.grad_phi_cor - lo.grad_phi_cor) * (0.5 / eps)
        fd_t = (hi.theta_cor - lo.theta_cor) * (0.5 / eps)
        assert sobolev_norm(fd_u - du, 0) < 1e-6
        assert sobolev_norm(fd_g - dgphi, 0) < 1e-6
        assert sobolev_norm(fd_t - forcings.k5, 0) < 1e-6


def leading_order_ansatz(t, lam, limit, pair):
    """(1 + lam rho_osc, v + u_osc, theta, phi_osc) at (t, lambda)."""
    grid = pair.grid
    osc = build_oscillation(t, lam, pair)
    return NSPState(constant_scalar(grid, 1.0) + lam * osc.rho_osc,
                    limit.v + osc.u_osc, limit.theta.copy(),
                    inverse_laplacian(divergence(osc.grad_phi_osc)))


class TestAssembleAnsatz:
    """The leading-order ansatz, assembled from the limit state and
    build_oscillation; measure_errors compares u, theta and grad(phi) with
    its fields."""

    def test_leading_order_with_zero_oscillation(self, grid2d, rng):
        v = leray_p(smooth_vector(grid2d, rng))
        theta = constant_scalar(grid2d, 2.0)
        zero = zeros_vector(grid2d)
        state = leading_order_ansatz(0.1, 0.05, LimitState(v, theta),
                                     GradientPair(zero, zero.copy()))
        assert sobolev_norm(state.rho - constant_scalar(grid2d, 1.0), 0) < 1e-14
        assert sobolev_norm(state.u - v, 0) < 1e-14
        assert sobolev_norm(state.theta - theta, 0) < 1e-14
        assert sobolev_norm(state.phi, 0) < 1e-14

    def test_density_mean_is_one(self, grid2d, rng):
        limit = LimitState(leray_p(smooth_vector(grid2d, rng)),
                           constant_scalar(grid2d, 2.0))
        state = leading_order_ansatz(0.2, 0.1, limit, gradient_pair(grid2d, rng))
        assert abs(state.rho.mean - 1.0) < 1e-14

    def test_poisson_constraint_at_leading_order(self, grid2d, rng):
        # holds because build_oscillation sets rho_osc = -div(grad_phi_osc)
        lam = 0.08
        limit = LimitState(leray_p(smooth_vector(grid2d, rng)),
                           constant_scalar(grid2d, 2.0))
        pair = gradient_pair(grid2d, rng)
        state = leading_order_ansatz(0.15, lam, limit, pair)
        residual = (-lam) * laplacian(state.phi) - state.rho \
            + constant_scalar(grid2d, 1.0)
        assert sobolev_norm(residual, 0) < 1e-12
        osc = build_oscillation(0.15, lam, pair)
        assert sobolev_norm(gradient(state.phi) - osc.grad_phi_osc, 0) < 1e-12


def test_pair_solve_samples_v_once_per_distinct_stage_time(grid2d, monkeypatch):
    # A step's midpoint stages share a time, and its last stage the next
    # step's first; steps of 1/32 add up exactly, so 4 steps sample v
    # 1 + 2 * 4 times, not 16, and the pairs are those of an oracle that
    # samples v at every stage, bit for bit.
    import qnl.ansatz
    base_v = vector_from_functions(grid2d, lambda x, y: np.sin(x) * np.cos(y),
                                   lambda x, y: -np.cos(x) * np.sin(y))
    params = PhysParams(0.05, 0.02, 0.05)
    limit = run_limit(LimitState(base_v, constant_scalar(grid2d, 1.0)), params,
                      0.125, dt=1 / 32)
    pair0 = GradientPair(gradient(scalar_from_function(grid2d, lambda x, y: 0.4 * np.cos(y))),
                         gradient(scalar_from_function(grid2d, lambda x, y: 0.3 * np.sin(x))))
    calls = []
    sample = qnl.ansatz.velocity_samples
    monkeypatch.setattr(qnl.ansatz, "velocity_samples",
                        lambda v: calls.append(1) or sample(v))
    cached = solve_osc(pair0, limit, params, 0.125, dt=1 / 32)
    assert len(calls) == 1 + 2 * 4

    coeff = params.mu + 0.5 * params.nu
    stages = []

    def explicit(y, t):
        stages.append(t)
        tend = osc_potential_rhs(SpectralScalar(grid2d, y[0]), SpectralScalar(grid2d, y[1]),
                                 velocity_samples(limit.v_at(t)), params)
        return tuple(d.coeffs + coeff * grid2d.k_sq * p for d, p in zip(tend, y))

    y0 = (gradient_potential(pair0.grad_q).coeffs, gradient_potential(pair0.grad_psi).coeffs)
    plain = integrate(y0, time_grid(None, 0.125), 1 / 32, explicit,
                      diffusion(grid2d.k_sq, (coeff, coeff)), lambda y, t: (y, None))
    for got, y in zip(cached.states, plain, strict=True):
        expected = potential_pair(grid2d, y)
        for a, b in zip(got.grad_q.components + got.grad_psi.components,
                        expected.grad_q.components + expected.grad_psi.components):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert len(stages) == 4 * 4
