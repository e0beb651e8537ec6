"""Oscillation construction, corrector closed forms, leading-order ansatz."""

import numpy as np
import pytest

from qnl.ansatz import (CorrectorForcings, build_oscillation, corrector_state,
                        osc_rhs, solve_osc)
from qnl.errors import BlowUpError, NonZeroMeanError
from qnl.limit_solver import LimitState, PhysParams, run_limit
from qnl.nsp import NSPState
from qnl.oscillation import GradientPair
from qnl.projections import leray_p, leray_q
from qnl.spectral import (constant_scalar, divergence, gradient,
                          inverse_laplacian, laplacian,
                          scalar_from_function, sobolev_norm,
                          vector_from_functions, zeros_scalar, zeros_vector)

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
            pair = traj.pair_at(t)
            assert sobolev_norm(pair.grad_q - pair0.grad_q, 0) < 1e-13
            assert sobolev_norm(pair.grad_psi - pair0.grad_psi, 0) < 1e-13

    def test_single_mode_exponential_decay(self, grid2d):
        g = gradient(scalar_from_function(grid2d, lambda x, y: np.sin(x)))
        pair0 = GradientPair(g, g.copy())
        params = PhysParams(0.3, 0.0, 0.0)  # mu + nu/2 = 0.3
        traj = solve_osc(pair0, still_limit(grid2d, 1.0, 0.25), params, 1.0,
                         dt=0.25, snapshot_times=[0.0, 1.0])
        end = traj.pair_at(1.0)
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
            pair = traj.pair_at(t)
            for g in (pair.grad_q, pair.grad_psi):
                assert sobolev_norm(leray_q(g) - g, 0) <= 1e-10 * max(1.0, sobolev_norm(g, 0))
            assert sobolev_norm(pair, 2.0) <= traj.growth_factor * sobolev_norm(pair0, 2.0) + 1e-12

    def test_non_finite_pair_raises_blow_up(self, grid2d, rng):
        pair0 = gradient_pair(grid2d, rng)
        pair0.grad_q[0].coeffs[2, 1] = np.nan
        with pytest.raises(BlowUpError):
            solve_osc(pair0, still_limit(grid2d, 0.2, 0.1), PhysParams(0.05, 0, 0),
                      0.2, dt=0.1, snapshot_times=[0.0, 0.2])


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
