"""Incompressible limit solver: analytic oracles and conservation."""

import numpy as np
import pytest

from qnl.errors import BlowUpError, NonpositiveTemperatureError
from qnl.harness import default_base_fields
from qnl.limit_solver import (LimitState, LimitTrajectory, PhysParams, advective_dt,
                              limit_states, ns_rhs, recover_pressure, run_limit)
from qnl.projections import leray_p
from qnl.spectral import (constant_scalar, divergence, gradient, laplacian,
                          make_grid, scalar_from_function, sobolev_norm, stack,
                          transform_forward, vector_from_functions, zeros_vector)
from qnl.stepping import step_count, time_grid

from conftest import advect, smooth_vector, strain_dissipation


def taylor_green(grid):
    return vector_from_functions(grid,
                                 lambda x, y: np.sin(x) * np.cos(y),
                                 lambda x, y: -np.cos(x) * np.sin(y))


class TestPhysParams:
    def test_euler_detection(self):
        assert PhysParams(0, 0, 0).is_euler
        assert not PhysParams(0.1, 0, 0).is_euler

    def test_viscous_constraints(self):
        PhysParams(0.05, 0.0, 0.05).validate(2)
        PhysParams(0.05, -0.04, 0.0).validate(2)  # 2*mu + N*nu = 0.02 > 0
        with pytest.raises(ValueError):
            PhysParams(0.0, 0.1, 0.0).validate(2)  # mu = 0 but not Euler
        with pytest.raises(ValueError):
            PhysParams(0.05, -0.06, 0.0).validate(2)
        with pytest.raises(ValueError):
            PhysParams(-0.1, 0.0, 0.0).validate(2)


class TestNsRhs:
    def test_pure_heat_flow(self, grid2d):
        theta = scalar_from_function(grid2d, lambda x, y: np.sin(x) + 2.0)
        state = LimitState(zeros_vector(grid2d), theta)
        params = PhysParams(0.0, 0.0, 0.3)
        dv, dtheta = ns_rhs(state, params)
        assert sobolev_norm(dv, 0) < 1e-14
        assert sobolev_norm(dtheta - 0.3 * laplacian(theta), 0) < 1e-13

    def test_taylor_green_tendency(self, grid2d):
        # the Taylor-Green nonlinearity is a pure gradient, so P kills it
        mu = 0.1
        state = LimitState(taylor_green(grid2d), constant_scalar(grid2d, 1.0))
        dv, _ = ns_rhs(state, PhysParams(mu, 0.0, 0.0))
        assert sobolev_norm(dv - (-2.0 * mu) * state.v, 0) < 1e-12

    def test_rest_state(self, grid2d):
        state = LimitState(zeros_vector(grid2d), constant_scalar(grid2d, 2.0))
        dv, dtheta = ns_rhs(state, PhysParams(0.05, 0.0, 0.05))
        assert sobolev_norm(dv, 0) < 1e-15
        assert sobolev_norm(dtheta, 0) < 1e-15


class TestRecoverPressure:
    def test_zero_velocity(self, grid2d):
        state = LimitState(zeros_vector(grid2d), constant_scalar(grid2d, 1.0))
        assert sobolev_norm(recover_pressure(state), 0) < 1e-15

    def test_taylor_green_pressure(self, grid2d):
        # direct substitution: (v.grad)v = (sin 2x)/2, (sin 2y)/2) so that
        # grad(Pi) = -(v.grad)v gives Pi = (cos 2x + cos 2y)/4
        state = LimitState(taylor_green(grid2d), constant_scalar(grid2d, 1.0))
        pi = recover_pressure(state, PhysParams(0.1, 0.0, 0.0))
        expected = scalar_from_function(
            grid2d, lambda x, y: 0.25 * (np.cos(2 * x) + np.cos(2 * y)))
        assert sobolev_norm(pi - expected, 0) < 1e-13

    def test_poisson_residual_single_mode(self, grid2d):
        v = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(y),
                                  lambda x, y: np.zeros_like(y))
        state = LimitState(v, constant_scalar(grid2d, 1.0))
        pi = recover_pressure(state)
        residual = laplacian(pi) + divergence(advect(v, v))
        assert sobolev_norm(residual, 0) < 1e-12

    def test_gradient_completes_projected_tendency(self, grid2d, rng):
        # grad(Pi) + projected tendency recovers the unprojected tendency
        params = PhysParams(0.07, 0.0, 0.0)
        v = leray_p(smooth_vector(grid2d, rng))
        state = LimitState(v, constant_scalar(grid2d, 1.0))
        full = -1.0 * advect(v, v) + params.mu * laplacian(v)
        dv, _ = ns_rhs(state, params)
        pi = recover_pressure(state, params)
        assert sobolev_norm(dv + gradient(pi) - full, 0) \
            <= 1e-11 * max(1.0, sobolev_norm(full, 0))


class TestStepping:
    def test_taylor_green_decay(self):
        grid = make_grid(2, 32)
        mu = 0.1
        params = PhysParams(mu, 0.0, 0.0)
        state = LimitState(taylor_green(grid), constant_scalar(grid, 1.0))
        norm0 = sobolev_norm(state.v, 0)
        traj = run_limit(state, params, 1.0, dt=1e-3, snapshot_times=[0.0, 1.0])
        end = traj.at(1.0)
        expected = np.exp(-2.0 * mu * 1.0) * norm0
        assert abs(sobolev_norm(end.v, 0) - expected) <= 1e-6 * expected

    def test_euler_energy_conservation(self, rng):
        grid = make_grid(2, 32)
        v0 = leray_p(smooth_vector(grid, rng))
        state = LimitState(v0, constant_scalar(grid, 1.0))
        e0 = sobolev_norm(state.v, 0)
        traj = run_limit(state, PhysParams(0, 0, 0), 1.0, dt=0.01,
                         snapshot_times=[0.0, 1.0])
        e1 = sobolev_norm(traj.at(1.0).v, 0)
        assert abs(e1 - e0) <= 1e-8 * e0

    def test_heat_mode_exact_decay(self):
        grid = make_grid(2, 32)
        kappa = 0.5
        theta0 = scalar_from_function(grid, lambda x, y: 2.0 + np.sin(x))
        state = LimitState(zeros_vector(grid), theta0)
        traj = run_limit(state, PhysParams(0.05, 0.0, kappa), 1.0, dt=0.05,
                         snapshot_times=[0.0, 1.0])
        expected = scalar_from_function(
            grid, lambda x, y: 2.0 + np.exp(-kappa) * np.sin(x))
        assert sobolev_norm(traj.at(1.0).theta - expected, 0) < 1e-8

    def test_divergence_free_every_step(self, grid2d, rng):
        params = PhysParams(0.05, 0.0, 0.05)
        state = LimitState(leray_p(smooth_vector(grid2d, rng)),
                           constant_scalar(grid2d, 2.0))
        traj = run_limit(state, params, 0.1, dt=0.01)
        for t in traj.node_times:
            v = traj.v_at(t)
            assert sobolev_norm(divergence(v), 0) <= 1e-10 * max(1.0, sobolev_norm(v, 0))

    def test_mean_temperature_increases_by_dissipation(self, grid2d, rng):
        params = PhysParams(0.05, 0.0, 0.05)
        state = LimitState(leray_p(smooth_vector(grid2d, rng)),
                           constant_scalar(grid2d, 2.0))
        traj = run_limit(state, params, 0.2, dt=0.01,
                         snapshot_times=np.linspace(0, 0.2, 21))
        means = [snap.theta.mean for snap in traj.states]
        diffs = np.diff(means)
        assert np.all(diffs >= -1e-12)
        assert means[-1] > means[0]

    def test_temporal_self_convergence_order(self, grid2d, rng):
        params = PhysParams(0.0, 0.0, 0.0)
        v0 = leray_p(smooth_vector(grid2d, rng))
        theta0 = constant_scalar(grid2d, 2.0)
        ends = {}
        for dt in (0.02, 0.01, 0.005):
            traj = run_limit(LimitState(v0.copy(), theta0.copy()), params, 0.2,
                             dt=dt, snapshot_times=[0.0, 0.2])
            ends[dt] = traj.at(0.2).v
        e1 = sobolev_norm(ends[0.02] - ends[0.01], 0)
        e2 = sobolev_norm(ends[0.01] - ends[0.005], 0)
        assert np.log2(e1 / e2) >= 3.5

    def test_blow_up_guard(self, grid2d, rng):
        # CFL-violating Euler step on a large field explodes quickly
        v0 = leray_p(smooth_vector(grid2d, rng)) * 100.0
        state = LimitState(v0, constant_scalar(grid2d, 2.0))
        with pytest.raises(BlowUpError):
            run_limit(state, PhysParams(0, 0, 0), 20.0, dt=1.0)

    def test_non_finite_state_raises_blow_up(self, grid2d):
        theta = constant_scalar(grid2d, 2.0)
        theta.coeffs[0, 3] = np.nan
        state = LimitState(taylor_green(grid2d), theta)
        with pytest.raises(BlowUpError):
            run_limit(state, PhysParams(0.05, 0, 0.05), 0.05, dt=0.01)

    def test_first_stage_reused_at_nodes(self, grid2d, monkeypatch):
        # four RHS evaluations per step plus one at t = 0: the tendency at
        # each node serves as its Hermite slope and as the next first stage
        import qnl.limit_solver as limit_solver
        calls = []

        def counted(state, params):
            calls.append(1)
            return ns_rhs(state, params)

        monkeypatch.setattr(limit_solver, "ns_rhs", counted)
        state = LimitState(taylor_green(grid2d), constant_scalar(grid2d, 1.0))
        traj = run_limit(state, PhysParams(0.05, 0, 0.05), 0.1, dt=0.01,
                         snapshot_times=[0.0, 0.05, 0.1])
        steps = len(traj.node_times) - 1
        assert steps >= 10
        assert len(calls) == 4 * steps + 1

    @pytest.mark.parametrize("dims, resolution, params", [
        (2, 16, PhysParams(0.05, 0.0, 0.05)), (2, 16, PhysParams()),
        (3, 8, PhysParams(0.05, 0.0, 0.05))], ids=["ns_2d", "euler_2d", "ns_3d"])
    def test_node_store_leaves_the_states_alone(self, dims, resolution, params):
        # `qnl limit` solves without a node store, the sweep with one; the
        # states must be the same to the bit, and only the store's run keeps
        # nodes: one per step, and t = 0.
        base = default_base_fields(make_grid(dims, resolution), "ill", 0.05, 3)
        times = (0.02, 0.05)

        def solve(*nodes):
            return list(limit_states(LimitState(base.v0.copy(), base.theta0.copy()),
                                     params, 0.05, 0.01, times, *nodes))

        grid_times = time_grid(times, 0.05)
        nodes = LimitTrajectory(grid_times, [], base.v0.grid, [], [], [])
        kept, bare = solve(nodes), solve()
        assert len(kept) == len(bare) == 3
        count = step_count(grid_times, 0.01) + 1
        assert [len(nodes.node_times), len(nodes.v_nodes), len(nodes.dv_nodes)] == [count] * 3
        for a, b in zip(kept, bare):
            for x, y in zip(stack(a.v, a.theta), stack(b.v, b.theta), strict=True):
                assert x.tobytes() == y.tobytes()

    def test_positivity_monitor(self, grid2d):
        theta = scalar_from_function(grid2d, lambda x, y: 0.5 + np.sin(x))
        state = LimitState(zeros_vector(grid2d), theta)
        with pytest.raises(NonpositiveTemperatureError):
            run_limit(state, PhysParams(0.05, 0, 0.05), 0.1, dt=0.01)

    def test_rejects_divergent_initial_velocity(self, grid2d, rng):
        u = smooth_vector(grid2d, rng)  # generic field, not divergence-free
        state = LimitState(u, constant_scalar(grid2d, 2.0))
        with pytest.raises(ValueError):
            run_limit(state, PhysParams(0, 0, 0), 0.1, dt=0.01)

    def test_limit_step_single(self, grid2d):
        state = LimitState(taylor_green(grid2d), constant_scalar(grid2d, 1.0))
        out = run_limit(state, PhysParams(0.1, 0.0, 0.0), 1e-3, dt=1e-3).states[-1]
        decay = np.exp(-2.0 * 0.1 * 1e-3)
        assert sobolev_norm(out.v - decay * state.v, 0) < 1e-12

    def test_default_dt_is_advective(self, grid2d):
        state = LimitState(taylor_green(grid2d), constant_scalar(grid2d, 1.0))
        dt = advective_dt(state.v)
        vmax = max(np.abs(c.samples()).max() for c in state.v)
        assert abs(dt - 0.5 * grid2d.spacing / vmax) < 1e-12


class TestHermiteInterpolation:
    def test_between_node_accuracy(self, grid2d, rng):
        params = PhysParams(0.02, 0.0, 0.0)
        v0 = leray_p(smooth_vector(grid2d, rng))
        state = LimitState(v0, constant_scalar(grid2d, 2.0))
        coarse = run_limit(state, params, 0.2, dt=0.02)
        fine = run_limit(LimitState(v0.copy(), constant_scalar(grid2d, 2.0)),
                         params, 0.2, dt=0.002)
        t_mid = 0.07  # off the coarse node grid
        diff = sobolev_norm(coarse.v_at(t_mid) - fine.v_at(t_mid), 0)
        assert diff < 1e-7

    def test_node_lookup_exact(self, grid2d, rng):
        params = PhysParams(0.02, 0.0, 0.0)
        state = LimitState(leray_p(smooth_vector(grid2d, rng)),
                           constant_scalar(grid2d, 2.0))
        traj = run_limit(state, params, 0.1, dt=0.01,
                         snapshot_times=np.linspace(0, 0.1, 11))
        assert sobolev_norm(traj.v_at(0.03) - traj.at(0.03).v, 0) < 1e-14


def test_strain_dissipation_shear_example(grid2d):
    # v = (sin y, 0): only cross term d_y v_x = cos y contributes,
    # sum_ij (d_i v_j + d_j v_i)^2 = 2 cos^2 y; with theta constant the
    # heating is all of ns_rhs's temperature tendency
    v = vector_from_functions(grid2d,
                              lambda x, y: np.sin(y),
                              lambda x, y: np.zeros_like(x))
    mu = 0.3
    expected = scalar_from_function(grid2d, lambda x, y: mu * np.cos(y) ** 2)
    _, dtheta = ns_rhs(LimitState(v, constant_scalar(grid2d, 1.0)),
                       PhysParams(mu, 0.0, 0.0))
    assert sobolev_norm(strain_dissipation(v, mu) - expected, 0) < 1e-13
    assert sobolev_norm(dtheta - expected, 0) < 1e-13


def abc_flow(grid, a=1.0, b=0.8, c=0.6):
    """The ABC flow (Arnold 1965; Dombre et al. 1986): a Beltrami field,
    curl v = v, so (v.grad)v = grad(|v|^2/2) and P removes it."""
    return vector_from_functions(grid,
                                 lambda x, y, z: a * np.sin(z) + c * np.cos(y),
                                 lambda x, y, z: b * np.sin(x) + a * np.cos(z),
                                 lambda x, y, z: c * np.sin(y) + b * np.cos(x))


class TestABCFlow3D:
    """3D oracles; the limit solve runs the open-mesh kd through leray_p."""

    @pytest.mark.parametrize("params", [PhysParams(0.05, 0.0, 0.05), PhysParams(0, 0, 0)],
                             ids=["ns", "euler"])
    def test_limit_solve_decays_exactly(self, params):
        grid = make_grid(3, 16)
        v0 = abc_flow(grid)
        t_end = 0.5
        traj = run_limit(LimitState(v0, constant_scalar(grid, 1.0)), params, t_end,
                         dt=0.05, snapshot_times=[0.0, t_end])
        expected = np.exp(-params.mu * t_end) * v0
        error = sobolev_norm(traj.at(t_end).v - expected, 3)
        assert error <= 1e-12 * sobolev_norm(expected, 3)

    def test_pressure_is_minus_half_the_kinetic_energy_density(self):
        grid = make_grid(3, 16)
        v = abc_flow(grid)
        pi = recover_pressure(LimitState(v, constant_scalar(grid, 1.0)),
                              PhysParams(0.05, 0.0, 0.05))
        energy = -0.5 * sum(c.samples() ** 2 for c in v)
        expected = transform_forward(grid, energy - energy.mean())
        assert sobolev_norm(pi - expected, 0) <= 1e-14 * sobolev_norm(expected, 0)
