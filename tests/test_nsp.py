"""Compressible solver: Poisson oracle, tendencies, stiff stepping."""

import numpy as np
import pytest

from qnl.errors import (BlowUpError, DegenerateDensityError, MassDefectError,
                        NonpositiveTemperatureError)
from qnl import nsp
from qnl.harness import (DIAG_HEADER, RunConfig, _diag_line, base_fields, default_base_fields,
                         gen_initial_data, plan_sweep, state_norms)
from qnl.limit_solver import PhysParams, advective_dt
from qnl.nsp import (VISCOUS_SAFETY, VISCOUS_Z, NSPState, nsp_dt, nsp_rhs_nonstiff,
                     poisson_solve, run_nsp, viscous_dt)
from qnl.projections import leray_p, leray_q
from qnl.spectral import (SpectralScalar, constant_scalar, gradient,
                          laplacian, make_grid, scalar_from_function,
                          sobolev_norm, to_physical, to_spectral,
                          transform_forward, zeros_vector)
from qnl.stepping import substep_count

from conftest import default_nsp_dt, smooth_scalar, smooth_vector, strain_dissipation


class TestPoissonSolve:
    def test_single_mode(self, grid2d):
        lam = 0.2
        rho = constant_scalar(grid2d, 1.0) \
            + lam * scalar_from_function(grid2d, lambda x, y: np.sin(x))
        phi = poisson_solve(rho, lam)
        expected = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        assert sobolev_norm(phi - expected, 0) < 1e-13

    def test_uniform_density(self, grid2d):
        phi = poisson_solve(constant_scalar(grid2d, 1.0), 0.5)
        assert sobolev_norm(phi, 0) == 0.0

    def test_residual_and_dense_oracle(self, rng):
        # oracle: assemble the spectral Laplacian as a dense matrix on the
        # 8x8 grid and solve the mean-pinned linear system directly
        grid = make_grid(2, 8)
        lam = 0.37
        bump = smooth_scalar(grid, rng)
        bump = bump - constant_scalar(grid, bump.mean)
        rho = constant_scalar(grid, 1.0) + 0.1 * bump
        phi = poisson_solve(rho, lam)

        residual = (-lam) * laplacian(phi) - rho + constant_scalar(grid, 1.0)
        assert sobolev_norm(residual, 0) < 1e-12

        npts = grid.resolution ** 2
        dense = np.zeros((npts, npts))
        for j in range(npts):
            e = np.zeros(npts)
            e[j] = 1.0
            basis = transform_forward(grid, e.reshape(grid.shape))
            dense[:, j] = laplacian(basis).samples().ravel()
        rhs = (-(rho.samples() - 1.0) / lam).ravel()
        system = np.vstack([dense, np.ones((1, npts)) / npts])
        target = np.concatenate([rhs, [0.0]])
        sol, *_ = np.linalg.lstsq(system, target, rcond=None)
        assert np.abs(phi.samples().ravel() - sol).max() < 1e-10

    def test_mass_defect(self, grid2d):
        rho = constant_scalar(grid2d, 1.01)
        with pytest.raises(MassDefectError):
            poisson_solve(rho, 0.1)

    def test_nonpositive_lambda(self, grid2d):
        with pytest.raises(ValueError):
            poisson_solve(constant_scalar(grid2d, 1.0), 0.0)


class TestNonstiffRhs:
    def test_equilibrium_is_exact_zero(self, grid2d):
        state = NSPState(constant_scalar(grid2d, 1.0), zeros_vector(grid2d),
                         constant_scalar(grid2d, 1.7))
        drho, du, dtheta = nsp_rhs_nonstiff(state, PhysParams(0.05, 0.0, 0.05), 0.1)
        assert sobolev_norm(drho, 0) == 0.0
        assert sobolev_norm(du, 0) == 0.0
        assert sobolev_norm(dtheta, 0) == 0.0

    def test_taylor_green_heating(self, grid2d):
        from qnl.spectral import vector_from_functions
        mu = 0.05
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(x) * np.cos(y),
                                  lambda x, y: -np.cos(x) * np.sin(y))
        state = NSPState(constant_scalar(grid2d, 1.0), u, constant_scalar(grid2d, 1.0))
        _, _, dtheta = nsp_rhs_nonstiff(state, PhysParams(mu, 0.0, 0.0), 0.1)
        expected = strain_dissipation(u, mu)  # 2 mu D(u):D(u) at rho = 1
        assert sobolev_norm(dtheta - expected, 0) < 1e-12
        assert dtheta.mean >= 0.0

    def test_pressure_term_matches_fd_oracle(self):
        # rho = 1 + lam sin(x), u = 0, theta = 1: du = -grad(rho)/rho
        grid = make_grid(2, 64)
        lam = 0.1
        rho = constant_scalar(grid, 1.0) \
            + lam * scalar_from_function(grid, lambda x, y: np.sin(x))
        state = NSPState(rho, zeros_vector(grid), constant_scalar(grid, 1.0))
        _, du, _ = nsp_rhs_nonstiff(state, PhysParams(0, 0, 0), lam)

        log_rho = transform_forward(grid, np.log(rho.samples()))
        h = grid.spacing
        phys = log_rho.samples()
        fd = (-np.roll(phys, -2, 0) + 8 * np.roll(phys, -1, 0)
              - 8 * np.roll(phys, 1, 0) + np.roll(phys, 2, 0)) / (12 * h)
        m5 = np.sum(grid.weight * np.abs(grid.k[0]) ** 5 * np.abs(log_rho.coeffs))
        tol = 1.1 * h ** 4 * m5 / 30 + 1e-10
        assert np.abs(du[0].samples() + fd).max() <= tol
        assert np.abs(du[1].samples()).max() < 1e-12

    @pytest.mark.parametrize("dims, resolution", [(2, 10), (2, 64), (3, 16), (3, 24)])
    @pytest.mark.parametrize("density", ["random", "symmetric"])
    def test_inverse_density_equals_the_unmasked_forward_composition(
            self, rng, dims, resolution, density):
        # The masked forward transform of 1/rho leaves the masked inverse
        # nothing to read that the unmasked rfftn would have given otherwise.
        # The symmetric density has exact zeros, whose signs must agree too.
        grid = make_grid(dims, resolution)
        if density == "random":
            rho = constant_scalar(grid, 1.0) + smooth_scalar(grid, rng) * 0.2
        else:
            rho = scalar_from_function(
                grid, lambda *x: 1.0 + 0.2 * np.sin(x[0]) * np.cos(x[-1]))
        expected = to_physical(grid, to_spectral(grid, 1.0 / rho.samples(), masked=False))
        assert nsp._inverse_density(rho).tobytes() == expected.tobytes()

    def test_density_floor(self, grid2d):
        rho = constant_scalar(grid2d, 1.0) \
            + scalar_from_function(grid2d, lambda x, y: 1.001 * np.sin(x))
        state = NSPState(rho, zeros_vector(grid2d), constant_scalar(grid2d, 1.0))
        with pytest.raises(DegenerateDensityError):
            nsp_rhs_nonstiff(state, PhysParams(0, 0, 0), 0.1)


class TestNspStep:
    def test_equilibrium_fixed_point(self, grid2d):
        theta = constant_scalar(grid2d, 1.3)
        state = NSPState(constant_scalar(grid2d, 1.0), zeros_vector(grid2d), theta)
        out = run_nsp(state, PhysParams(0.05, 0.0, 0.05), 0.25, 0.02, dt=0.02).states[-1]
        assert sobolev_norm(out.rho - state.rho, 0) == 0.0
        assert sobolev_norm(out.u, 0) == 0.0
        assert sobolev_norm(out.theta - theta, 0) == 0.0

    def test_linearized_pair_rotation_returns_after_period(self):
        # infinitesimal data: the (Qu, grad phi) pair rotates at frequency
        # 1/lambda; tiny lambda keeps the O(lambda^2) pressure detuning and
        # the quadratic terms below the 1e-8 return tolerance
        grid = make_grid(2, 32)
        lam, eps = 1e-5, 1e-6
        rho = constant_scalar(grid, 1.0) \
            + (eps * lam) * scalar_from_function(grid, lambda x, y: np.sin(x))
        u = eps * gradient(scalar_from_function(grid, lambda x, y: 0.7 * np.cos(x)))
        state = NSPState(rho, u, constant_scalar(grid, 1.0),
                         poisson_solve(rho, lam))
        period = 2 * np.pi * lam
        traj = run_nsp(state, PhysParams(0, 0, 0), lam, period,
                       nsp_dt(advective_dt(u), lam, 512, 0.01), [0.0, period])
        end = traj.at(period)
        rel_u = sobolev_norm(end.u - u, 0) / sobolev_norm(u, 0)
        rel_phi = sobolev_norm(gradient(end.phi) - gradient(state.phi), 0) \
            / sobolev_norm(gradient(state.phi), 0)
        assert rel_u <= 1e-8
        assert rel_phi <= 1e-8

    # acceptance criterion 8, and in 3D at 16^3, where the order read 4.00
    # (as at 8^3 and 12^3) when measured
    @pytest.mark.parametrize("dims, resolution", [(2, 32), (3, 16)], ids=["2d", "3d"])
    def test_richardson_self_convergence(self, dims, resolution):
        grid = make_grid(dims, resolution)
        base = default_base_fields(grid, "ill")
        lam = 0.5
        params = PhysParams(0.05, 0.0, 0.05)
        initial = gen_initial_data("ill", lam, base)
        ends = {}
        for m in (1, 2, 4):
            n = 8 * m
            dt = 0.16 / n
            ends[m] = run_nsp(initial, params, lam, 0.16, dt=dt).states[-1]
        def dist(a, b):
            return (sobolev_norm(a.u - b.u, 0) + sobolev_norm(a.rho - b.rho, 0)
                    + sobolev_norm(a.theta - b.theta, 0))
        order = np.log2(dist(ends[1], ends[2]) / dist(ends[2], ends[4]))
        assert order >= 3.5

    def test_dt_refinement_at_the_smallest_stock_lambda(self):
        # At lambda = 0.0125 the stock step sits on the phase bound, h/lambda
        # = 0.36 here.  Runs of n and 2n steps against one of 8n: the H^3
        # error ratio was 15.3 (order 3.9) when measured; Lawson RK4 is of
        # order 4 (Hochbruck & Ostermann, Acta Numerica 2010).
        config = RunConfig()
        lam, t_end = 0.0125, 0.05
        initial = gen_initial_data(config.ic, lam, base_fields(config))
        n = substep_count(t_end, default_nsp_dt(initial.u, lam))
        ends = {m: run_nsp(initial, config.nsp_params(lam), lam, t_end,
                           dt=t_end / (m * n)).states[-1] for m in (1, 2, 8)}

        def error(a):
            b = ends[8]
            return (sobolev_norm(a.rho - b.rho, 3) + sobolev_norm(a.u - b.u, 3)
                    + sobolev_norm(a.theta - b.theta, 3))

        assert error(ends[1]) / error(ends[2]) >= 8.0

    def test_rejects_nonpositive_dt(self, grid2d):
        state = NSPState(constant_scalar(grid2d, 1.0), zeros_vector(grid2d),
                         constant_scalar(grid2d, 1.0))
        with pytest.raises(ValueError):
            run_nsp(state, PhysParams(0, 0, 0), 0.1, 0.1, dt=0.0)


@pytest.mark.parametrize("lam", [0.0, -0.05])
def test_nonpositive_lambda_is_refused_and_a_missing_phi_has_no_residual(grid2d, lam):
    base = default_base_fields(grid2d, "ill")
    state = NSPState(constant_scalar(grid2d, 1.0), base.v0, base.theta0)
    assert np.isnan(state.poisson_residual(0.05))
    with pytest.raises(ValueError, match=f"^lambda must be positive, got {lam}$"):
        run_nsp(state, PhysParams(0, 0, 0), lam, 0.1, dt=0.01)


class TestRunNsp:
    @pytest.fixture()
    def short_run(self):
        """The lines of the run's diag_*.csv, split at the commas."""
        grid = make_grid(2, 32)
        base = default_base_fields(grid, "ill")
        lam = 0.05
        initial = gen_initial_data("ill", lam, base)
        traj = run_nsp(initial, PhysParams(0.05, 0.0, 0.05), lam, 0.2,
                       default_nsp_dt(initial.u, lam), np.linspace(0, 0.2, 5))
        lines = [_diag_line(t, state, hs, lam, 3.0) for t, state, hs in
                 zip(traj.times, traj.states, state_norms(traj, 3.0), strict=True)]
        return [line.split(",") for line in [DIAG_HEADER, *lines]]

    @staticmethod
    def column(lines, name):
        return [float(row[lines[0].index(name)]) for row in lines[1:]]

    def test_mass_conserved(self, short_run):
        masses = self.column(short_run, "mass")
        drift = max(abs(m - masses[0]) for m in masses)
        assert drift <= 1e-10 * abs(masses[0])

    def test_poisson_residual_at_snapshots(self, short_run):
        assert max(self.column(short_run, "poisson_residual")) <= 1e-10

    def test_positivity_tracked(self, short_run):
        assert min(self.column(short_run, "min_rho")) > 0.0
        assert min(self.column(short_run, "min_theta")) > 0.0

    def test_diagnostic_fields_present(self, short_run):
        expected = ["t", "mass", "min_rho", "min_theta", "rho_hs", "u_hs",
                    "theta_hs", "grad_phi_hs1", "poisson_residual"]
        assert short_run[0] == expected
        assert [len(row) for row in short_run[1:]] == [len(expected)] * 5

    def test_nonpositive_temperature_rejected(self, grid2d):
        theta = scalar_from_function(grid2d, lambda x, y: 0.5 + np.sin(x))
        state = NSPState(constant_scalar(grid2d, 1.0), zeros_vector(grid2d), theta)
        with pytest.raises(NonpositiveTemperatureError):
            run_nsp(state, PhysParams(0, 0, 0), 0.1, 0.05, default_nsp_dt(state.u, 0.1))

    def test_non_finite_state_raises_blow_up(self):
        grid = make_grid(2, 16)
        initial = gen_initial_data("ill", 0.05, default_base_fields(grid, "ill"))
        initial.u[0].coeffs[1, 2] = np.nan
        with pytest.raises(BlowUpError):
            run_nsp(initial, PhysParams(0.05, 0.0, 0.05), 0.05, 0.05, dt=0.01)

    def test_default_dt_policy(self, grid2d):
        cfl = advective_dt(zeros_vector(grid2d))
        lam = 0.001
        dt = nsp_dt(cfl, lam, phase_resolution=16, dt_max=0.01)
        assert abs(dt - 2 * np.pi * lam / 16) < 1e-15
        dt2 = nsp_dt(cfl, 10.0, phase_resolution=16, dt_max=0.01)
        assert dt2 == 0.01


def test_three_dimensional_step_smoke(grid3d, rng):
    # one stiff step in 3D keeps the constraint and conserves mass
    lam = 0.1
    pot = smooth_scalar(grid3d, rng)
    pot = pot - constant_scalar(grid3d, pot.mean)
    rho = constant_scalar(grid3d, 1.0) + 0.05 * laplacian(pot) * -1.0 * lam
    u = leray_p(smooth_vector(grid3d, rng)) * 0.3
    state = NSPState(rho, u, constant_scalar(grid3d, 2.0), poisson_solve(rho, lam))
    out = run_nsp(state, PhysParams(0.05, 0.0, 0.05), lam, 0.005, dt=0.005).states[-1]
    assert abs(out.rho.mean - 1.0) < 1e-13
    assert out.poisson_residual(lam) < 1e-12


def test_three_dimensional_conservation_and_constraint():
    # acceptance criterion 6 in 3D at 12^3.  a/b: mass drift and Poisson
    # residual over a nonlinear run
    grid = make_grid(3, 12)
    lam = 0.05
    initial = gen_initial_data("ill", lam, default_base_fields(grid, "ill"))
    traj = run_nsp(initial, PhysParams(0.05, 0.0, 0.05), lam, 0.1,
                   default_nsp_dt(initial.u, lam), np.linspace(0, 0.1, 3))
    masses = [state.mass() for state in traj.states]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * abs(masses[0])
    assert max(state.poisson_residual(lam) for state in traj.states) <= 1e-10

    # c: the linearized (chi, phi) rotation returns after one period 2 pi
    # lambda, with modes along all three axes.  rho's slot is stepped
    # explicitly, so the return error falls as (dt/lambda)^4: u came back
    # to 1.1e-8 at 128 steps a period, 7.2e-9 at 144 and 1.9e-9 at 256.
    lam, eps = 1e-5, 1e-6
    rho = constant_scalar(grid, 1.0) + (eps * lam) * scalar_from_function(
        grid, lambda x, y, z: np.sin(x) + np.cos(y + z))
    u = eps * gradient(scalar_from_function(
        grid, lambda x, y, z: 0.7 * np.cos(x) + 0.3 * np.sin(y - z)))
    state = NSPState(rho, u, constant_scalar(grid, 1.0), poisson_solve(rho, lam))
    period = 2 * np.pi * lam
    end = run_nsp(state, PhysParams(0, 0, 0), lam, period,
                  nsp_dt(advective_dt(u), lam, 144, 0.01), [0.0, period]).at(period)
    assert sobolev_norm(end.u - u, 0) <= 1e-8 * sobolev_norm(u, 0)
    assert sobolev_norm(gradient(end.phi) - gradient(state.phi), 0) \
        <= 1e-8 * sobolev_norm(gradient(state.phi), 0)


@pytest.mark.parametrize("dims, resolution, arrays", [(2, 16, 6), (3, 8, 7)],
                         ids=["2d", "3d"])
def test_state_carries_the_gradient_slots_as_potentials(dims, resolution, arrays):
    # (rho, Pu, chi, phi, theta): Qu = grad(chi) and the field grad(phi)
    # are held by their potentials, dims + 4 arrays instead of 3 dims + 2
    grid = make_grid(dims, resolution)
    lam = 0.05
    initial = gen_initial_data("ill", lam, default_base_fields(grid, "ill", 0.01, 0))
    _, propagate, settle = nsp._make_ops(grid, PhysParams(0.05, 0.0, 0.05), lam, 1e300)
    y, _ = settle(nsp._unsettled(initial), 0.0)
    assert len(y) == arrays
    qu = leray_q(initial.u)
    grad_chi = gradient(SpectralScalar(grid, y[1 + dims]))
    for a in range(dims):
        assert np.array_equal(grad_chi[a].coeffs, qu[a].coeffs)
        assert np.array_equal(y[1 + a], initial.u[a].coeffs - qu[a].coeffs)
    assert np.array_equal(y[2 + dims], poisson_solve(initial.rho, lam).coeffs)
    # the pair (chi, phi) turns by delta / lambda; a full turn returns it
    turned = propagate(y, 2 * np.pi * lam)
    for i in (1 + dims, 2 + dims):
        assert np.abs(turned[i] - y[i]).max() <= 1e-14 * np.abs(y[i]).max()


class TestViscousStepBound:
    # mu = 0.4 at 64^2: at dt_max the chi slot's explicit viscous term has
    # z = (2 mu + nu) k^2_max dt = 7.1, and three of four rows used to end
    # as degenerate_density
    KEYS = dict(mu=0.4, t_end=0.125, snapshots=5)

    def test_bound_binds_and_holds_z_below_the_threshold(self):
        config = RunConfig(**self.KEYS)
        base = base_fields(config)
        grid = base.v0.grid
        k_sq_max = grid.k_sq[grid.dealias_mask].max()
        for lam, dt in plan_sweep(config, base).lam_step.items():
            initial = gen_initial_data(config.ic, lam, base)
            assert dt < nsp_dt(advective_dt(initial.u), lam, config.phase_resolution,
                               config.dt_max)
            z = 2 * config.mu * k_sq_max * dt / initial.rho.samples().min()
            assert z <= VISCOUS_SAFETY * VISCOUS_Z * (1 + 1e-9)
            assert z >= VISCOUS_SAFETY * VISCOUS_Z * (1 - 1e-9)

    def test_no_bound_without_viscosity(self, grid2d):
        assert viscous_dt(PhysParams(0.0, 0.0, 0.0), grid2d, 1.0) == np.inf
        assert viscous_dt(PhysParams(0.05, 0.0, 0.05), grid2d, 0.0) == np.inf

    def test_sweep_is_ok_and_matches_a_finer_step(self, tmp_path):
        from qnl.harness import ERROR_CHANNELS, run_sweep
        reports = [run_sweep(RunConfig(output_dir=str(tmp_path / name), **keys))
                   for name, keys in (("bound", self.KEYS),
                                      ("fine", dict(self.KEYS, dt_max=0.002)))]
        assert all(report.all_ok for report in reports)
        for a, b in zip(*(report.rows for report in reports), strict=True):
            for name in ERROR_CHANNELS:
                assert a.channel(name) == pytest.approx(b.channel(name), rel=1e-4)
