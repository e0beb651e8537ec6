"""Harness: config parsing, initial data, measurement, rates, CLI."""

from pathlib import Path

import numpy as np
import pytest

from qnl.ansatz import solve_osc
from qnl.cli import main as cli_main
from qnl.errors import (DensityNotPositiveError, InsufficientDataError,
                        InvalidConfigError, NonpositiveTemperatureError)
from qnl.harness import (ERROR_CHANNELS, BaseFields, ReportRow, RunConfig,
                         default_base_fields, fit_rate, gen_initial_data,
                         load_config, measure_errors, run_sweep)
from qnl.limit_solver import LimitState, PhysParams, run_limit
from qnl.nsp import NSPState, NSPTrajectory, poisson_solve
from qnl.oscillation import GradientPair
from qnl.ansatz import build_oscillation
from qnl.spectral import (constant_scalar, divergence, gradient, laplacian,
                          read_snapshot, scalar_from_function, sobolev_norm,
                          vector_from_functions)

from conftest import advect, smooth_vector


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "dims = 2\n"
            "resolution = 16\n"
            "lambda_list = 0.2, 0.1, 0.05\n"
            "mu = 0.02\n"
            "euler_mode = true\n"
            "t_end = 0.25\n"
            "snapshots = 5\n"
            "ic = well\n"
            "output_dir = out\n")
        cfg = load_config(path)
        assert cfg.resolution == 16
        assert cfg.lambda_list == (0.2, 0.1, 0.05)
        assert cfg.euler_mode is True
        assert cfg.ic == "well"

    def test_every_field_parses_from_its_key(self, tmp_path):
        text = {"dims": "3", "resolution": "16", "s_norm": "3.5",
                "lambda_list": "0.2, 0.1,", "mu": "0.02", "nu": "0.01",
                "kappa": "0.03", "euler_mode": "No", "dissipation_coupling": "0.3",
                "t_end": "0.25", "snapshots": "4", "snapshot_times": "0.1, 0.2",
                "ic": "well", "ic_random_amp": "0.01", "seed": "7",
                "output_dir": "out dir", "dt_max": "0.02", "phase_resolution": "8",
                "limit_dt": "0.004", "save_snapshots": "on"}
        assert set(text) == set(RunConfig.__dataclass_fields__)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        cfg = load_config(path)
        assert cfg == RunConfig(
            dims=3, resolution=16, s_norm=3.5, lambda_list=(0.2, 0.1), mu=0.02,
            nu=0.01, kappa=0.03, euler_mode=False, dissipation_coupling=0.3,
            t_end=0.25, snapshots=4, snapshot_times=(0.1, 0.2), ic="well",
            ic_random_amp=0.01, seed=7, output_dir="out dir", dt_max=0.02,
            phase_resolution=8, limit_dt=0.004, save_snapshots=True)
        assert [type(getattr(cfg, k)) for k in ("dims", "mu", "euler_mode", "ic")] \
            == [int, float, bool, str]

    @pytest.mark.parametrize("line,match", [
        ("resolution = 16.5", "resolution"), ("mu = fast", "mu"),
        ("euler_mode = maybe", "boolean"), ("lambda_list = ,", "empty list"),
        ("limit_dt = none", "limit_dt")])
    def test_bad_values_name_the_key(self, tmp_path, line, match):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InvalidConfigError, match=match):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(InvalidConfigError, match="unknown key"):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("resolution 64\n")
        with pytest.raises(InvalidConfigError, match="key = value"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("resolution = sixty-four\n")
        with pytest.raises(InvalidConfigError, match="bad value"):
            load_config(path)

    def test_empty_lambda_list_rejected(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(lambda_list=()).validate()

    def test_nondecreasing_lambda_rejected(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(lambda_list=(0.05, 0.1)).validate()
        with pytest.raises(InvalidConfigError):
            RunConfig(lambda_list=(0.1, -0.05)).validate()

    def test_s_norm_floor(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(s_norm=2.5).validate()
        RunConfig(dims=2, s_norm=3.0).validate()
        with pytest.raises(InvalidConfigError):
            RunConfig(dims=3, resolution=16, s_norm=3.0).validate()

    @pytest.mark.parametrize("dt_max", [0.0, -0.01])
    def test_nonpositive_dt_max_rejected(self, dt_max):
        with pytest.raises(InvalidConfigError, match="dt_max"):
            RunConfig(dt_max=dt_max).validate()

    @pytest.mark.parametrize("limit_dt", [0.0, -0.01])
    def test_nonpositive_limit_dt_rejected(self, limit_dt):
        with pytest.raises(InvalidConfigError, match="limit_dt"):
            RunConfig(limit_dt=limit_dt).validate()

    def test_negative_mu_rejected(self):
        with pytest.raises(InvalidConfigError, match="mu"):
            RunConfig(mu=-0.05).validate()

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidConfigError, match="kappa"):
            RunConfig(kappa=-0.05).validate()

    def test_readme_example_configuration_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.cfg"
        path.write_text(block)
        assert load_config(path) == RunConfig()

    def test_workers_key_removed(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("workers = 2\n")
        with pytest.raises(InvalidConfigError, match="unknown key 'workers'"):
            load_config(path)

    def test_euler_mode_zeroes_limit_dissipation(self):
        cfg = RunConfig(euler_mode=True, mu=0.3, nu=0.1, kappa=0.2)
        assert cfg.limit_params() == PhysParams(0.0, 0.0, 0.0)
        nsp = cfg.nsp_params(0.1)
        assert nsp.mu == pytest.approx(0.02)
        assert nsp.nu == pytest.approx(0.02)
        assert nsp.kappa == pytest.approx(0.02)

    def test_snapshot_times_resolution(self):
        cfg = RunConfig(t_end=1.0, snapshots=5)
        np.testing.assert_allclose(cfg.resolved_snapshot_times(),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])
        cfg2 = RunConfig(t_end=1.0, snapshot_times=(0.5, 1.0))
        np.testing.assert_allclose(cfg2.resolved_snapshot_times(),
                                   [0.0, 0.5, 1.0])


class TestGenInitialData:
    def test_well_prepared(self, grid2d):
        base = default_base_fields(grid2d, "well")
        state = gen_initial_data("well", 0.1, base)
        assert sobolev_norm(state.rho - constant_scalar(grid2d, 1.0), 0) == 0.0
        assert sobolev_norm(state.u - base.v0, 0) == 0.0
        assert sobolev_norm(state.theta - base.theta0, 0) == 0.0
        assert sobolev_norm(state.phi, 0) == 0.0

    def test_ill_prepared_single_mode(self, grid2d):
        # phi0 = 0.3 sin(x), lambda = 0.1: rho0 = 1 + 0.03 sin(x)
        base = default_base_fields(grid2d, "ill")
        state = gen_initial_data("ill", 0.1, base)
        expected = constant_scalar(grid2d, 1.0) + scalar_from_function(
            grid2d, lambda x, y: 0.03 * np.sin(x))
        assert sobolev_norm(state.rho - expected, 0) < 1e-14

    def test_zero_slack_construction(self, grid2d):
        from qnl.projections import leray_p
        lam, s = 0.1, 3.0
        base = default_base_fields(grid2d, "ill")
        state = gen_initial_data("ill", lam, base)
        slack_rho = state.rho - constant_scalar(grid2d, 1.0) \
            + lam * laplacian(base.phi0)
        assert sobolev_norm(slack_rho, s) < 1e-13
        assert sobolev_norm(leray_p(state.u) - base.v0, s) < 1e-12

    def test_density_positivity_guard(self, grid2d):
        base = default_base_fields(grid2d, "ill")
        with pytest.raises(DensityNotPositiveError):
            gen_initial_data("ill", 4.0, base)  # 1 - 4 * 0.3 sin < 0 somewhere

    def test_rejects_divergent_base_velocity(self, grid2d, rng):
        base = default_base_fields(grid2d, "ill")
        bad = BaseFields(smooth_vector(grid2d, rng), base.theta0,
                         base.qu0, base.phi0)
        with pytest.raises(ValueError, match="divergence-free"):
            gen_initial_data("ill", 0.1, bad)

    def test_rejects_nonpositive_base_temperature(self, grid2d):
        base = default_base_fields(grid2d, "ill")
        bad_theta = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        bad = BaseFields(base.v0, bad_theta, base.qu0, base.phi0)
        with pytest.raises(NonpositiveTemperatureError):
            gen_initial_data("ill", 0.1, bad)

    def test_well_requires_zero_oscillation_sources(self, grid2d):
        base = default_base_fields(grid2d, "ill")
        with pytest.raises(ValueError, match="well-prepared"):
            gen_initial_data("well", 0.1, base)


def _aligned_trajectories(grid, lam, times):
    """Limit, pair, and a manufactured NSP trajectory that matches exactly."""
    params = PhysParams(0.05, 0.0, 0.05)
    base = default_base_fields(grid, "ill")
    limit = run_limit(LimitState(base.v0.copy(), base.theta0.copy()), params,
                      float(times[-1]), dt=0.01, snapshot_times=times)
    pair = solve_osc(GradientPair(base.qu0.copy(), gradient(base.phi0)),
                     limit, params, float(times[-1]), dt=0.01,
                     snapshot_times=times)
    states = []
    for t in times:
        lim = limit.snapshot_state(t)
        osc = build_oscillation(t, lam, pair.pair_at(t))
        rho = constant_scalar(grid, 1.0)
        states.append(NSPState(rho, lim.v + osc.u_osc, lim.theta.copy(),
                               poisson_solve(rho, lam)))
    synthetic = NSPTrajectory(np.asarray(times), states)
    return limit, pair, synthetic


class TestMeasureErrors:
    def test_identical_trajectories_have_zero_error(self, grid2d):
        times = np.linspace(0.0, 0.1, 3)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid2d, lam, times)
        # phi of the manufactured states equals phi_osc only if rho matches;
        # rebuild phi so every channel is exactly aligned
        for i, t in enumerate(times):
            osc = build_oscillation(t, lam, pair.pair_at(t))
            from qnl.spectral import divergence, inverse_laplacian
            phi_osc = inverse_laplacian(divergence(osc.grad_phi_osc))
            synthetic.states[i].phi = phi_osc
        row = measure_errors(synthetic, limit, pair, lam, 3.0)
        assert row.e_rho < 1e-13
        assert row.e_u < 1e-12
        assert row.e_theta < 1e-13
        assert row.e_phi < 1e-12

    def test_theta_perturbation_measured_exactly(self, grid2d):
        times = np.linspace(0.0, 0.1, 3)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid2d, lam, times)
        bump = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        for state in synthetic.states:
            state.theta = state.theta + lam * bump
        row = measure_errors(synthetic, limit, pair, lam, 3.0)
        assert abs(row.e_theta - lam * sobolev_norm(bump, 3.0)) < 1e-12

    def test_time_grid_mismatch_rejected(self, grid2d):
        times = np.linspace(0.0, 0.1, 3)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid2d, lam, times)
        synthetic.times = synthetic.times + 0.003
        with pytest.raises(ValueError, match="not a snapshot time"):
            measure_errors(synthetic, limit, pair, lam, 3.0)


class TestFitRate:
    def _rows(self, pairs):
        return [ReportRow(lam, e, e, e, e) for lam, e in pairs]

    def test_exact_linear(self):
        rows = self._rows([(lam, 2.0 * lam) for lam in (0.1, 0.05, 0.025, 0.0125)])
        fit = fit_rate(rows, "E_u")
        assert abs(fit.slope - 1.0) < 1e-12
        assert fit.halfwidth < 1e-12

    def test_exact_quadratic(self):
        rows = self._rows([(lam, 3.0 * lam ** 2) for lam in (0.1, 0.05, 0.025)])
        fit = fit_rate(rows, "E_rho")
        assert abs(fit.slope - 2.0) < 1e-12

    def test_noisy_linear_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        lams = (0.1, 0.05, 0.025, 0.0125, 0.00625)
        noise = 1.0 + 0.05 * rng.standard_normal(len(lams))
        rows = self._rows(list(zip(lams, [lam * n for lam, n in zip(lams, noise)])))
        fit = fit_rate(rows, "E_theta")
        assert 0.9 <= fit.slope <= 1.1
        # independent closed-form oracle
        x, y = np.log(lams), np.log([r.e_theta for r in rows])
        n = len(x)
        slope = (n * np.sum(x * y) - np.sum(x) * np.sum(y)) \
            / (n * np.sum(x * x) - np.sum(x) ** 2)
        assert abs(fit.slope - slope) < 1e-12

    def test_insufficient_rows(self):
        rows = self._rows([(0.1, 0.2), (0.05, 0.1)])
        with pytest.raises(InsufficientDataError):
            fit_rate(rows, "E_u")

    def test_failed_rows_excluded(self):
        rows = self._rows([(lam, 2 * lam) for lam in (0.1, 0.05, 0.025)])
        rows.append(ReportRow(0.0125, status="blow_up"))
        fit = fit_rate(rows, "E_u")
        assert abs(fit.slope - 1.0) < 1e-12


SMALL_SWEEP = dict(resolution=16, lambda_list=(0.1, 0.05, 0.025),
                   t_end=0.1, snapshots=3, s_norm=3.0)


class TestRunSweep:
    def test_small_sweep_outputs(self, tmp_path):
        cfg = RunConfig(output_dir=str(tmp_path / "out"), **SMALL_SWEEP)
        report = run_sweep(cfg)
        assert report.all_ok
        assert [row.lam for row in report.rows] == [0.1, 0.05, 0.025]
        out = tmp_path / "out"
        assert (out / "report.csv").exists()
        assert (out / "rates.csv").exists()
        assert (out / "meta.txt").exists()
        text = (out / "report.csv").read_text()
        assert text.splitlines()[0] == "lambda,E_rho,E_u,E_theta,E_phi,status"
        assert len(text.splitlines()) == 4
        assert all(line.endswith(",ok") for line in text.splitlines()[1:])

    def test_failed_row_recorded_not_fatal(self, tmp_path):
        # a lambda too large for positivity fails its row, sweep continues
        cfg = RunConfig(output_dir=str(tmp_path / "out"),
                        resolution=16, lambda_list=(5.0, 0.1, 0.05, 0.025),
                        t_end=0.1, snapshots=3)
        report = run_sweep(cfg)
        assert not report.all_ok
        statuses = [row.status for row in report.rows]
        assert statuses[0] == "density_not_positive"
        assert statuses[1:] == ["ok", "ok", "ok"]
        assert report.rate("E_u") is not None  # fit over surviving rows

    def test_3d_rates_are_order_lambda(self, tmp_path):
        # Slopes 1.07, 1.00, 0.905, 0.902 (E_rho, E_u, E_theta, E_phi); the
        # same sweep at 24^3 gives 1.07, 1.00, 0.898, 0.897, so 16^3 is not
        # a resolution floor.
        cfg = RunConfig(dims=3, resolution=16, s_norm=3.5, t_end=0.5, snapshots=9,
                        output_dir=str(tmp_path / "out"))
        report = run_sweep(cfg)
        assert report.all_ok
        slopes = {c: report.rate(c).slope for c in ERROR_CHANNELS}
        assert min(slopes.values()) >= 0.8, slopes

    def test_halving_every_step_barely_moves_the_errors(self, tmp_path):
        # The discretisation floor at the smallest stock lambda: halving the
        # NSP, limit and pair steps moves each E by at most 1.1e-5 relative
        # here (2.2e-4 at t_end = 0.5), so the fitted rates measure the PDE.
        settings = dict(lambda_list=(0.0125,), t_end=0.125, snapshots=5)
        stock = run_sweep(RunConfig(output_dir=str(tmp_path / "stock"), **settings))
        halved = run_sweep(RunConfig(output_dir=str(tmp_path / "halved"), dt_max=0.005,
                                     phase_resolution=32, limit_dt=0.0025, **settings))
        assert stock.all_ok and halved.all_ok
        moves = {c: abs(halved.rows[0].channel(c) / stock.rows[0].channel(c) - 1.0)
                 for c in ERROR_CHANNELS}
        assert max(moves.values()) <= 1e-2, moves

    def test_snapshot_files_written_when_requested(self, tmp_path):
        cfg = RunConfig(output_dir=str(tmp_path / "out"), save_snapshots=True,
                        resolution=16, lambda_list=(0.1, 0.05, 0.025),
                        t_end=0.05, snapshots=2)
        run_sweep(cfg)
        files = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*_rho.qnl"))
        assert files
        field = read_snapshot(tmp_path / "out" / files[0])
        assert field.grid.resolution == 16


class TestCli:
    def _write_config(self, tmp_path, **extra):
        lines = ["resolution = 16", "lambda_list = 0.1, 0.05, 0.025",
                 "t_end = 0.1", "snapshots = 3",
                 f"output_dir = {tmp_path / 'out'}"]
        lines += [f"{k} = {v}" for k, v in extra.items()]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        code = cli_main(["run", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "report.csv" in out
        assert (tmp_path / "out" / "report.csv").exists()

    def test_limit_subcommand(self, tmp_path):
        path = self._write_config(tmp_path)
        code = cli_main(["limit", "--config", str(path)])
        assert code == 0
        text = (tmp_path / "out" / "limit.csv").read_text()
        assert text.startswith("t,v_hs,theta_hs,min_theta")

    def test_limit_csv_matches_the_sweep_limit(self, tmp_path, monkeypatch):
        # `qnl limit` used to step at the uncapped CFL dt, not the sweep's.
        # The sweep solves its limit in a forked child, which inherits the
        # patch and records the snapshots to a file.
        import pickle
        import qnl.harness
        record = tmp_path / "sweep_limit.pkl"

        def recording_run_limit(*args, **kwargs):
            traj = run_limit(*args, **kwargs)
            record.write_bytes(pickle.dumps((traj.snapshot_times, traj.states)))
            return traj

        monkeypatch.setattr(qnl.harness, "run_limit", recording_run_limit)
        path = self._write_config(tmp_path, lambda_list=0.1)
        run_sweep(load_config(path))
        snapshot_times, states = pickle.loads(record.read_bytes())
        assert cli_main(["limit", "--config", str(path)]) == 0
        got = np.loadtxt(tmp_path / "out" / "limit.csv", delimiter=",", skiprows=1)
        expected = [[t, sobolev_norm(state.v, 3.0), sobolev_norm(state.theta, 3.0),
                     state.theta.samples().min()]
                    for t, state in zip(snapshot_times, states)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_limit_snapshots_hold_the_pressure(self, tmp_path):
        path = self._write_config(tmp_path, save_snapshots="true")
        assert cli_main(["limit", "--config", str(path)]) == 0
        mu = load_config(path).limit_params().mu
        pi_files = sorted((tmp_path / "out").glob("limit_t_*_pi.qnl"))
        assert len(pi_files) == 3
        for pi_path in pi_files:
            v = read_snapshot(str(pi_path).replace("_pi.qnl", "_v.qnl"))
            rhs = -divergence(advect(v, v) - mu * laplacian(v))
            residual = laplacian(read_snapshot(pi_path)) - rhs
            assert sobolev_norm(residual, 0) <= 1e-12 * sobolev_norm(rhs, 0)

    def test_check_subcommand(self, capsys):
        code = cli_main(["check", "--resolution", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_negative_dt_max_exits_instead_of_hanging(self, tmp_path, capsys):
        path = self._write_config(tmp_path, dt_max=-0.01)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "dt_max" in capsys.readouterr().err

    # each used to end in a ValueError traceback from PhysParams.validate
    @pytest.mark.parametrize("keys", [
        {"mu": 0, "kappa": 0.05},
        {"nu": -1},
        {"euler_mode": "true", "dissipation_coupling": -0.2},
    ])
    def test_bad_physical_parameters_are_config_errors(self, tmp_path, capsys, keys):
        path = self._write_config(tmp_path, **keys)
        with pytest.raises(InvalidConfigError):
            load_config(path)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    # seed = -1 used to escape as numpy's ValueError traceback (exit 1), and
    # a negative ic_random_amp ran as 0 while meta.txt echoed it
    @pytest.mark.parametrize("keys", [
        {"seed": -1, "ic_random_amp": 0.01},
        {"ic_random_amp": -0.5},
    ])
    def test_bad_initial_data_keys_are_config_errors(self, tmp_path, capsys, keys):
        path = self._write_config(tmp_path, **keys)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code = cli_main(["run", "--config", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_base_field_defaults_are_spec_values(grid2d):
    base = default_base_fields(grid2d, "ill")
    tg = vector_from_functions(grid2d,
                               lambda x, y: np.sin(x) * np.cos(y),
                               lambda x, y: -np.cos(x) * np.sin(y))
    theta = scalar_from_function(grid2d,
                                 lambda x, y: 2.0 + 0.5 * np.sin(x) * np.sin(y))
    qu = gradient(scalar_from_function(grid2d, lambda x, y: 0.4 * np.cos(y)))
    phi = scalar_from_function(grid2d, lambda x, y: 0.3 * np.sin(x))
    assert sobolev_norm(base.v0 - tg, 0) < 1e-13
    assert sobolev_norm(base.theta0 - theta, 0) < 1e-13
    assert sobolev_norm(base.qu0 - qu, 0) < 1e-13
    assert sobolev_norm(base.phi0 - phi, 0) < 1e-13
