"""Harness: config parsing, initial data, measurement, rates, CLI."""

import contextlib
import ctypes
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnl.ansatz import solve_osc
import qnl.cli
from qnl.cli import main as cli_main
from qnl.errors import (DensityNotPositiveError, InsufficientDataError,
                        InvalidConfigError, NonpositiveTemperatureError)
from qnl.harness import (ERROR_CHANNELS, BaseFields, ReportRow, RunConfig,
                         default_base_fields, fit_rate, gen_initial_data,
                         load_config, measure_errors, random_smooth_scalar,
                         random_smooth_vector, run_sweep)
import qnl.harness
import qnl.limit_solver
from qnl.limit_solver import LimitState, PhysParams, limit_states, run_limit
from qnl.nsp import NSPState, poisson_solve
from qnl.oscillation import GradientPair
from qnl.ansatz import build_oscillation
from qnl.projections import leray_p
from qnl.spectral import (constant_scalar, divergence, gradient, laplacian, make_grid,
                          read_snapshot, scalar_from_function, sobolev_norm, stack,
                          vector_from_functions)
from qnl.stepping import Snapshots

from conftest import advect, smooth_scalar, smooth_vector


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
                "t_end": "0.25", "snapshots": "4", "snapshot_times": "0.1, 0.25",
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
            t_end=0.25, snapshots=4, snapshot_times=(0.1, 0.25), ic="well",
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

    def test_empty_output_dir_rejected(self):
        with pytest.raises(InvalidConfigError, match="output_dir"):
            RunConfig(output_dir="").validate()

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

    # 0.1 and 0.09999999 both wrote diag_lambda_0.1.csv: three report rows,
    # two diag files, exit 0
    def test_lambda_values_sharing_a_file_tag_rejected(self):
        with pytest.raises(InvalidConfigError, match="0.1 and 0.09999999"):
            RunConfig(lambda_list=(0.1, 0.09999999, 0.05)).validate()
        RunConfig(lambda_list=(0.1, 0.0999999, 0.05)).validate()

    def test_saved_snapshot_times_sharing_a_file_tag_rejected(self):
        times = (0.25, 0.2500000001, 0.5)
        RunConfig(snapshot_times=times).validate()  # no snapshot files
        with pytest.raises(InvalidConfigError, match="0.25 and 0.2500000001"):
            RunConfig(snapshot_times=times, save_snapshots=True).validate()

    # (0.2, 0.7) with t_end = 0.5 used to pass validate and fail later, when
    # the sweep resolved the snapshot times
    def test_snapshot_times_outside_the_run_rejected(self, tmp_path):
        with pytest.raises(InvalidConfigError, match=r"snapshot_times must lie in \[0, t_end\]"):
            RunConfig(resolution=16, snapshot_times=(0.2, 0.7), t_end=0.5).validate()
        path = tmp_path / "bad.cfg"
        path.write_text("resolution = 16\nsnapshot_times = 0.2, 0.7\nt_end = 0.5\n")
        with pytest.raises(InvalidConfigError, match="snapshot_times"):
            load_config(path)

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


def _per_dimension_base_fields(grid, kind, random_amp, seed):
    """The default base fields by explicit formulas, written out for each
    dimension: the reference of the one construction."""
    if grid.dims == 2:
        v0 = vector_from_functions(
            grid,
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: -np.cos(x) * np.sin(y))
        theta0 = scalar_from_function(grid, lambda x, y: 2.0 + 0.5 * np.sin(x) * np.sin(y))
        chi = scalar_from_function(grid, lambda x, y: 0.4 * np.cos(y))
        phi0 = scalar_from_function(grid, lambda x, y: 0.3 * np.sin(x))
    else:
        v0 = vector_from_functions(
            grid,
            lambda x, y, z: np.sin(x) * np.cos(y) * np.cos(z),
            lambda x, y, z: -np.cos(x) * np.sin(y) * np.cos(z),
            lambda x, y, z: np.zeros_like(z))
        theta0 = scalar_from_function(
            grid, lambda x, y, z: 2.0 + 0.5 * np.sin(x) * np.sin(y))
        chi = scalar_from_function(grid, lambda x, y, z: 0.4 * np.cos(y))
        phi0 = scalar_from_function(grid, lambda x, y, z: 0.3 * np.sin(x))
    if random_amp > 0.0:
        rng = np.random.default_rng(seed)
        v0 = v0 + random_amp * leray_p(random_smooth_vector(grid, rng))
        theta0 = theta0 + random_amp * random_smooth_scalar(grid, rng)
    if kind == "well":
        return BaseFields(v0, theta0, 0.0 * v0, 0.0 * phi0)
    return BaseFields(v0, theta0, gradient(chi), phi0)


def _coeff_bytes(*fields):
    return [c.tobytes() for c in stack(*fields)]


@pytest.mark.parametrize("amp", [0.0, 0.01])
@pytest.mark.parametrize("dims, resolution", [(2, 32), (3, 16)])
class TestOneConstruction:
    """One formula for 2D and 3D, and well-prepared data as the ill-prepared
    construction with zero oscillation sources, byte for byte."""

    @pytest.mark.parametrize("kind", ["ill", "well"])
    def test_base_fields_are_the_per_dimension_formulas(self, dims, resolution, amp, kind):
        grid = make_grid(dims, resolution)
        got = default_base_fields(grid, kind, amp, 7)
        expected = _per_dimension_base_fields(grid, kind, amp, 7)
        assert (_coeff_bytes(got.v0, got.theta0, got.qu0, got.phi0)
                == _coeff_bytes(expected.v0, expected.theta0, expected.qu0, expected.phi0))

    def test_well_data_are_the_ill_construction_on_the_well_base(self, dims, resolution,
                                                                 amp):
        grid = make_grid(dims, resolution)
        base, lam = default_base_fields(grid, "well", amp, 7), 0.05
        well, ill = gen_initial_data("well", lam, base), gen_initial_data("ill", lam, base)
        one = constant_scalar(grid, 1.0)
        assert (_coeff_bytes(well.rho, well.phi) == _coeff_bytes(ill.rho, ill.phi)
                == _coeff_bytes(one, poisson_solve(one, lam)))
        # u is v0 + qu0 = v0 + 0, which may flip the sign of a zero of v0
        assert _coeff_bytes(well.u) == _coeff_bytes(ill.u)
        assert all(np.array_equal(a, b) for a, b in zip(stack(well.u), stack(base.v0)))

    def test_well_base_with_a_source_raises(self, dims, resolution, amp):
        grid = make_grid(dims, resolution)
        well = default_base_fields(grid, "well", amp, 7)
        ill = default_base_fields(grid, "ill", amp, 7)
        for bad in (BaseFields(well.v0, well.theta0, ill.qu0, well.phi0),
                    BaseFields(well.v0, well.theta0, well.qu0, ill.phi0)):
            with pytest.raises(ValueError, match="well-prepared"):
                gen_initial_data("well", 0.05, bad)


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
        lim = limit.at(t)
        osc = build_oscillation(t, lam, pair.at(t))
        rho = constant_scalar(grid, 1.0)
        states.append(NSPState(rho, lim.v + osc.u_osc, lim.theta.copy(),
                               poisson_solve(rho, lam)))
    synthetic = Snapshots(np.asarray(times), states)
    return limit, pair, synthetic


class TestMeasureErrors:
    def test_identical_trajectories_have_zero_error(self, grid2d):
        times = np.linspace(0.0, 0.1, 3)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid2d, lam, times)
        # phi of the manufactured states equals phi_osc only if rho matches;
        # rebuild phi so every channel is exactly aligned
        for i, t in enumerate(times):
            osc = build_oscillation(t, lam, pair.at(t))
            from qnl.spectral import divergence, inverse_laplacian
            phi_osc = inverse_laplacian(divergence(osc.grad_phi_osc))
            synthetic.states[i].phi = phi_osc
        row = measure_errors(synthetic, limit, pair, lam, 3.0)
        assert row.e_rho < 1e-13
        assert row.e_u < 1e-12
        assert row.e_theta < 1e-13
        assert row.e_phi < 1e-12

    @pytest.mark.parametrize("dims, resolution", [(2, 16), (3, 12)])
    def test_rows_are_bitwise_the_whole_vector_formula(self, rng, dims, resolution):
        # The u and phi channels are formed component by component; their
        # values must be those of the whole-vector differences, bit for bit.
        # Every field fills the spectrum, and each draw is measured alone,
        # so a change in the order of the arithmetic shows in some row.
        grid = make_grid(dims, resolution)
        t, lam, s = np.array([0.03]), 0.05, 3.0
        for _ in range(8):
            lim = LimitState(smooth_vector(grid, rng), smooth_scalar(grid, rng))
            pair = GradientPair(gradient(smooth_scalar(grid, rng)),
                                gradient(smooth_scalar(grid, rng)))
            state = NSPState(smooth_scalar(grid, rng), smooth_vector(grid, rng),
                             smooth_scalar(grid, rng), smooth_scalar(grid, rng))
            osc = build_oscillation(t[0], lam, pair)
            row = measure_errors(Snapshots(t, [state]), Snapshots(t, [lim]),
                                 Snapshots(t, [pair]), lam, s)
            assert row.e_u == sobolev_norm(state.u - lim.v - osc.u_osc, s)
            assert row.e_phi == sobolev_norm(gradient(state.phi) - osc.grad_phi_osc, s + 1.0)

    def test_one_snapshot_of_fields_at_a_time(self):
        # Traced peak of a warm call at 12^3, in coefficient arrays: 15.3
        # with whole-vector differences and the previous snapshot's rotation
        # alive while the next was built, 10.3 with neither.
        grid = make_grid(3, 12)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid, lam, np.linspace(0.0, 0.1, 4))
        measure_errors(synthetic, limit, pair, lam, 3.0)  # build the held weights
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            measure_errors(synthetic, limit, pair, lam, 3.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (16 * np.prod(grid.spectral_shape)) < 12.0

    def test_theta_perturbation_measured_exactly(self, grid2d):
        times = np.linspace(0.0, 0.1, 3)
        lam = 0.05
        limit, pair, synthetic = _aligned_trajectories(grid2d, lam, times)
        bump = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        for state in synthetic.states:
            state.theta = state.theta + lam * bump
        row = measure_errors(synthetic, limit, pair, lam, 3.0)
        assert abs(row.e_theta - lam * sobolev_norm(bump, 3.0)) < 1e-12

    def test_pair_is_not_revalidated_per_snapshot(self, grid2d, monkeypatch):
        # build_oscillation used to check both pair slots for curl at every
        # snapshot, most of measure_errors' time on a 24^3 sweep
        import qnl.oscillation
        times = np.linspace(0.0, 0.1, 3)
        limit, pair, synthetic = _aligned_trajectories(grid2d, 0.05, times)
        calls = []
        original = qnl.oscillation.check_gradient
        monkeypatch.setattr(qnl.oscillation, "check_gradient",
                            lambda u: calls.append(u) or original(u))
        measure_errors(synthetic, limit, pair, 0.05, 3.0)
        assert calls == []

    def test_non_finite_state_gives_a_status_row(self, grid2d):
        # max(0.0, nan) is 0.0: a NaN used to vanish from the sup or not,
        # depending on the snapshot it fell in, and the row read ok
        times = np.linspace(0.0, 0.1, 3)
        limit, pair, synthetic = _aligned_trajectories(grid2d, 0.05, times)
        synthetic.states[1].u[0].coeffs[1, 2] = np.nan
        row = measure_errors(synthetic, limit, pair, 0.05, 3.0)
        assert row.status == "non_finite_measurement"
        assert all(np.isnan(row.channel(name)) for name in ERROR_CHANNELS)
        assert len(row.hs_norms) == len(times)  # its diag_*.csv is still written
        ok = [ReportRow(lam, e_u=2 * lam) for lam in (0.1, 0.05, 0.025)]
        assert abs(fit_rate(ok + [row], "E_u").slope - 1.0) < 1e-12

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
        keys = {"resolution": 16, "lambda_list": "0.1, 0.05, 0.025", "t_end": 0.1,
                "snapshots": 3, "output_dir": tmp_path / "out", **extra}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
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
        # The sweep's limit solve starts in the parent and goes on in a
        # forked child, which inherits the patch and records the snapshots
        # to a file once the solve is done.
        import pickle
        import qnl.harness
        from qnl.limit_solver import limit_states
        record = tmp_path / "sweep_limit.pkl"

        def recording_limit_states(*args):
            states = []
            for state in limit_states(*args):
                states.append(state)
                yield state
            record.write_bytes(pickle.dumps(states))

        monkeypatch.setattr(qnl.harness, "limit_states", recording_limit_states)
        path = self._write_config(tmp_path, lambda_list=0.1)
        run_sweep(load_config(path))
        snapshot_times = load_config(path).resolved_snapshot_times()
        states = pickle.loads(record.read_bytes())
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

    # `qnl limit` used to build the whole sweep plan, so an NSP run over the
    # step budget made it exit 2, though it runs no NSP solve
    @pytest.mark.parametrize("keys", [
        {"dt_max": 1e-12},
        {"lambda_list": "0.1, 0.05, 1e-300"},
        {"phase_resolution": 1000000000},
    ])
    def test_limit_is_not_bound_by_the_lambda_runs(self, tmp_path, keys):
        plain = tmp_path / "plain"
        plain.mkdir()
        path = self._write_config(plain, resolution=8, save_snapshots="true")
        assert cli_main(["limit", "--config", str(path)]) == 0
        path = self._write_config(tmp_path, resolution=8, save_snapshots="true", **keys)
        assert cli_main(["limit", "--config", str(path)]) == 0
        written = sorted(p.name for p in (plain / "out").iterdir())
        assert "limit.csv" in written and len(written) == 1 + 3 * 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written
        for name in written:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (plain / "out" / name).read_bytes()), name

    def test_limit_solves_the_limit_alone_and_keeps_no_node(self, tmp_path, monkeypatch):
        # No sweep plan, no whole-run limit solve, and no node store: the
        # limit's Hermite nodes, which only the sweep's pair solve reads, are
        # not even formed (run_limit kept all of them; node lists that kept
        # none still had each node's velocity and tendency stacked for them).
        def refuse(*args, **kwargs):
            raise AssertionError("qnl limit called a sweep function")

        monkeypatch.setattr(qnl.harness, "plan_sweep", refuse)
        monkeypatch.setattr(qnl.harness, "run_limit", refuse, raising=False)
        monkeypatch.setattr(qnl.limit_solver, "run_limit", refuse)
        monkeypatch.setattr(qnl.limit_solver, "LimitTrajectory", refuse)
        monkeypatch.setattr(qnl.cli, "LimitTrajectory", refuse, raising=False)
        calls = []

        def recording_limit_states(*args, **kwargs):
            calls.append((args, kwargs))
            return limit_states(*args, **kwargs)

        monkeypatch.setattr(qnl.cli, "limit_states", recording_limit_states)
        path = self._write_config(tmp_path, limit_dt=0.01)
        assert cli_main(["limit", "--config", str(path)]) == 0
        (args, kwargs), = calls
        # initial state, params, t_end, dt and the snapshot times: no nodes
        assert len(args) == 5 and kwargs == {}

    def test_check_subcommand(self, capsys):
        code = cli_main(["check", "--resolution", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_negative_dt_max_exits_instead_of_hanging(self, tmp_path, capsys):
        path = self._write_config(tmp_path, dt_max=-0.01)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "dt_max" in capsys.readouterr().err

    # each used to end in a ValueError traceback from PhysParams.validate; a
    # negative coupling then said "mu and kappa must be non-negative"
    @pytest.mark.parametrize("keys", [
        {"mu": 0, "kappa": 0.05},
        {"nu": -1},
        {"dissipation_coupling": -0.2, "euler_mode": "true"},
    ])
    def test_bad_physical_parameters_are_config_errors(self, tmp_path, capsys, keys):
        path = self._write_config(tmp_path, **keys)
        with pytest.raises(InvalidConfigError):
            load_config(path)
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and next(iter(keys)) in err  # the first key is the bad one

    # explicit times ending before t_end used to run to their last time (exit
    # 0), while meta.txt echoed t_end and the snapshots they override
    @pytest.mark.parametrize("command", ["run", "limit"])
    def test_snapshot_times_that_end_before_t_end_are_config_errors(self, tmp_path, capsys,
                                                                   command):
        path = self._write_config(tmp_path, t_end=0.2, snapshot_times="0.05, 0.13")
        assert cli_main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "snapshot_times" in err and "t_end = 0.2" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        RunConfig(t_end=0.3, snapshot_times=(0.1, 0.1 + 0.2)).validate()  # within 1e-12

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

    # at 16^2, s_norm = nan and ic_random_amp = nan used to run with exit 0
    # (E = 0 in every row, and no perturbation); the t_end, snapshot_times
    # and ic_random_amp = inf cases ended in a ValueError traceback; a nan
    # lambda wrote a blow_up row; mu and nu = nan exited 2 on a BlowUpError
    @pytest.mark.parametrize("key, value", [
        ("s_norm", "nan"), ("ic_random_amp", "nan"), ("t_end", "nan"),
        ("t_end", "inf"), ("snapshot_times", "nan"), ("ic_random_amp", "inf"),
        ("lambda_list", "0.1, 0.05, nan"), ("mu", "nan"), ("nu", "nan"),
    ])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, key, value):
        path = self._write_config(tmp_path, **{key: value})
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, keys", [
        ("run", {"lambda_list": "0.1, 0.09999999, 0.05"}),
        ("run", {"snapshot_times": "0.05, 0.0500000001, 0.1", "save_snapshots": "true"}),
        ("limit", {"snapshot_times": "0.05, 0.0500000001, 0.1", "save_snapshots": "true"}),
    ])
    def test_colliding_file_names_are_config_errors(self, tmp_path, capsys, command, keys):
        path = self._write_config(tmp_path, **keys)
        assert cli_main([command, "--config", str(path)]) == 2
        assert "share the file name tag" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the second value used to win silently
    def test_repeated_key_is_a_config_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        path.write_text(path.read_text() + "resolution = 32\n")
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "key 'resolution' already set on line 1" in err and "run.cfg:6:" in err
        assert not (tmp_path / "out").exists()

    # s_norm = 1e6 used to give ok rows with E_u = nan, the other channels
    # 0, and exit code 0: (1 + k^2)^s overflowed in every norm
    def test_overflowing_s_norm_is_a_config_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path, resolution=8, s_norm=1e6, t_end=0.02,
                                  snapshots=2)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "s_norm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each passed validate, and the sweep then ran without end; plan_sweep
    # catches them all before the fork, with the CFL step, and stage_plan
    # the stage's in qnl limit before its solve
    @pytest.mark.parametrize("command, keys", [
        ("run", {"phase_resolution": 1000000000}),
        ("run", {"dt_max": 1e-12}),
        ("run", {"limit_dt": 1e-300}),
        ("run", {"lambda_list": "0.1, 0.05, 1e-300"}),
        ("run", {"ic_random_amp": 1e6, "ic": "well"}),
        ("limit", {"ic_random_amp": 1e6, "ic": "well"}),
        ("limit", {"limit_dt": 1e-300}),
    ])
    def test_runs_over_the_step_budget_are_config_errors(self, tmp_path, capsys,
                                                         command, keys):
        path = self._write_config(tmp_path, resolution=8, **keys)
        start = time.perf_counter()
        assert cli_main([command, "--config", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each used to end in a FileNotFoundError or UnicodeDecodeError
    # traceback with exit code 1, the code of a failed row
    @pytest.mark.parametrize("name, content", [("nope.cfg", None),
                                               ("latin.cfg", b"resolution = 8\xff\n")],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, name,
                                                      content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read the config file") and str(path) in err
        assert sorted(tmp_path.iterdir()) == ([path] if content is not None else [])

    # an empty output_dir, or one that names a file, used to fail with a
    # traceback and exit code 1 after the whole solve; one under a file,
    # when the sweep made its staging directory
    @pytest.mark.parametrize("command", ["run", "limit"])
    @pytest.mark.parametrize("output_dir", ["", "afile", "afile/sub"],
                             ids=["empty", "a-file", "under-a-file"])
    def test_bad_output_dir_is_a_config_error(self, tmp_path, capsys, command, output_dir):
        (tmp_path / "afile").write_text("")
        path = self._write_config(
            tmp_path, output_dir=tmp_path / output_dir if output_dir else "")
        before = sorted(tmp_path.iterdir())
        start = time.perf_counter()
        assert cli_main([command, "--config", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: output_dir")
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_text() == ""

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code = cli_main(["run", "--config", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _no_libc(name):
    raise OSError(f"cannot open {name}")


# A warm-up and a measured two-step NSP run at 24^3, where every coefficient
# and sample array sits just under glibc's default 128 KiB thresholds.
_FAULT_PROBE = """
import resource
from qnl.cli import keep_freed_heap
from qnl.harness import RunConfig, base_fields, gen_initial_data
from qnl.nsp import run_nsp

keep_freed_heap()
config = RunConfig(dims=3, resolution=24, s_norm=3.5)
lam = 0.05
initial = gen_initial_data(config.ic, lam, base_fields(config))
run = lambda: run_nsp(initial, config.nsp_params(lam), lam, 0.01, dt=0.005)
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestKeepFreedHeap:
    # Without the policy the measured run faulted its freed temporaries
    # back in: 4690 minor faults, against 2 with it.
    @pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
    def test_a_warm_24_cubed_nsp_run_faults_no_pages_back_in(self):
        src = Path(qnl.cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["no-libc", "no-mallopt"])
    def test_cli_runs_where_libc_has_no_mallopt(self, monkeypatch, capsys, cdll):
        monkeypatch.setattr(qnl.cli.ctypes, "CDLL", cdll)
        assert cli_main(["check", "--resolution", "16"]) == 0
        assert "FAIL" not in capsys.readouterr().out


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


# Small configs from which any key may take an extreme value; the slow
# ones are those the step budget rejects before anything runs.
CONFIG_KEYS = st.fixed_dictionaries({
    "t_end": st.sampled_from([0.005, 0.02]),
    "snapshots": st.sampled_from([2, 3]),
}, optional={
    "dims": st.sampled_from([2, 3]),
    "s_norm": st.sampled_from([3.5, 10.0, 1e6]),
    "lambda_list": st.sampled_from(["0.1, 0.05, 0.025", "2.0, 1.0, 0.5",
                                    "0.1, 0.05, 1e-300"]),
    "mu": st.sampled_from([0.0, 0.05, 0.4, 5.0]),
    "nu": st.sampled_from([0.0, -0.05, 0.1]),
    "kappa": st.sampled_from([0.0, 0.05]),
    "euler_mode": st.sampled_from(["true", "false"]),
    "ic": st.sampled_from(["ill", "well"]),
    "ic_random_amp": st.sampled_from([0.0, 0.05, 5.0, 1e6]),
    "dt_max": st.sampled_from([1.0, 0.01, 1e-12]),
    "phase_resolution": st.sampled_from([4, 16, 1000000000]),
    "limit_dt": st.sampled_from([0.01, 1e-300]),
})


@settings(max_examples=25, derandomize=True, deadline=None)
@given(keys=CONFIG_KEYS)
def test_small_configs_end_in_rows_or_a_status(tmp_path_factory, keys):
    # exit 0, 1 or 2; an escaping exception (a traceback) fails here; no ok
    # row holds a non-finite error
    out = tmp_path_factory.mktemp("sweep")
    keys = {"resolution": 8, "output_dir": out / "out", **keys}
    path = out / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        lines = (out / "out" / "report.csv").read_text().splitlines()[1:]
        for fields in (line.split(",") for line in lines):
            if fields[-1] == "ok":
                assert np.isfinite([float(x) for x in fields[1:5]]).all(), fields
