"""The sweep's forked lambda-independent stage: failures and equivalence.

`run_sweep` solves the limit and the pair system in a forked child while
the parent runs the NSP solves.  A patch made here before the sweep is
inherited by the child.  Every test ends with no child process left.
"""

import os
import signal
import time
from dataclasses import replace

import pytest

import qnl.harness
from qnl.ansatz import solve_osc
from qnl.cli import main as cli_main
from qnl.errors import ChildLostError, NonpositiveTemperatureError
from qnl.harness import (ConvergenceReport, RunConfig, _write_outputs,
                         base_fields, fit_all_rates, gen_initial_data,
                         measure_errors, run_sweep, solve_limit)
from qnl.nsp import run_nsp
from qnl.oscillation import GradientPair
from qnl.spectral import gradient

SMALL = dict(resolution=16, lambda_list=(0.1, 0.05, 0.025), t_end=0.05,
             snapshots=2)


@pytest.fixture
def deadline():
    """Fail a test that would hang, after 60 s, instead of hanging."""
    def expire(*_):
        raise TimeoutError("the sweep did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exception_is_reraised_with_type_and_message(
        tmp_path, monkeypatch, capsys, deadline):
    def failing_solve_limit(config, base):
        raise NonpositiveTemperatureError("limit temperature lost positivity at t = 0.0125")

    monkeypatch.setattr(qnl.harness, "solve_limit", failing_solve_limit)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    with pytest.raises(NonpositiveTemperatureError,
                       match=r"^limit temperature lost positivity at t = 0\.0125$"):
        run_sweep(config)
    assert_no_child_left()

    path = tmp_path / "run.cfg"
    path.write_text(f"resolution = 16\nt_end = 0.05\nsnapshots = 2\n"
                    f"output_dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: limit temperature lost positivity" in err
    assert_no_child_left()


def test_killed_child_raises_child_lost_error(tmp_path, monkeypatch, deadline):
    def killed_solve_limit(config, base):
        os.kill(os.getpid(), signal.SIGKILL)  # runs in the child

    monkeypatch.setattr(qnl.harness, "solve_limit", killed_solve_limit)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    with pytest.raises(ChildLostError, match="exit code -9"):
        run_sweep(config)
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_failure_kills_and_reaps_the_child(tmp_path, monkeypatch, deadline,
                                                  error):
    # The child would outlive the test by far if the parent did not kill it.
    monkeypatch.setattr(qnl.harness, "solve_limit",
                        lambda config, base: time.sleep(600))

    def failing_run_nsp(*args, **kwargs):
        raise error("NSP run failed")

    monkeypatch.setattr(qnl.harness, "run_nsp", failing_run_nsp)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    with pytest.raises(error, match="NSP run failed"):
        run_sweep(config)
    assert_no_child_left()


def serial_sweep(config: RunConfig):
    """The sweep's stages composed in one process, outputs written."""
    base = base_fields(config)
    times = config.resolved_snapshot_times()
    limit, limit_dt = solve_limit(config, base)
    pair = solve_osc(GradientPair(base.qu0.copy(), gradient(base.phi0)), limit,
                     config.limit_params(), config.t_end, dt=limit_dt,
                     snapshot_times=times, norm_s=config.s_norm)
    rows, trajectories = [], []
    for lam in config.lambda_list:
        traj = run_nsp(gen_initial_data(config.ic, lam, base), config.nsp_params(lam),
                       lam, config.t_end, snapshot_times=times, norm_s=config.s_norm,
                       phase_resolution=config.phase_resolution, dt_max=config.dt_max)
        rows.append(measure_errors(traj, limit, pair, lam, config.s_norm))
        trajectories.append(traj)
    _write_outputs(config, ConvergenceReport(config, rows, fit_all_rates(rows),
                                             pair.growth_factor), trajectories)


@pytest.mark.parametrize("keys", [
    dict(dims=2, resolution=16, t_end=0.1, snapshots=3),
    dict(dims=3, resolution=16, s_norm=3.5, t_end=0.02, snapshots=2),
], ids=["2d", "3d"])
def test_sweep_outputs_equal_the_serial_stages_byte_for_byte(tmp_path, keys):
    config = RunConfig(lambda_list=(0.1, 0.05, 0.025), ic_random_amp=0.01,
                       save_snapshots=True, output_dir=str(tmp_path / "sweep"), **keys)
    run_sweep(config)
    assert_no_child_left()
    serial_sweep(replace(config, output_dir=str(tmp_path / "serial")))

    sweep = {p.name: p.read_bytes() for p in (tmp_path / "sweep").iterdir()}
    serial = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    assert sorted(sweep) == sorted(serial)
    assert sum(name.startswith("diag_") for name in sweep) == 3
    assert sum(name.endswith(".qnl") for name in sweep) == 3 * config.snapshots * 2
    for name in sweep:
        if name == "meta.txt":  # echoes output_dir
            continue
        assert sweep[name] == serial[name], name
    meta = [line for line in sweep["meta.txt"].decode().splitlines()
            if not line.startswith("output_dir = ")]
    assert meta == [line for line in serial["meta.txt"].decode().splitlines()
                    if not line.startswith("output_dir = ")]
