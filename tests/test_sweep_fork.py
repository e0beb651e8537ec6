"""The sweep's forked child: schedule, failures and equivalence.

`run_sweep` solves the limit and the pair system in a forked child, which
then runs its share of the lambda values while the parent runs the rest.
A patch made here before the sweep is inherited by the child.  Every test
ends with no child process left.
"""

import gc
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import qnl.harness
import qnl.stepping
from qnl.ansatz import solve_osc
from qnl.cli import main as cli_main
from qnl.errors import BlowUpError, ChildLostError, NonpositiveTemperatureError
from qnl.harness import (NSP_STEP_TRANSFORMS, STAGE_DT_CAP, STAGE_ONCE_TRANSFORMS,
                         STAGE_STEP_TRANSFORMS, ConvergenceReport, ReportRow, RunConfig,
                         _lambda_independent_stage, _run_one_lambda,
                         _write_outputs, base_fields, fit_all_rates,
                         gen_initial_data, lpt_assign, measure_errors,
                         plan_sweep, run_sweep, solve_limit)
from qnl.limit_solver import advective_dt
from qnl.nsp import nsp_dt, run_nsp, viscous_dt
from qnl.oscillation import GradientPair
from qnl.spectral import TorusGrid, gradient, laplacian, make_grid
from qnl.stepping import Snapshots

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
    def failing_solve_limit(config, base, dt):
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
    def killed_solve_limit(config, base, dt):
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
                        lambda config, base, dt: time.sleep(600))

    def failing_run_nsp(*args, **kwargs):
        raise error("NSP run failed")

    monkeypatch.setattr(qnl.harness, "run_nsp", failing_run_nsp)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    with pytest.raises(error, match="NSP run failed"):
        run_sweep(config)
    assert_no_child_left()


def serial_sweep(config: RunConfig, run_nsp=run_nsp):
    """The sweep's stages composed in one process, outputs written; a run
    that raises BlowUpError becomes a blow_up row.  Each step is composed
    here from the solvers' bounds, not taken from plan_sweep."""
    base = base_fields(config)
    times = config.resolved_snapshot_times()
    limit_dt = (min(advective_dt(base.v0), STAGE_DT_CAP) if config.limit_dt is None
                else config.limit_dt)
    limit = solve_limit(config, base, limit_dt)
    pair = solve_osc(GradientPair(base.qu0.copy(), gradient(base.phi0)), limit,
                     config.limit_params(), config.t_end, dt=limit_dt,
                     snapshot_times=times, norm_s=config.s_norm)
    lap_max = laplacian(base.phi0).samples().max()
    rows, trajectories = [], []
    for lam in config.lambda_list:
        initial = gen_initial_data(config.ic, lam, base)
        viscous = viscous_dt(config.nsp_params(lam), base.v0.grid, 1.0 - lam * lap_max)
        dt = nsp_dt(advective_dt(initial.u), lam, config.phase_resolution, config.dt_max,
                    viscous)
        try:
            traj = run_nsp(initial, config.nsp_params(lam), lam, config.t_end, dt, times)
        except BlowUpError:
            rows.append(ReportRow(lam, status="blow_up"))
            trajectories.append(None)
            continue
        rows.append(measure_errors(traj, limit, pair, lam, config.s_norm))
        trajectories.append(traj)
    _write_outputs(config, ConvergenceReport(config, rows, fit_all_rates(rows),
                                             pair.growth_factor), trajectories)


@pytest.mark.parametrize("keys", [
    dict(dims=2, resolution=16, t_end=0.1, snapshots=3),
    dict(dims=3, resolution=16, s_norm=3.5, t_end=0.02, snapshots=2),
    # the viscous bound sets every NSP step: 0.0051 where dt_max gives 0.01
    dict(dims=2, resolution=16, mu=4.0, t_end=0.05, snapshots=3),
], ids=["2d", "3d", "2d-viscous"])
def test_sweep_outputs_equal_the_serial_stages_byte_for_byte(tmp_path, keys):
    config = RunConfig(lambda_list=(0.1, 0.05, 0.025), ic_random_amp=0.01,
                       save_snapshots=True, output_dir=str(tmp_path / "sweep"), **keys)
    assert run_sweep(config).all_ok
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


def test_stage_returns_the_limit_snapshots_without_the_nodes():
    # The stage's result is piped to the parent; the Hermite nodes of the
    # limit solve must not go with it.
    config = RunConfig(**SMALL)
    base = base_fields(config)
    limit, pair = _lambda_independent_stage(config, base, plan_sweep(config, base).stage_step)
    assert type(limit) is Snapshots and not hasattr(limit, "v_nodes")
    np.testing.assert_array_equal(limit.times, config.resolved_snapshot_times())
    assert len(limit.states) == len(pair.states) == len(limit.times)


def grids_by_shape():
    gc.collect()
    return Counter((o.dims, o.resolution) for o in gc.get_objects()
                   if type(o) is TorusGrid)


def test_the_parent_holds_one_grid_per_shape(tmp_path, monkeypatch, deadline):
    # An ns3d-shaped sweep: the limit and pair snapshots the child pipes
    # back unpickle onto the parent's own grid, so no second grid is built.
    config = RunConfig(dims=3, resolution=12, s_norm=3.5, lambda_list=(0.1, 0.05, 0.025),
                       t_end=0.01, snapshots=2, ic_random_amp=0.01, save_snapshots=True,
                       output_dir=str(tmp_path / "out"))
    grid = make_grid(3, 12)
    received, counts = [], []

    def measuring(traj, limit, pair, lam, s):
        received.append((limit, pair))
        return measure_errors(traj, limit, pair, lam, s)

    def writing(*args):
        counts.append(grids_by_shape())
        return _write_outputs(*args)

    monkeypatch.setattr(qnl.harness, "measure_errors", measuring)
    monkeypatch.setattr(qnl.harness, "_write_outputs", writing)
    run_sweep(config)
    assert_no_child_left()

    assert len(received) == 3
    for limit, pair in received:
        for state in limit.states:
            assert state.v.grid is grid and state.theta.grid is grid
            assert all(c.grid is grid for c in state.v)
        for state in pair.states:
            assert state.grid is grid and state.grad_psi.grid is grid
            assert all(c.grid is grid for c in (*state.grad_q, *state.grad_psi))
    assert counts[0][(3, 12)] == 1
    assert set(counts[0].values()) == {1}
    assert set(grids_by_shape().values()) == {1}


def test_failed_child_stage_raises_after_one_parent_run(tmp_path, monkeypatch,
                                                        deadline):
    # The parent polls the pipe between its lambda runs; it used to wait for
    # all of them before reading the child's failure.
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    assert len(plan_sweep(config, base_fields(config)).parent_lams) >= 2

    def failing_solve_limit(config, base, dt):
        raise NonpositiveTemperatureError("limit temperature lost positivity")

    calls = []

    def slow_run_nsp(*args, **kwargs):
        calls.append(1)  # counted in the parent only
        time.sleep(0.5)

    monkeypatch.setattr(qnl.harness, "solve_limit", failing_solve_limit)
    monkeypatch.setattr(qnl.harness, "run_nsp", slow_run_nsp)
    with pytest.raises(NonpositiveTemperatureError):
        run_sweep(config)
    assert len(calls) == 1
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


# -- schedule ----------------------------------------------------------------

def test_lpt_assigns_longest_first_to_the_least_loaded_machine():
    assert lpt_assign([3, 5, 4], [0, 0]) == [1, 0, 1]      # 5 | 4, then 3 on 4
    # Ties: equal costs go in list order, equal loads to the earlier machine.
    assert lpt_assign([2, 2, 2, 2], [0, 0]) == [0, 1, 0, 1]
    assert lpt_assign([2, 2, 2], [0, 3]) == [0, 0, 1]         # 2, 4 | 3, 5
    assert lpt_assign([1, 4, 1, 2], [0, 5]) == [1, 0, 0, 0]   # 4, 6, 7 | 5, 6
    assert lpt_assign([1, 4, 1, 2], [0, 6]) == [0, 0, 1, 0]   # 4, 6, 7 | 6, 7
    assert lpt_assign([6, 1, 1], [0, 2, 3]) == [0, 1, 1]      # 6 | 2, 3, 4 | 3
    assert lpt_assign([], [0, 1]) == []


def test_lpt_leaves_the_unloaded_machine_the_longest_job():
    rng = np.random.default_rng(7)
    for _ in range(200):
        costs = list(rng.integers(1, 50, size=rng.integers(1, 7)))
        owner = lpt_assign(costs, [0, int(rng.integers(1, 200))])
        assert owner[int(np.argmax(costs))] == 0


STOCK_2D = dict(t_end=0.0625, snapshots=3, ic_random_amp=0.01)
STOCK_3D = dict(dims=3, resolution=24, s_norm=3.5, lambda_list=(0.1, 0.05, 0.025),
                t_end=0.01, snapshots=2, ic_random_amp=0.01)


@pytest.mark.parametrize("keys, child", [
    (STOCK_2D, [0.05]),
    (dict(STOCK_2D, euler_mode=True), [0.05]),
    ({}, [0.05]),
    (STOCK_3D, [0.05]),
], ids=["64sq-short", "64sq-euler", "64sq-stock", "24cube"])
def test_split_of_the_benchmark_shaped_sweeps(keys, child):
    config = RunConfig(**keys)
    plan = plan_sweep(config, base_fields(config))
    assert list(plan.child_lams) == child
    assert sorted(plan.parent_lams + plan.child_lams, reverse=True) == list(config.lambda_list)


@pytest.mark.parametrize("keys", [
    dict(resolution=16, lambda_list=(0.1,), t_end=0.01, snapshots=2),
    dict(resolution=16, lambda_list=(0.1, 0.0125), t_end=2.0, snapshots=2),
    dict(resolution=16, lambda_list=(1.0, 0.5), limit_dt=1e-4, t_end=0.1, snapshots=2),
    dict(SMALL, limit_dt=0.04),
])
def test_parent_keeps_at_least_one_lambda(keys):
    config = RunConfig(**keys)
    plan = plan_sweep(config, base_fields(config))
    assert len(plan.child_lams) < len(config.lambda_list)


def test_the_parent_samples_the_cfl_steps_once_per_sweep(tmp_path, monkeypatch, deadline):
    # plan_sweep takes the CFL steps of v0 and of the NSP initial velocity
    # once, before the fork; every lambda run used to take its own, and the
    # split took both again.  The child's calls land in its own copy of calls.
    calls = []

    def counted(u):
        calls.append(1)
        return advective_dt(u)

    monkeypatch.setattr(qnl.harness, "advective_dt", counted)
    config = RunConfig(resolution=16, lambda_list=FOUR_LAMBDAS, t_end=0.0625, snapshots=2,
                       output_dir=str(tmp_path / "out"))
    assert run_sweep(config).all_ok
    assert_no_child_left()
    assert len(calls) == 2


@pytest.fixture
def step_counter(monkeypatch):
    """Counts the Lawson steps integrate takes, without doing their work:
    integrate fixes dt before its loop, so the count does not depend on
    what a step computes, and the settled state stays the initial one."""
    steps = []
    monkeypatch.setattr(qnl.stepping, "lawson_rk4_step",
                        lambda y, *args, **kwargs: steps.append(1) or y)
    return steps


# The NSP CFL step (about 0.15 at 16^2) binds below the phase and dt_max bounds.
CFL_BOUND = dict(resolution=16, lambda_list=(2.0, 1.0), phase_resolution=4,
                 dt_max=1.0, t_end=1.0, snapshots=3)


@pytest.mark.parametrize("keys", [
    {},
    dict(resolution=16, limit_dt=0.0123, t_end=0.2, snapshots=5),
    dict(resolution=16, ic="well", t_end=0.2, snapshot_times=(0.05, 0.13)),
    CFL_BOUND,
    dict(dims=3, resolution=8, s_norm=3.5, t_end=0.03, snapshots=4),
], ids=["default", "limit_dt", "well", "cfl", "3d"])
def test_predicted_steps_equal_the_steps_taken(keys, step_counter):
    config = RunConfig(**keys)
    base = base_fields(config)
    plan = plan_sweep(config, base)
    _lambda_independent_stage(config, base, plan.stage_step)
    assert len(step_counter) == 2 * plan.stage_count  # limit, then pair
    times = config.resolved_snapshot_times()
    for lam, steps in plan.lam_count.items():
        step_counter.clear()
        assert _run_one_lambda(config, base, lam, plan.lam_step[lam], times)[1] == "ok"
        assert len(step_counter) == steps, lam


def test_cfl_case_is_cfl_bound():
    config = RunConfig(**CFL_BOUND)
    base = base_fields(config)
    for lam in config.lambda_list:
        cfl = advective_dt(gen_initial_data(config.ic, lam, base).u)
        assert cfl < min(2 * np.pi * lam / config.phase_resolution, config.dt_max)


@pytest.mark.parametrize("euler_mode", [False, True], ids=["ns", "euler"])
@pytest.mark.parametrize("dims, resolution", [(2, 16), (3, 8)], ids=["2d", "3d"])
def test_cost_weights_are_the_transforms_of_one_step(count_transforms, dims,
                                                     resolution, euler_mode):
    # One more step of each solve costs exactly the weight in transforms.
    config = RunConfig(dims=dims, resolution=resolution, s_norm=3.5, snapshots=2,
                       euler_mode=euler_mode)
    base = base_fields(config)
    lam, dt = 0.05, 1e-3
    initial = gen_initial_data(config.ic, lam, base)

    def nsp(steps):
        return count_transforms(lambda: run_nsp(initial, config.nsp_params(lam), lam,
                                                steps * dt, dt=dt))

    def stage(steps):
        return count_transforms(lambda: _lambda_independent_stage(
            replace(config, t_end=steps * dt), base, dt))

    assert nsp(2) - nsp(1) == nsp(3) - nsp(2) == NSP_STEP_TRANSFORMS[dims]
    assert stage(2) - stage(1) == stage(3) - stage(2) == STAGE_STEP_TRANSFORMS[dims]


@pytest.mark.parametrize("euler_mode", [False, True], ids=["ns", "euler"])
@pytest.mark.parametrize("dims, resolution", [(2, 16), (3, 8)], ids=["2d", "3d"])
def test_stage_once_weight_is_the_transforms_of_a_one_step_stage(
        count_transforms, dims, resolution, euler_mode):
    config = RunConfig(dims=dims, resolution=resolution, s_norm=3.5, snapshots=2,
                       euler_mode=euler_mode)
    base, dt = base_fields(config), 1e-3
    one_step = count_transforms(lambda: _lambda_independent_stage(
        replace(config, t_end=dt), base, dt))
    assert one_step == STAGE_ONCE_TRANSFORMS[dims] + STAGE_STEP_TRANSFORMS[dims]


def test_predicted_steps_follow_the_viscous_bound(step_counter):
    # mu = 0.4 at 64^2: the viscous bound, not dt_max, sets every NSP step
    config = RunConfig(mu=0.4, t_end=0.125, snapshots=5)
    base = base_fields(config)
    plan = plan_sweep(config, base)
    unbounded = plan_sweep(replace(config, mu=0.05), base).lam_count
    times = config.resolved_snapshot_times()
    for lam, steps in plan.lam_count.items():
        assert steps > unbounded[lam]
        step_counter.clear()
        assert _run_one_lambda(config, base, lam, plan.lam_step[lam], times)[1] == "ok"
        assert len(step_counter) == steps, lam


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [int(word) for word in fh.read().split()]
    except FileNotFoundError:
        return []


def _running(pid):
    """False once pid has ended (a zombie waiting for its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs Linux /proc child lists")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_a_signalled_sweep_leaves_no_child(tmp_path, signum):
    # SIGTERM used to end the parent alone, and its child, re-parented,
    # computed on at full CPU.  Now the CLI unwinds on SIGTERM, killing
    # and reaping the child, and a child whose parent is gone (SIGKILL)
    # leaves within a tenth of a second.
    path = tmp_path / "run.cfg"
    path.write_text(f"output_dir = {tmp_path / 'out'}\n")  # the stock sweep, seconds long
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(qnl.harness.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "qnl.cli", "run", "--config", str(path)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        give_up = time.monotonic() + 30.0
        while not _children(proc.pid) and time.monotonic() < give_up:
            time.sleep(0.01)
        children = _children(proc.pid)
        assert children, "the sweep forked no child"
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    give_up = time.monotonic() + 2.0
    while any(map(_running, children)) and time.monotonic() < give_up:
        time.sleep(0.01)
    assert not any(map(_running, children))
    if signum == signal.SIGTERM:
        assert proc.returncode == 128 + signal.SIGTERM
        assert b"Traceback" not in err
    assert not (tmp_path / "out").exists()


# -- lambda runs in the child -------------------------------------------------

FOUR_LAMBDAS = (0.1, 0.05, 0.025, 0.0125)
CHILD_CASES = [
    dict(dims=2, resolution=16, t_end=0.1, snapshots=3),
    dict(dims=3, resolution=16, s_norm=3.5, t_end=0.02, snapshots=2),
]


def child_config(tmp_path, keys):
    config = RunConfig(lambda_list=FOUR_LAMBDAS, ic_random_amp=0.01,
                       save_snapshots=True, output_dir=str(tmp_path / "sweep"), **keys)
    child_lams = plan_sweep(config, base_fields(config)).child_lams
    assert child_lams
    return config, child_lams


def assert_same_outputs(sweep_dir, serial_dir):
    """Every output file equal byte for byte, meta.txt less its output_dir."""
    def outputs(directory):
        files = {p.name: p.read_bytes() for p in directory.iterdir()}
        files["meta.txt"] = [line for line in files["meta.txt"].decode().splitlines()
                             if not line.startswith("output_dir = ")]
        return files

    sweep, serial = outputs(sweep_dir), outputs(serial_dir)
    assert sorted(sweep) == sorted(serial)
    for name in sweep:
        assert sweep[name] == serial[name], name


@pytest.mark.parametrize("keys", CHILD_CASES, ids=["2d", "3d"])
def test_child_lambda_runs_equal_the_serial_stages_byte_for_byte(tmp_path, keys):
    config, _ = child_config(tmp_path, keys)
    run_sweep(config)
    assert_no_child_left()
    serial_sweep(replace(config, output_dir=str(tmp_path / "serial")))
    names = [p.name for p in (tmp_path / "sweep").iterdir()]
    assert sum(name.startswith("diag_") for name in names) == 4
    assert sum(name.endswith(".qnl") for name in names) == 4 * config.snapshots * 2
    assert_same_outputs(tmp_path / "sweep", tmp_path / "serial")


def failing_at(lams, error):
    """run_nsp that raises error at the lambda values lams."""
    def run(initial, params, lam, *args, **kwargs):
        if lam in lams:
            raise error(f"NSP run failed at lambda = {lam}")
        return run_nsp(initial, params, lam, *args, **kwargs)
    return run


def test_child_blow_up_is_the_serial_blow_up_row(tmp_path, monkeypatch):
    config, child_lams = child_config(tmp_path, CHILD_CASES[0])
    blowing = failing_at(child_lams[:1], BlowUpError)
    monkeypatch.setattr(qnl.harness, "run_nsp", blowing)
    report = run_sweep(config)
    assert_no_child_left()
    assert [row.status == "blow_up" for row in report.rows] == [
        lam == child_lams[0] for lam in config.lambda_list]
    serial_sweep(replace(config, output_dir=str(tmp_path / "serial")), blowing)
    assert_same_outputs(tmp_path / "sweep", tmp_path / "serial")


def test_child_lambda_error_is_reraised_and_the_child_reaped(tmp_path, monkeypatch,
                                                              deadline):
    config, child_lams = child_config(tmp_path, CHILD_CASES[0])
    monkeypatch.setattr(qnl.harness, "run_nsp", failing_at(child_lams, RuntimeError))
    with pytest.raises(RuntimeError,
                       match=rf"^NSP run failed at lambda = {child_lams[0]}$"):
        run_sweep(config)
    assert not (tmp_path / "sweep").exists()
    assert_no_child_left()


def open_descriptors():
    """The numbers of this process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd")
                             else "/dev/fd"))


def raise_nonpositive_temperature(config, base, dt):
    raise NonpositiveTemperatureError("limit temperature lost positivity")


def kill_self(config, base, dt):
    os.kill(os.getpid(), signal.SIGKILL)


# Each way a sweep can end: the harness names it patches, and the error the
# sweep raises.
SWEEP_ENDINGS = {
    "ok": ({}, None),
    "parent_error": ({"solve_limit": lambda config, base, dt: time.sleep(600),
                      "run_nsp": failing_at(SMALL["lambda_list"], RuntimeError)},
                     RuntimeError),
    "child_error": ({"solve_limit": raise_nonpositive_temperature},
                    NonpositiveTemperatureError),
    "child_lost": ({"solve_limit": kill_self}, ChildLostError),
}


@pytest.mark.parametrize("ending", list(SWEEP_ENDINGS))
def test_a_sweep_leaves_the_parents_descriptors_as_they_were(tmp_path, monkeypatch,
                                                             deadline, ending):
    patches, error = SWEEP_ENDINGS[ending]
    for name, value in patches.items():
        monkeypatch.setattr(qnl.harness, name, value)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    before = open_descriptors()
    if error is None:
        run_sweep(config)
    else:
        with pytest.raises(error):
            run_sweep(config)
    assert open_descriptors() == before
    assert_no_child_left()
