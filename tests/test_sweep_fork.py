"""The sweep's forked child: schedule, stream, failures and equivalence.

`run_sweep` forks a child that alone solves the limit and pair stage,
sending it one snapshot at a time, t = 0 first; then the child runs its
share of the lambda values while the parent runs the rest, each process
measuring its own runs and writing their files into a staging directory
in the nearest existing directory above the output directory.  A patch made here before the sweep is
inherited by the child, which alone meets a patched stage (`stage_then`).
Every test ends with no child process left, and every sweep, failed or
not, with no staging directory.
"""

import gc
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import qnl.ansatz
import qnl.harness
import qnl.stepping
from qnl.ansatz import solve_osc
from qnl.cli import main as cli_main
from qnl.errors import (BlowUpError, ChildLostError, DensityNotPositiveError,
                        NonpositiveTemperatureError)
from qnl.harness import (DIAG_HEADER, NSP_STEP_TRANSFORMS, STAGE_ONCE_TRANSFORMS,
                         STAGE_STEP_TRANSFORMS, ConvergenceReport, ReportRow, RunConfig,
                         _child_share, _diag_line, _lambda_independent_stage,
                         _make_staging, _Run, _run_dir, _write_outputs, base_fields,
                         file_tag, fit_all_rates, gen_initial_data, lpt_assign,
                         measure_errors, plan_sweep, run_sweep, stage_plan)
from qnl.limit_solver import LimitState, LimitTrajectory, run_limit
from qnl.limit_solver import advective_dt
from qnl.nsp import nsp_dt, run_nsp, viscous_dt
from qnl.oscillation import GradientPair
from qnl.spectral import (SpectralScalar, TorusGrid, gradient, laplacian, make_grid,
                          write_snapshot)
from qnl.stepping import substep_count

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


def assert_nothing_staged(directory):
    """No staging directory is left in directory, the output directory's
    parent."""
    assert not [p.name for p in directory.iterdir() if p.name.endswith(".staging")]


def stage_then(action, items=0):
    """A _lambda_independent_stage that yields its first `items` items (the
    first is t = 0), then calls action(); only the child runs it."""
    real = qnl.harness._lambda_independent_stage

    def stage(config, base, dt):
        run = real(config, base, dt)
        for _ in range(items):
            yield next(run)
        action()
        yield from run
    return stage


def solve_stage(config, base, dt):
    """Every snapshot of the streamed stage, in one process."""
    return list(_lambda_independent_stage(config, base, dt))


def whole_limit(config, base, dt):
    """The limit solve of the whole run with step dt, every Hermite node
    kept, in one process."""
    return run_limit(LimitState(base.v0.copy(), base.theta0.copy()), config.limit_params(),
                     config.t_end, dt=dt, snapshot_times=config.resolved_snapshot_times())


def no_op(t, state):
    pass


def test_child_exception_is_reraised_with_type_and_message(
        tmp_path, monkeypatch, capsys, deadline):
    def fail():
        raise NonpositiveTemperatureError("limit temperature lost positivity at t = 0.0125")

    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage", stage_then(fail))
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("items", [0, 1], ids=["before", "after-first-message"])
def test_killed_child_raises_child_lost_error(tmp_path, monkeypatch, deadline, items):
    # killed before it sends the stage at t = 0, or after that first message
    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage",
                        stage_then(lambda: os.kill(os.getpid(), signal.SIGKILL), items))
    config = RunConfig(output_dir=str(tmp_path / "out"), **dict(SMALL, snapshots=3))
    with pytest.raises(ChildLostError, match="exit code -9"):
        run_sweep(config)
    assert not (tmp_path / "out").exists()
    assert_nothing_staged(tmp_path)
    assert_no_child_left()


def test_only_the_forked_child_solves_the_stage(tmp_path, monkeypatch, deadline):
    # The parent used to form the stage at t = 0 and fork, and the child went
    # on with the same generator.  Each call of the stage writes its process
    # id to a file, since the child leaves by os._exit.
    called, forked = tmp_path / "stage_pids.txt", []
    real = qnl.harness._lambda_independent_stage

    def recording(config, base, dt):
        with open(called, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(config, base, dt)

    class Forked(qnl.harness._Forked):
        def __init__(self, config, base, plan, staging):
            super().__init__(config, base, plan, staging)  # in the child, never returns
            forked.append(self.pid)

    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage", recording)
    monkeypatch.setattr(qnl.harness, "_Forked", Forked)
    assert run_sweep(RunConfig(output_dir=str(tmp_path / "out"), **SMALL)).all_ok
    assert_no_child_left()
    assert len(forked) == 1 and forked[0] != os.getpid()
    assert called.read_text().split() == [str(forked[0])]


def test_the_staging_directory_is_empty_at_the_fork(tmp_path, monkeypatch, deadline):
    # Each process makes a run's directory, with its diag header, as it
    # measures the run's first snapshot, so nothing is staged at the fork.
    listed = []

    class Forked(qnl.harness._Forked):
        def __init__(self, *args, **kwargs):
            listed.append(os.listdir(args[-1]))  # the staging directory
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(qnl.harness, "_Forked", Forked)
    assert run_sweep(RunConfig(output_dir=str(tmp_path / "out"), **SMALL)).all_ok
    assert_no_child_left()
    assert_nothing_staged(tmp_path)
    assert listed == [[]]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_failure_kills_and_reaps_the_child(tmp_path, monkeypatch, deadline,
                                                  error):
    # The child would outlive the test by far if the parent did not kill it.
    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage",
                        stage_then(lambda: time.sleep(600)))

    def failing_run_nsp(*args, **kwargs):
        raise error("NSP run failed")

    monkeypatch.setattr(qnl.harness, "run_nsp", failing_run_nsp)
    config = RunConfig(output_dir=str(tmp_path / "out"), **SMALL)
    with pytest.raises(error, match="NSP run failed"):
        run_sweep(config)
    assert_no_child_left()
    assert not (tmp_path / "out").exists()
    assert_nothing_staged(tmp_path)


def serial_sweep(config: RunConfig, run_nsp=run_nsp, measure_errors=measure_errors):
    """The sweep's stages composed in one process, outputs written from the
    whole runs' trajectories; a run that raises BlowUpError becomes a
    blow_up row, and one whose initial density is not positive a
    density_not_positive row, and neither writes a diag or snapshot file.
    The stage step is stage_plan's; each NSP step is composed here from the
    solvers' bounds, not taken from plan_sweep."""
    base = base_fields(config)
    times = config.resolved_snapshot_times()
    limit_dt, _ = stage_plan(config, base)
    limit = whole_limit(config, base, limit_dt)
    pair = solve_osc(GradientPair(base.qu0.copy(), gradient(base.phi0)), limit,
                     config.limit_params(), config.t_end, dt=limit_dt,
                     snapshot_times=times, norm_s=config.s_norm)
    lap_max = laplacian(base.phi0).samples().max()
    rows, ended = [], []
    for lam in config.lambda_list:
        try:
            initial = gen_initial_data(config.ic, lam, base)
        except DensityNotPositiveError:
            rows.append(ReportRow(lam, status="density_not_positive"))
            continue
        viscous = viscous_dt(config.nsp_params(lam), base.v0.grid, 1.0 - lam * lap_max)
        dt = nsp_dt(advective_dt(initial.u), lam, config.phase_resolution, config.dt_max,
                    viscous)
        try:
            traj = run_nsp(initial, config.nsp_params(lam), lam, config.t_end, dt, times)
        except BlowUpError:
            rows.append(ReportRow(lam, status="blow_up"))
            continue
        rows.append(measure_errors(traj, limit, pair, lam, config.s_norm))
        ended.append((lam, traj, rows[-1].hs_norms))
    report = ConvergenceReport(config, rows, fit_all_rates(rows), pair.growth_factor)
    out = config.output_dir
    os.makedirs(out)
    for name, text in [("report.csv", report.report_csv()), ("rates.csv", report.rates_csv()),
                       ("meta.txt", report.meta_text())]:
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for lam, traj, norms in ended:
        lines = [_diag_line(t, state, hs, lam, config.s_norm)
                 for t, state, hs in zip(traj.times, traj.states, norms, strict=True)]
        with open(os.path.join(out, f"diag_lambda_{file_tag(lam)}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join([DIAG_HEADER, *lines]) + "\n")
        for t, state in zip(traj.times, traj.states) if config.save_snapshots else ():
            stem = os.path.join(out, f"snapshot_lambda_{file_tag(lam)}_t_{file_tag(t)}")
            write_snapshot(stem + "_rho.qnl", state.rho)
            write_snapshot(stem + "_u.qnl", state.u)


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
    assert_nothing_staged(tmp_path)
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


def child_messages(config):
    """The messages _child_share sends on config, run in this process, with
    the staging directory, empty at first, that its runs wrote into."""
    base = base_fields(config)
    staging = _make_staging(config)
    messages = []
    _child_share(messages.append, config, base, plan_sweep(config, base), staging)
    return messages, staging


def test_stage_messages_carry_one_interval_without_the_nodes(tmp_path, monkeypatch):
    # The child's stage messages, one per snapshot time, t = 0 first, hold
    # the stage item as the generator yields it: the limit state, the pair
    # potentials and the growth factor so far, equal byte for byte to the
    # whole-run solves; no Hermite node goes with them, and the stage keeps
    # the nodes of one interval only.  The last message holds the
    # child's runs, whose files are in the staging directory.
    config = RunConfig(output_dir=str(tmp_path / "out"), **dict(SMALL, snapshots=4))
    base = base_fields(config)
    plan = plan_sweep(config, base)
    times = config.resolved_snapshot_times()
    node_counts = []
    keep_last_node = LimitTrajectory.keep_last_node

    def counting(nodes):
        node_counts.append(len(nodes.node_times))
        keep_last_node(nodes)

    monkeypatch.setattr(LimitTrajectory, "keep_last_node", counting)
    messages, staging = child_messages(config)

    limit = whole_limit(config, base, plan.stage_step)
    pair = solve_osc(GradientPair(base.qu0.copy(), gradient(base.phi0)), limit,
                     config.limit_params(), config.t_end, dt=plan.stage_step,
                     snapshot_times=times, norm_s=config.s_norm)
    assert [kind for kind, _ in messages] == ["stage"] * len(times) + ["runs"]
    shape = base.v0.grid.spectral_shape
    for i, (_, (state, (q, psi), growth)) in enumerate(messages[:-1]):
        assert type(state) is LimitState and isinstance(growth, float)
        arrays = [*(c.coeffs for c in state.v), state.theta.coeffs, q, psi]
        assert len(arrays) == config.dims + 3
        assert all(type(a) is np.ndarray and a.shape == shape for a in arrays)
        assert [a.tobytes() for a in arrays[:-2]] == [
            c.coeffs.tobytes() for c in (*limit.states[i].v, limit.states[i].theta)]
        assert [c.coeffs.tobytes() for c in (*gradient(SpectralScalar(base.v0.grid, q)),
                                               *gradient(SpectralScalar(base.v0.grid, psi)))] \
            == [c.coeffs.tobytes() for c in (*pair.states[i].grad_q, *pair.states[i].grad_psi)]
    assert growth == pair.growth_factor  # the last stage item's
    runs = messages[-1][1]
    assert all(type(r) is _Run and r.status == "ok" for r in runs)
    assert sorted(r.lam for r in runs) == sorted(plan.child_lams)
    assert all(len(r.errors) == len(r.norms) == len(times) for r in runs)
    # the child makes its own runs' directories, and no other
    assert sorted(os.listdir(staging)) == sorted(
        os.path.basename(_run_dir(staging, lam)) for lam in plan.child_lams)
    for r in runs:
        diag = f"diag_lambda_{file_tag(r.lam)}.csv"
        assert os.listdir(_run_dir(staging, r.lam)) == [diag]
        with open(os.path.join(_run_dir(staging, r.lam), diag), encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 1 + len(times)
    # each interval's nodes: its steps, plus the node it starts from
    steps = [substep_count(b - a, plan.stage_step) for a, b in zip(times, times[1:])]
    assert node_counts == [1] + [n + 1 for n in steps]


def test_the_childs_last_message_carries_no_array(tmp_path):
    # An ns3d-shaped sweep with snapshot files: the child writes its runs'
    # files itself, so its last message holds statuses, errors and norms.
    config = RunConfig(save_snapshots=True, output_dir=str(tmp_path / "out"), **STOCK_3D)
    messages, staging = child_messages(config)
    kind, runs = messages[-1]
    assert kind == "runs" and runs
    assert len(pickle.dumps(messages[-1], pickle.HIGHEST_PROTOCOL)) < 1024
    for run in runs:
        names = os.listdir(_run_dir(staging, run.lam))
        assert len(names) == 1 + 2 * config.snapshots  # the diag and rho, u per snapshot


def grids_by_shape():
    gc.collect()
    return Counter((o.dims, o.resolution) for o in gc.get_objects()
                   if type(o) is TorusGrid)


def test_the_parent_holds_one_grid_per_shape(tmp_path, monkeypatch, deadline):
    # An ns3d-shaped sweep: the stage the child sends lands on the parent's
    # own grid, so no second grid is built.
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

    # the parent measures its own runs, one snapshot a call
    parent_lams = plan_sweep(config, base_fields(config)).parent_lams
    assert len(received) == len(parent_lams) * config.snapshots
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


def test_failed_child_stage_raises_during_the_first_parent_run(tmp_path, monkeypatch,
                                                               deadline):
    # The parent reads the pipe at each of its snapshots; it used to wait
    # for a whole run, and before that for all of them, before reading the
    # child's failure.  Here the stage's second interval blows up.
    config = RunConfig(output_dir=str(tmp_path / "out"), **dict(SMALL, snapshots=5))
    parent = os.getpid()

    def blow_up():
        raise BlowUpError("oscillating pair blew up or is not finite at t = 0.0250")

    calls, finished = [], []

    def slow_run_nsp(*args):
        *head, on_snapshot = args

        def slow(t, state):
            if os.getpid() == parent:
                time.sleep(0.3)
            on_snapshot(t, state)

        calls.append(os.getpid())
        run_nsp(*head, slow)
        finished.append(os.getpid())

    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage", stage_then(blow_up, 2))
    monkeypatch.setattr(qnl.harness, "run_nsp", slow_run_nsp)
    with pytest.raises(BlowUpError,
                       match=r"^oscillating pair blew up or is not finite at t = 0\.0250$"):
        run_sweep(config)
    assert calls == [parent] and finished == []
    assert not (tmp_path / "out").exists()
    assert_nothing_staged(tmp_path)
    assert_no_child_left()


def slowed_sweeps(tmp_path, monkeypatch, config, who):
    """The sweep's output directory with the parent slowed at each of its
    snapshots (with a one-page pipe, which a stage message of 16^2
    overfills, for "parent-small-pipe"), or the child slowed after each
    stage interval."""
    parent = os.getpid()
    if who == "parent-small-pipe":
        monkeypatch.setattr(qnl.harness, "PIPE_BYTES", 4096)
    if who.startswith("parent"):
        def slow_run_nsp(*args):
            *head, on_snapshot = args

            def slow(t, state):
                if os.getpid() == parent:
                    time.sleep(0.05)
                on_snapshot(t, state)

            return run_nsp(*head, slow)

        monkeypatch.setattr(qnl.harness, "run_nsp", slow_run_nsp)
    else:
        real = qnl.harness._lambda_independent_stage

        def slow_stage(config, base, dt):
            for item in real(config, base, dt):
                yield item
                time.sleep(0.05)  # after each item, in the child only

        monkeypatch.setattr(qnl.harness, "_lambda_independent_stage", slow_stage)
    out = tmp_path / f"slow-{who}"
    run_sweep(replace(config, output_dir=str(out)))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("who", ["parent", "parent-small-pipe", "child"])
def test_a_slowed_side_writes_the_same_outputs(tmp_path, monkeypatch, deadline, who):
    # The parent measures a state only once the stage at its time has come,
    # however far one side runs ahead of the other, and reads a message in
    # as many parts as the pipe passes it.
    config = RunConfig(resolution=16, lambda_list=FOUR_LAMBDAS, t_end=0.1, snapshots=6,
                       ic_random_amp=0.01, save_snapshots=True,
                       output_dir=str(tmp_path / "plain"))
    assert plan_sweep(config, base_fields(config)).child_lams
    slowed = slowed_sweeps(tmp_path, monkeypatch, config, who)
    assert_no_child_left()
    run_sweep(config)
    assert_no_child_left()
    assert_same_outputs(slowed, tmp_path / "plain")


def test_a_parent_run_that_fails_while_its_states_wait(tmp_path, monkeypatch, deadline):
    # The child is slowed, so the parent's states wait for the stage when
    # its first run blows up.  _run_share still measures them as the stage
    # comes, and _write_outputs leaves the failed run's files in the staging
    # directory, which is removed; the row is blow_up.
    config = RunConfig(resolution=16, lambda_list=FOUR_LAMBDAS, t_end=0.1, snapshots=6,
                       ic_random_amp=0.01, save_snapshots=True,
                       output_dir=str(tmp_path / "sweep"))
    plan = plan_sweep(config, base_fields(config))
    failing = max(plan.parent_lams, key=plan.lam_count.get)  # the parent's first run

    def blowing(initial, params, lam, t_end, dt, times, on_snapshot=None):
        if lam != failing:
            return run_nsp(initial, params, lam, t_end, dt, times, on_snapshot)
        if on_snapshot is None:  # the serial reference
            raise BlowUpError(f"NSP run failed at lambda = {lam}")

        def then_fail(t, state):
            on_snapshot(t, state)
            if t >= times[2]:
                raise BlowUpError(f"NSP run failed at lambda = {lam}")

        return run_nsp(initial, params, lam, t_end, dt, times, then_fail)

    real = qnl.harness._lambda_independent_stage

    def slow_stage(config, base, dt):
        for item in real(config, base, dt):
            yield item
            time.sleep(0.1)

    monkeypatch.setattr(qnl.harness, "run_nsp", blowing)
    monkeypatch.setattr(qnl.harness, "_lambda_independent_stage", slow_stage)
    report = run_sweep(config)
    assert_no_child_left()
    assert [row.status == "blow_up" for row in report.rows] == [
        lam == failing for lam in config.lambda_list]
    serial_sweep(replace(config, output_dir=str(tmp_path / "serial")), blowing)
    assert_same_outputs(tmp_path / "sweep", tmp_path / "serial")
    assert_nothing_staged(tmp_path)


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
    dict(resolution=16, ic="well", t_end=0.2, snapshots=4),
    CFL_BOUND,
    dict(dims=3, resolution=8, s_norm=3.5, t_end=0.03, snapshots=4),
], ids=["default", "limit_dt", "well", "cfl", "3d"])
def test_predicted_steps_equal_the_steps_taken(keys, step_counter):
    config = RunConfig(**keys)
    base = base_fields(config)
    plan = plan_sweep(config, base)
    solve_stage(config, base, plan.stage_step)
    assert len(step_counter) == 2 * plan.stage_count  # limit, then pair
    times = config.resolved_snapshot_times()
    for lam, steps in plan.lam_count.items():
        step_counter.clear()
        run_nsp(gen_initial_data(config.ic, lam, base), config.nsp_params(lam), lam,
                config.t_end, plan.lam_step[lam], times, no_op)
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
        return count_transforms(lambda: solve_stage(
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
    one_step = count_transforms(lambda: solve_stage(
        replace(config, t_end=dt), base, dt))
    assert one_step == STAGE_ONCE_TRANSFORMS[dims] + STAGE_STEP_TRANSFORMS[dims]


STAGE_CONFIGS = {"2d": RunConfig(resolution=16, t_end=0.1, snapshots=3),
                 "3d": RunConfig(dims=3, resolution=12, s_norm=3.5, t_end=0.05, snapshots=3)}


@pytest.mark.parametrize("name, calls", [("2d", 48), ("3d", 27)])
def test_stage_samples_v_once_per_new_stage_time(monkeypatch, name, calls):
    # The counts of a pair solve that held v for its last two stage times.
    # The 22 (12) steps would take 1 + 2 * 22 (1 + 2 * 12) samples if each
    # step's last stage time were bitwise the next step's first; 3 (2) of
    # these sums differ by an ulp.
    config = STAGE_CONFIGS[name]
    base = base_fields(config)
    sampled = []
    sample = qnl.ansatz.velocity_samples
    monkeypatch.setattr(qnl.ansatz, "velocity_samples",
                        lambda v: sampled.append(1) or sample(v))
    solve_stage(config, base, stage_plan(config, base)[0])
    assert len(sampled) == calls


@pytest.mark.parametrize("name", sorted(STAGE_CONFIGS))
def test_pair_solve_holds_one_velocity(monkeypatch, name):
    # no v that v_at returned is alive when the next one is asked for
    config = STAGE_CONFIGS[name]
    base = base_fields(config)
    given = []
    v_at = LimitTrajectory.v_at

    def recorded(self, t):
        alive = [ref for ref in given if ref() is not None]
        assert not alive, f"{len(alive)} earlier velocities alive at t = {t}"
        v = v_at(self, t)
        given.append(weakref.ref(v))
        return v

    monkeypatch.setattr(LimitTrajectory, "v_at", recorded)
    solve_stage(config, base, stage_plan(config, base)[0])
    assert len(given) > 1


def block_hermite(traj, t):
    """v_at's formula on (dims, *shape) blocks stacked from the nodes, the
    node layout before nodes held the settled state's own arrays."""
    times = traj.node_times
    i = int(np.searchsorted(times, t, side="right")) - 1
    h = times[i + 1] - times[i]
    s = (t - times[i]) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    v0, v1, d0, d1 = (np.stack(node) for node in (
        traj.v_nodes[i], traj.v_nodes[i + 1], traj.dv_nodes[i], traj.dv_nodes[i + 1]))
    return h00 * v0 + h01 * v1 + h * (h10 * d0 + h11 * d1)


def test_stage_holds_no_copy_of_its_nodes_or_inputs():
    # Traced peak of a warm stage at 16^3 (12 steps, 3 snapshots kept), in
    # coefficient arrays: 114.1 with stacked copies of each node, a held v
    # beside its samples and copied base fields; 98.1 without them.
    config = RunConfig(dims=3, resolution=16, s_norm=3.5, t_end=0.05, snapshots=3,
                       ic_random_amp=0.01)
    base = base_fields(config)
    dt = stage_plan(config, base)[0]
    inputs = (*base.v0, base.theta0, *base.qu0, base.phi0)
    before = [c.coeffs.tobytes() for c in inputs]
    solve_stage(config, base, dt)  # warm every held weight and factor
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        items = solve_stage(config, base, dt)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    del items
    assert peak / (16 * np.prod(base.v0.grid.spectral_shape)) <= 104
    assert [c.coeffs.tobytes() for c in inputs] == before

    # between nodes, v_at is the stacked-block formula bit for bit
    traj = whole_limit(config, base, dt)
    times = traj.node_times
    for t in (0.3 * times[0] + 0.7 * times[1], 0.5 * (times[5] + times[6]),
              0.9 * times[-2] + 0.1 * times[-1]):
        got = traj.v_at(t)
        for c, row in zip(got, block_hermite(traj, t), strict=True):
            assert c.coeffs.tobytes() == row.tobytes()


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
        run_nsp(gen_initial_data(config.ic, lam, base), config.nsp_params(lam), lam,
                config.t_end, plan.lam_step[lam], times, no_op)
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
    # after a SIGKILL, the child removes the staging directory as it leaves
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


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


@pytest.mark.parametrize("who", ["parent", "child"])
def test_a_run_that_blows_up_midway_leaves_no_file(tmp_path, monkeypatch, deadline, who):
    # The run's first states are measured, and their files staged, before
    # it blows up; none of them reaches the output directory, while every
    # ok run's files do.
    config, child_lams = child_config(tmp_path, CHILD_CASES[0])
    failing = (child_lams if who == "child"
               else plan_sweep(config, base_fields(config)).parent_lams)[0]
    staged = tmp_path / "staged.txt"

    def blowing(initial, params, lam, t_end, dt, times, on_snapshot):
        def then_fail(t, state):
            on_snapshot(t, state)
            if lam == failing and t >= times[1]:
                staged.write_text("\n".join(
                    p.name for p in tmp_path.glob(f"*.staging/lambda_{file_tag(lam)}/*")))
                raise BlowUpError(f"NSP run failed at lambda = {lam}")

        return run_nsp(initial, params, lam, t_end, dt, times, then_fail)

    monkeypatch.setattr(qnl.harness, "run_nsp", blowing)
    report = run_sweep(config)
    assert_no_child_left()
    assert [row.status for row in report.rows] == [
        "blow_up" if lam == failing else "ok" for lam in config.lambda_list]
    names = [p.name for p in (tmp_path / "sweep").iterdir()]
    for lam in config.lambda_list:
        tag = file_tag(lam)
        files = [name for name in names if name == f"diag_lambda_{tag}.csv"
                 or name.startswith(f"snapshot_lambda_{tag}_t_")]
        assert len(files) == (0 if lam == failing else 1 + 2 * config.snapshots), lam
    assert_nothing_staged(tmp_path)
    if who == "child":  # which measures each state at once: two states were staged
        assert len(staged.read_text().split()) == 1 + 2 * 2


class NaNTemperature:
    """A limit trajectory whose temperature reads NaN at every time."""

    def __init__(self, limit):
        self.limit = limit

    def at(self, t):
        state = self.limit.at(t)
        return LimitState(state.v, state.theta * float("nan"))


def non_finite_at(lams):
    """measure_errors whose E_theta is NaN at the lambda values lams."""
    def measure(nsp_traj, limit_traj, pair_traj, lam, s):
        if lam in lams:
            limit_traj = NaNTemperature(limit_traj)
        return measure_errors(nsp_traj, limit_traj, pair_traj, lam, s)
    return measure


def test_every_run_that_ended_writes_its_diag_file(tmp_path, monkeypatch, deadline):
    # A run that ended writes its diag_*.csv even when its row reads
    # non_finite_measurement; a run that failed (lambda = 4.0 makes the
    # initial density negative) writes none.
    config = RunConfig(resolution=16, lambda_list=(4.0, 0.1), t_end=0.05, snapshots=3,
                       output_dir=str(tmp_path / "sweep"))
    measure = non_finite_at([0.1])
    monkeypatch.setattr(qnl.harness, "measure_errors", measure)
    report = run_sweep(config)
    assert_no_child_left()
    assert [row.status for row in report.rows] == ["density_not_positive",
                                                   "non_finite_measurement"]
    names = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert [name for name in names if name.startswith("diag_")] == ["diag_lambda_0.1.csv"]
    serial_sweep(replace(config, output_dir=str(tmp_path / "serial")), measure_errors=measure)
    assert_same_outputs(tmp_path / "sweep", tmp_path / "serial")


def test_a_run_that_fails_before_its_first_snapshot_stages_nothing(tmp_path, monkeypatch,
                                                                   deadline):
    # lambda = 4.0 makes the initial density negative, so gen_initial_data
    # raises before the run's first snapshot, which would make its directory.
    config = RunConfig(resolution=16, lambda_list=(4.0, 0.1, 0.05), t_end=0.05, snapshots=3,
                       save_snapshots=True, output_dir=str(tmp_path / "sweep"))
    staged = []

    def writing(config, report, runs, staging):
        staged.append(sorted(os.listdir(staging)))
        return _write_outputs(config, report, runs, staging)

    monkeypatch.setattr(qnl.harness, "_write_outputs", writing)
    report = run_sweep(config)
    assert_no_child_left()
    assert [row.status for row in report.rows] == ["density_not_positive", "ok", "ok"]
    assert staged == [sorted(f"lambda_{file_tag(lam)}" for lam in (0.1, 0.05))]
    assert_nothing_staged(tmp_path)


def test_child_lambda_error_is_reraised_and_the_child_reaped(tmp_path, monkeypatch,
                                                              deadline):
    config, child_lams = child_config(tmp_path, CHILD_CASES[0])
    monkeypatch.setattr(qnl.harness, "run_nsp", failing_at(child_lams, RuntimeError))
    with pytest.raises(RuntimeError,
                       match=rf"^NSP run failed at lambda = {child_lams[0]}$"):
        run_sweep(config)
    assert not (tmp_path / "sweep").exists()
    assert_nothing_staged(tmp_path)
    assert_no_child_left()


def open_descriptors():
    """The numbers of this process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd")
                             else "/dev/fd"))


def raise_nonpositive_temperature():
    raise NonpositiveTemperatureError("limit temperature lost positivity")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


# Each way a sweep can end: the harness names it patches (a stage action
# goes through stage_then), and the error the sweep raises.
SWEEP_ENDINGS = {
    "ok": ({}, None),
    "parent_error": ({"_lambda_independent_stage": lambda: time.sleep(600),
                      "run_nsp": failing_at(SMALL["lambda_list"], RuntimeError)},
                     RuntimeError),
    "child_error": ({"_lambda_independent_stage": raise_nonpositive_temperature},
                    NonpositiveTemperatureError),
    "child_lost": ({"_lambda_independent_stage": kill_self}, ChildLostError),
}


@pytest.mark.parametrize("ending", list(SWEEP_ENDINGS))
def test_a_sweep_leaves_the_parents_descriptors_as_they_were(tmp_path, monkeypatch,
                                                             deadline, ending):
    patches, error = SWEEP_ENDINGS[ending]
    for name, value in patches.items():
        if name == "_lambda_independent_stage":
            value = stage_then(value)
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
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if error is None else [])
