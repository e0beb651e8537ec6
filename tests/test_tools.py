"""The command-line tools under tools/ run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_memory_reports_every_phase(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"resolution = 8\nlambda_list = 0.1, 0.05\nt_end = 0.02\n"
                      f"snapshots = 2\noutput_dir = {tmp_path / 'out'}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_memory.py"),
                           str(config)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    phases = [line[:28].strip() for line in lines[1:]]
    # the split gives the parent at least one lambda; the child's runs are not reported
    assert phases[0] == "base_fields"
    assert phases[-7:] == ["child last message", "_write_outputs", "child peak (ru_maxrss)",
                           "stage message 1 (bytes)", "stage message 2 (bytes)",
                           "last message (bytes)",
                           "qnl run peak (ru_maxrss)"]
    assert phases[1:-7] and all(phase.startswith("lambda run ") for phase in phases[1:-7])
    assert lines[0].split()[-1] == "minflt"
    rss, hwm = (float(x) for x in lines[1].split()[1:3])
    assert 0 < rss <= hwm
    # the parent's faults so far never fall from one phase to the next
    faults = [int(line.split()[-1]) for line in lines[1:-5]]
    assert 0 < faults[0] and faults == sorted(faults)
    for line in (lines[-5], lines[-1]):  # the forked child's and the separate run's
        peak, peak_faults = line.split()[-2:]
        assert float(peak) > 0 and int(peak_faults) > 0
    # one stage item per snapshot time, t = 0 first: the limit state and
    # the pair potentials, 2 + 3 arrays of 8 * 5 complex coefficients (8^2)
    sizes = [int(line.split()[-1]) for line in lines[-4:-2]]
    assert min(sizes) > 5 * 8 * 5 * 16
    # the child's runs: statuses, errors and norms, no array
    assert 0 < int(lines[-2].split()[-1]) < 1024
    assert (tmp_path / "out" / "report.csv").exists()


def _compare_outputs(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                           *map(str, args)], capture_output=True, text=True, timeout=300)


def test_compare_outputs_tells_identical_from_different_runs(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("resolution = 16\nlambda_list = 0.1, 0.05, 0.025\nt_end = 0.05\n"
                      "snapshots = 3\noutput_dir = elsewhere\n")
    same = _compare_outputs("--src", ROOT / "src", ROOT / "src", "--config", config)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines()[0].startswith("small.cfg: identical (")
    assert same.stdout.splitlines()[1].startswith("small.cfg limit: identical (1 files,")

    # a tree whose E_u differs from the repo's in the tenth digit
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "qnl" / "harness.py", "a", encoding="utf-8") as fh:
        fh.write("\n_measure_errors = measure_errors\n\n\n"
                 "def measure_errors(*args):\n"
                 "    row = _measure_errors(*args)\n"
                 "    row.e_u *= 1.0 + 1e-9\n"
                 "    return row\n")
    differ = _compare_outputs("--src", ROOT / "src", other, "--config", config)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    assert differ.stdout.startswith("small.cfg: DIFFERENT: ")
    assert "report.csv" in differ.stdout and "diag_lambda_0.1.csv" not in differ.stdout
    assert differ.stdout.splitlines()[1].startswith("small.cfg limit: identical (")


def test_compare_outputs_tells_a_different_limit_file(tmp_path):
    # A tree whose `qnl limit` temperature at t_end differs in the tenth
    # digit: its cli module's limit_states, which the sweep does not call, so
    # `qnl run` agrees.  The patch goes before the module's __main__ block,
    # which `python -m qnl.cli` runs.
    config = tmp_path / "small.cfg"
    config.write_text("resolution = 16\nt_end = 0.05\nsnapshots = 3\nsave_snapshots = true\n")
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "qnl" / "cli.py"
    main_block = 'if __name__ == "__main__":'
    text = cli.read_text(encoding="utf-8")
    assert text.count(main_block) == 1
    cli.write_text(text.replace(main_block, (
        "_limit_states = limit_states\n\n\n"
        "def limit_states(*args):\n"
        "    states = list(_limit_states(*args))\n"
        "    last = states[-1]\n"
        "    states[-1] = LimitState(last.v, last.theta * (1.0 + 1e-9))\n"
        "    return states\n\n\n" + main_block)), encoding="utf-8")
    differ = _compare_outputs("--src", ROOT / "src", other, "--config", config)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    run, limit = differ.stdout.splitlines()
    assert run.startswith("small.cfg: identical (")
    assert limit == "small.cfg limit: DIFFERENT: limit.csv, limit_t_0.05_theta.qnl"


def test_bench_pairs_stock_record(tmp_path, monkeypatch):
    # one pair of a tiny `qnl run` (16^2, two lambda) in one checkout pair
    # whose two sides are this tree's src
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_pairs

    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "src").symlink_to(ROOT / "src")
    sets = [{side: tmp_path / side for side in bench_pairs.SIDES}]
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    text = "resolution = 16\nlambda_list = 0.1, 0.05\nt_end = 0.05\nsnapshots = 2\n"
    record = bench_pairs.stock_record(sets, {"tiny": text}, 1, metrics)
    assert list(record) == ["tiny"]
    entry = record["tiny"]
    assert entry["all_exit_0"]
    assert list(entry["verdicts"]) == list(bench_pairs.STOCK_METRICS)
    # One pair of ~0.2 s sweeps can read either way; its verdicts must only
    # be the sets' verdicts combined, as for any unclaimed metric.
    [one] = entry["sets"]
    for name, verdict in entry["verdicts"].items():
        assert verdict == bench_pairs.combine([one["summary"][name]["verdict"]], False)
    assert one["work"] == tmp_path.name
    [pair] = one["pairs"]
    assert pair["first"] == "parent"
    for side in bench_pairs.SIDES:
        assert set(pair[side]) == {*bench_pairs.STOCK_METRICS, "exit"}
        assert pair[side]["exit"] == 0
        assert all(pair[side][m] > 0 for m in bench_pairs.STOCK_METRICS)
    for name, summary in one["summary"].items():
        assert summary == bench_pairs.summarize(one["pairs"], name, metrics[name]["better"],
                                                metrics[name]["bound"], False)
        assert summary["parent_q1"] == summary["parent_median"] == summary["parent_q3"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(bench_pairs.SIDES)


def test_refine_record(tmp_path, monkeypatch, capsys):
    # 16^2 with two lambda: the stage step refined and coarsened, against
    # the finest run, and the temporal floor from the NSP step halved; then
    # the grid refined
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import refine

    monkeypatch.setattr(refine, "FLOOR_FACTOR", 2)
    config = tmp_path / "run.cfg"
    config.write_text("resolution = 16\nlambda_list = 0.1, 0.05\nt_end = 0.1\nsnapshots = 3\n")
    out = tmp_path / "refine.json"
    assert refine.main([str(config), "--mode", "stage", "--factors", "2", "1", "0.5",
                        "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["mode"] == "stage" and record["stage_step"] == 0.005
    assert record["against"] == 2 and record["floor_factor"] == 2 and record["floor"] > 0
    assert [run["factor"] for run in record["runs"]] == [2, 1, 0.5]
    assert [run["changes"] for run in record["runs"]] == [
        {"limit_dt": 0.0025}, {}, {"limit_dt": 0.01}]
    lams, channels = ["0.1", "0.05"], ["E_rho", "E_u", "E_theta", "E_phi"]
    for run in record["runs"]:
        assert run["status"] == {lam: "ok" for lam in lams}
        for table in (run["E"], run["move"]):
            assert list(table) == lams and all(list(row) == channels for row in table.values())
        assert all(e > 0 for row in run["E"].values() for e in row.values())
        assert run["slopes"] == {}  # a slope needs three lambda
        assert {ch: len(s) for ch, s in run["local_slopes"].items()} == dict.fromkeys(channels, 1)
        assert run["largest_move"] == max(m for row in run["move"].values() for m in row.values())
        assert run["over_floor"] == run["largest_move"] / record["floor"]
    finest = record["runs"][0]
    assert finest["largest_move"] == 0.0
    assert 0 < record["runs"][1]["largest_move"] < record["runs"][2]["largest_move"]
    printed = capsys.readouterr().out
    assert "k = 2 (limit_dt = 0.0025): largest move" in printed
    # each mode changes only existing keys, and only to valid values
    parsed = refine.harness.load_config(str(config))
    assert refine.refined(parsed, "nsp", 1.5, 0.005) == {"dt_max": 0.01 / 1.5,
                                                         "phase_resolution": 24}
    assert refine.refined(parsed, "snapshots", 4, 0.005) == {"snapshots": 9}
    with pytest.raises(ValueError, match="not an integer"):
        refine.refined(parsed, "nsp", 1.1, 0.005)
    with pytest.raises(ValueError, match="not an integer"):
        refine.refined(parsed, "resolution", 1.1, 0.005)
    # the grid refined to 24^2, against the finest run
    assert refine.main([str(config), "--mode", "resolution", "--factors", "1.5", "1",
                        "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert [run["changes"] for run in record["runs"]] == [{"resolution": 24}, {}]
    assert all(run["status"] == {lam: "ok" for lam in lams} for run in record["runs"])
    assert record["runs"][0]["largest_move"] == 0.0 < record["runs"][1]["largest_move"]
    assert "k = 1.5 (resolution = 24): largest move" in capsys.readouterr().out
    # a factor that gives an invalid config exits 2 before any run starts,
    # and so does a grid refinement of random initial data
    monkeypatch.setattr(refine, "sweep", lambda *args: pytest.fail("a run started"))
    for mode, factor, message in [("nsp", "0.125", "phase_resolution must be >= 4"),
                                  ("resolution", "0.25", "resolution must be even and >= 8"),
                                  ("resolution", "1.0625", "resolution must be even and >= 8")]:
        assert refine.main([str(config), "--mode", mode, "--factors", "1", factor,
                            "--out", str(tmp_path / "bad.json")]) == 2
        assert message in capsys.readouterr().err
    random = tmp_path / "random.cfg"
    random.write_text(config.read_text() + "ic_random_amp = 0.01\n")
    assert refine.main([str(random), "--mode", "resolution", "--factors", "1.5",
                        "--out", str(tmp_path / "bad.json")]) == 2
    assert "ic_random_amp = 0" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()
