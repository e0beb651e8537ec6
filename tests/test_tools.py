"""The command-line tools under tools/ run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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
    assert same.stdout.startswith("small.cfg: identical (")

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
