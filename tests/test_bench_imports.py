"""The names bench/ takes from qnl exist, and its child process runs.

bench/child.py and bench/run.py import qnl names, and bench/tracer.py wraps
the qnl functions named in its SPANS and COUNTED tables by name.  A qnl
change that removes or renames one of them breaks `bench/run.py` (its
`--trace 1` mode for the tracer's names) without failing any other test.
The tracer also patches `LimitTrajectory.v_at` and reads the limit
trajectory's lists, and the micro mode calls the RHS functions directly, so
both modes of the child are run on a small sweep.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qnl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qnl_imports():
    """(file, module, name) of every qnl import in bench/*.py; name is None
    for a plain `import qnl.x`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qnl":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "qnl"]
    return found


def qnl_functions():
    """__name__ of every qnl function held by a qnl module, the names the
    tracer matches."""
    names = set()
    for info in pkgutil.iter_modules(qnl.__path__, "qnl."):
        module = importlib.import_module(info.name)
        names |= {getattr(value, "__name__", None) for value in vars(module).values()
                  if callable(value) and getattr(value, "__module__", "").startswith("qnl")}
    return names


def test_bench_qnl_imports_resolve():
    imports = qnl_imports()
    assert imports, "no qnl import found in bench/"
    missing = [f"{where}: {module}.{name}" for where, module, name in imports
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert missing == []


def test_tracer_targets_exist():
    tracer = bench_module("tracer")
    targets = set(tracer.SPANS) | set(tracer.COUNTED) | {"write_snapshot"}
    assert targets - qnl_functions() == set()


def test_child_trace_and_micro_modes_run(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("resolution = 16\nlambda_list = 0.1, 0.05, 0.025\n"
                      f"t_end = 0.05\nsnapshots = 2\noutput_dir = {tmp_path / 'out'}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for mode in ("trace", "micro"):
        done = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, str(config), str(tmp_path / mode)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert json.loads((tmp_path / mode).read_text())["rc"] == 0

    micro = json.loads((tmp_path / "micro").read_text())["micro_us"]
    assert set(micro) == {"nsp.rhs_us", "limit_solver.rhs_us", "ansatz.rhs_us",
                          "spectral.product_us", "spectral.fft_roundtrip_us"}
    trace = json.loads((tmp_path / "trace.trace").read_text())
    metrics = bench_module("tracer").layer_metrics(trace, 0)
    assert metrics["nsp.steps"][0] > 0
    # The tracer wraps only numpy.fft's n-d entry points, and spectral.py
    # calls numpy's pocketfft gufuncs directly, masked or not, so it sees no
    # transform.  Every transform of the step is 105, pinned by
    # test_cost_weights_are_the_transforms_of_one_step.
    assert metrics["nsp.fft_per_step"][0] == 0


def test_bench_pairs_verdicts():
    # tools/bench_pairs.py: the claim rule and the bound rule on made-up pairs
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def pairs(parent, change):
        return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]

    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    lower = [p - 1.0 for p in parent]
    gain = tool.summarize(pairs(parent, lower), "m", "lower", 0.05, claimed=True)
    assert gain["verdict"] == "gain" and gain["change_better_pairs"] == 10
    # nine wins suffice, eight do not; a tie counts for neither side
    nine = lower[:9] + [parent[9]]
    assert tool.summarize(pairs(parent, nine), "m", "lower", 0.05, True)["verdict"] == "gain"
    eight = lower[:8] + parent[8:]
    assert tool.summarize(pairs(parent, eight), "m", "lower", 0.05, True)["verdict"] == "not met"
    # a median gap inside the parent's interquartile range is no gain
    close = [p - 0.1 for p in parent]
    assert tool.summarize(pairs(parent, close), "m", "lower", 0.05, True)["verdict"] == "not met"
    assert tool.summarize(pairs(parent, lower), "m", "higher", 0.05, False)["verdict"] == "worse"
    assert tool.summarize(pairs(parent, close), "m", "lower", 0.05, False)["verdict"] \
        == "within bound"
    assert tool.summarize(pairs(parent, close), "m", "lower", 0.01, False)["verdict"] \
        == "unresolved"
    # two checkout pairs: a claim must hold in both; another metric takes its
    # worst verdict
    won = tool.summarize(pairs(parent, lower), "m", "lower", 0.05, True)["verdict"]
    lost = tool.summarize(pairs(parent, eight), "m", "lower", 0.05, True)["verdict"]
    assert tool.combine([won, won], True) == "gain"
    assert tool.combine([won, lost], True) == tool.combine([lost, won], True) == "not met"
    assert tool.combine(["within bound", "unresolved"], False) == "unresolved"
    assert tool.combine(["worse", "within bound"], False) == "worse"
