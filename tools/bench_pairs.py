#!/usr/bin/env python3
"""Alternating parent/change pairs of `bench/run.py`, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 16 \\
        --work /tmp/pairs --work /tmp/pairs2 --seeds 2400 --pairs 10 \\
        --seconds 8 --claim ns3d:peak_rss_mb --out BENCH_16.json

Both commits are exported with `git archive` into the sibling directories
WORK/parent and WORK/change, whose paths have equal length: the
interpreter's path strings, and with them the heap and `peak_rss_mb`, shift
with the length of the checkout's path.  For each workload, pair i runs
`bench/run.py` on seed SEEDS + i in both checkouts, one after the other, the
parent first in even pairs and the change first in odd ones.  Nothing under
`bench/` is touched; each checkout runs its own copy.

A second `--work` directory makes a second checkout pair, and every pair
runs there too, right after the first set's.  The heap layout, and with it
`peak_rss_mb`, can differ between two checkout pairs of the same commits,
so a claim made on one pair alone may not hold on another.

The summary gives, per set, workload and end-to-end metric, each side's
median and quartiles (`statistics.quantiles`, inclusive method), the pairs
the change won and lost (ties count for neither), and its verdict:

* a claimed metric is `gain` when the change is better in at least nine
  tenths of the pairs and its median beats the parent's by more than the
  parent's interquartile range, and `not met` otherwise;
* any other metric is `worse` when the change's median is worse than the
  parent's by more than the bound in BENCHMARK.json, `unresolved` when the
  parent's own interquartile range exceeds that bound, and `within bound`
  otherwise.

The verdict over the sets (`combine`) is `gain` only when the claim holds
in every set, and otherwise the worst verdict of any set.

`--stock N` adds N alternating pairs of the stock sweeps, `python -m
qnl.cli run` on each of `STOCK` (stock NS, stock Euler and stock 24^3), in
the same checkouts, and writes them under the record's `stock` key with
the same summary, against BENCHMARK.json's bounds of `wall_s`, `cpu_s` and
`peak_rss_mb`.  Each sweep runs in a new directory and is timed by a small
helper process (`STOCK_HELPER`), which spawns it and reads its CPU time and
`ru_maxrss` from `os.wait4`.  A spawned process's `ru_maxrss` starts from
the peak of the process that spawns it, so this tool cannot spawn the sweep
itself; the helper's own peak is far below a sweep's.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# The stock configs, by name: every key at its default but these.
STOCK = {"stock-ns": "", "stock-euler": "euler_mode = true\n",
         "stock-3d": "dims = 3\nresolution = 24\ns_norm = 3.5\n"}
STOCK_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Runs `qnl run` on run.cfg in its working directory, its standard output
# dropped, and prints its wall time, CPU time, peak and exit code.
STOCK_HELPER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qnl.cli", "run", "--config",
                     "run.cfg"], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "exit": os.waitstatus_to_exitcode(status)}))
"""


def checkout(rev: str, dest: Path) -> str:
    """Export the commit rev into dest with git archive; its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def bench_run(tree: Path, workload: str, seed: int, seconds: float):
    """One `bench/run.py` run in tree: (its JSON result, its machine record)."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    machine = next((json.loads(line.partition(": ")[2]) for line in lines
                    if line.startswith("machine: ")), None)
    return json.loads(lines[-1]), machine


def stock_run(tree: Path, text: str, run_dir: Path) -> dict:
    """One `qnl run` from tree's src on the config text, in the new
    directory run_dir, which is removed after: its STOCK_HELPER record."""
    run_dir.mkdir(parents=True)
    try:
        (run_dir / "run.cfg").write_text(text + "output_dir = out\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()),
                   PYTHONDONTWRITEBYTECODE="1", **{name: "1" for name in THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", STOCK_HELPER], cwd=run_dir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"the stock helper failed in {run_dir}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)
    finally:
        shutil.rmtree(run_dir)


def quartiles(values):
    if len(values) == 1:  # statistics.quantiles needs two
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metric: str, better: str, bound: float, claimed: bool) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    values = {side: [pair[side][metric] for pair in pairs] for side in SIDES}
    out = {}
    for side in SIDES:
        q1, median, q3 = quartiles(values[side])
        out.update({f"{side}_q1": q1, f"{side}_median": median, f"{side}_q3": q3})
    gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    wins, losses = sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)
    parent_median = out["parent_median"]
    iqr = out["parent_q3"] - out["parent_q1"]
    gap = out["change_median"] - parent_median
    out.update({"change_better_pairs": wins, "change_worse_pairs": losses,
                "median_rel": gap / parent_median,
                "parent_iqr_rel": iqr / parent_median})
    if claimed:
        held = wins >= math.ceil(0.9 * len(pairs)) and -sign * gap > iqr
        out["verdict"] = "gain" if held else "not met"
    elif sign * gap > bound * parent_median:
        out["verdict"] = "worse"
    elif iqr > bound * parent_median:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


# Verdicts of an unclaimed metric, worst first.
UNCLAIMED_ORDER = ("worse", "unresolved", "within bound")


def combine(verdicts, claimed: bool) -> str:
    """One verdict from the verdicts of the sets: a claim is a `gain` only
    if it is one in every set; any other metric takes its worst verdict."""
    if claimed:
        return "gain" if all(v == "gain" for v in verdicts) else "not met"
    return next(v for v in UNCLAIMED_ORDER if v in verdicts)


def run_pairs(sets, count: int, run, label: str) -> list:
    """count alternating pairs in each checkout pair of sets, the parent
    first in even pairs, one pair run in every set in turn: per set, the
    pairs {"first", "parent", "change"}, each side's run(tree, i)."""
    pairs = [[] for _ in sets]
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for k, trees in enumerate(sets):
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run(trees[side], i)
            pairs[k].append(pair)
            print(f"{label} set {k} pair {i}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                for name in pair["parent"] if isinstance(pair["parent"][name], float)),
                flush=True)
    return pairs


def summarize_sets(label: str, sets, pairs, metrics: dict, claimed) -> dict:
    """Each set's pairs and summary, and the verdicts over the sets, of the
    metrics (name -> BENCHMARK.json entry); claimed(name) tells a claim."""
    summaries = [{name: summarize(set_pairs, name, m["better"], m["bound"], claimed(name))
                  for name, m in metrics.items()} for set_pairs in pairs]
    for k, summary in enumerate(summaries):
        for name, s in summary.items():
            print(f"{label} set {k} {name}: {s['parent_median']:.4g} -> "
                  f"{s['change_median']:.4g} ({100 * s['median_rel']:+.1f}%, parent IQR "
                  f"{100 * s['parent_iqr_rel']:.1f}%, better in "
                  f"{s['change_better_pairs']}/{len(pairs[k])}): {s['verdict']}", flush=True)
    verdicts = {name: combine([summary[name]["verdict"] for summary in summaries],
                              claimed(name)) for name in metrics}
    for name, verdict in verdicts.items():
        print(f"{label} {name}: {verdict}", flush=True)
    return {"sets": [{"work": trees["parent"].parent.name, "pairs": set_pairs,
                      "summary": summary}
                     for trees, set_pairs, summary in zip(sets, pairs, summaries)],
            "verdicts": verdicts}


def stock_record(sets, configs: dict, count: int, metrics: dict) -> dict:
    """count pairs of `qnl run` on each config text (name -> text) in the
    checkout pairs of sets, summarized by summarize_sets, no claim made,
    with `all_exit_0`; the `stock` entry of the record."""
    record = {}
    for name, text in configs.items():
        pairs = run_pairs(sets, count,
                          lambda tree, i: stock_run(tree, text, tree.parent / "stock-run"),
                          name)
        record[name] = summarize_sets(name, sets, pairs,
                                      {m: metrics[m] for m in STOCK_METRICS},
                                      lambda metric: False)
        record[name]["all_exit_0"] = all(pair[side]["exit"] == 0 for set_pairs in pairs
                                         for pair in set_pairs for side in SIDES)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git rev)")
    parser.add_argument("--change", required=True, help="change commit (any git rev)")
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path, action="append",
                        help="new directory for the two checkouts; given twice, "
                             "the pairs run in both checkout pairs")
    parser.add_argument("--seeds", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--stock", type=int, default=0, metavar="N",
                        help="also N pairs of each stock `qnl run` sweep")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    if len(args.work) > 2:
        parser.error("at most two --work directories")
    for work in args.work:
        if work.exists():
            parser.error(f"{work} exists")
    sets = [{side: work / side for side in SIDES} for work in args.work]
    commits = {}
    for trees in sets:
        commits = {side: checkout(getattr(args, side), trees[side]) for side in SIDES}

    record = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "protocol": (f"{args.pairs} alternating parent/change pairs per workload, the "
                     "parent first in even pairs; both sides run from git-archive "
                     "checkouts whose paths have equal length (sibling directories "
                     f"named parent and change), in {len(sets)} checkout pair(s) "
                     f"({', '.join(work.name for work in args.work)}), each pair run in "
                     f"every set in turn; seeds {args.seeds}-{args.seeds + args.pairs - 1}; "
                     "written by tools/bench_pairs.py"),
        "parent": commits["parent"], "change": commits["change"],
        "claim": sorted(f"{w}:{m}" for w, m in claims) or None,
        "workloads": {}, "machine": None,
    }
    for workload in workloads:
        def bench(tree, i):
            result, record["machine"] = bench_run(tree, workload, args.seeds + i, args.seconds)
            return {**{key: result[key] for key in ("correct", "attempted", "failed")},
                    **{name: result["metrics"][name]["value"] for name in metrics}}

        pairs = run_pairs(sets, args.pairs, bench, workload)
        record["workloads"][workload] = {
            "seeds": [args.seeds + i for i in range(args.pairs)],
            **summarize_sets(workload, sets, pairs, metrics,
                             lambda name: (workload, name) in claims),
            "all_correct": all(pair[side]["correct"] and pair[side]["failed"] == 0
                               for set_pairs in pairs for pair in set_pairs
                               for side in SIDES)}
    if args.stock:
        record["stock_command"] = (
            f"python -m qnl.cli run --config C, timed by os.wait4 in a helper process; "
            f"{args.stock} alternating pairs per config, run as the workloads' pairs")
        record["stock"] = stock_record(sets, STOCK, args.stock, metrics)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
