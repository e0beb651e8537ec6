#!/usr/bin/env python3
"""Alternating parent/change pairs of `bench/run.py`, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 16 \\
        --work /tmp/pairs --seeds 2400 --pairs 10 --seconds 8 \\
        --claim ns3d:peak_rss_mb --out BENCH_16.json

Both commits are exported with `git archive` into the sibling directories
WORK/parent and WORK/change, whose paths have equal length: the
interpreter's path strings, and with them the heap and `peak_rss_mb`, shift
with the length of the checkout's path.  For each workload, pair i runs
`bench/run.py` on seed SEEDS + i in both checkouts, one after the other, the
parent first in even pairs and the change first in odd ones.  Nothing under
`bench/` is touched; each checkout runs its own copy.

The summary gives, per workload and end-to-end metric, each side's median
and quartiles (`statistics.quantiles`, inclusive method), the pairs the
change won and lost (ties count for neither), and its verdict:

* a claimed metric is `gain` when the change is better in at least nine
  tenths of the pairs and its median beats the parent's by more than the
  parent's interquartile range, and `not met` otherwise;
* any other metric is `worse` when the change's median is worse than the
  parent's by more than the bound in BENCHMARK.json, `unresolved` when the
  parent's own interquartile range exceeds that bound, and `within bound`
  otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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


def quartiles(values):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git rev)")
    parser.add_argument("--change", required=True, help="change commit (any git rev)")
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path,
                        help="new directory for the two checkouts")
    parser.add_argument("--seeds", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    if args.work.exists():
        parser.error(f"{args.work} exists")
    trees = {side: args.work / side for side in SIDES}
    commits = {side: checkout(getattr(args, side), trees[side]) for side in SIDES}

    record = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "protocol": (f"{args.pairs} alternating parent/change pairs per workload, the "
                     "parent first in even pairs; both sides run from git-archive "
                     "checkouts whose paths have equal length (sibling directories "
                     f"named parent and change); seeds {args.seeds}-"
                     f"{args.seeds + args.pairs - 1}; written by tools/bench_pairs.py"),
        "parent": commits["parent"], "change": commits["change"],
        "claim": sorted(f"{w}:{m}" for w, m in claims) or None,
        "workloads": {}, "machine": None,
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, record["machine"] = bench_run(trees[side], workload, seed,
                                                      args.seconds)
                pair[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
                pair[side].update({name: result["metrics"][name]["value"]
                                   for name in metrics})
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                for name in metrics), flush=True)
        summary = {name: summarize(pairs, name, m["better"], m["bound"],
                                   (workload, name) in claims)
                   for name, m in metrics.items()}
        record["workloads"][workload] = {
            "seeds": [pair["seed"] for pair in pairs], "pairs": pairs,
            "summary": summary,
            "all_correct": all(pair[side]["correct"] and pair[side]["failed"] == 0
                               for pair in pairs for side in SIDES)}
        for name, s in summary.items():
            print(f"{workload} {name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"({100 * s['median_rel']:+.1f}%, parent IQR {100 * s['parent_iqr_rel']:.1f}%, "
                  f"better in {s['change_better_pairs']}/{len(pairs)}): {s['verdict']}",
                  flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
