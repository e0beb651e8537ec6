#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarise the spread of each metric.

    python3 bench/baseline.py --seeds 0-9 --out bench/baseline.json
    python3 bench/baseline.py --workload ns3d --seeds 0-4

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against a third of the metric's bound in BENCHMARK.json.  With --trace N
it also makes N traced runs per workload and checks that their counts
repeat exactly.  --out writes the summary, with the machine record, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), None)
    return json.loads(lines[-1]), machine


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--trace", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            result, machine = run_once(spec, workload, seed, 0)
            summary["machine"] = machine
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = summarise(values, bounds[name])
            s = entry["end_to_end"][name]
            print(f"  {workload} {name}: median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f}{'' if s['steady'] else ' NOT STEADY'})")
        if args.trace:
            traced = [run_once(spec, workload, seed, 1)[0] for seed in seeds[:args.trace]]
            layer = {}
            for name, metric in traced[0]["metrics"].items():
                values = [t["metrics"][name]["value"] for t in traced]
                layer[name] = {"values": values, "unit": metric["unit"]}
                if metric["unit"] == "count" and len(set(values)) > 1:
                    print(f"  {workload} {name}: counts differ {values}")
            entry["per_layer"] = layer
            entry["trace_correct"] = all(t["correct"] for t in traced)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
