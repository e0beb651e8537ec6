#!/usr/bin/env python3
"""Store the reference report values that bench/run.py checks sweeps against.

    python3 bench/make_reference.py --workload ns2d euler2d ns3d --seeds 0-31

Runs one sweep per workload and seed, exactly as bench/run.py does, and
merges its report.csv and rates.csv values into bench/reference/<workload>.json.
Regenerate only when a change is meant to move the physics.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    root = Path.cwd().resolve()
    for workload in args.workload:
        path = run.BENCH / "reference" / f"{workload}.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        data.update(rtol=run.RTOL,
                    config=run.config_text(workload, "SEED", "OUTPUT_DIR"),
                    seeds=data.get("seeds", {}))
        work = root / ".bench_work" / f"reference-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        runner = run.Runner(root, work, deadline=time.perf_counter() + 86400)
        for seed in seeds:
            config, out = runner.config(workload, seed)
            result = runner.child("sweep", config)
            rows = run.read_csv(out / "report.csv") if result["rc"] == 0 else []
            if not rows or any(row[5] != "ok" for row in rows):
                sys.exit(f"{workload} seed {seed}: sweep failed\n{run.log_tail(result)}")
            rates = run.read_csv(out / "rates.csv")
            data["seeds"][str(seed)] = {
                "report": [[float(x) for x in row[:5]] + [row[5]] for row in rows],
                "rates": [[r[0], float(r[1]), float(r[2])] for r in rates]}
            shutil.rmtree(out)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
