#!/usr/bin/env python3
"""Benchmark of `qnl run` sweeps for the repository in the current directory.

    python3 bench/run.py --workload ns2d --seed 0 --seconds 20 --trace 0

Every sweep runs in a fresh process started through qnl's CLI entry point
(bench/child.py calls qnl.cli.main) with a config generated from the
workload and the seed, one process at a time.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics of traced sweeps, micro-timings and the tracing overhead.  Every
sweep's report is checked.  The last line of standard output is the JSON
result.  bench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
STOCK_LAMBDAS = (0.1, 0.05, 0.025, 0.0125)
# An eighth of the stock time span with the stock snapshot spacing (0.5 / 16),
# so every lambda run keeps the stock step size and a sweep is short enough
# for a run to take the median of many.
SHORT_2D = {"t_end": "0.0625", "snapshots": "3"}
# Each workload: the lambda values and the config keys that differ from
# qnl's stock configuration.  seed, ic_random_amp and output_dir are added
# per run.
WORKLOADS = {
    "ns2d": (STOCK_LAMBDAS, dict(SHORT_2D)),
    "euler2d": (STOCK_LAMBDAS, dict(SHORT_2D, euler_mode="true")),
    "ns3d": ((0.1, 0.05, 0.025), {"dims": "3", "resolution": "24", "s_norm": "3.5",
                                  "t_end": "0.01", "snapshots": "2",
                                  "save_snapshots": "true"}),
}
# The calibration kernel that ends each untraced sweep (see child.py), as
# REPEATS:SHAPE at the workload's grid, and its median CPU time on the host
# of the first baseline.  The host's speed drifts by tens of percent over
# minutes and its two vCPUs drift apart, so the kernel runs in the sweep's
# process, on the sweep's CPU, and wall_s and cpu_s are scaled to the
# baseline host's speed (see end_to_end).
CALIBRATION = {
    "ns2d": ("1500:64,64", 0.27),
    "euler2d": ("1500:64,64", 0.27),
    "ns3d": ("400:24,24,24", 0.33),
}
# Small enough that every row stays ok and the rates keep their values;
# the seed then changes the initial spectrum but not the step counts.
IC_RANDOM_AMP = 0.01
RTOL = 1e-9
CHANNELS = ("E_rho", "E_u", "E_theta", "E_phi")
SETUP_PROBES = 7
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def config_text(workload, seed, output_dir):
    lambdas, keys = WORKLOADS[workload]
    lines = [f"lambda_list = {', '.join(repr(x) for x in lambdas)}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    lines += [f"seed = {seed}", f"ic_random_amp = {IC_RANDOM_AMP}",
              f"output_dir = {output_dir}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# child processes

class Runner:
    """Starts child processes one at a time from a work directory."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.count = 0

    def config(self, workload, seed):
        """Write a fresh config and output directory; return (config, output)."""
        self.count += 1
        out = self.work / f"out{self.count}"
        path = self.work / f"run{self.count}.cfg"
        path.write_text(config_text(workload, seed, out), encoding="utf-8")
        return path, out

    def child(self, mode, config, cal=None):
        """Run one child; wall, CPU and peak memory come from wait4, less the
        calibration kernel's time when `cal` asks for one."""
        self.count += 1
        record = self.work / f"child{self.count}.json"
        log = self.work / f"child{self.count}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), mode, str(config), str(record)]
                + ([cal] if cal else []),
                cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - start, 1.0), os.kill,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = json.loads(record.read_text()) if record.exists() else {}
        cal_wall, cal_cpu = rec.get("cal_s", 0.0), rec.get("cal_cpu_s", 0.0)
        return {"rc": proc.returncode, "wall_s": wall - cal_wall,
                "cpu_s": usage.ru_utime + usage.ru_stime - cal_cpu,
                "cal_s": rec.get("cal_s"), "cal_cpu_s": rec.get("cal_cpu_s"),
                "rss_mb": usage.ru_maxrss / 1024.0,
                "setup_s": rec["sweep_begin"] - start if "sweep_begin" in rec else None,
                "record": rec, "record_path": record, "log": log}


def log_tail(result, lines=8):
    text = result["log"].read_text(errors="replace").splitlines()
    return "\n".join(text[-lines:])


# ---------------------------------------------------------------------------
# correctness

def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def close(value, ref):
    return abs(value - ref) <= RTOL * abs(ref)


class Checker:
    """Checks every sweep of a run: rows ok and finite, equal to the stored
    reference for this seed (when shipped) and identical across the run."""

    def __init__(self, workload, seed, root):
        self.workload, self.seed, self.root = workload, seed, root
        self.lambdas = WORKLOADS[workload][0]
        path = BENCH / "reference" / f"{workload}.json"
        seeds = json.loads(path.read_text())["seeds"] if path.exists() else {}
        self.reference = seeds.get(str(seed))
        self.first = None
        self.attempted = self.failed = 0
        self.problems = []
        self.lines = []

    def sweep(self, result, out_dir):
        """Check one sweep; returns the number of failed rows."""
        n = len(self.lambdas)
        self.attempted += n
        bad = self._rows(result, out_dir)
        self.failed += bad
        return bad

    def _rows(self, result, out_dir):
        n = len(self.lambdas)
        qnl_file = result["record"].get("qnl_file", "")
        if not qnl_file.startswith(str(self.root / "src")):
            self.problems.append(f"qnl imported from {qnl_file!r}, not from src/")
            return n
        if result["rc"] not in (0, 1) or not (out_dir / "report.csv").exists():
            self.problems.append(f"sweep exited with {result['rc']}:\n{log_tail(result)}")
            return n
        rows, rates = read_csv(out_dir / "report.csv"), read_csv(out_dir / "rates.csv")
        bad = 0
        for i, lam in enumerate(self.lambdas):
            row = rows[i] if i < len(rows) else None
            ok = (row is not None and len(row) == 6 and row[5] == "ok"
                  and close(float(row[0]), lam)
                  and all(math.isfinite(float(x)) and float(x) > 0 for x in row[1:5]))
            if not ok:
                self.problems.append(f"lambda {lam}: row {row}")
            elif self.reference is not None:
                ref = self.reference["report"][i]
                devs = [abs(float(x) / r - 1.0) for x, r in zip(row[1:5], ref[1:5])]
                ok = all(close(float(x), r) for x, r in zip(row[1:5], ref[1:5]))
                if self.first is None:
                    self.lines.append(
                        f"row lambda={lam:<7g} max rel deviation from reference "
                        f"{max(devs):.2e} ({' '.join(f'{c}={d:.1e}' for c, d in zip(CHANNELS, devs))})")
                if not ok:
                    self.problems.append(f"lambda {lam}: {row} differs from reference {ref}")
            bad += not ok
        if [r[0] for r in rates] != list(CHANNELS) or not all(
                math.isfinite(float(r[1])) for r in rates):
            self.problems.append(f"rates.csv incomplete: {rates}")
        elif self.reference is not None and not all(
                close(float(r[1]), ref[1]) and close(float(r[2]), ref[2])
                for r, ref in zip(rates, self.reference["rates"])):
            self.problems.append(f"rates {rates} differ from reference")
        if self.first is None:
            self.lines.append("slopes " + " ".join(f"{r[0]}={float(r[1]):.6f}" for r in rates))
            if self.reference is None:
                self.lines.append(f"no stored reference for seed {self.seed}; checked "
                                  "status, finiteness and agreement between sweeps")
        text = (rows, rates)
        if self.first is None:
            self.first = text
        elif text != self.first:
            diff = sum(a != b for a, b in zip(rows, self.first[0]))
            self.problems.append(f"report differs from the run's first sweep in {diff} rows")
            bad = max(bad, diff)
        bad = max(bad, self._snapshots(out_dir))
        return bad

    def _snapshots(self, out_dir):
        _, keys = WORKLOADS[self.workload]
        if keys.get("save_snapshots") != "true":
            return 0
        dims, res = int(keys["dims"]), int(keys["resolution"])
        files = sorted(out_dir.glob("snapshot_*.qnl"))
        expected = len(self.lambdas) * int(keys["snapshots"]) * 2
        payload = 16 * res ** dims
        wrong = [f.name for f in files if f.stat().st_size not in
                 (16 + payload, 16 + dims * payload)]
        if len(files) != expected or wrong:
            self.problems.append(f"{len(files)} snapshot files (expected {expected}), "
                                 f"wrong size: {wrong[:3]}")
            return len(self.lambdas)
        return 0


# ---------------------------------------------------------------------------
# runs

def sweep_until(runner, checker, workload, seed, seconds, modes):
    """Run rounds of sweeps, one sweep per mode: at least one round, and
    another only while it is expected to end within `seconds`."""
    results = {mode: [] for mode in modes}
    start = time.perf_counter()
    while True:
        for mode in modes:
            config, out = runner.config(workload, seed)
            cal = CALIBRATION[workload][0] if mode == "sweep" else None
            result = runner.child(mode, config, cal)
            result["rows_failed"] = checker.sweep(result, out)
            shutil.rmtree(out, ignore_errors=True)
            results[mode].append(result)
        per_round = sum(statistics.median(r["wall_s"] for r in results[m]) for m in modes)
        now = time.perf_counter()
        if now - start + per_round > seconds or now + per_round > runner.deadline:
            return results


def end_to_end(runner, checker, workload, seed, seconds):
    config, _ = runner.config(workload, seed)
    probes = [runner.child("setup", config) for _ in range(SETUP_PROBES + 1)][1:]
    for probe in probes:
        if probe["rc"] != 0 or probe["setup_s"] is None:
            checker.problems.append(f"setup probe failed:\n{log_tail(probe)}")
    sweeps = sweep_until(runner, checker, workload, seed, seconds, ["sweep"])["sweep"]
    # The kernels just before and just after a sweep (the previous sweep's
    # and its own) ran on its CPU.  The kernel's CPU time, which leaves out
    # time the hypervisor kept the CPU from running (steal), over its wall
    # time is the share of the time the CPU ran; the sweep's wall time is
    # multiplied by it.  The kernel's CPU time gives the host's speed while
    # it ran: across host speed changes a sweep's time moved about half as
    # much, in ratio, as the kernel's (log-log slope 0.5-0.6 over runs on
    # the baseline host), so a sweep is scaled by the square root of the
    # kernel's ratio.  Geometric means combine the two kernels.
    ref = CALIBRATION[workload][1]

    def around(key, i):
        values = [sweeps[j][key] or float("nan") for j in (max(i - 1, 0), i)]
        return math.sqrt(values[0] * values[1])

    cpu_cal = [around("cal_cpu_s", i) for i in range(len(sweeps))]
    ran = [c / around("cal_s", i) for i, c in enumerate(cpu_cal)]
    scale = [math.sqrt(ref / c) for c in cpu_cal]
    walls = [r["wall_s"] * share for r, share in zip(sweeps, ran)]
    setups = [r["setup_s"] for r in probes + sweeps if r["setup_s"] is not None]
    raw = [r["wall_s"] for r in sweeps]
    print(f"sweeps: {len(sweeps)}, unscaled wall_s samples: {' '.join(f'{w:.3f}' for w in raw)}")
    print(f"calibration: CPU {' '.join(f'{c:.4f}' for c in cpu_cal)} s (reference {ref} s), "
          f"CPU ran {' '.join(f'{x:.3f}' for x in ran)} of the time")
    print(f"unscaled medians: wall_s {statistics.median(raw):.4f} s, "
          f"cpu_s {statistics.median(r['cpu_s'] for r in sweeps):.4f} s")
    print(f"setup_s samples: {len(setups)} ({SETUP_PROBES} start-up probes + sweeps)")
    return {
        "wall_s": (statistics.median(w * k for w, k in zip(walls, scale)), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] * k for r, k in zip(sweeps, scale)), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in sweeps), "MiB"),
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
    }


def per_layer(runner, checker, workload, seed, seconds, root):
    runs = sweep_until(runner, checker, workload, seed, seconds, ["sweep", "trace"])
    layers = []
    for result in runs["trace"]:
        trace_path = Path(str(result["record_path"]) + ".trace")
        if not trace_path.exists():
            checker.problems.append(f"traced sweep wrote no trace:\n{log_tail(result)}")
            continue
        layers.append(layer_metrics(json.loads(trace_path.read_text()),
                                    result["rows_failed"]))
        if len(layers) == 1:
            shutil.copy(trace_path, root / ".bench_work" / f"trace-{workload}-seed{seed}.json")
    metrics = {}
    for name, (_, unit) in (layers[0].items() if layers else ()):
        values = [layer[name][0] for layer in layers]
        if unit == "count" and name != "harness.rows_failed" and len(set(values)) > 1:
            checker.problems.append(f"{name} differs between traced sweeps: {values}")
        metrics[name] = (statistics.median(values), unit)

    config, _ = runner.config(workload, seed)
    micro = runner.child("micro", config)
    if micro["rc"] != 0:
        checker.problems.append(f"micro-timings failed:\n{log_tail(micro)}")
    for name, value in micro["record"].get("micro_us", {}).items():
        metrics[name] = (value, "us")

    untraced = statistics.median(r["wall_s"] for r in runs["sweep"])
    traced = statistics.median(r["wall_s"] for r in runs["trace"])
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    print(f"traced sweeps: {len(runs['trace'])}, untraced wall_s {untraced:.3f}, "
          f"traced wall_s {traced:.3f}")
    return metrics


def machine_record(root):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        key = f"L{read(index / 'level')}{(read(index / 'type') or '?')[0].lower()}"
        caches[key] = read(index / "size")

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit,
            "threads": {name: "1" for name in THREAD_VARS}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "qnl" / "cli.py").is_file():
        print("bench: no qnl sources at src/qnl; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, time.perf_counter() + DEADLINE_S)
    checker = Checker(args.workload, args.seed, root)
    try:
        if args.trace:
            metrics = per_layer(runner, checker, args.workload, args.seed,
                                args.seconds, root)
        else:
            metrics = end_to_end(runner, checker, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in checker.lines + [f"problem: {p}" for p in checker.problems]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("machine: " + json.dumps(machine_record(root), sort_keys=True))
    correct = not checker.problems and checker.failed == 0 and all(
        math.isfinite(value) for value, _ in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
