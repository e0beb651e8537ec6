#!/usr/bin/env python3
"""Byte-for-byte comparison of `qnl run` and `qnl limit` outputs of two trees.

    python3 tools/compare_outputs.py --parent HEAD~1 --change HEAD \\
        --seeds 0 7 --stock --config well.cfg
    python3 tools/compare_outputs.py --src src OTHER/src --config run.cfg

Each config runs once through `qnl run` (`python -m qnl.cli run`) and
once through `qnl limit` on each source tree, each with `output_dir =
out` in a directory of its own, so the two trees print the same paths and
their `meta.txt` echo the same `output_dir`.  Every file of the two
output directories (`qnl limit`: `limit.csv`, and the v, theta and pi
snapshot files with `save_snapshots`) is compared byte for byte, and so
are the exit codes and standard output.  One line per config and command
(`NAME: ...` for `qnl run`, `NAME limit: ...` for `qnl limit`) says
`identical` or names what differs; the exit code is 1 if anything
differs.

The configs:

* `--seeds S ...`: each workload's `config_text` from `bench/run.py` at
  each seed S (read, never changed);
* `--stock`: the stock NS config (every key at its default), the stock
  Euler config (`euler_mode = true`) and the stock 3D config (`dims = 3`,
  `resolution = 24`, `s_norm = 3.5`);
* `--config FILE`: any other config, named by its file name, whose own
  `output_dir` line is dropped.

`--parent REV --change REV` exports both commits with `git archive`
(`bench_pairs.checkout`) into the sibling directories WORK/parent and
WORK/change, whose paths have equal length, and runs their `src`.  `--src
A B` runs two source trees as they are.  WORK (`--work`, a new directory)
keeps the checkouts and every run; without it a temporary directory is
used and removed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, checkout

STOCK = {"stock-ns": "", "stock-euler": "euler_mode = true\n",
         "stock-3d": "dims = 3\nresolution = 24\ns_norm = 3.5\n"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 600
# Each config runs through each command; the label follows its name.
COMMANDS = {"run": "", "limit": " limit"}


def bench_configs(seeds) -> dict:
    """Each bench workload's config text at each seed, by name."""
    if not seeds:
        return {}
    sys.path.insert(0, str(ROOT / "bench"))  # bench/run.py imports its tracer
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return {f"{workload}-seed{seed}": bench_run.config_text(workload, seed, "out")
            for workload in bench_run.WORKLOADS for seed in seeds}


def with_output_dir(text: str) -> str:
    """The config text with `output_dir = out` in place of its own."""
    return "".join(line + "\n" for line in text.splitlines()
                   if line.partition("=")[0].strip() != "output_dir") + "output_dir = out\n"


def run_outputs(src: Path, command: str, text: str, run_dir: Path) -> dict:
    """`qnl COMMAND` from the source tree src on the config text in run_dir:
    its output files' bytes by relative path, with `<stdout>` and `<exit>`."""
    run_dir.mkdir(parents=True)
    (run_dir / "run.cfg").write_text(with_output_dir(text), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1",
               **{name: "1" for name in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-m", "qnl.cli", command, "--config", "run.cfg"],
                          cwd=run_dir, env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
    out = run_dir / "out"
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    files["<stdout>"] = proc.stdout
    files["<exit>"] = str(proc.returncode).encode()
    return files


def compare(srcs, configs: dict, work: Path) -> bool:
    """Run every config through `qnl run` and `qnl limit` on both source
    trees and print one line per config and command; True if every output
    is identical."""
    same = True
    for name, text in configs.items():
        for command, label in COMMANDS.items():
            parent, change = (run_outputs(src, command, text,
                                          work / "runs" / name / command / side)
                              for src, side in zip(srcs, SIDES))
            differ = sorted(key for key in parent.keys() | change.keys()
                            if parent.get(key) != change.get(key))
            files = len(parent) - 2
            code = parent["<exit>"].decode()
            if differ:
                same = False
                print(f"{name}{label}: DIFFERENT: {', '.join(differ)}", flush=True)
            else:
                print(f"{name}{label}: identical ({files} files, stdout, exit {code})",
                      flush=True)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    trees = parser.add_mutually_exclusive_group(required=True)
    trees.add_argument("--parent", help="parent commit (any git rev); needs --change")
    trees.add_argument("--src", nargs=2, type=Path, metavar=("PARENT_SRC", "CHANGE_SRC"),
                       help="two source trees to run as they are")
    parser.add_argument("--change", help="change commit (any git rev)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[],
                        help="seeds of the bench/run.py workload configs")
    parser.add_argument("--stock", action="store_true",
                        help="add the stock NS and Euler configs")
    parser.add_argument("--config", action="append", type=Path, default=[],
                        help="another config file (repeatable)")
    parser.add_argument("--work", type=Path, help="new directory to keep the runs in")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.change is None):
        parser.error("--parent and --change go together")

    configs = bench_configs(args.seeds)
    if args.stock:
        configs.update(STOCK)
    for path in args.config:
        configs[path.name] = path.read_text(encoding="utf-8")
    if not configs:
        parser.error("no configs: give --seeds, --stock or --config")
    if args.work is not None and args.work.exists():
        parser.error(f"{args.work} exists")

    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        if args.src:
            srcs = args.src
        else:
            srcs = []
            for side in SIDES:
                commit = checkout(getattr(args, side), work / side)
                print(f"{side}: {commit}", flush=True)
                srcs.append(work / side / "src")
        return 0 if compare(srcs, configs, work) else 1
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
