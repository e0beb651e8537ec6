#!/usr/bin/env python3
"""Resident memory of one `qnl run` sweep, phase by phase.

    PYTHONPATH=src python3 tools/sweep_memory.py CONFIG

Runs `harness.run_sweep` on the configuration file CONFIG in this process,
with `harness` functions wrapped from outside; qnl itself is not changed.
After `base_fields`, after each of the parent's lambda runs, once the forked
child's result has been read, after each `measure_errors` and after
`_write_outputs`, it prints the parent's VmRSS and VmHWM (the peak so far)
from /proc/self/status.  At the end it prints the peak resident set of the
forked child, the `ru_maxrss` of RUSAGE_CHILDREN.  The sweep writes its
outputs to the configuration's `output_dir`, as `qnl run` does.  Linux
only: the numbers come from /proc and from ru_maxrss in KiB.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import sys


def memory_mib() -> tuple:
    """(VmRSS, VmHWM) of this process in MiB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def report(phase: str) -> None:
    rss, hwm = memory_mib()
    print(f"{phase:<28} {rss:>10.2f} {hwm:>10.2f}", flush=True)


def install(harness) -> None:
    """Wrap the harness functions whose ends are reported.  The forked child
    runs the same wrapped functions, so only the parent reports."""
    parent = os.getpid()

    def after(fn, phase_of):
        @functools.wraps(fn)
        def wrapped(*args):
            value = fn(*args)
            if os.getpid() == parent:
                report(phase_of(*args))
            return value
        return wrapped

    harness.base_fields = after(harness.base_fields, lambda config: "base_fields")
    harness._run_one_lambda = after(harness._run_one_lambda,
                                    lambda config, base, lam, dt, times: f"lambda run {lam:g}")
    harness.measure_errors = after(harness.measure_errors,
                                   lambda traj, limit, pair, lam, s: f"measure_errors {lam:g}")
    harness._write_outputs = after(harness._write_outputs,
                                   lambda config, report, trajectories: "_write_outputs")

    # poll() reads the child's message as soon as it is waiting, and the
    # final result() returns it again: report only the first read.
    result = harness._Forked.result

    @functools.wraps(result)
    def child_result(self):
        first = self._message is None
        value = result(self)
        if first:
            report("child result")
        return value

    harness._Forked.result = child_result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a `qnl run` configuration file")
    args = parser.parse_args(argv)

    from qnl import harness

    install(harness)
    config = harness.load_config(args.config)
    print(f"{'phase (parent)':<28} {'VmRSS MiB':>10} {'VmHWM MiB':>10}", flush=True)
    harness.run_sweep(config)
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{'child peak (ru_maxrss)':<28} {'':>10} {child_peak:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
