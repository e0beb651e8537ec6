#!/usr/bin/env python3
"""Resident memory of one `qnl run` sweep, phase by phase.

    PYTHONPATH=src python3 tools/sweep_memory.py CONFIG

Runs `harness.run_sweep` on the configuration file CONFIG in this process,
under the allocator policy `qnl run` sets (`cli.keep_freed_heap`), with
`harness` functions wrapped from outside; qnl itself is not changed.
After `base_fields`, after each of the parent's lambda runs, once the forked
child's result has been read, after each `measure_errors` and after
`_write_outputs`, it prints the parent's VmRSS and VmHWM (the peak so far)
from /proc/self/status and its minor page faults since the sweep began
(`ru_minflt`).  At the end it prints the peak resident set and the minor
faults of the forked child, the `ru_maxrss` and `ru_minflt` of
RUSAGE_CHILDREN, and last the size in bytes of the child's result as it
crosses the pipe: the message pickled again as `harness._send_and_exit`
pickles it, after the sweep, so that the copy raises no reported peak.
The sweep writes its outputs to the configuration's `output_dir`, as
`qnl run` does.  Linux only: the numbers come from /proc and from
ru_maxrss in KiB.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import resource
import sys

# The parent's ru_minflt when the sweep begins; main sets it.
faults_before = 0
# The child's message as the parent read it; the wrapped _Forked.result
# sets it, and main measures it once the sweep's memory is reported.
child_message = None


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
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
    print(f"{phase:<28} {rss:>10.2f} {hwm:>10.2f} {faults:>10d}", flush=True)


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
        global child_message
        first = self._message is None
        value = result(self)
        if first:
            report("child result")
            child_message = self._message
        return value

    harness._Forked.result = child_result


def main(argv=None) -> int:
    global faults_before
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a `qnl run` configuration file")
    args = parser.parse_args(argv)

    from qnl import harness
    from qnl.cli import keep_freed_heap

    keep_freed_heap()
    install(harness)
    config = harness.load_config(args.config)
    print(f"{'phase (parent)':<28} {'VmRSS MiB':>10} {'VmHWM MiB':>10} {'minflt':>10}",
          flush=True)
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness.run_sweep(config)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"{'child peak (ru_maxrss)':<28} {'':>10} {child.ru_maxrss / 1024.0:>10.2f} "
          f"{child.ru_minflt:>10d}")
    payload = len(pickle.dumps(child_message, pickle.HIGHEST_PROTOCOL))
    print(f"{'child payload (bytes)':<28} {payload:>10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
