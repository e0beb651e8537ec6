#!/usr/bin/env python3
"""Resident memory of one `qnl run` sweep, phase by phase.

    PYTHONPATH=src python3 tools/sweep_memory.py CONFIG

Runs `harness.run_sweep` on the configuration file CONFIG in this process,
under the allocator policy `qnl run` sets (`cli.keep_freed_heap`), with
`harness` functions wrapped from outside; qnl itself is not changed.
After `base_fields`, after each of the parent's lambda runs (its
`run_nsp` call, in which its states are measured, whether it returns or
raises), once the forked child's last message has been read
(`_Stage.finish`) and after `_write_outputs`, it prints the parent's
VmRSS and VmHWM (the peak so far) from /proc/self/status and its minor
page faults since the sweep began (`ru_minflt`).  At the end it prints
the peak resident set and the minor faults of the forked child, the
`ru_maxrss` and `ru_minflt` of RUSAGE_CHILDREN, and last the size in
bytes of each message as it crossed the pipe: one per snapshot interval
of the stage, then the child's last message (its runs).  The sizes are
the pickles the parent read, so no copy is made.  The sweep writes its
outputs to the configuration's `output_dir`, as `qnl run` does.  Linux
only: the numbers come from /proc and from ru_maxrss in KiB.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import sys

# The parent's ru_minflt when the sweep begins; main sets it.
faults_before = 0
# The bytes of each message the parent read, in order; the wrapped
# _Forked._frame appends them.
message_bytes = []


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
            try:
                return fn(*args)
            finally:
                if os.getpid() == parent:
                    report(phase_of(*args))
        return wrapped

    harness.base_fields = after(harness.base_fields, lambda config: "base_fields")
    harness.run_nsp = after(harness.run_nsp,
                            lambda initial, params, lam, *rest: f"lambda run {lam:g}")
    harness._write_outputs = after(harness._write_outputs,
                                   lambda config, report, runs: "_write_outputs")

    frame = harness._Forked._frame

    @functools.wraps(frame)
    def sized_frame(self):
        data = frame(self)
        message_bytes.append(len(data))
        return data

    harness._Forked._frame = sized_frame
    harness._Stage.finish = after(harness._Stage.finish, lambda stage: "child last message")


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
    *stage, last = message_bytes
    for i, size in enumerate(stage, start=1):
        print(f"{f'stage message {i} (bytes)':<28} {size:>10d}")
    print(f"{'last message (bytes)':<28} {last:>10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
