#!/usr/bin/env python3
"""Resident memory of one `qnl run` sweep, phase by phase.

    PYTHONPATH=src python3 tools/sweep_memory.py CONFIG

Runs `harness.run_sweep` on the configuration file CONFIG in this process,
under the allocator policy `qnl run` sets (`cli.keep_freed_heap`), with
`harness` functions wrapped from outside; qnl itself is not changed.
After `base_fields`, after each of the parent's lambda runs (in which
its states are measured and their files written; reported as the next
run's initial data is made, or as `_Stage.finish` begins), once the
forked child's last message has been read (`_Stage.finish`) and after
`_write_outputs`, it prints the parent's VmRSS and VmHWM (the peak so
far) and its minor page faults since the sweep began.  A watcher process
reads them from /proc/PID/status and /proc/PID/stat while the sweep waits
for it, so the probe's own reading and formatting stay out of the heap it
measures; a phase costs the sweep one short pipe write and read.  No
wrapper holds a lambda run's initial state, which `run_nsp` frees as it
steps.

At the end it prints the peak resident set and the minor faults of the
forked child, the `ru_maxrss` and `ru_minflt` of RUSAGE_CHILDREN; the
size in bytes of each message as it crossed the pipe: one per snapshot
time of the stage, t = 0 first, then the child's last message (its runs),
as the pickles the parent read, so no copy is made; and last the peak
resident set and minor faults of a separate `python -m qnl.cli run`
process on the same CONFIG, which the watcher runs just before the sweep,
from `os.wait4`'s `ru_maxrss` as `bench/run.py` reads a sweep's.  Both sweeps
write the same outputs to the configuration's `output_dir`, as `qnl run`
does.  Linux only: the numbers come from /proc and from ru_maxrss in KiB.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import sys

# The bytes of each message the parent read, in order; the wrapped
# _Forked._frame appends them.
message_bytes = []


def row(phase: str, *columns) -> str:
    return f"{phase:<28}" + "".join(f" {column:>10}" for column in columns)


def watch(pid: int, phases: int, acks: int, config_path: str) -> None:
    """The watcher: for each phase name that arrives on the fd phases, print
    the VmRSS and VmHWM of process pid and its minor faults since the first
    name, then reply with one line on the fd acks.  The first name
    ("begin", not printed) first runs the separate sweep on config_path
    (separate_run), whose numbers are its reply; the others' is empty."""
    first = None
    with open(phases, "rb") as names:
        for name in names:
            reply = "" if first is not None else " ".join(map(str, separate_run(config_path)))
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                kib = {key: int(value.split()[0]) for key, _, value in
                       (line.partition(":") for line in fh) if key in ("VmRSS", "VmHWM")}
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                faults = int(fh.read().rsplit(")", 1)[1].split()[7])  # minflt
            if first is None:
                first = faults
            else:
                print(row(name.decode().strip(), f"{kib['VmRSS'] / 1024.0:.2f}",
                          f"{kib['VmHWM'] / 1024.0:.2f}", faults - first), flush=True)
            os.write(acks, reply.encode() + b"\n")


class Probe:
    """The sweep's side of the watcher, a process started by posix_spawn;
    report(phase) returns the watcher's reply once it has read and printed
    the phase."""

    def __init__(self, config_path: str):
        phases_read, self.phases = os.pipe()
        self.acks, acks_write = os.pipe()
        for fd in (phases_read, acks_write):
            os.set_inheritable(fd, True)
        self.pid = os.posix_spawn(
            sys.executable, [sys.executable, os.path.abspath(__file__), config_path,
                             "--watch", str(os.getpid()), str(phases_read), str(acks_write)],
            os.environ)
        os.close(phases_read)
        os.close(acks_write)

    def report(self, phase: str) -> str:
        os.write(self.phases, phase.encode() + b"\n")
        return os.read(self.acks, 256).decode().strip()  # one short write: one read

    def close(self) -> None:
        os.close(self.phases)
        os.close(self.acks)
        os.waitpid(self.pid, 0)


def install(harness, probe: Probe) -> None:
    """Wrap the harness functions whose ends are reported.  The forked child
    runs the same wrapped functions, so only the parent reports.  run_nsp
    is not wrapped: a wrapper would hold the initial state, which run_nsp
    frees as it steps, through the whole run.  A run's end is reported
    where the next run's initial data is made (gen_initial_data), or
    where _Stage.finish begins after the last run."""
    parent = os.getpid()
    running = []  # the lambda of the parent's run under way

    def report(phase: str) -> None:
        if os.getpid() == parent:
            probe.report(phase)

    def run_ended() -> None:
        if running:
            report(f"lambda run {running.pop():g}")

    def after(fn, phase_of, before=lambda: None):
        @functools.wraps(fn)
        def wrapped(*args):
            before()
            try:
                return fn(*args)
            finally:
                report(phase_of(*args))
        return wrapped

    gen_initial_data = harness.gen_initial_data

    @functools.wraps(gen_initial_data)
    def starting(kind, lam, base):
        run_ended()
        running.append(lam)
        return gen_initial_data(kind, lam, base)

    harness.gen_initial_data = starting
    harness.base_fields = after(harness.base_fields, lambda config: "base_fields")
    harness._write_outputs = after(harness._write_outputs, lambda *args: "_write_outputs")

    frame = harness._Forked._frame

    @functools.wraps(frame)
    def sized_frame(self):
        data = frame(self)
        message_bytes.append(len(data))
        return data

    harness._Forked._frame = sized_frame
    harness._Stage.finish = after(harness._Stage.finish, lambda stage: "child last message",
                                  before=run_ended)


def separate_run(config_path: str) -> tuple:
    """The peak resident set in KiB, the minor faults and the exit code of
    `python -m qnl.cli run --config config_path`, its standard output
    dropped.  The watcher calls it: a spawned process's ru_maxrss starts
    from the peak of the process that spawns it (exec keeps the high-water
    mark of the memory it replaces), and the sweep's RUSAGE_CHILDREN would
    count it."""
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "qnl.cli", "run", "--config", config_path],
        os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss, usage.ru_minflt, os.waitstatus_to_exitcode(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a `qnl run` configuration file")
    parser.add_argument("--watch", nargs=3, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.watch:
        watch(*args.watch, args.config)
        return 0
    print(row("phase (parent)", "VmRSS MiB", "VmHWM MiB", "minflt"), flush=True)
    probe = Probe(args.config)
    try:
        from qnl import harness
        from qnl.cli import keep_freed_heap

        keep_freed_heap()
        config = harness.load_config(args.config)
        install(harness, probe)
        separate = probe.report("begin").split()
        harness.run_sweep(config)
        child = resource.getrusage(resource.RUSAGE_CHILDREN)  # before the watcher is reaped
    finally:
        probe.close()
    print(row("child peak (ru_maxrss)", "", f"{child.ru_maxrss / 1024.0:.2f}",
              child.ru_minflt))
    *stage, last = message_bytes
    for i, size in enumerate(stage, start=1):
        print(row(f"stage message {i} (bytes)", size))
    print(row("last message (bytes)", last))
    peak, faults, code = map(int, separate)
    print(row("qnl run peak (ru_maxrss)", "", f"{peak / 1024.0:.2f}", faults))
    if code not in (0, 1):  # 1: a row failed, as in the sweep above
        print(f"the separate `qnl run` ended with exit code {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
