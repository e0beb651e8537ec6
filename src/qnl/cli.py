"""Command-line entry points: `qnl run`, `qnl limit`, `qnl check`.

`main` owns its process: before the subcommand runs it turns SIGTERM into
`SystemExit`, and it sets glibc's allocator to keep freed heap pages
(`keep_freed_heap`).  Code that calls `run_sweep` as a library keeps its
own signal handlers and allocator policy.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys

from .errors import QnlError
from .harness import ERROR_CHANNELS, load_config, run_sweep


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_sweep(config)
    print(f"wrote {os.path.join(config.output_dir, 'report.csv')}")
    for row in report.rows:
        if row.status == "ok":
            print(f"lambda = {row.lam:<10.6g} E_u = {row.e_u:.3e} "
                  f"E_rho = {row.e_rho:.3e} E_theta = {row.e_theta:.3e} "
                  f"E_phi = {row.e_phi:.3e}")
        else:
            print(f"lambda = {row.lam:<10.6g} FAILED ({row.status})")
    for channel in ERROR_CHANNELS:
        fit = report.rate(channel)
        if fit is not None:
            print(f"{channel}: slope = {fit.slope:.3f} +- {fit.halfwidth:.3f}")
    return 0 if report.all_ok else 1


def _cmd_limit(args) -> int:
    from .harness import base_fields, file_tag, plan_sweep, solve_limit
    from .limit_solver import recover_pressure
    from .spectral import sobolev_norm, write_snapshot

    config = load_config(args.config)
    base = base_fields(config)
    traj = solve_limit(config, base, plan_sweep(config, base).stage_step)
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "limit.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,v_hs,theta_hs,min_theta\n")
        for t, state in zip(traj.times, traj.states):
            fh.write(f"{t:.12e},{sobolev_norm(state.v, config.s_norm):.12e},"
                     f"{sobolev_norm(state.theta, config.s_norm):.12e},"
                     f"{state.theta.samples().min():.12e}\n")
    if config.save_snapshots:
        for t, state in zip(traj.times, traj.states):
            stem = os.path.join(config.output_dir, f"limit_t_{file_tag(t)}")
            write_snapshot(stem + "_v.qnl", state.v)
            write_snapshot(stem + "_theta.qnl", state.theta)
            write_snapshot(stem + "_pi.qnl",
                           recover_pressure(state, config.limit_params()))
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    from .selfcheck import run_checks

    failures = run_checks(resolution=args.resolution, seed=args.seed,
                          verbose=True)
    return 0 if failures == 0 else 1


def keep_freed_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    the ceilings its dynamic thresholds move toward (mallopt(3)).  At 24^3
    every coefficient and sample array sits just under the 128 KiB defaults,
    so each RHS's frees shrank the heap and the next RHS faulted the same
    pages back in.  Both are set: setting either ends the dynamic
    adjustment.  Does nothing where libc has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qnl",
        description="Quasineutral-limit convergence experiments for the "
                    "compressible Navier-Stokes-Poisson system on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full lambda sweep with report output")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_limit = sub.add_parser("limit", help="solve only the incompressible limit")
    p_limit.add_argument("--config", required=True)
    p_limit.set_defaults(func=_cmd_limit)

    p_check = sub.add_parser("check", help="run the invariant self-check suite")
    p_check.add_argument("--resolution", type=int, default=32)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    keep_freed_heap()
    # SIGTERM unwinds like Ctrl-C, so a sweep kills and reaps its child.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return args.func(args)
    except QnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
