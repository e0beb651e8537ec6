#!/usr/bin/env python3
"""How far a sweep's E values and slopes move when one step, the
sampling in time or the grid is refined.

    PYTHONPATH=src python3 tools/refine.py CONFIG --mode stage \\
        --factors 4 2 1 0.5 0.25 0.16
    PYTHONPATH=src python3 tools/refine.py CONFIG --mode snapshots --factors 1 6 16
    PYTHONPATH=src python3 tools/refine.py CONFIG --mode resolution --factors 1.5 1

Each run is `harness.run_sweep` in this process, on a copy of the
configuration file CONFIG that changes only existing keys, by a factor k:

* `stage`: `limit_dt` is the stage step over k, the stage step being the
  config's `limit_dt` or else the one `harness.stage_plan` takes;
* `nsp`: `dt_max` over k and `phase_resolution` times k, which must then
  be an integer;
* `snapshots`: k times as many snapshot intervals, `snapshots` = (n - 1) k
  + 1;
* `resolution`: `resolution` times k, which must be an even integer of at
  least 8; every step follows the solvers' own rules on the new grid.  A
  config with `ic_random_amp` > 0 is refused: its random initial data
  depend on the grid.

Factor 1 is the config as it is, and a factor below 1 coarsens.  Each
run's files go to a temporary directory, removed at the end.

Per lambda and channel the record gives E and its relative move
|E - E_ref| / E_ref against the finest run (the largest factor), and per
channel the fitted slope and the local slopes
log(E_i+1 / E_i) / log(lam_i+1 / lam_i) of neighbouring lambdas.  The NSP
temporal floor is the largest move of the `nsp` run at FLOOR_FACTOR
against the unrefined run; each run's largest move is also given as a
multiple of it.  All of it is printed and written as JSON to `--out`.
Every run's config is checked, `harness.MAX_STEPS` included, before the
first run starts; a config error exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from qnl import harness
from qnl.errors import QnlError

MODES = ("stage", "nsp", "snapshots", "resolution")
FLOOR_FACTOR = 8  # the nsp run that sets the temporal floor


def refined(config, mode: str, k: float, stage_step: float) -> dict:
    """The keys that the run at factor k changes, with their values."""
    if k == 1:
        return {}
    if mode == "stage":
        return {"limit_dt": stage_step / k}
    if mode == "nsp":
        phases = config.phase_resolution * k
        if phases != round(phases):
            raise ValueError(f"phase_resolution {config.phase_resolution} times {k} "
                             "is not an integer")
        return {"dt_max": config.dt_max / k, "phase_resolution": round(phases)}
    if mode == "resolution":
        resolution = config.resolution * k
        if resolution != round(resolution):
            raise ValueError(f"resolution {config.resolution} times {k} is not an integer")
        return {"resolution": round(resolution)}
    intervals = (config.snapshots - 1) * k
    if intervals != round(intervals):
        raise ValueError(f"{config.snapshots - 1} snapshot intervals times {k} "
                         "is not an integer")
    return {"snapshots": round(intervals) + 1}


def _finite(value: float):
    return value if math.isfinite(value) else None


def local_slopes(rows, channel: str) -> list:
    """log(E_i+1 / E_i) / log(lam_i+1 / lam_i) of each pair of neighbouring
    rows; None where either row failed or has no positive E."""
    out = []
    for a, b in zip(rows, rows[1:]):
        ea, eb = a.channel(channel), b.channel(channel)
        ok = a.status == b.status == "ok" and ea > 0.0 and eb > 0.0
        out.append(math.log(eb / ea) / math.log(b.lam / a.lam) if ok else None)
    return out


def sweep(config, changes: dict, output_dir: str) -> dict:
    """One run_sweep of config with changes: per lambda its status and E,
    and the slopes."""
    report = harness.run_sweep(replace(config, output_dir=output_dir, **changes))
    return {
        "changes": changes,
        "status": {repr(row.lam): row.status for row in report.rows},
        "E": {repr(row.lam): {ch: _finite(row.channel(ch)) for ch in harness.ERROR_CHANNELS}
              for row in report.rows},
        "slopes": {fit.channel: fit.slope for fit in report.rates},
        "local_slopes": {ch: local_slopes(report.rows, ch) for ch in harness.ERROR_CHANNELS},
    }


def moves(run: dict, ref: dict) -> dict:
    """|E - E_ref| / E_ref per lambda and channel; None unless both rows
    are ok with a nonzero E_ref."""
    out = {}
    for lam, values in run["E"].items():
        ok = run["status"][lam] == ref["status"][lam] == "ok"
        out[lam] = {ch: abs(e - ref["E"][lam][ch]) / abs(ref["E"][lam][ch])
                    if ok and e is not None and ref["E"][lam][ch] else None
                    for ch, e in values.items()}
    return out


def largest(move: dict):
    values = [m for by_ch in move.values() for m in by_ch.values() if m is not None]
    return max(values) if values else None


def refine(config, mode: str, factors) -> dict:
    """The record of the runs at factors, with moves against the largest
    (and of the runs at 1 and at FLOOR_FACTOR, if not among them)."""
    if min(factors) <= 0:
        raise ValueError("every factor must be positive")
    if mode == "resolution" and config.ic_random_amp > 0:
        raise ValueError("resolution mode needs ic_random_amp = 0: the random initial "
                         "data depend on the grid")
    base = harness.base_fields(config)
    stage_step = (config.limit_dt if config.limit_dt is not None
                  else harness.stage_plan(config, base)[0])
    # factor 1 is one run, whatever the mode
    keys = [(mode, k) for k in (1, *factors)] + [("nsp", FLOOR_FACTOR)]
    changes = {(m, k) if k != 1 else (None, 1): refined(config, m, k, stage_step)
               for m, k in keys}
    for change in changes.values():  # as run_sweep checks it, before any run
        checked = replace(config, **change)
        checked.validate()
        harness.plan_sweep(checked, harness.base_fields(checked))
    with tempfile.TemporaryDirectory() as tmp:
        runs = {key: sweep(config, change, str(Path(tmp) / f"run{i}"))
                for i, (key, change) in enumerate(changes.items())}

    def run(m, k):
        return runs[(m, k) if k != 1 else (None, 1)]

    against = max(factors)
    ref, unrefined = run(mode, against), run(mode, 1)
    floor_move = largest(moves(run("nsp", FLOOR_FACTOR), unrefined))
    record = {"mode": mode, "stage_step": stage_step, "against": against,
              "floor_factor": FLOOR_FACTOR, "floor": floor_move, "runs": []}
    for k in factors:
        entry = dict(run(mode, k), factor=k, move=moves(run(mode, k), ref))
        entry["largest_move"] = largest(entry["move"])
        entry["over_floor"] = (entry["largest_move"] / floor_move
                               if entry["largest_move"] is not None and floor_move else None)
        record["runs"].append(entry)
    return record


def _g(value, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def print_record(record: dict) -> None:
    print(f"mode {record['mode']}; stage step {record['stage_step']:g}; moves against "
          f"k = {record['against']:g}; NSP temporal floor {_g(record['floor'], '.1e')} "
          f"(nsp run at k = {record['floor_factor']:g})")
    for run in record["runs"]:
        changes = ", ".join(f"{key} = {value:g}" for key, value in run["changes"].items())
        print(f"\nk = {run['factor']:g} ({changes or 'unchanged'}): largest move "
              f"{_g(run['largest_move'], '.1e')}, {_g(run['over_floor'], '.1e')} of the "
              "floor")
        print("  slopes " + "  ".join(f"{ch} {_g(run['slopes'].get(ch), '.3f')}"
                                      for ch in harness.ERROR_CHANNELS))
        print("  local  " + "  ".join(
            f"{ch} " + " ".join(_g(s, ".3f") for s in run["local_slopes"][ch])
            for ch in harness.ERROR_CHANNELS))
        for lam, values in run["E"].items():
            print(f"  lambda {lam:<8} " + "  ".join(
                f"{ch} {_g(e, '.6e')} ({_g(run['move'][lam][ch], '.1e')})"
                for ch, e in values.items()) + f"  {run['status'][lam]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="configuration file, as for qnl run")
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--factors", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0])
    parser.add_argument("--out", type=Path, default=Path("refine.json"))
    args = parser.parse_args(argv)
    try:
        record = refine(harness.load_config(args.config), args.mode, args.factors)
    except (QnlError, ValueError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    record["config"] = args.config
    print_record(record)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
