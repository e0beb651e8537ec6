"""One benchmark child process: `python3 bench/child.py MODE CONFIG RECORD [CAL]`.

MODE is one of
  sweep  run `qnl run --config CONFIG` through qnl.cli.main;
  setup  the same start-up, stopped where the sweep would begin;
  trace  a sweep with the tracer installed; the trace goes to RECORD.trace;
  micro  median time of single RHS, product and transform calls.

RECORD receives a JSON object with `sweep_begin`/`sweep_end` (perf_counter,
which reads CLOCK_MONOTONIC and so compares across processes), the exit
code of qnl.cli.main and the path of the qnl package that was imported.

CAL, given as `REPEATS:N,N[,N]`, makes a sweep end with the calibration
kernel: REPEATS complex transform round trips with a product on an array
of that shape, numpy only, no qnl code.  It runs in the sweep's process,
so on the CPU the sweep ran on, and its wall and CPU time go to the record
as `cal_s` and `cal_cpu_s`.
"""

import json
import sys
import time


class _SetupDone(Exception):
    pass


def _median_us(fn, min_seconds=0.2, min_calls=5):
    fn()
    times = []
    while len(times) < min_calls or sum(times) < min_seconds:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return 1e6 * times[len(times) // 2]


def calibrate(spec):
    import numpy as np

    repeats, _, shape = spec.partition(":")
    shape = tuple(int(n) for n in shape.split(","))
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(int(repeats)):
        np.fft.ifftn(np.fft.fftn(a) * a)
    return time.perf_counter() - wall, time.process_time() - cpu


def micro(config_path):
    from qnl.ansatz import osc_rhs
    from qnl.harness import default_base_fields, gen_initial_data, load_config
    from qnl.limit_solver import LimitState, ns_rhs
    from qnl.nsp import nsp_rhs_nonstiff
    from qnl.oscillation import GradientPair
    from qnl.spectral import (gradient, make_grid, product, transform_forward,
                              transform_inverse)

    config = load_config(config_path)
    grid = make_grid(config.dims, config.resolution)
    base = default_base_fields(grid, config.ic, config.ic_random_amp, config.seed)
    lam = min(config.lambda_list)
    nsp_state = gen_initial_data(config.ic, lam, base)
    limit_state = LimitState(base.v0, base.theta0)
    pair = GradientPair(base.qu0, gradient(base.phi0))
    f, g = base.v0[0], base.theta0
    cases = {
        "nsp.rhs_us": lambda: nsp_rhs_nonstiff(nsp_state, config.nsp_params(lam), lam),
        "limit_solver.rhs_us": lambda: ns_rhs(limit_state, config.limit_params()),
        "ansatz.rhs_us": lambda: osc_rhs(pair, base.v0, config.limit_params()),
        "spectral.product_us": lambda: product(f, g),
        "spectral.fft_roundtrip_us": lambda: transform_forward(grid, transform_inverse(f)),
    }
    return {name: _median_us(fn) for name, fn in cases.items()}


def main():
    mode, config_path, record_path = sys.argv[1:4]
    cal = sys.argv[4] if len(sys.argv) > 4 else None
    record = {"mode": mode}
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_transforms()
        tracer.install_qnl()
    import qnl
    import qnl.cli
    record["qnl_file"] = qnl.__file__

    if mode == "micro":
        record["micro_us"] = micro(config_path)
        record["rc"] = 0
    else:
        inner = qnl.cli.run_sweep

        def run_sweep(config):
            record["sweep_begin"] = time.perf_counter()
            if mode == "setup":
                raise _SetupDone
            try:
                return inner(config)
            finally:
                record["sweep_end"] = time.perf_counter()

        qnl.cli.run_sweep = run_sweep
        try:
            record["rc"] = qnl.cli.main(["run", "--config", config_path])
        except _SetupDone:
            record["rc"] = 0
        if cal and mode == "sweep":
            record["cal_s"], record["cal_cpu_s"] = calibrate(cal)
    if tracer is not None:
        tracer.dump(record_path + ".trace")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
