"""In-process tracer for one `qnl run` sweep, installed from outside qnl.

`Tracer.install_transforms()` must run before qnl is imported; it wraps the
n-d FFT entry points of numpy.fft and of scipy.fft (when scipy is present),
so transform counts survive a switch of backend or to real transforms.
`Tracer.install_qnl()` then wraps the public qnl functions named in SPANS
and COUNTED, in every qnl module that holds a reference to them (modules
that imported a function by name included):

* spans (name, start, end, parent) around the sweep, each stage, each
  lambda run, each time step and each RHS evaluation;
* counters with summed time for calls too frequent for spans: transforms,
  product(), the Leray projections, the rotation group, sobolev_norm,
  v_at, build_oscillation and the snapshot writer.  A counter group counts
  only its outermost call, so its time is the group's busy time.

Spans and counters stay in memory and are written out once by `dump()`.
The span stack assumes one thread, which holds for `workers = 1`; stages
moved into other processes are not seen.  `layer_metrics()` turns one
dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

_clock = time.perf_counter

# function name -> span name; stage spans are the children of the sweep
STAGES = {
    "run_limit": "limit_solver.run_limit",
    "solve_osc": "ansatz.solve_osc",
    "gen_initial_data": "harness.gen_initial_data",
    "run_nsp": "nsp.run_nsp",
    "measure_errors": "harness.measure_errors",
}
SPANS = dict(STAGES, run_sweep="harness.run_sweep", lawson_rk4_step="step",
             ns_rhs="rhs", osc_rhs="rhs", nsp_rhs_nonstiff="rhs")
COUNTED = {
    "product": "product",
    "leray_p": "projections", "leray_q": "projections", "decompose": "projections",
    "rotate_slots": "oscillation", "apply_group": "oscillation",
    "sobolev_norm": "sobolev_norm",
    "build_oscillation": "build_oscillation",
}
TRANSFORMS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, ffts inside]
        self._open = []          # indices of open spans, innermost last
        self.counters = {}       # group -> [calls, seconds]
        self._busy = set()       # groups with a call in progress
        self.fft = {"fwd": 0, "inv": 0, "seconds": 0.0, "bytes": 0}
        self._in_fft = False
        self.snapshot = {"calls": 0, "seconds": 0.0, "bytes": 0}
        self.nodes_bytes = 0

    # -- transforms ---------------------------------------------------------

    def install_transforms(self):
        import numpy.fft
        modules = [numpy.fft]
        try:
            import scipy.fft
            modules.append(scipy.fft)
        except ImportError:
            pass
        for module in modules:
            for name in TRANSFORMS:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self._transform(fn, not name.startswith("i")))

    def _transform(self, fn, forward):
        key = "fwd" if forward else "inv"

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._in_fft:
                return fn(a, *args, **kwargs)
            self._in_fft = True
            start = _clock()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._in_fft = False
            self.fft["seconds"] += _clock() - start
            self.fft[key] += 1
            self.fft["bytes"] += getattr(a, "nbytes", 0) + out.nbytes
            return out
        return wrapper

    def _fft_total(self):
        return self.fft["fwd"] + self.fft["inv"]

    # -- qnl functions ------------------------------------------------------

    def install_qnl(self):
        """Wrap every SPANS/COUNTED function in all loaded qnl modules."""
        import qnl.cli  # noqa: F401  (loads every module the sweep uses)
        from qnl.limit_solver import LimitTrajectory

        targets = set(SPANS) | set(COUNTED) | {"write_snapshot"}
        wrapped = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qnl" or n.startswith("qnl.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (getattr(value, "__name__", None) not in targets
                        or not getattr(value, "__module__", "").startswith("qnl")):
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(value.__name__, value)
                setattr(module, attr, wrapped[value])
        LimitTrajectory.v_at = self._counted("v_at", LimitTrajectory.v_at)
        missing = targets - {fn.__name__ for fn in wrapped}
        if missing:
            raise RuntimeError(f"tracer: qnl has no function {sorted(missing)}")

    def _wrap(self, name, fn):
        if name == "write_snapshot":
            return self._snapshot_writer(fn)
        if name in COUNTED:
            return self._counted(COUNTED[name], fn)
        return self._span(SPANS[name], fn, after=self._nodes if name == "run_limit" else None)

    def _span(self, span_name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [span_name, _clock(), None, self._open[-1] if self._open else -1,
                      self._fft_total()]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                record[2] = _clock()
                record[4] = self._fft_total() - record[4]
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, group, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if group in self._busy:
                return fn(*args, **kwargs)
            self._busy.add(group)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._busy.discard(group)
                entry = self.counters.setdefault(group, [0, 0.0])
                entry[0] += 1
                entry[1] += _clock() - start
        return wrapper

    def _snapshot_writer(self, fn):
        @functools.wraps(fn)
        def wrapper(path, field):
            start = _clock()
            fn(path, field)
            self.snapshot["seconds"] += _clock() - start
            self.snapshot["calls"] += 1
            self.snapshot["bytes"] += os.path.getsize(path)
        return wrapper

    def _nodes(self, trajectory):
        """Bytes of the arrays a limit trajectory stores for interpolation."""
        total = 0
        for value in vars(trajectory).values():
            if isinstance(value, list):
                total += sum(getattr(item, "nbytes", 0) for item in value)
        self.nodes_bytes += total

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "fft": self.fft, "snapshot": self.snapshot,
                       "nodes_bytes": self.nodes_bytes}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from one dumped trace

def _self_times(spans):
    """Span duration minus its children's; children of one thread never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _stage_of(spans):
    stages = set(STAGES.values())
    out = []
    for name, _, _, parent, _ in spans:
        out.append(name if name in stages else (out[parent] if parent >= 0 else None))
    return out


def layer_metrics(trace, rows_failed):
    """Per-layer metrics of one traced sweep: name -> (value, unit)."""
    spans = trace["spans"]
    stage = _stage_of(spans)
    selfs = _self_times(spans)
    fft, counters, snap = trace["fft"], trace["counters"], trace["snapshot"]

    def count(group):
        return counters.get(group, [0, 0.0])

    def of(kind, stage_name):
        return [i for i, s in enumerate(spans) if s[0] == kind and stage[i] == stage_name]

    def total(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def ffts(indices):
        return sum(spans[i][4] for i in indices)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    n_fft = fft["fwd"] + fft["inv"]
    m["spectral.fft_fwd"] = (fft["fwd"], "count")
    m["spectral.fft_inv"] = (fft["inv"], "count")
    m["spectral.fft_us"] = (1e6 * ratio(fft["seconds"], n_fft), "us")
    m["spectral.fft_bytes"] = (fft["bytes"], "B")
    m["spectral.product_calls"] = (count("product")[0], "count")
    m["spectral.product_s"] = (count("product")[1], "s")
    m["spectral.sobolev_norm_s"] = (count("sobolev_norm")[1], "s")
    m["spectral.snapshot_write_s"] = (snap["seconds"], "s")
    m["spectral.snapshot_bytes"] = (snap["bytes"], "B")
    m["projections.calls"] = (count("projections")[0], "count")
    m["projections.s"] = (count("projections")[1], "s")
    m["oscillation.calls"] = (count("oscillation")[0], "count")
    m["oscillation.s"] = (count("oscillation")[1], "s")

    for layer, stage_name, run_key in (("limit_solver", STAGES["run_limit"], "run_s"),
                                       ("ansatz", STAGES["solve_osc"], "solve_osc_s"),
                                       ("nsp", STAGES["run_nsp"], "run_s")):
        runs = [i for i, s in enumerate(spans) if s[0] == stage_name]
        steps, rhs = of("step", stage_name), of("rhs", stage_name)
        m[f"{layer}.{run_key}"] = (total(runs), "s")
        m[f"{layer}.self_s"] = (sum(selfs[i] for i in runs), "s")
        m[f"{layer}.steps"] = (len(steps), "count")
        m[f"{layer}.rhs_calls"] = (len(rhs), "count")
        m[f"{layer}.fft_per_rhs"] = (ratio(ffts(rhs), len(rhs)), "count")
        if layer == "nsp":
            m["nsp.run_s_max"] = (max((total([i]) for i in runs), default=0.0), "s")
            m["nsp.step_ms"] = (1e3 * statistics.median(
                spans[i][2] - spans[i][1] for i in steps) if steps else 0.0, "ms")
            m["nsp.fft_per_step"] = (ratio(ffts(steps), len(steps)), "count")
        if layer == "limit_solver":
            m["limit_solver.rhs_per_step"] = (ratio(len(rhs), len(steps)), "count")
    m["limit_solver.v_at_s"] = (count("v_at")[1], "s")
    m["limit_solver.nodes_mb"] = (trace["nodes_bytes"] / 2 ** 20, "MiB")
    m["ansatz.build_oscillation_s"] = (count("build_oscillation")[1], "s")

    sweep = [i for i, s in enumerate(spans) if s[0] == "harness.run_sweep"]
    first_gen = min((spans[i][1] for i, s in enumerate(spans)
                     if s[0] == STAGES["gen_initial_data"]), default=0.0)
    measures = [i for i, s in enumerate(spans) if s[0] == STAGES["measure_errors"]]
    last_measure = max((spans[i][2] for i in measures), default=first_gen)
    m["harness.lambda_stage_s"] = (last_measure - first_gen, "s")
    m["harness.measure_errors_s"] = (total(measures), "s")
    m["harness.self_s"] = (sum(selfs[i] for i in sweep), "s")
    m["harness.rows_failed"] = (rows_failed, "count")
    return m
