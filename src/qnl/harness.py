"""Quasineutral-limit sweep harness: initial data, errors, rates, reports.

A sweep solves the limit system once, the lambda-independent filtered pair
system once, then for each Debye length generates matched initial data, runs
the compressible solver and measures the four sup-in-time Sobolev error
channels

    E_rho   = sup_t |rho - 1|_{H^s}
    E_u     = sup_t |u - v - u_osc|_{H^s}
    E_theta = sup_t |theta - theta_lim|_{H^s}
    E_phi   = sup_t |grad phi - grad phi_osc|_{H^(s+1)}

whose log-log slopes against lambda quantify the O(lambda) convergence rate.
Failed runs are recorded as rows with a status string and skipped by the
rate fit.  Output is a CSV report, a CSV of fitted rates and a meta echo of
the resolved configuration; identical configurations produce byte-identical
files.

The lambda-independent stage (limit solve, then pair solve) shares nothing
with the lambda runs until the measurement, so `run_sweep` forks one child
(POSIX `os.fork`) that solves it and then runs a share of the lambda values
while the parent runs the rest.  Before the fork, one `plan_sweep` fixes
every solve's step and step count, checks them against the step budget and
fixes the share by longest-processing-time-first list scheduling (Graham
1969) on a cost in transforms: planned steps times the transforms of one
step.  The child starts with the load of its stage.

What crosses the pipe: the child sends each snapshot's stage item, t = 0
first, as dims + 3 coefficient arrays (the limit state; the pair
potentials (q, psi), whose gradients the receiver forms as the pair solve
forms its snapshots; and the growth factor so far), then its runs
(`_Run`: status, errors and norms), with no array.  The child alone
solves the stage: for each interval it steps the limit solve, then the
pair solve, which reads the limit's Hermite nodes of that interval only.
The pipe is sized to PIPE_BYTES, so the child seldom waits for the parent
to read.  A grid pickles as its `make_grid` call, so every field that
crosses lands on the receiver's one grid of that shape.

Who measures and writes: both processes run their share of the lambda
values through `_run_share`, longest first, and each state as `run_nsp`
reaches it (its on_snapshot) goes to `_Stage.take`, which measures it by
`measure_errors` on one-snapshot `Snapshots` once the stage at its time
is here; `_Run` keeps per snapshot only the errors and norms, which
`_report_row` combines as for a whole run.  As it measures a state, the
process appends its diag_*.csv row and, when save_snapshots is set,
writes its rho and u snapshot files into the run's staging directory.
The child has the whole stage before its runs.  The parent reads every
message in the pipe at each of its snapshots; a state whose stage has not
arrived waits, while the parent goes on with its runs, and
`_Stage.finish` measures what still waits, then reads the child's runs.
The last run of a process frees each snapshot's stage once it has
measured it.

Staging: `run_sweep` makes one empty staging directory before the fork,
in the nearest existing directory above output_dir (`_make_staging`),
and no other directory.  Each process makes a run's directory in it,
with the diag header, when it measures the run's first snapshot.  Once
every row is known, the parent alone writes into output_dir, which
`_write_outputs` makes with its missing parents: report, rates and meta,
then the staged files of each run that ended, moved by os.replace.  The
staging directory, with a failed run's files, is removed on every path;
so a failed sweep leaves no file and no directory, and the outputs are
byte for byte a serial sweep's.

Why not lockstep: driving every run of a process one interval at a time
would step them outside their `run_nsp` calls, which the benchmark's tracer
times as the NSP stage.  A process pool over lambda would raise the peak
RSS (tools/sweep_memory.py prints the parent's memory phase by phase).
Four rules rest on measured prototypes (CHANGES.md).  No thread drains the
pipe: its glibc arena would hold the unpickled arrays apart from the heap
that the lambda runs reuse.  The pipe stays at PIPE_BYTES: with the
system's 64 KiB default the child waits for the parent, and the sweep is
slower.  The waiting queue stays: the parent's first run (the smallest
lambda) can reach a snapshot before the child's stage does, and a parent
that blocked on the pipe there lost time on 2D.  The blow-up guards stay
in the three settles: each solver forms its own norm and guard and checks
temperature its own way, so one shared check added lines.

An exception in the child is re-raised in the parent at its next read of
the pipe; a child that ends without its last message raises ChildLostError;
no lambda run of the parent takes either for its own failure.  Kill and
reap: leaving `_Forked`'s with block, on every exit path, kills and reaps
the child, whether or not every message was read.  Orphans: a child
whose parent is gone (checked every 0.1 s by SIGALRM, since a SIGKILL
reaches no __exit__) or no longer reads (a send finds no reader) removes
the staging directory, which no one else would, and leaves at once.
Under `qnl run` the child inherits the allocator policy that `cli.main`
sets (`cli.keep_freed_heap`), as it inherits the CLI's SIGTERM handler.
`qnl limit` runs the limit solve alone, with stage_plan's step, and no
sweep plan.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import select
import shutil
import signal
import struct
import tempfile
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .ansatz import build_oscillation, pair_potentials, potential_pair
from .errors import (BlowUpError, ChildLostError, DegenerateDensityError,
                     DensityNotPositiveError, InsufficientDataError,
                     InvalidConfigError, MassDefectError,
                     NonpositiveTemperatureError, QnlError)
from .limit_solver import (LimitState, LimitTrajectory, PhysParams, advective_dt,
                           limit_states)
from .nsp import NSPState, nsp_dt, poisson_solve, run_nsp, viscous_dt
from .oscillation import GradientPair, check_gradient
from .projections import leray_p
from .spectral import (SpectralScalar, SpectralVector, constant_scalar,
                       derivative, gradient, laplacian, make_grid, sobolev_norm,
                       transform_forward, write_snapshot)
from .stepping import Snapshots, step_count, time_grid

ERROR_CHANNELS = ("E_rho", "E_u", "E_theta", "E_phi")

# The most steps one solve of a sweep may take; the stock sweeps take at
# most 112, and lambda = 0.00625 takes 224.
MAX_STEPS = 10_000
# The limit and pair solves step at most this far (stage_plan).
STAGE_DT_CAP = 0.005

_STATUS_BY_ERROR = {
    DensityNotPositiveError: "density_not_positive",
    BlowUpError: "blow_up",
    DegenerateDensityError: "degenerate_density",
    NonpositiveTemperatureError: "nonpositive_temperature",
    MassDefectError: "mass_defect",
}


# ---------------------------------------------------------------------------
# configuration

def file_tag(value: float) -> str:
    """The lambda or snapshot-time part of an output file name."""
    return f"{value:.6g}"


def _check_distinct_tags(name: str, values) -> None:
    """InvalidConfigError if two values share a file_tag: their output files
    would overwrite each other."""
    seen = {}
    for value in map(float, values):
        first = seen.setdefault(file_tag(value), value)
        if first != value:
            raise InvalidConfigError(
                f"{name} values {first!r} and {value!r} share the file name tag "
                f"{file_tag(value)!r}")


@dataclass(frozen=True)
class RunConfig:
    dims: int = 2
    resolution: int = 64
    s_norm: float = 3.0
    lambda_list: tuple = (0.1, 0.05, 0.025, 0.0125)
    mu: float = 0.05
    nu: float = 0.0
    kappa: float = 0.05
    euler_mode: bool = False
    dissipation_coupling: float = 0.2
    t_end: float = 0.5
    snapshots: int = 17
    ic: str = "ill"
    ic_random_amp: float = 0.0
    seed: int = 0
    output_dir: str = "qnl_out"
    dt_max: float = 0.01
    phase_resolution: int = 16
    limit_dt: float | None = None
    save_snapshots: bool = False

    def validate(self) -> None:
        for f in fields(self):  # float and float-tuple fields; None is unset
            value = getattr(self, f.name)
            if (f.type.startswith(("float", "tuple")) and value is not None
                    and not np.isfinite(value).all()):
                raise InvalidConfigError(f"{f.name} must be finite, got {value!r}")
        if self.dims not in (2, 3):
            raise InvalidConfigError(f"dims must be 2 or 3, got {self.dims}")
        if self.resolution % 2 != 0 or self.resolution < 8:
            raise InvalidConfigError(
                f"resolution must be even and >= 8, got {self.resolution}")
        if not self.lambda_list:
            raise InvalidConfigError("lambda_list must not be empty")
        lams = tuple(float(x) for x in self.lambda_list)
        if any(x <= 0 for x in lams):
            raise InvalidConfigError("lambda values must be positive")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise InvalidConfigError("lambda_list must be strictly decreasing")
        _check_distinct_tags("lambda_list", lams)
        if self.s_norm < self.dims / 2.0 + 2.0:
            raise InvalidConfigError(
                f"s_norm must be at least N/2 + 2 = {self.dims / 2 + 2}, got {self.s_norm}")
        if self.t_end <= 0:
            raise InvalidConfigError("t_end must be positive")
        if self.ic not in ("ill", "well"):
            raise InvalidConfigError(f"ic must be 'ill' or 'well', got {self.ic!r}")
        if not self.output_dir:
            raise InvalidConfigError("output_dir must not be empty")
        if self.ic_random_amp < 0:
            raise InvalidConfigError(
                f"ic_random_amp must be non-negative, got {self.ic_random_amp}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {self.seed}")
        if self.phase_resolution < 4:
            raise InvalidConfigError("phase_resolution must be >= 4")
        if not self.dt_max > 0:
            raise InvalidConfigError(f"dt_max must be positive, got {self.dt_max}")
        if self.limit_dt is not None and not self.limit_dt > 0:
            raise InvalidConfigError(f"limit_dt must be positive, got {self.limit_dt}")
        if self.mu < 0 or self.kappa < 0:
            raise InvalidConfigError(
                f"mu and kappa must be non-negative, got mu={self.mu}, kappa={self.kappa}")
        if self.dissipation_coupling < 0:
            raise InvalidConfigError(
                f"dissipation_coupling must be non-negative, got {self.dissipation_coupling}")
        for params in [self.limit_params()] + [self.nsp_params(lam) for lam in lams]:
            try:
                params.validate(self.dims)
            except ValueError as exc:
                raise InvalidConfigError(str(exc)) from exc
        times = self.resolved_snapshot_times()
        if self.save_snapshots:
            _check_distinct_tags("snapshot time", times)
        k_sq_max = self.dims * (self.resolution // 2) ** 2
        with np.errstate(over="ignore"):
            weight = np.float64(1.0 + k_sq_max) ** (self.s_norm + 1.0)
        if not np.isfinite(weight):
            raise InvalidConfigError(
                f"s_norm = {self.s_norm} overflows the H^(s+1) weight (1 + |k|^2)^(s+1) "
                f"at resolution {self.resolution}")

    def resolved_snapshot_times(self) -> np.ndarray:
        """The sweep's one time grid: snapshots (at least 2, checked here,
        where it is read) evenly spaced times, through time_grid."""
        if self.snapshots < 2:
            raise InvalidConfigError(f"snapshots must be >= 2, got {self.snapshots}")
        return time_grid(np.linspace(0.0, self.t_end, self.snapshots), self.t_end)

    def limit_params(self) -> PhysParams:
        if self.euler_mode:
            return PhysParams(0.0, 0.0, 0.0)
        return PhysParams(self.mu, self.nu, self.kappa)

    def nsp_params(self, lam: float) -> PhysParams:
        if self.euler_mode:
            c = self.dissipation_coupling * lam
            return PhysParams(c, c, c)
        return PhysParams(self.mu, self.nu, self.kappa)

    def echo_lines(self):
        def fmt(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, tuple):
                return ", ".join(repr(float(x)) for x in value)
            return repr(value) if isinstance(value, str) else str(value)

        lines = []
        for key in sorted(self.__dataclass_fields__):
            value = getattr(self, key)
            if value is not None:  # an unset limit_dt is not echoed
                lines.append(f"{key} = {fmt(value)}")
        return lines


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise InvalidConfigError(f"cannot parse boolean from {text!r}")


def _parse_float_list(text: str) -> tuple:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    if not items:
        raise InvalidConfigError("empty list value")
    return tuple(float(s) for s in items)


# One parser per RunConfig field, from its annotation; an optional field
# parses as its base type.
_PARSERS_BY_TYPE = {"int": int, "float": float, "bool": _parse_bool,
                    "str": str.strip, "tuple": _parse_float_list}
_CONFIG_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type.removesuffix(" | None")]
                   for f in fields(RunConfig)}


def load_config(path: str) -> RunConfig:
    """Parse a line-oriented 'key = value' configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read the config file {path}: {exc}") from exc
    overrides, line_of = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise InvalidConfigError(
                f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            overrides[key] = parser(value.strip())
        except (ValueError, TypeError) as exc:
            raise InvalidConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    config = RunConfig(**overrides)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# initial data

@dataclass(eq=False)
class BaseFields:
    """User-level initial fields feeding both the limit and NSP solves."""

    v0: SpectralVector
    theta0: SpectralScalar
    qu0: SpectralVector      # gradient part of the initial velocity
    phi0: SpectralScalar     # initial electric potential


def default_base_fields(grid, kind: str = "ill", random_amp: float = 0.0,
                        seed: int = 0) -> BaseFields:
    """Smooth few-mode defaults, each written once for both dims: the
    Taylor-Green swirl (sin x cos y, -cos x sin y), in 3D times cos z with a
    zero third component; theta0 = 2 + 0.5 sin x sin y; the gradient part
    grad chi of chi = 0.4 cos y; and phi0 = 0.3 sin x.  Well-prepared data
    zero the two oscillation sources, qu0 and phi0."""
    x, y, *z = grid.collocation_points()
    swirl = [np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)]
    if z:
        for c in swirl:
            c *= np.cos(z[0])
        swirl.append(np.zeros_like(z[0]))
    v0 = SpectralVector(grid, tuple(transform_forward(grid, c) for c in swirl))
    theta0 = transform_forward(grid, 2.0 + 0.5 * np.sin(x) * np.sin(y))
    chi = transform_forward(grid, 0.4 * np.cos(y))
    phi0 = transform_forward(grid, 0.3 * np.sin(x))
    del x, y, z, swirl  # freed before the random fields are drawn

    if random_amp > 0.0:
        rng = np.random.default_rng(seed)
        v0 = v0 + random_amp * leray_p(random_smooth_vector(grid, rng))
        theta0 = theta0 + random_amp * random_smooth_scalar(grid, rng)

    if kind == "well":
        return BaseFields(v0, theta0, 0.0 * v0, 0.0 * phi0)
    return BaseFields(v0, theta0, gradient(chi), phi0)


def base_fields(config: RunConfig) -> BaseFields:
    """The configured default base fields on the configured grid."""
    grid = make_grid(config.dims, config.resolution)
    return default_base_fields(grid, config.ic, config.ic_random_amp, config.seed)


def random_smooth_scalar(grid, rng) -> SpectralScalar:
    """Unit-scale random field with the Gaussian envelope exp(-|k|^2 / 8)."""
    raw = transform_forward(grid, rng.standard_normal(grid.shape))
    envelope = np.exp(-grid.k_sq / (2.0 * 4.0))
    f = SpectralScalar(grid, raw.coeffs * envelope)
    scale = sobolev_norm(f, 0)
    return f * (1.0 / scale) if scale > 0 else f


def random_smooth_vector(grid, rng) -> SpectralVector:
    return SpectralVector(grid, tuple(
        random_smooth_scalar(grid, rng) for _ in range(grid.dims)))


def initial_velocity(base: BaseFields) -> SpectralVector:
    """The NSP initial velocity, the same at every lambda: v0 + qu0 (v0 + 0
    for well-prepared data)."""
    return base.v0 + base.qu0


def gen_initial_data(kind: str, lam: float, base: BaseFields) -> NSPState:
    """Initial NSP data matching the limit data with zero slack: rho = 1 -
    lambda lap(phi0), the potential that solves Poisson for it, theta0, and
    the velocity of initial_velocity.  Well-prepared data are these with
    the sources qu0 and phi0 zero (ValueError if they are not), so rho = 1."""
    if kind not in ("ill", "well"):
        raise ValueError(f"kind must be 'ill' or 'well', got {kind!r}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    grid = base.v0.grid
    LimitState(base.v0, base.theta0).validate()
    if kind == "well" and (sobolev_norm(base.qu0, 0)
                           + sobolev_norm(gradient(base.phi0), 0)) > 1e-12:
        raise ValueError("well-prepared data requires zero gradient part and potential")
    check_gradient(base.qu0)
    rho = constant_scalar(grid, 1.0) - lam * laplacian(base.phi0)
    min_rho = rho.samples().min()
    if min_rho <= 0.0:
        raise DensityNotPositiveError(
            f"lambda = {lam} makes min rho = {min_rho:.3e} <= 0")
    return NSPState(rho, initial_velocity(base), base.theta0.copy(),
                    poisson_solve(rho, lam))


# ---------------------------------------------------------------------------
# measurement and rate fit

@dataclass
class ReportRow:
    lam: float
    e_rho: float = float("nan")
    e_u: float = float("nan")
    e_theta: float = float("nan")
    e_phi: float = float("nan")
    status: str = "ok"
    sup_state_norm: float = float("nan")
    # state_norms of the run, which its diag_*.csv reuses
    hs_norms: list = field(default_factory=list, repr=False, compare=False)

    def channel(self, name: str) -> float:
        return {"E_rho": self.e_rho, "E_u": self.e_u,
                "E_theta": self.e_theta, "E_phi": self.e_phi}[name]


def state_norms(traj: Snapshots, s: float) -> list:
    """(|rho|, |u|, |theta|) in H^s at each snapshot: the rho_hs, u_hs and
    theta_hs columns of diag_*.csv, whose maximum is sup_state_norm."""
    return [(sobolev_norm(state.rho, s), sobolev_norm(state.u, s),
             sobolev_norm(state.theta, s)) for state in traj.states]


def _componentwise_norm(components, s: float) -> float:
    """sobolev_norm of the vector field whose components the iterable yields,
    combined as sobolev_norm combines a vector's: each component is measured
    and dropped before the next is formed."""
    return float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in components)))


def measure_errors(nsp_traj: Snapshots, limit_traj, pair_traj,
                   lam: float, s: float) -> ReportRow:
    """One sweep row: sup-in-time Sobolev errors over the snapshot grid,
    with the state_norms of the run (see _report_row)."""
    grid = nsp_traj.states[0].grid
    one = constant_scalar(grid, 1.0)
    errors = []  # per snapshot, in ERROR_CHANNELS order
    for t, state in zip(nsp_traj.times, nsp_traj.states):
        lim = limit_traj.at(t)
        osc = build_oscillation(t, lam, pair_traj.at(t))
        errors.append((
            sobolev_norm(state.rho - one, s),
            _componentwise_norm((u - v - w for u, v, w in zip(state.u, lim.v, osc.u_osc)), s),
            sobolev_norm(state.theta - lim.theta, s),
            _componentwise_norm((derivative(state.phi, a) - g
                                 for a, g in enumerate(osc.grad_phi_osc)), s + 1.0)))
        # The next snapshot's pair and rotation are built after this one's
        # rotation is freed, not beside it.
        del osc
    return _report_row(lam, errors, state_norms(nsp_traj, s))


def _report_row(lam: float, errors, norms) -> ReportRow:
    """The sweep row of a run from its errors (in ERROR_CHANNELS order) and
    state_norms, one entry per snapshot: each channel's maximum, the largest
    norm as sup_state_norm, and the norms; or a non_finite_measurement row,
    which the rate fit skips, if an error or a norm is not finite."""
    if not (np.isfinite(errors).all() and np.isfinite(norms).all()):
        return ReportRow(lam, status="non_finite_measurement", hs_norms=norms)
    sup_norm = max([0.0, *(value for hs in norms for value in hs)])
    return ReportRow(lam, *map(max, zip(*errors)), "ok", sup_norm, norms)


@dataclass(frozen=True)
class RateFit:
    channel: str
    slope: float
    halfwidth: float


def fit_rate(rows, channel: str) -> RateFit:
    """Least-squares slope of log E against log lambda with a residual width."""
    points = [(row.lam, row.channel(channel)) for row in rows
              if row.status == "ok" and row.channel(channel) > 0.0]
    if len(points) < 3:
        raise InsufficientDataError(
            f"need >= 3 successful rows for {channel}, have {len(points)}")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ssr = float(np.sum((y - slope * x - intercept) ** 2))
    dof = len(points) - 2
    halfwidth = float(np.sqrt(max(ssr, 0.0) / dof / sxx)) if dof > 0 else 0.0
    return RateFit(channel, slope, halfwidth)


def fit_all_rates(rows):
    fits = []
    for channel in ERROR_CHANNELS:
        try:
            fits.append(fit_rate(rows, channel))
        except InsufficientDataError:
            continue
    return fits


# ---------------------------------------------------------------------------
# sweep driver

@dataclass(eq=False)
class ConvergenceReport:
    config: RunConfig
    rows: list
    rates: list
    pair_growth: float

    @property
    def all_ok(self) -> bool:
        return all(row.status == "ok" for row in self.rows)

    def rate(self, channel: str) -> RateFit | None:
        for fit in self.rates:
            if fit.channel == channel:
                return fit
        return None

    def report_csv(self) -> str:
        lines = ["lambda,E_rho,E_u,E_theta,E_phi,status"]
        for row in self.rows:
            fields = [f"{row.lam:.12e}"]
            for name in ERROR_CHANNELS:
                value = row.channel(name)
                fields.append("nan" if not np.isfinite(value) else f"{value:.12e}")
            fields.append(row.status)
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def rates_csv(self) -> str:
        lines = ["channel,slope,halfwidth"]
        for fit in self.rates:
            lines.append(f"{fit.channel},{fit.slope:.12e},{fit.halfwidth:.12e}")
        return "\n".join(lines) + "\n"

    def meta_text(self) -> str:
        lines = list(self.config.echo_lines())
        lines.append(f"pair_growth_factor = {self.pair_growth:.12e}")
        for row in self.rows:
            lines.append(
                f"sup_state_norm[{row.lam:.12e}] = "
                + ("nan" if not np.isfinite(row.sup_state_norm)
                   else f"{row.sup_state_norm:.12e}"))
        return "\n".join(lines) + "\n"


# Transforms per step, by dims (NS and Euler parameters alike); a masked
# transform's 1-D passes count as one.  An NSP step makes 4 RHS evaluations
# of 23 + 3 (3D: 33 + 4) transforms: the electric residue reuses the RHS's
# samples of u and adds the samples of lap(phi) and one forward transform
# per component.  Its settle samples theta once.  A limit step makes 4 of
# 11 (19) plus that sample, a pair step 4 of 20 (36) less the samples of v
# and its gradient, 6 (12), at the two stage times it shares with another
# stage.  Once per stage, before the child sends t = 0, the limit solve
# checks and settles its initial state (a sample of theta, then 1 + 11
# (19)) and the pair solve samples v at t = 0; plan_sweep loads the child
# with these and the stage's steps.  tests/test_sweep_fork.py pins these
# to counted transforms.
NSP_STEP_TRANSFORMS = {2: 4 * (23 + 3) + 1, 3: 4 * (33 + 4) + 1}
STAGE_STEP_TRANSFORMS = {2: 4 * 11 + 1 + 4 * 20 - 2 * 6, 3: 4 * 19 + 1 + 4 * 36 - 2 * 12}
STAGE_ONCE_TRANSFORMS = {2: 1 + 1 + 11 + 6, 3: 1 + 1 + 19 + 12}


@dataclass(frozen=True)
class SweepPlan:
    """A sweep's steps, fixed before the fork: the step and step count of the
    limit and pair solves, the same of the NSP run at each lambda (dicts in
    lambda_list order), and the lambda values the forked child runs."""

    stage_step: float
    stage_count: int
    lam_step: dict
    lam_count: dict
    child_lams: tuple

    @property
    def parent_lams(self) -> tuple:
        return tuple(lam for lam in self.lam_step if lam not in self.child_lams)


def budgeted_steps(what: str, times, dt: float) -> int:
    """The steps integrate takes through the time grid times with dt;
    InvalidConfigError if that is more than MAX_STEPS."""
    with np.errstate(over="ignore"):
        least = (times[-1] - times[0]) / dt
    steps = step_count(times, dt) if least <= MAX_STEPS else least
    if steps > MAX_STEPS:
        raise InvalidConfigError(
            f"{what} would take {least:.3g} steps or more of dt = {dt:.3g}; "
            f"the limit is {MAX_STEPS}")
    return steps


def stage_plan(config: RunConfig, base: BaseFields) -> tuple:
    """The limit and pair solves' step, limit_dt or else the limit CFL step
    of v0 capped at STAGE_DT_CAP, and their budgeted_steps."""
    step = (min(advective_dt(base.v0), STAGE_DT_CAP) if config.limit_dt is None
            else config.limit_dt)
    return step, budgeted_steps("the limit and pair solves",
                                config.resolved_snapshot_times(), step)


def plan_sweep(config: RunConfig, base: BaseFields) -> SweepPlan:
    """A sweep's plan by the solvers' own dt rules on the base fields: the
    stage's by stage_plan, then each NSP run's by nsp_dt at the CFL step of
    the initial velocity (the same at every lambda) and the viscous_dt of
    its least initial density, 1 - lambda max(lap phi0), in budgeted_steps.
    The child's share: LPT on transforms, the child starting with its stage."""
    stage_step, stage_count = stage_plan(config, base)
    times = config.resolved_snapshot_times()
    cfl = advective_dt(initial_velocity(base))
    lap_max = float(laplacian(base.phi0).samples().max())
    lam_step = {lam: nsp_dt(cfl, lam, config.phase_resolution, config.dt_max,
                            viscous_dt(config.nsp_params(lam), base.v0.grid, 1.0 - lam * lap_max))
                for lam in map(float, config.lambda_list)}
    lam_count = {lam: budgeted_steps(f"the NSP run at lambda = {lam!r}", times, dt)
                 for lam, dt in lam_step.items()}
    machine_of = lpt_assign(
        [NSP_STEP_TRANSFORMS[config.dims] * steps for steps in lam_count.values()],
        [0, STAGE_ONCE_TRANSFORMS[config.dims] + STAGE_STEP_TRANSFORMS[config.dims] * stage_count])
    return SweepPlan(stage_step, stage_count, lam_step, lam_count,
                     tuple(lam for lam, m in zip(lam_step, machine_of) if m == 1))


def lpt_assign(costs, loads) -> list:
    """Longest-processing-time-first list scheduling (Graham 1969): the jobs,
    longest first, each go to the least loaded machine.  loads are the
    machines' starting loads; ties go to the earlier job and the earlier
    machine.  Returns each job's machine index."""
    loads = list(loads)
    machine_of = [0] * len(costs)
    for job in sorted(range(len(costs)), key=lambda j: -costs[j]):
        machine = loads.index(min(loads))
        machine_of[job] = machine
        loads[machine] += costs[job]
    return machine_of


# The sweep's pipe holds this many bytes (F_SETPIPE_SZ; Linux allows an
# unprivileged process up to 1 MiB by default), so that the child seldom
# waits for the parent to read a stage interval.
PIPE_BYTES = 1 << 20


def _lambda_independent_stage(config: RunConfig, base: BaseFields, dt: float):
    """The limit solve, then the pair solve on its interpolated velocity,
    both with step dt, one snapshot interval at a time: yields (limit
    state, pair potentials (q, psi), pair growth factor so far) at each
    snapshot time.  The limit solve steps through an interval, then the
    pair solve, whose v_at reads the limit's Hermite nodes of that interval
    only; the values are those of solve_osc on the whole run_limit.
    Neither writes into the base fields, passed uncopied."""
    times = config.resolved_snapshot_times()
    params = config.limit_params()
    nodes = LimitTrajectory(times, [], base.v0.grid, [], [], [])
    limits = limit_states(LimitState(base.v0, base.theta0), params,
                          config.t_end, dt, times, nodes)
    pairs = pair_potentials(GradientPair(base.qu0, gradient(base.phi0)), nodes,
                            params, config.t_end, dt, times, config.s_norm)
    for limit in limits:
        yield (limit, *next(pairs))
        nodes.keep_last_node()


@dataclass(eq=False)
class _Run:
    """One lambda run, measured snapshot by snapshot in the process that runs
    it: "ok" or its failure status and, per snapshot measured, its errors
    (in ERROR_CHANNELS order) and its state_norms.  Its files are in its
    staging directory (_Stage._measure)."""

    lam: float
    status: str = "ok"
    errors: list = field(default_factory=list)
    norms: list = field(default_factory=list)

    def row(self) -> ReportRow:
        """The run's sweep row, once every state it reached is measured:
        _report_row of its snapshots, or its failure status row."""
        if self.status != "ok":
            return ReportRow(self.lam, status=self.status)
        return _report_row(self.lam, self.errors, self.norms)


class _Stage:
    """The lambda-independent stage at the snapshot times reached so far,
    each item (limit state, pair potentials (q, psi), pair growth factor so
    far) as _lambda_independent_stage yields it, and the NSP states that
    wait for it.  A process measures each state of its runs here once the
    stage at its time is here: in the child, which solved the whole stage
    before its runs, at once.  In the parent, child is the _Forked child,
    whose messages (every stage item, t = 0 first, then its runs) _read
    takes."""

    def __init__(self, config: RunConfig, staging: str, child=None):
        self.config, self.staging, self.child = config, staging, child
        self.items, self.growth = [], 1.0
        self.waiting = deque()  # (run, t, state, last) in the order taken
        self.child_runs = [] if child is None else None

    def add(self, item) -> None:
        self.items.append(item)
        self.growth = item[2]

    def take(self, run: _Run, t, state, last: bool) -> None:
        """Measure the state, run's next snapshot, once the stage at its time
        is here, and then free that stage if last (run is its process's
        last); the states that wait are measured too, each as soon as its
        stage is here.  Every message already in the pipe is read."""
        self.waiting.append((run, t, state, last))
        while self.child_runs is None and self.child.ready():
            self._read()
        self._measure_ready()

    def finish(self) -> list:
        """Measure every state that waits, reading the stage it waits for;
        then the child's runs, read from its last message ([] in the child)."""
        while self.waiting or self.child_runs is None:
            self._read()
            self._measure_ready()
        return self.child_runs

    def _read(self) -> None:
        kind, body = self.child.receive()
        if kind == "stage":
            self.add(body)
        else:  # "runs", the last message
            self.child_runs = body

    def _measure_ready(self) -> None:
        # A run's states wait in snapshot order, and the stage arrives in
        # that order, so each run is measured in snapshot order.
        waiting, self.waiting = self.waiting, deque()
        for run, t, state, last in waiting:
            if len(run.norms) < len(self.items):
                self._measure(run, t, state, last)
            else:
                self.waiting.append((run, t, state, last))

    def _measure(self, run: _Run, t, state, last: bool) -> None:
        """measure_errors on the one snapshot alone, which _Run.row combines;
        then the state's diag_*.csv row and, when save_snapshots is set, its
        snapshot files are written into the run's directory under staging,
        which the run's first snapshot makes, with the diag header."""
        s, i, times = self.config.s_norm, len(run.norms), np.array([t])
        limit, potentials, _ = self.items[i]
        pair = potential_pair(state.grid, potentials)  # as the pair solve forms it
        row = measure_errors(Snapshots(times, [state]), Snapshots(times, [limit]),
                             Snapshots(times, [pair]), run.lam, s)
        run.errors.append(tuple(map(row.channel, ERROR_CHANNELS)))
        run.norms += row.hs_norms
        directory = _run_dir(self.staging, run.lam)
        if i == 0:
            os.mkdir(directory)
        with open(os.path.join(directory, f"diag_lambda_{file_tag(run.lam)}.csv"), "a",
                  encoding="utf-8") as fh:
            if i == 0:
                fh.write(DIAG_HEADER + "\n")
            fh.write(_diag_line(t, state, row.hs_norms[0], run.lam, s) + "\n")
        if self.config.save_snapshots:
            stem = os.path.join(directory, f"snapshot_lambda_{file_tag(run.lam)}_t_{file_tag(t)}")
            write_snapshot(stem + "_rho.qnl", state.rho)
            write_snapshot(stem + "_u.qnl", state.u)
        if last:  # no later run of this process reads the stage at i
            self.items[i] = None


def _run_share(config: RunConfig, base: BaseFields, plan: SweepPlan, lams,
               stage: _Stage) -> list:
    """The NSP runs at lams, longest first, so that the parent's states
    seldom wait; each state goes to stage.take as run_nsp reaches it.  A run
    that fails (QnlError) keeps its failure status, and the states it
    reached are measured.  Returns these runs, then stage.finish()'s."""
    order = sorted(lams, key=plan.lam_count.get, reverse=True)
    runs = []
    for lam in order:
        run = _Run(lam)
        runs.append(run)
        try:
            # run_nsp owns the initial data, whose velocity and potential
            # its first step replaces.
            run_nsp(gen_initial_data(config.ic, lam, base), config.nsp_params(lam), lam,
                    config.t_end, plan.lam_step[lam], config.resolved_snapshot_times(),
                    lambda t, state: stage.take(run, t, state, lam == order[-1]))
        except QnlError as exc:
            run.status = _STATUS_BY_ERROR.get(type(exc), f"error:{type(exc).__name__}")
    return runs + stage.finish()


def _child_share(send, config: RunConfig, base: BaseFields, plan: SweepPlan,
                 staging: str) -> None:
    """The forked child's part of a sweep.  It solves the stage and sends
    each snapshot's item, t = 0 first, as it is yielded; then it runs
    plan.child_lams and sends last their runs."""
    stage = _Stage(config, staging)
    for item in _lambda_independent_stage(config, base, plan.stage_step):
        send(("stage", item))
        stage.add(item)
    send(("runs", _run_share(config, base, plan, plan.child_lams, stage)))


class _ChildError(Exception):
    """The forked child's failure, its exception or a ChildLostError (the
    one argument), raised in the parent wherever it reads and re-raised by
    run_sweep as itself; so no lambda run of the parent takes it for its
    own failure."""


def _child_main(parent: int, write_fd: int, config: RunConfig, base: BaseFields,
                plan: SweepPlan, staging: str):
    """The forked child of _Forked: _child_share, where send pipes one
    message as its length and its pickle; an exception is sent last, as
    ("error", exc).  It keeps the module docstring's orphan rule.  SIGTERM,
    which the CLI turns into SystemExit, ends the child plainly.  The child
    leaves with os._exit, so it never returns into the parent's stack,
    atexit handlers or buffered output."""
    def orphaned():
        shutil.rmtree(staging, ignore_errors=True)
        os._exit(1)

    def check(signum, frame):
        if os.getppid() != parent:
            orphaned()

    def send(message):
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        for part in (struct.pack("<Q", len(data)), data):
            view = memoryview(part)
            while view:
                view = view[os.write(write_fd, view):]

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
    code = 1
    try:
        try:
            _child_share(send, config, base, plan, staging)
        except BaseException as exc:  # re-raised by the parent
            send(("error", exc))
        code = 0
    except BrokenPipeError:
        orphaned()
    finally:
        os._exit(code)


class _Forked:
    """The sweep's forked child, which runs _child_share(send, config, base,
    plan, staging) while the parent goes on; each send(message) of the
    child reaches the parent's receive() in order.

    `ready()` says whether a message (or the child's end) is in the pipe,
    and `receive()` returns the next message as (kind, body), waiting for
    it.  A message ("error", exc), or the end of a child that sent no last
    message, raises _ChildError holding exc or a ChildLostError.  Leaving
    the with block kills and reaps the child (the module docstring's
    rules).  The sweep starts no threads, and OpenBLAS, whose idle pool
    numpy starts, shuts it down across a fork, so the child holds no lock
    another thread owned.
    """

    def __init__(self, config: RunConfig, base: BaseFields, plan: SweepPlan, staging: str):
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass  # the system's pipe size; the child may wait for the parent
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _child_main(parent, write_fd, config, base, plan, staging)
        os.close(write_fd)
        self._fd = read_fd

    def ready(self) -> bool:
        return bool(select.select([self._fd], [], [], 0)[0])

    def receive(self):
        kind, body = pickle.loads(self._frame())
        if kind == "error":
            raise _ChildError(body)
        return kind, body

    def _frame(self) -> bytearray:
        """The next message's pickle, as the child sent it."""
        size, = struct.unpack("<Q", self._read(8))
        return self._read(size)

    def _read(self, size: int) -> bytearray:
        data = bytearray(size)
        view, got = memoryview(data), 0
        while got < size:
            count = os.readv(self._fd, [view[got:]])
            if count == 0:
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
                raise _ChildError(ChildLostError(
                    "the forked child (limit and pair stage, and its lambda runs) "
                    "ended without its last message "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"))
            got += count
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        os.close(self._fd)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_sweep(config: RunConfig) -> ConvergenceReport:
    """Full lambda sweep; writes report.csv, rates.csv, meta.txt and the
    files of each run that ended into output_dir, made only on success.  A
    forked child solves the lambda-independent stage, sending it snapshot by
    snapshot, and then its share of the lambda runs, concurrently with the
    parent's.  The module docstring gives the staging, kill and reap, and
    orphan rules."""
    config.validate()
    check_output_dir(config)
    base = base_fields(config)
    plan = plan_sweep(config, base)
    staging = _make_staging(config)
    try:
        try:
            with _Forked(config, base, plan, staging) as child:
                stage = _Stage(config, staging, child)
                by_lam = {run.lam: run for run in _run_share(config, base, plan,
                                                             plan.parent_lams, stage)}
        except _ChildError as failed:
            raise failed.args[0] from None
        runs = [by_lam[lam] for lam in map(float, config.lambda_list)]  # strictly decreasing
        rows = [run.row() for run in runs]
        report = ConvergenceReport(config, rows, fit_all_rates(rows), stage.growth)
        _write_outputs(config, report, runs, staging)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return report


DIAG_HEADER = ("t,mass,min_rho,min_theta,rho_hs,u_hs,theta_hs,"
               "grad_phi_hs1,poisson_residual")


def _diag_line(t, state, hs, lam: float, s: float) -> str:
    """The diag_*.csv row of one NSP snapshot state: mass, positivity
    minima, H^s norms (hs, its state_norms), H^(s+1) norm of grad(phi) and
    Poisson residual."""
    row = (t, state.mass(), state.rho.samples().min(), state.theta.samples().min(),
           *hs, sobolev_norm(gradient(state.phi), s + 1.0), state.poisson_residual(lam))
    return ",".join(f"{value:.12e}" for value in row)


def _run_dir(staging: str, lam: float) -> str:
    """The staging directory of the run at lam."""
    return os.path.join(staging, f"lambda_{file_tag(lam)}")


def check_output_dir(config: RunConfig) -> None:
    """InvalidConfigError if output_dir, or a directory it would be made
    in, exists and is not a directory; creates nothing, so that it can run
    before any solve."""
    path = os.path.abspath(config.output_dir)
    while not os.path.isdir(path):
        if os.path.lexists(path):
            raise InvalidConfigError(
                f"output_dir {config.output_dir!r} cannot be made: {path} is not a directory")
        path = os.path.dirname(path)


def _make_staging(config: RunConfig) -> str:
    """A new, empty staging directory in the nearest existing directory
    above output_dir, so on the file system that output_dir will be made
    on (os.replace does not cross file systems).  It makes no other
    directory: _write_outputs makes output_dir and its missing parents,
    and only once the sweep has succeeded."""
    out = os.path.abspath(config.output_dir)
    home = os.path.dirname(out)
    while not os.path.isdir(home):
        home = os.path.dirname(home)
    return tempfile.mkdtemp(prefix=f".{os.path.basename(out)}.", suffix=".staging", dir=home)


def _write_outputs(config: RunConfig, report: ConvergenceReport, runs, staging: str):
    """report.csv, rates.csv and meta.txt, then the staged diag_*.csv and
    snapshot files of each run that ended (os.replace); a failed run's stay
    in staging, which run_sweep removes."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.report_csv())
    with open(os.path.join(out, "rates.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.rates_csv())
    with open(os.path.join(out, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.meta_text())
    for run in runs:
        if run.status != "ok":
            continue
        directory = _run_dir(staging, run.lam)
        for name in os.listdir(directory):
            os.replace(os.path.join(directory, name), os.path.join(out, name))
