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
step.  The child starts with the load of its stage.  The parent polls the
pipe between its runs, so a failed child raises at once.  The child
neither measures nor writes, so a failed sweep leaves no output
directory: it pipes back, pickled, the limit snapshots, the pair
trajectory and its lambda runs, and the parent measures and writes every
output as a serial sweep would, byte for byte.  A grid pickles as its
`make_grid` call, so those fields unpickle onto the parent's own grid and
the parent holds one grid per shape.  The limit solve's Hermite nodes live
and die in the child, which keeps them out of the parent's peak RSS; a
process pool over lambda would raise the peak instead
(tools/sweep_memory.py prints the parent's memory phase by phase).  An
exception in the child is re-raised in the parent; a child that ends
without a result raises ChildLostError; the child is killed and reaped on
every exit path, and leaves by itself if its parent is killed outright.
Under `qnl run` the child inherits the allocator policy that `cli.main`
sets (`cli.keep_freed_heap`), as it inherits the CLI's SIGTERM handler.
`qnl limit` solves the limit in-process, with the plan's stage step.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from dataclasses import dataclass, field, fields

import numpy as np

from .ansatz import build_oscillation, solve_osc
from .errors import (BlowUpError, ChildLostError, DegenerateDensityError,
                     DensityNotPositiveError, InsufficientDataError,
                     InvalidConfigError, MassDefectError,
                     NonpositiveTemperatureError, QnlError)
from .limit_solver import LimitState, PhysParams, advective_dt, run_limit
from .nsp import NSPState, nsp_dt, poisson_solve, run_nsp, viscous_dt
from .oscillation import GradientPair, check_gradient
from .projections import leray_p
from .spectral import (SpectralScalar, SpectralVector, constant_scalar, derivative,
                       gradient, laplacian, make_grid, sobolev_norm,
                       transform_forward, write_snapshot)
from .stepping import Snapshots, step_count, time_grid

ERROR_CHANNELS = ("E_rho", "E_u", "E_theta", "E_phi")

# The most steps one solve of a sweep may take; the stock sweeps take at
# most 112, and lambda = 0.00625 takes 224.
MAX_STEPS = 10_000
# The limit and pair solves step at most this far (plan_sweep).
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
    snapshot_times: tuple | None = None
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
        if self.snapshots < 2:
            raise InvalidConfigError("need at least 2 snapshots")
        if self.ic not in ("ill", "well"):
            raise InvalidConfigError(f"ic must be 'ill' or 'well', got {self.ic!r}")
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
        for params in [self.limit_params()] + [self.nsp_params(lam) for lam in lams]:
            try:
                params.validate(self.dims)
            except ValueError as exc:
                raise InvalidConfigError(str(exc)) from exc
        times = time_grid(self.resolved_snapshot_times(), self.t_end)  # in [0, t_end]
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
        if self.snapshot_times is None:
            return np.linspace(0.0, self.t_end, self.snapshots)
        times = time_grid(self.snapshot_times, self.t_end)
        if times[0] < 0 or times[-1] > self.t_end + 1e-12:
            raise InvalidConfigError("snapshot_times must lie in [0, t_end]")
        return times

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

        skip_none = ("snapshot_times", "limit_dt")
        lines = []
        for key in sorted(self.__dataclass_fields__):
            value = getattr(self, key)
            if value is None and key in skip_none:
                continue
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
    overrides, line_of = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def initial_velocity(kind: str, base: BaseFields) -> SpectralVector:
    """The NSP initial velocity, the same at every lambda: v0 + qu0, or v0
    for well-prepared data."""
    return base.v0.copy() if kind == "well" else base.v0 + base.qu0


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
    return NSPState(rho, initial_velocity(kind, base), base.theta0.copy(),
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
    with the state_norms of the run; a non_finite_measurement row, which
    the rate fit skips, if an error or a norm is not finite."""
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
    norms = state_norms(nsp_traj, s)
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
# stage.  Once per stage, the limit solve checks and settles its initial
# state (a sample of theta, then 1 + 11 (19)) and the pair solve samples v
# at t = 0.  tests/test_sweep_fork.py pins these to counted transforms.
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


def plan_sweep(config: RunConfig, base: BaseFields) -> SweepPlan:
    """A sweep's plan by the solvers' own dt rules on the base fields (no
    initial data is generated).  The stage steps by limit_dt, or else by the
    limit CFL step of v0 capped at STAGE_DT_CAP; each NSP run by nsp_dt at
    the CFL step of the initial velocity, the same at every lambda, and at
    the viscous_dt of its least initial density, 1 - lambda max(lap phi0).
    InvalidConfigError if a solve is over the step budget.  The child's
    share: LPT over the runs' transforms, the child loaded with its stage's."""
    times = time_grid(config.resolved_snapshot_times(), config.t_end)
    stage_step = (min(advective_dt(base.v0), STAGE_DT_CAP) if config.limit_dt is None
                  else config.limit_dt)
    stage_count = budgeted_steps("the limit and pair solves", times, stage_step)
    cfl = advective_dt(initial_velocity(config.ic, base))
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


def _run_one_lambda(config: RunConfig, base: BaseFields, lam: float, dt: float,
                    snapshot_times):
    """The NSP run at one lambda of lambda_list with step dt, and "ok"; or
    None and its failure status.  run_nsp owns the initial data, whose
    velocity and potential its first step replaces."""
    try:
        traj = run_nsp(gen_initial_data(config.ic, lam, base), config.nsp_params(lam),
                       lam, config.t_end, dt, snapshot_times)
        return traj, "ok"
    except QnlError as exc:
        return None, _STATUS_BY_ERROR.get(type(exc), f"error:{type(exc).__name__}")


def solve_limit(config: RunConfig, base: BaseFields, dt: float):
    """The limit solve from the base fields over the snapshot grid with
    step dt (the plan's stage_step)."""
    return run_limit(LimitState(base.v0.copy(), base.theta0.copy()),
                     config.limit_params(), config.t_end, dt=dt,
                     snapshot_times=config.resolved_snapshot_times())


def _lambda_independent_stage(config: RunConfig, base: BaseFields, dt: float):
    """Limit solve, then pair solve on its interpolated velocity, both with
    step dt; returns the limit snapshots, without the nodes, and the pair
    trajectory."""
    limit_traj = solve_limit(config, base, dt)
    pair0 = GradientPair(base.qu0.copy(), gradient(base.phi0))
    pair_traj = solve_osc(pair0, limit_traj, config.limit_params(), config.t_end,
                          dt=dt, snapshot_times=config.resolved_snapshot_times(),
                          norm_s=config.s_norm)
    return Snapshots(limit_traj.times, limit_traj.states), pair_traj


def _child_share(config: RunConfig, base: BaseFields, plan: SweepPlan):
    """The forked child's part of a sweep: the lambda-independent stage,
    then the NSP runs at plan.child_lams; returns (limit, pair, {lam:
    (traj, status)})."""
    limit, pair_traj = _lambda_independent_stage(config, base, plan.stage_step)
    snapshot_times = config.resolved_snapshot_times()
    return limit, pair_traj, {
        lam: _run_one_lambda(config, base, lam, plan.lam_step[lam], snapshot_times)
        for lam in plan.child_lams}


def _send_and_exit(write_fd: int, fn, args):
    """Child side of _Forked: compute fn(*args), pipe (True, result) or
    (False, exception) and leave with os._exit, so the child never returns
    into the parent's stack, atexit handlers or buffered output."""
    code = 1
    try:
        try:
            message = (True, fn(*args))
        except BaseException as exc:  # re-raised by the parent
            message = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _leave_when_orphaned(parent: int) -> None:
    """Child side of _Forked: every 0.1 s (SIGALRM), leave at once if the
    parent is gone, as after a SIGKILL, which no __exit__ sees.  SIGTERM,
    which the CLI turns into SystemExit, ends the child plainly."""
    def check(signum, frame):
        if os.getppid() != parent:
            os._exit(1)

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)


class _Forked:
    """fn(*args) computed in a forked child while the parent goes on.

    `result()` returns its value or raises its exception; `poll()` does so
    only if the child's message (or its end) is already in the pipe.
    Leaving the with block kills and reaps the child, whether or not the
    result was read.  The sweep starts no threads, and OpenBLAS, whose idle
    pool numpy starts, shuts it down across a fork, so the child holds no
    lock another thread owned.
    """

    def __init__(self, fn, *args):
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _leave_when_orphaned(parent)
            _send_and_exit(write_fd, fn, args)
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb")
        self._message = None

    def poll(self):
        """Read the child's message if it is waiting; raise its exception."""
        if self._message is None and select.select([self._pipe], [], [], 0)[0]:
            self.result()

    def result(self):
        if self._message is None:
            try:
                self._message = pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
                raise ChildLostError(
                    "the forked child (limit and pair stage, and its lambda runs) "
                    "ended without a result "
                    f"(exit code {os.waitstatus_to_exitcode(status)})") from None
        ok, value = self._message
        if not ok:
            raise value
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_sweep(config: RunConfig) -> ConvergenceReport:
    """Full lambda sweep; writes report.csv, rates.csv and meta.txt.  A
    forked child solves the lambda-independent stage and then its share of
    the lambda runs, concurrently with the parent's (see the module
    docstring)."""
    config.validate()
    base = base_fields(config)
    snapshot_times = config.resolved_snapshot_times()
    plan = plan_sweep(config, base)
    runs = {}
    with _Forked(_child_share, config, base, plan) as child:
        for lam in plan.parent_lams:
            runs[lam] = _run_one_lambda(config, base, lam, plan.lam_step[lam], snapshot_times)
            child.poll()  # a failed child raises now, not after the last run
        limit, pair_traj, child_runs = child.result()
    runs.update(child_runs)
    lams = [float(lam) for lam in config.lambda_list]  # strictly decreasing
    trajectories = [runs[lam][0] for lam in lams]
    rows = [ReportRow(lam, status=runs[lam][1]) if traj is None
            else measure_errors(traj, limit, pair_traj, lam, config.s_norm)
            for lam, traj in zip(lams, trajectories)]
    report = ConvergenceReport(config, rows, fit_all_rates(rows),
                               pair_traj.growth_factor)
    _write_outputs(config, report, trajectories)
    return report


def _diag_csv(traj: Snapshots, lam: float, s: float, norms) -> str:
    """The diag_*.csv text of one NSP run: mass, positivity minima, H^s
    norms (norms are its state_norms) and Poisson residual of each snapshot
    state."""
    lines = ["t,mass,min_rho,min_theta,rho_hs,u_hs,theta_hs,"
             "grad_phi_hs1,poisson_residual"]
    for t, state, hs in zip(traj.times, traj.states, norms, strict=True):
        row = (t, state.mass(), state.rho.samples().min(), state.theta.samples().min(),
               *hs, sobolev_norm(gradient(state.phi), s + 1.0),
               state.poisson_residual(lam))
        lines.append(",".join(f"{value:.12e}" for value in row))
    return "\n".join(lines) + "\n"


def _write_outputs(config: RunConfig, report: ConvergenceReport, trajectories):
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.report_csv())
    with open(os.path.join(out, "rates.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.rates_csv())
    with open(os.path.join(out, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.meta_text())
    for row, traj in zip(report.rows, trajectories):
        if traj is None:
            continue
        name = f"diag_lambda_{file_tag(row.lam)}.csv"
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(_diag_csv(traj, row.lam, config.s_norm, row.hs_norms))
        if config.save_snapshots:
            for t, state in zip(traj.times, traj.states):
                stem = f"snapshot_lambda_{file_tag(row.lam)}_t_{file_tag(t)}"
                write_snapshot(os.path.join(out, stem + "_rho.qnl"), state.rho)
                write_snapshot(os.path.join(out, stem + "_u.qnl"), state.u)
