"""Integrating-factor (Lawson) Runge-Kutta 4 stepping on tuples of arrays,
and the one time loop all solvers share.

The solvers split their dynamics as y' = A y + N(y, t) where the flow of A
is known in closed form (diffusion factors per mode, or the oscillation
rotation).  One step of the classical Lawson scheme reads

    Y2 = E2 (y + h/2 N1)            N1 = N(y, t)
    Y3 = E2 y + h/2 N2              N2 = N(Y2, t + h/2)
    Y4 = E1 y + h E2 N3             N3 = N(Y3, t + h/2)
    y+ = E1 y + h/6 (E1 N1 + 2 E2 N2 + 2 E2 N3 + N4)

with E2 = exp(A h/2), E1 = exp(A h) and N4 = N(Y4, t + h).  The scheme is
fourth order for any split and reduces to classical RK4 when A = 0.

A step holds two state-sized tuples of its own while N runs: the stage
input and one running sum of the propagated tendencies, as in low-storage
Runge-Kutta schemes (Williamson, J. Comput. Phys. 1980).  The sum is
accumulated as ((E1 N1 + 2 E2 N2) + 2 E2 N3) + N4, then scaled by h/6 and
added to E1 y, which is formed a second time after N4 rather than held
through it.  That is the formula's arithmetic in the formula's order, so the
step is bitwise the formula, at the cost of one extra flow per step.

N1 is the tendency at the step's starting point.  A solver that needs it
anyway (the limit solve stores it as the Hermite slope of each node) hands
it to the next step, so the last evaluation of one step is reused as the
first of the next (first-same-as-last).

`integrate` is the one time loop of the limit, pair and NSP solves.  It
steps through the `time_grid` of snapshot times with equal substeps of at
most dt, ending exactly on each snapshot time, where it yields the state.
The solver's `settle(y, t)` runs on the initial state and after every step:
it puts the state back on its constraints, raises the solver's typed error
when a guard trips, and returns the state with its first-stage tendency
(or None).  `diffusion` is the solvers' exact diffusion flow, and every
solve returns its states at the snapshot times as `Snapshots`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A solve whose state norm exceeds this multiple of its initial norm has blown up.
BLOWUP_FACTOR = 1e6


def _axpy(y, a, g):
    return tuple(yi + a * gi for yi, gi in zip(y, g))


def lawson_rk4_step(y, t, dt, rhs, propagate, n1=None):
    """Advance y from t to t + dt.

    y: tuple of complex coefficient arrays.
    rhs(y, t): explicit tendency, same layout as y.
    propagate(y, delta): exact flow of the linear part over delta, a linear
        map applied slotwise (must distribute over addition).
    n1: rhs(y, t) if the caller has it already; computed otherwise.

    Apart from y, the only state-sized tuples alive during each rhs call are
    the stage input and the running sum acc; each tendency is dropped once
    its propagated form is in acc, and E1 y is formed twice (seven flows per
    step, not six).  Nothing is written into y, n1 or an array that
    propagate returned: a rate-0 slot of `diffusion` passes through
    uncopied.  acc owns its arrays only after its first _axpy, and only then
    is it updated in place.
    """
    half = 0.5 * dt
    if n1 is None:
        n1 = rhs(y, t)
    stage = propagate(_axpy(y, half, n1), half)
    acc = propagate(n1, dt)
    del n1
    n2 = rhs(stage, t + half)
    del stage
    acc = _axpy(acc, 2.0, propagate(n2, half))
    stage = _axpy(propagate(y, half), half, n2)
    del n2
    e2_n3 = propagate(rhs(stage, t + half), half)
    del stage
    acc = _axpy(acc, 2.0, e2_n3)
    stage = _axpy(propagate(y, dt), dt, e2_n3)
    del e2_n3
    n4 = rhs(stage, t + dt)
    del stage
    # acc + n4, times h/6, plus E1 y: the formula's additions and product
    # with their operands swapped, which leaves every bit unchanged.
    sixth = dt / 6.0
    for a, d, o in zip(acc, n4, propagate(y, dt)):
        a += d
        a *= sixth
        a += o
    return acc


def substep_count(span: float, dt_target: float) -> int:
    """Number of equal substeps covering span with dt <= dt_target."""
    if not dt_target > 0:
        raise ValueError(f"dt_target must be positive, got {dt_target}")
    if span <= 0:
        return 0
    count = max(1, int(-(-span // dt_target)))  # ceil
    while span / count > dt_target * (1.0 + 1e-12):
        count += 1
    return count


def time_grid(snapshot_times, t_end: float) -> np.ndarray:
    """Sorted distinct snapshot times with 0 added; [0, t_end] if None."""
    if snapshot_times is None:
        snapshot_times = (t_end,)
    return np.array(sorted({0.0, *map(float, snapshot_times)}))


def step_count(times, dt: float) -> int:
    """Steps that integrate takes through the time grid times with dt."""
    return sum(substep_count(b - a, dt) for a, b in zip(times, times[1:]))


def time_index(times, t: float) -> int:
    """Index of t in the time grid times (to 1e-9); ValueError otherwise."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9:
        raise ValueError(f"time {t} is not a snapshot time")
    return idx


@dataclass(eq=False)
class Snapshots:
    """The states of one solve at its snapshot times."""

    times: np.ndarray
    states: list

    def at(self, t: float):
        """The state at snapshot time t (to 1e-9); ValueError otherwise."""
        return self.states[time_index(self.times, t)]


def diffusion(k_sq, rates):
    """propagate(y, delta) of exact diffusion: slot i times exp(-rates[i] *
    k_sq * delta), one factor per distinct rate; a rate-0 slot passes.

    The factors of the last two deltas are held, read-only: a step flows
    over h/2 and h only, and integrate keeps h through a snapshot interval,
    so each factor is built once per interval instead of seven times a step.
    """
    distinct = {r for r in rates if r}
    held = {}  # delta -> {rate: factor}, oldest delta first

    def propagate(y, delta):
        factors = held.get(delta)
        if factors is None:
            factors = {r: np.exp(-r * k_sq * delta) for r in distinct}
            for factor in factors.values():
                factor.flags.writeable = False
            if len(held) == 2:
                del held[next(iter(held))]
            held[delta] = factors
        return tuple(factors[r] * yi if r else yi for r, yi in zip(rates, y))
    return propagate


def integrate(y, times, dt, explicit, propagate, settle):
    """Yield the settled state at each of times, stepping from times[0].

    explicit and propagate are the split of lawson_rk4_step; settle(y, t)
    returns (state, tendency or None) and raises to stop the run.  Callers
    consume it with map: the loop variable of a comprehension would keep the
    last yielded state, with the slots the snapshot does not store, alive
    through the following steps.
    """
    t = times[0]
    y, n1 = settle(y, t)
    yield y
    for target in times[1:]:
        nsub = substep_count(target - t, dt)
        sub = (target - t) / nsub
        start = t
        for i in range(1, nsub + 1):
            y = lawson_rk4_step(y, t, sub, explicit, propagate, n1=n1)
            t = target if i == nsub else start + i * sub
            y, n1 = settle(y, t)
        yield y


def all_finite(y) -> bool:
    """False if an array of the tuple y holds a NaN or an infinity (its sum
    is then not finite)."""
    return all(np.isfinite(np.sum(part)) for part in y)
