"""Integrating-factor (Lawson) Runge-Kutta 4 stepping on tuples of arrays.

The solvers split their dynamics as y' = A y + N(y, t) where the flow of A
is known in closed form (diffusion factors per mode, or the oscillation
rotation).  One step of the classical Lawson scheme reads

    Y2 = E2 (y + h/2 N1)            N1 = N(y, t)
    Y3 = E2 y + h/2 N2              N2 = N(Y2, t + h/2)
    Y4 = E1 y + h E2 N3             N3 = N(Y3, t + h/2)
    y+ = E1 y + h/6 (E1 N1 + 2 E2 N2 + 2 E2 N3 + N4)

with E2 = exp(A h/2), E1 = exp(A h) and N4 = N(Y4, t + h).  The scheme is
fourth order for any split and reduces to classical RK4 when A = 0.

N1 is the tendency at the step's starting point.  A caller that needs it
anyway (the limit solve stores it as the Hermite slope of each node) passes
it in, so the last evaluation of one step is reused as the first of the
next (first-same-as-last).
"""

from __future__ import annotations

import numpy as np


def _axpy(y, a, g):
    return tuple(yi + a * gi for yi, gi in zip(y, g))


def lawson_rk4_step(y, t, dt, rhs, propagate, n1=None):
    """Advance y from t to t + dt.

    y: tuple of complex coefficient arrays.
    rhs(y, t): explicit tendency, same layout as y.
    propagate(y, delta): exact flow of the linear part over delta, a linear
        map applied slotwise (must distribute over addition).
    n1: rhs(y, t) if the caller has it already; computed otherwise.
    """
    half = 0.5 * dt
    if n1 is None:
        n1 = rhs(y, t)
    n2 = rhs(propagate(_axpy(y, half, n1), half), t + half)
    n3 = rhs(_axpy(propagate(y, half), half, n2), t + half)
    # Each flow is applied once, and the stages and raw tendencies are
    # dropped as soon as only their propagated forms are needed: every
    # state-sized tuple alive here adds to the solvers' peak memory.
    e1_n1, e2_n2, e2_n3 = propagate(n1, dt), propagate(n2, half), propagate(n3, half)
    del n1, n2, n3
    e1_y = propagate(y, dt)
    n4 = rhs(_axpy(e1_y, dt, e2_n3), t + dt)
    sixth = dt / 6.0
    return tuple(
        oi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for oi, a, b, c, d in zip(e1_y, e1_n1, e2_n2, e2_n3, n4))


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


def all_finite(y) -> bool:
    """False if an array of the tuple y holds a NaN or an infinity (its sum
    is then not finite)."""
    return all(np.isfinite(np.sum(part)) for part in y)
