"""Lawson RK4 stepping: first-same-as-last reuse and substep counts."""

import numpy as np
import pytest

from qnl.stepping import all_finite, lawson_rk4_step, substep_count


def _linear_problem():
    a = np.array([[-0.3, 1.0], [-1.0, -0.2]])
    calls = []

    def rhs(y, t):
        calls.append(t)
        return (a @ y[0] + np.sin(t),)

    def propagate(y, delta):
        return tuple(np.exp(-0.5 * delta) * yi for yi in y)

    return rhs, propagate, calls


def _reference_step(y, t, dt, rhs, propagate):
    # the scheme as written in the module docstring, one stage at a time
    half = 0.5 * dt
    n1 = rhs(y, t)
    n2 = rhs(propagate(tuple(a + half * b for a, b in zip(y, n1)), half), t + half)
    y3 = tuple(a + half * b for a, b in zip(propagate(y, half), n2))
    n3 = rhs(y3, t + half)
    y4 = tuple(a + dt * b for a, b in zip(propagate(y, dt), propagate(n3, half)))
    n4 = rhs(y4, t + dt)
    return tuple(o + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for o, a, b, c, d in zip(propagate(y, dt), propagate(n1, dt),
                                          propagate(n2, half), propagate(n3, half), n4))


def test_step_matches_reference_formula_exactly():
    rhs, propagate, _ = _linear_problem()
    flows = []

    def counted_propagate(y, delta):
        flows.append(delta)
        return propagate(y, delta)

    y = (np.array([1.0, -0.5]),)
    got = lawson_rk4_step(y, 0.3, 0.1, rhs, counted_propagate)
    assert np.array_equal(got[0], _reference_step(y, 0.3, 0.1, rhs, propagate)[0])
    # one flow each: y over h/2 and over h, the first stage, n1, n2 and n3
    assert len(flows) == 6


def test_precomputed_first_stage_gives_identical_step():
    rhs, propagate, calls = _linear_problem()
    y = (np.array([1.0, -0.5]),)
    plain = lawson_rk4_step(y, 0.3, 0.1, rhs, propagate)
    assert len(calls) == 4
    n1 = rhs(y, 0.3)
    calls.clear()
    reused = lawson_rk4_step(y, 0.3, 0.1, rhs, propagate, n1=n1)
    assert len(calls) == 3
    assert np.array_equal(plain[0], reused[0])


@pytest.mark.parametrize("dt_target", [0.0, -0.01, float("nan")])
def test_substep_count_rejects_nonpositive_target(dt_target):
    # substep_count(0.5, -0.01) used to loop forever
    with pytest.raises(ValueError, match="dt_target"):
        substep_count(0.5, dt_target)


def test_substep_count_covers_span():
    assert substep_count(0.5, 0.1) == 5
    assert substep_count(0.5, 0.3) == 2
    assert substep_count(0.0, 0.1) == 0


def test_all_finite():
    good = (np.ones(3), np.zeros((2, 2), dtype=complex))
    assert all_finite(good)
    bad = np.ones(3, dtype=complex)
    bad[1] = complex(0.0, np.inf)
    assert not all_finite(good + (bad,))
    assert not all_finite((np.array([np.nan]),))
