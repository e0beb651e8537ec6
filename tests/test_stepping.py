"""Lawson RK4 stepping, the integrate driver and its snapshot time grid."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qnl.ansatz
from qnl import limit_solver, nsp
from qnl.errors import BlowUpError
from qnl.harness import default_base_fields, gen_initial_data
from qnl.limit_solver import PhysParams
from qnl.oscillation import GradientPair
from qnl.spectral import gradient, make_grid, stack
from qnl.stepping import (all_finite, diffusion, integrate, lawson_rk4_step,
                          substep_count, time_grid, time_index)


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
    assert got[0].tobytes() == _reference_step(y, 0.3, 0.1, rhs, propagate)[0].tobytes()
    # one flow each for y over h/2, the first stage, n1, n2 and n3, and two
    # for y over h: E1 y is formed again after N4 instead of being held
    # through it, which keeps one state-sized tuple fewer alive
    assert len(flows) == 7


def test_precomputed_first_stage_gives_identical_step():
    rhs, propagate, calls = _linear_problem()
    y = (np.array([1.0, -0.5]),)
    plain = lawson_rk4_step(y, 0.3, 0.1, rhs, propagate)
    assert len(calls) == 4
    n1 = rhs(y, 0.3)
    calls.clear()
    reused = lawson_rk4_step(y, 0.3, 0.1, rhs, propagate, n1=n1)
    assert len(calls) == 3
    assert plain[0].tobytes() == reused[0].tobytes()


def _limit_ops(grid, params):
    base = default_base_fields(grid, "ill", 0.01, 0)
    explicit, propagate, settle = limit_solver._make_ops(grid, params, 1e300)
    y, _ = settle(stack(base.v0, base.theta0), 0.0)
    return y, explicit, propagate


def _pair_ops(grid):
    # the ops that solve_osc hands to integrate, with v frozen in time
    base = default_base_fields(grid, "ill", 0.01, 0)
    captured = {}

    def capture(y, times, dt, explicit, propagate, settle):
        captured.update(y=y, explicit=explicit, propagate=propagate)
        return iter([y] * len(times))

    pair = GradientPair(base.qu0, gradient(base.phi0))
    saved, qnl.ansatz.integrate = qnl.ansatz.integrate, capture
    try:
        qnl.ansatz.solve_osc(pair, SimpleNamespace(v_at=lambda t: base.v0),
                             PhysParams(0.05, 0.02, 0.05), 0.1, 0.01)
    finally:
        qnl.ansatz.integrate = saved
    return captured["y"], captured["explicit"], captured["propagate"]


def _nsp_ops(grid, lam=0.025):
    base = default_base_fields(grid, "ill", 0.01, 0)
    explicit, propagate, settle = nsp._make_ops(
        grid, PhysParams(0.05, 0.0, 0.05), lam, 1e300)
    y, _ = settle(nsp._unsettled(gen_initial_data("ill", lam, base)), 0.0)
    return y, explicit, propagate


SOLVER_OPS = {
    # every slot has rate 0, so propagate returns its input arrays
    "limit_euler": lambda: _limit_ops(make_grid(2, 16), PhysParams()),
    "limit_ns": lambda: _limit_ops(make_grid(2, 16), PhysParams(0.05, 0.0, 0.05)),
    "pair": lambda: _pair_ops(make_grid(2, 16)),
    "nsp_2d": lambda: _nsp_ops(make_grid(2, 16)),
    "nsp_3d": lambda: _nsp_ops(make_grid(3, 8)),
}


@pytest.mark.parametrize("given_n1", [False, True])
@pytest.mark.parametrize("solver", sorted(SOLVER_OPS))
def test_step_leaves_its_inputs_alone_and_matches_the_formula(solver, given_n1):
    # the step updates its running sum in place; it must never write into
    # y, a given n1 or an array that propagate passed through uncopied
    y, explicit, propagate = SOLVER_OPS[solver]()
    dt = 0.004
    n1 = explicit(y, 0.1) if given_n1 else None
    y_before = [a.copy() for a in y]
    n1_before = [a.copy() for a in n1] if given_n1 else []
    got = lawson_rk4_step(y, 0.1, dt, explicit, propagate, n1=n1)
    for a, before in zip(y, y_before, strict=True):
        assert np.array_equal(a, before)
    for a, before in zip(n1 or (), n1_before, strict=True):
        assert np.array_equal(a, before)
    expected = _reference_step(y, 0.1, dt, explicit, propagate)
    for a, b in zip(got, expected, strict=True):
        assert np.array_equal(a, b)


def _traced_peak(fn):
    """Bytes that fn allocates at its peak above what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_nsp_step_holds_two_states_beside_its_rhs():
    # one NSP step at 16^3: its traced peak less that of one RHS call, in
    # state sizes.  Holding E1 y, E1 N1, E2 N2 and E2 N3 through N4 read
    # 4.94; a stage and one running sum read 2.02.
    y, explicit, propagate = _nsp_ops(make_grid(3, 16))
    state_bytes = sum(a.nbytes for a in y)
    lawson_rk4_step(y, 0.0, 0.004, explicit, propagate)  # warm every cache
    rhs_peak = _traced_peak(lambda: explicit(y, 0.0))
    step_peak = _traced_peak(lambda: lawson_rk4_step(y, 0.0, 0.004, explicit, propagate))
    assert (step_peak - rhs_peak) / state_bytes < 3.1


@pytest.mark.parametrize("dt_target", [0.0, -0.01, float("nan")])
def test_substep_count_rejects_nonpositive_target(dt_target):
    # substep_count(0.5, -0.01) used to loop forever
    with pytest.raises(ValueError, match="dt_target"):
        substep_count(0.5, dt_target)


def test_substep_count_covers_span():
    assert substep_count(0.5, 0.1) == 5
    assert substep_count(0.5, 0.3) == 2
    assert substep_count(0.0, 0.1) == 0


def test_diffusion_builds_each_held_factor_once_and_keeps_its_bits(monkeypatch, rng):
    grid = make_grid(2, 16)
    rates = (0.0, 0.05, 0.05, 0.0, 0.02)
    y = tuple(rng.standard_normal(grid.spectral_shape)
              + 1j * rng.standard_normal(grid.spectral_shape) for _ in rates)
    exps = []
    original = np.exp

    def counted(*args, **kwargs):
        exps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    propagate = diffusion(grid.k_sq, rates)
    # the seven flows of one step and the first of the next, a step's first
    # three in the next snapshot interval, then the first interval's half
    # step again, which has been let go by then
    h, h2 = 0.1 / 3.0, 0.1 / 7.0
    deltas = [h / 2, h, h / 2, h / 2, h / 2, h, h, h / 2, h2 / 2, h2, h2 / 2, h / 2]
    built = []
    for delta in deltas:
        exps.clear()
        out = propagate(y, delta)
        built.append(len(exps))
        for r, yi, oi in zip(rates, y, out):
            if r:
                assert oi.tobytes() == (original(-r * grid.k_sq * delta) * yi).tobytes()
            else:
                assert oi is yi
    assert built == [2, 2, 0, 0, 0, 0, 0, 0, 2, 2, 0, 2]


def test_all_finite():
    good = (np.ones(3), np.zeros((2, 2), dtype=complex))
    assert all_finite(good)
    bad = np.ones(3, dtype=complex)
    bad[1] = complex(0.0, np.inf)
    assert not all_finite(good + (bad,))
    assert not all_finite((np.array([np.nan]),))


def _recording_settle(log, tendency=None):
    def settle(y, t):
        log.append(t)
        return y, (None if tendency is None else tendency(y, t))
    return settle


def test_settle_runs_on_initial_state_and_after_every_step():
    rhs, propagate, calls = _linear_problem()
    settled = []
    times = np.array([0.0, 0.25, 0.5])
    states = list(integrate((np.array([1.0, -0.5]),), times, 0.1, rhs, propagate,
                            _recording_settle(settled)))
    # 3 substeps of 1/12 to 0.25, then 3 more to 0.5
    assert len(states) == len(times)
    assert len(settled) == 1 + 6
    assert settled[0] == 0.0
    assert len(calls) == 4 * 6


def test_step_ends_land_exactly_on_snapshot_times():
    rhs, propagate, calls = _linear_problem()
    settled = []
    # 0.1 + 3 * (0.2 / 3) rounds to 0.30000000000000004, not to 0.3
    times = np.array([0.0, 0.1, 0.3, 0.35, 1.3])
    list(integrate((np.array([1.0, -0.5]),), times, 0.07, rhs, propagate,
                   _recording_settle(settled)))
    for target in times:
        assert target in settled  # exact equality, not approximate
    assert settled == sorted(settled)
    steps = np.diff(settled)
    assert steps.max() <= 0.07 * (1.0 + 1e-12)


def test_yielded_states_equal_plain_steps():
    rhs, propagate, _ = _linear_problem()
    y = (np.array([1.0, -0.5]),)
    got = list(integrate(y, np.array([0.0, 0.2]), 0.1, rhs, propagate,
                         _recording_settle([])))
    expected = lawson_rk4_step(lawson_rk4_step(y, 0.0, 0.1, rhs, propagate),
                               0.1, 0.1, rhs, propagate)
    assert np.array_equal(got[0][0], y[0])
    assert np.array_equal(got[1][0], expected[0])


def test_settle_tendency_is_the_next_first_stage():
    rhs, propagate, calls = _linear_problem()
    settled = []
    list(integrate((np.array([1.0, -0.5]),), np.array([0.0, 0.5]), 0.1, rhs,
                   propagate, _recording_settle(settled, rhs)))
    # settle evaluates N once per node (6 nodes), each step only N2, N3, N4
    nsteps = len(settled) - 1
    assert nsteps == 5
    assert len(calls) - len(settled) == 3 * nsteps


def test_error_raised_in_settle_propagates():
    rhs, propagate, _ = _linear_problem()

    def settle(y, t):
        if t > 0.15:
            raise BlowUpError(f"guard tripped at t = {t}")
        return y, None

    run = integrate((np.array([1.0, -0.5]),), np.array([0.0, 0.1, 0.3]), 0.05,
                    rhs, propagate, settle)
    assert len([next(run), next(run)]) == 2
    with pytest.raises(BlowUpError, match="guard tripped"):
        next(run)


def test_time_grid_sorts_dedups_and_prepends_zero():
    assert time_grid(None, 0.5).tolist() == [0.0, 0.5]
    assert time_grid([0.5, 0.25, 0.5], 0.5).tolist() == [0.0, 0.25, 0.5]
    assert time_grid((0.0, 0.3), 0.3).tolist() == [0.0, 0.3]


@pytest.mark.parametrize("t_end", [0.0, -0.5, float("nan")])
@pytest.mark.parametrize("snapshot_times", [None, (0.1, 0.2)], ids=["default", "explicit"])
def test_time_grid_needs_a_positive_t_end(snapshot_times, t_end):
    # the one check behind the limit, pair and NSP solves' t_end
    with pytest.raises(ValueError, match="t_end must be positive"):
        time_grid(snapshot_times, t_end)


def test_time_index():
    times = time_grid([0.1, 0.2], 0.2)
    assert time_index(times, 0.2 + 1e-12) == 2
    with pytest.raises(ValueError, match="not a snapshot time"):
        time_index(times, 0.15)
