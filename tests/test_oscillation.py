"""Rotation group on gradient pairs, and filtering by it."""

import numpy as np
import pytest

from qnl.errors import NotGradientError
from qnl.oscillation import GradientPair, apply_group, generator
from qnl.projections import leray_p
from qnl.spectral import (constant_scalar, gradient, l2_inner, sobolev_norm)

from conftest import smooth_scalar, smooth_vector


@pytest.fixture(params=["grid2d", "grid3d"], ids=["2d", "3d"])
def grid(request):
    return request.getfixturevalue(request.param)


def random_pair(grid, rng):
    a = gradient(smooth_scalar(grid, rng))
    b = gradient(smooth_scalar(grid, rng))
    return GradientPair(a, b)


def pair_distance(x, y, s=0.0):
    return sobolev_norm(x.grad_q - y.grad_q, s) + sobolev_norm(x.grad_psi - y.grad_psi, s)


class TestGenerator:
    def test_first_slot_only(self, grid, rng):
        a = gradient(smooth_scalar(grid, rng))
        zero = 0.0 * a
        out = generator(GradientPair(a, zero))
        assert sobolev_norm(out.grad_q, 0) < 1e-14
        assert sobolev_norm(out.grad_psi - a, 0) < 1e-14

    def test_second_slot_only(self, grid, rng):
        b = gradient(smooth_scalar(grid, rng))
        out = generator(GradientPair(0.0 * b, b))
        assert sobolev_norm(out.grad_q + b, 0) < 1e-14
        assert sobolev_norm(out.grad_psi, 0) < 1e-14

    def test_squares_to_minus_identity(self, grid, rng):
        pair = random_pair(grid, rng)
        twice = generator(generator(pair))
        assert pair_distance(twice, -1.0 * pair) < 1e-13

    def test_skew_symmetric(self, grid, rng):
        pair = random_pair(grid, rng)
        image = generator(pair)
        inner = (l2_inner(image.grad_q, pair.grad_q)
                 + l2_inner(image.grad_psi, pair.grad_psi))
        assert abs(inner) <= 1e-12 * sobolev_norm(pair, 0) ** 2

    def test_rejects_non_gradient(self, grid, rng):
        solenoidal = leray_p(smooth_vector(grid, rng))
        good = gradient(smooth_scalar(grid, rng))
        with pytest.raises(NotGradientError):
            generator(GradientPair(solenoidal, good))
        with pytest.raises(NotGradientError):
            apply_group(0.5, GradientPair(good, solenoidal))


class TestApplyGroup:
    def test_identity_at_zero(self, grid, rng):
        pair = random_pair(grid, rng)
        assert pair_distance(apply_group(0.0, pair), pair) < 1e-14

    def test_quarter_turn(self, grid, rng):
        pair = random_pair(grid, rng)
        out = apply_group(np.pi / 2, pair)
        assert sobolev_norm(out.grad_q + pair.grad_psi, 0) < 1e-13
        assert sobolev_norm(out.grad_psi - pair.grad_q, 0) < 1e-13

    def test_full_turn(self, grid, rng):
        pair = random_pair(grid, rng)
        assert pair_distance(apply_group(2 * np.pi, pair), pair) < 1e-13

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0, 3.0])
    def test_isometry(self, grid, rng, s):
        pair = random_pair(grid, rng)
        rotated = apply_group(0.37, pair)
        assert abs(sobolev_norm(rotated, s) - sobolev_norm(pair, s)) \
            <= 1e-12 * sobolev_norm(pair, s)

    def test_group_law(self, grid, rng):
        pair = random_pair(grid, rng)
        lhs = apply_group(0.81, apply_group(-0.29, pair))
        rhs = apply_group(0.52, pair)
        assert pair_distance(lhs, rhs) <= 1e-12 * sobolev_norm(pair, 0)

    def test_matches_generator_flow(self, grid, rng):
        # d/dtau at 0 equals the generator (small-angle check)
        pair = random_pair(grid, rng)
        eps = 1e-6
        moved = apply_group(eps, pair)
        fd = (1.0 / eps) * (moved - pair)
        assert pair_distance(fd, generator(pair)) < 1e-5


class TestFilterState:
    """Filtering is the group at angle -t/lambda."""

    def test_free_rotation_is_filtered_to_constant(self, grid, rng):
        # u(t), gphi(t) rotating at frequency 1/lambda filter back to (a0, b0)
        a0 = gradient(smooth_scalar(grid, rng))
        b0 = gradient(smooth_scalar(grid, rng))
        lam = 0.05
        for t in (0.0, 0.013, 0.2, 1.1):
            tau = t / lam
            u = float(np.cos(tau)) * a0 - float(np.sin(tau)) * b0
            gphi = float(np.sin(tau)) * a0 + float(np.cos(tau)) * b0
            pair = apply_group(-t / lam, GradientPair(u, gphi))
            assert sobolev_norm(pair.grad_q - a0, 0) < 1e-12
            assert sobolev_norm(pair.grad_psi - b0, 0) < 1e-12


def test_constant_fields_pass_gradient_check(grid):
    # the k = 0 mode is assigned to P, and a constant is a valid group input
    # only through the Q-check when it vanishes; a zero pair must validate
    zero = gradient(constant_scalar(grid, 1.0))
    pair = GradientPair(zero, zero)
    out = apply_group(1.0, pair)
    assert sobolev_norm(out, 0) == 0.0
