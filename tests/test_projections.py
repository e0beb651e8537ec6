"""Leray projection algebra and Helmholtz decomposition."""

import numpy as np
import pytest

from qnl.projections import decompose, leray_p, leray_q
from qnl.spectral import (constant_scalar, derivative, divergence, gradient,
                          l2_inner, sobolev_norm, vector_from_functions)

from conftest import smooth_scalar, smooth_vector


def curl2d(u):
    return derivative(u[1], 0) - derivative(u[0], 1)


class TestExamples:
    def test_gradient_is_fixed_point(self, grid2d):
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(x),
                                  lambda x, y: np.zeros_like(y))
        assert sobolev_norm(leray_q(u) - u, 0) < 1e-13
        assert sobolev_norm(leray_p(u), 0) < 1e-13

    def test_divergence_free_is_killed(self, grid2d):
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(y),
                                  lambda x, y: np.zeros_like(y))
        assert sobolev_norm(leray_q(u), 0) < 1e-13
        assert sobolev_norm(leray_p(u) - u, 0) < 1e-13

    def test_mixed_field_splits_linearly(self, grid2d):
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(x) + np.sin(y),
                                  lambda x, y: np.zeros_like(y))
        expected = vector_from_functions(grid2d,
                                         lambda x, y: np.sin(x),
                                         lambda x, y: np.zeros_like(y))
        assert sobolev_norm(leray_q(u) - expected, 0) < 1e-13

    def test_mean_mode_goes_to_p(self, grid2d):
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.full_like(x, 2.0),
                                  lambda x, y: np.full_like(x, -1.0))
        assert sobolev_norm(leray_q(u), 0) < 1e-14
        assert sobolev_norm(leray_p(u) - u, 0) < 1e-14


class TestAlgebra:
    @pytest.mark.parametrize("gridname", ["grid2d", "grid3d"])
    def test_projection_identities(self, gridname, rng, request):
        grid = request.getfixturevalue(gridname)
        for _ in range(10):
            u = smooth_vector(grid, rng)
            qu, pu = leray_q(u), leray_p(u)
            scale = sobolev_norm(u, 0)
            assert sobolev_norm(leray_q(qu) - qu, 0) <= 1e-12 * scale
            assert sobolev_norm(leray_p(pu) - pu, 0) <= 1e-12 * scale
            assert sobolev_norm(leray_q(pu), 0) <= 1e-12 * scale
            assert sobolev_norm(pu + qu - u, 0) <= 1e-12 * scale

    def test_l2_orthogonality(self, grid2d, rng):
        for _ in range(10):
            u = smooth_vector(grid2d, rng)
            inner = abs(l2_inner(leray_p(u), leray_q(u)))
            assert inner <= 1e-12 * sobolev_norm(u, 0) ** 2

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0, 3.0])
    def test_hs_pythagoras(self, grid2d, rng, s):
        u = smooth_vector(grid2d, rng)
        total = sobolev_norm(u, s) ** 2
        split = sobolev_norm(leray_p(u), s) ** 2 + sobolev_norm(leray_q(u), s) ** 2
        assert abs(total - split) <= 1e-12 * total

    def test_div_p_and_curl_q_vanish(self, grid2d, rng):
        u = smooth_vector(grid2d, rng)
        assert sobolev_norm(divergence(leray_p(u)), 0) < 1e-12
        assert sobolev_norm(curl2d(leray_q(u)), 0) < 1e-12

    def test_curl_free_q_3d(self, grid3d, rng):
        qu = leray_q(smooth_vector(grid3d, rng))
        for i in range(3):
            for j in range(i + 1, 3):
                comp = derivative(qu[j], i) - derivative(qu[i], j)
                assert sobolev_norm(comp, 0) < 1e-12


class TestDecompose:
    def test_gradient_field(self, grid2d, rng):
        pot = smooth_scalar(grid2d, rng)
        pot = pot - constant_scalar(grid2d, pot.mean)
        u = gradient(pot)
        p_part, q_part, potential = decompose(u)
        assert sobolev_norm(p_part, 0) < 1e-12
        assert sobolev_norm(q_part - u, 0) < 1e-12
        assert abs(potential.mean) < 1e-14
        assert sobolev_norm(gradient(potential) - u, 0) < 1e-11

    def test_divergence_free_field(self, grid2d, rng):
        u = leray_p(smooth_vector(grid2d, rng))
        p_part, q_part, potential = decompose(u)
        assert sobolev_norm(p_part - u, 0) < 1e-12
        assert sobolev_norm(q_part, 0) < 1e-12
        assert sobolev_norm(potential, 0) < 1e-12

    def test_reassembly(self, grid2d, rng):
        u = smooth_vector(grid2d, rng)
        p_part, q_part, potential = decompose(u)
        assert sobolev_norm(p_part + q_part - u, 0) <= 1e-12 * sobolev_norm(u, 0)
        assert sobolev_norm(gradient(potential) - q_part, 0) < 1e-11


def test_gradient_of_the_potential_equals_q_by_value(rng):
    # the NSP state carries Qu by this potential; settle re-splits u with it
    from qnl.projections import gradient_potential
    from qnl.spectral import make_grid
    for grid in (make_grid(2, 16), make_grid(3, 8)):
        u = smooth_vector(grid, rng, decay=100.0)
        got, expected = gradient(gradient_potential(u)), leray_q(u)
        for a in range(grid.dims):
            # equal in value: the signs of some zero coefficients differ
            assert np.array_equal(got[a].coeffs, expected[a].coeffs)
        assert gradient_potential(u).mean == 0.0
