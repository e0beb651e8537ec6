"""Spectral core: transforms, derivatives, products, norms, snapshots."""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnl.errors import InvalidResolutionError, NonZeroMeanError
from qnl.oscillation import GradientPair
from qnl.projections import gradient_potential, leray_p, leray_q
from qnl.spectral import (SpectralScalar, SpectralVector, TorusGrid, as_vector,
                          constant_scalar, derivative, divergence, gradient, inverse_laplacian,
                          l2_inner, laplacian, make_grid, product, read_snapshot,
                          scalar_from_function, sobolev_norm,
                          stack, to_physical, to_spectral, transform_forward,
                          transform_inverse, vector_from_functions, write_snapshot,
                          zeros_scalar)

from conftest import band_limited_scalar, smooth_scalar, smooth_vector


def dealias(f):
    """The oracle of a field truncated to the 2/3-rule band."""
    if isinstance(f, SpectralVector):
        return SpectralVector(f.grid, tuple(dealias(c) for c in f.components))
    return SpectralScalar(f.grid, f.coeffs * f.grid.dealias_mask)


class TestGrid:
    def test_wavenumber_layout_2d(self):
        grid = make_grid(2, 64)
        assert grid.shape == (64, 64)
        k1 = grid.k[0][:, 0]
        assert k1.min() == -32 and k1.max() == 31
        assert sorted(k1) == list(range(-32, 32))

    def test_3d(self):
        grid = make_grid(3, 16)
        assert grid.shape == (16, 16, 16)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_half_spectrum_layout(self, dims):
        grid = make_grid(dims, 16)
        assert grid.spectral_shape == (16,) * (dims - 1) + (9,)
        assert list(grid.k[-1].reshape(-1, 9)[0]) == list(range(9))
        assert grid.weight.shape == grid.spectral_shape
        assert set(grid.weight[..., 0].ravel()) == set(grid.weight[..., 8].ravel()) == {1.0}
        assert set(grid.weight[..., 1:8].ravel()) == {2.0}
        with pytest.raises(ValueError, match="coefficient shape"):
            SpectralScalar(grid, np.zeros(grid.shape, dtype=complex))

    def test_one_grid_per_shape(self):
        assert make_grid(2, 16) is make_grid(2, 16)
        assert make_grid(3, 16) is not make_grid(2, 16)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_pickled_fields_carry_the_process_grid(self, rng, dims):
        grid = make_grid(dims, 16)
        assert len(pickle.dumps(grid)) < 200  # the make_grid call, no arrays
        f = smooth_scalar(grid, rng)
        back = pickle.loads(pickle.dumps((f, smooth_vector(grid, rng))))
        assert back[0].grid is grid and np.array_equal(back[0].coeffs, f.coeffs)
        assert back[1].grid is grid
        assert all(c.grid is grid for c in back[1])

    @pytest.mark.parametrize("dims", [2, 3])
    def test_wavenumbers_are_open_meshes(self, dims):
        grid = make_grid(dims, 16)
        for a in range(dims):
            shape = [1] * dims
            shape[a] = grid.spectral_shape[a]
            assert grid.k[a].shape == grid.kd[a].shape == tuple(shape)
            assert grid.ik[a].shape == grid.spectral_shape
        for symbol in (grid.k_sq, grid.inv_k_sq, grid.inv_kd_sq, grid.dealias_mask):
            assert symbol.shape == grid.spectral_shape
            assert not symbol.flags.writeable

    @pytest.mark.parametrize("res", [7, 9, 0, 2, 6, -8])
    def test_bad_resolution(self, res):
        with pytest.raises(InvalidResolutionError):
            make_grid(2, res)

    @pytest.mark.parametrize("dims", [1, 4, 0])
    def test_bad_dims(self, dims):
        with pytest.raises(ValueError):
            make_grid(dims, 16)


class TestTransforms:
    def test_sin_coefficients(self, grid2d):
        f = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        np.testing.assert_allclose(f.coeffs[1, 0], -0.5j, atol=1e-14)
        np.testing.assert_allclose(f.coeffs[-1, 0], 0.5j, atol=1e-14)
        others = f.coeffs.copy()
        others[1, 0] = others[-1, 0] = 0.0
        assert np.abs(others).max() < 1e-14

    def test_constant(self, grid2d):
        f = transform_forward(grid2d, np.ones(grid2d.shape))
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-14
        rest = f.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    @pytest.mark.parametrize("dims,res", [(2, 8), (2, 16), (2, 32), (2, 64),
                                          (2, 128), (3, 8), (3, 16)])
    def test_round_trip(self, dims, res, rng):
        grid = make_grid(dims, res)
        samples = rng.standard_normal(grid.shape)
        back = transform_inverse(transform_forward(grid, samples))
        rel = np.abs(back - samples).max() / np.abs(samples).max()
        assert rel < 1e-12

    def test_forward_matches_direct_summation(self, rng):
        # independent O(n^2) oracle: coefficient-by-coefficient DFT sum
        grid = make_grid(2, 8)
        samples = rng.standard_normal(grid.shape)
        n = grid.resolution
        x = 2.0 * np.pi * np.arange(n) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        e = np.exp(-1j * np.outer(k, x))
        expected = np.einsum("ax,by,xy->ab", e, e, samples) / samples.size
        got = transform_forward(grid, samples).coeffs
        # the stored half spectrum is k_2 = 0 ... n/2 (FFT columns 0 ... n/2)
        assert np.abs(got - expected[:, :n // 2 + 1]).max() < 1e-10

    def test_shape_mismatch(self, grid2d):
        with pytest.raises(ValueError):
            transform_forward(grid2d, np.zeros((8, 8)))

    def test_parseval(self, grid2d, rng):
        f = smooth_scalar(grid2d, rng)
        phys = f.samples()
        quad = np.sqrt(np.sum(phys ** 2) * grid2d.spacing ** 2)
        assert abs(quad - (2 * np.pi) * sobolev_norm(f, 0)) < 1e-12


PRUNED_GRIDS = [(2, 8), (2, 10), (2, 16), (2, 24), (2, 64),
                (3, 8), (3, 10), (3, 16), (3, 24), (3, 64)]


class TestPrunedTransforms:
    """The masked transforms run as 1-D passes over the 2/3 band; they must
    equal the masked n-d transforms bit for bit, n not divisible by 3 and
    coefficients on the Nyquist planes included."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(PRUNED_GRIDS), seed=st.integers(0, 2 ** 32 - 1))
    def test_inverse_equals_masked_irfftn(self, case, seed):
        grid = make_grid(*case)
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal(grid.spectral_shape)
                  + 1j * rng.standard_normal(grid.spectral_shape))
        expected = np.fft.irfftn(coeffs * grid.dealias_mask, s=grid.shape,
                                 axes=grid.axes, norm="forward")
        assert to_physical(grid, coeffs).tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(PRUNED_GRIDS), seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_equals_masked_rfftn(self, case, seed):
        grid = make_grid(*case)
        samples = np.random.default_rng(seed).standard_normal(grid.shape)
        expected = np.fft.rfftn(samples, axes=grid.axes, norm="forward") * grid.dealias_mask
        got = to_spectral(grid, samples)
        band = np.s_[..., :grid.band]
        assert got[band].tobytes() == expected[band].tobytes()
        # past the band the masked n-d transform leaves signed zeros; +0 here
        past = got[..., grid.band:]
        assert not past.any()
        assert not (np.signbit(past.real).any() or np.signbit(past.imag).any())

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(PRUNED_GRIDS), seed=st.integers(0, 2 ** 32 - 1))
    def test_unmasked_inverse_equals_irfftn(self, case, seed):
        grid = make_grid(*case)
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal(grid.spectral_shape)
                  + 1j * rng.standard_normal(grid.spectral_shape))
        before = coeffs.copy()
        expected = np.fft.irfftn(coeffs, s=grid.shape, axes=grid.axes, norm="forward")
        assert to_physical(grid, coeffs, masked=False).tobytes() == expected.tobytes()
        assert coeffs.tobytes() == before.tobytes()  # the first pass does not write its input

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(PRUNED_GRIDS), seed=st.integers(0, 2 ** 32 - 1))
    def test_unmasked_forward_equals_rfftn(self, case, seed):
        grid = make_grid(*case)
        samples = np.random.default_rng(seed).standard_normal(grid.shape)
        expected = np.fft.rfftn(samples, axes=grid.axes, norm="forward")
        assert to_spectral(grid, samples, masked=False).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_each_call_counts_as_one_transform(self, count_transforms, rng, dims, masked):
        grid = make_grid(dims, 16)
        samples = rng.standard_normal(grid.shape)
        coeffs = to_spectral(grid, samples, masked=False)
        assert count_transforms(lambda: to_physical(grid, coeffs, masked=masked)) == 1
        assert count_transforms(lambda: to_spectral(grid, samples, masked=masked)) == 1


class TestDerivative:
    def test_sin_to_cos(self, grid2d):
        f = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        expected = scalar_from_function(grid2d, lambda x, y: np.cos(x))
        assert sobolev_norm(derivative(f, 0) - expected, 0) < 1e-13

    def test_constant_derivative_zero(self, grid2d):
        c = constant_scalar(grid2d, 3.7)
        assert sobolev_norm(derivative(c, 0), 0) < 1e-15

    def test_matches_fd4_oracle(self, rng):
        grid = make_grid(2, 64)
        f = band_limited_scalar(grid, rng, kmax=3)
        phys = f.samples()
        h = grid.spacing
        fd = (-np.roll(phys, -2, 0) + 8 * np.roll(phys, -1, 0)
              - 8 * np.roll(phys, 1, 0) + np.roll(phys, 2, 0)) / (12 * h)
        spectral = derivative(f, 0).samples()
        # 4th-order truncation bound: h^4/30 * sup |d^5 f|
        m5 = np.sum(grid.weight * np.abs(grid.k[0]) ** 5 * np.abs(f.coeffs))
        assert np.abs(spectral - fd).max() <= 1.05 * h ** 4 * m5 / 30 + 1e-12

    def test_axis_out_of_range(self, grid2d):
        f = constant_scalar(grid2d, 1.0)
        with pytest.raises(ValueError):
            derivative(f, 2)

    def test_nyquist_zeroed(self, grid2d):
        f = constant_scalar(grid2d, 0.0)
        f.coeffs[grid2d.resolution // 2, 0] = 1.0  # bare Nyquist mode
        assert np.abs(derivative(f, 0).coeffs).max() == 0.0

    def test_realness_preserved(self, grid2d, rng):
        # a coefficient array is a real field's iff sampling it and
        # transforming back returns it
        f = smooth_scalar(grid2d, rng)
        d = derivative(f, 1)
        back = to_spectral(grid2d, to_physical(grid2d, d.coeffs, masked=False), masked=False)
        assert np.abs(back - d.coeffs).max() < 1e-12


class TestInverseLaplacian:
    def test_sin(self, grid2d):
        f = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        assert sobolev_norm(inverse_laplacian(f) + f, 0) < 1e-13

    def test_left_inverse(self, grid2d, rng):
        f = smooth_scalar(grid2d, rng)
        f = f - constant_scalar(grid2d, f.mean)
        assert sobolev_norm(laplacian(inverse_laplacian(f)) - f, 0) < 1e-12

    def test_rejects_mean(self, grid2d):
        with pytest.raises(NonZeroMeanError):
            inverse_laplacian(constant_scalar(grid2d, 1.0))


class TestProduct:
    def test_sin_squared(self, grid2d):
        f = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        expected = scalar_from_function(grid2d, lambda x, y: 0.5 - 0.5 * np.cos(2 * x))
        assert sobolev_norm(product(f, f) - expected, 0) < 1e-13

    def test_multiply_by_one(self, grid2d, rng):
        f = band_limited_scalar(grid2d, rng, kmax=grid2d.resolution // 3)
        one = constant_scalar(grid2d, 1.0)
        assert sobolev_norm(product(f, one) - f, 0) < 1e-13

    def test_low_band_exact_vs_refined_quadrature(self, rng):
        # oracle: multiply on a twice-finer grid (alias-free), then truncate
        grid = make_grid(2, 32)
        fine = make_grid(2, 64)
        f = band_limited_scalar(grid, rng, kmax=grid.resolution // 3)
        g = band_limited_scalar(grid, rng, kmax=grid.resolution // 3)

        n = grid.resolution
        idx = np.ix_(np.fft.fftfreq(n, d=1.0 / n).astype(int), np.arange(n // 2 + 1))

        def upsample(field):
            out = np.zeros(fine.spectral_shape, dtype=complex)
            out[idx] = field.coeffs
            return SpectralScalar(fine, out)

        exact_fine = np.fft.fftn(upsample(f).samples() * upsample(g).samples())
        exact_fine /= upsample(f).samples().size
        exact = exact_fine[idx] * grid.dealias_mask
        got = product(f, g).coeffs
        assert np.abs(got - exact).max() < 1e-12

    def test_product_rule_on_low_band(self, grid2d, rng):
        f = band_limited_scalar(grid2d, rng, kmax=5)
        g = band_limited_scalar(grid2d, rng, kmax=5)
        lhs = derivative(product(f, g), 0)
        rhs = product(derivative(f, 0), g) + product(f, derivative(g, 0))
        assert sobolev_norm(lhs - rhs, 0) < 1e-12

    def test_grid_mismatch(self, grid2d, rng):
        other = make_grid(2, 16)
        with pytest.raises(ValueError):
            product(smooth_scalar(grid2d, rng), smooth_scalar(other, rng))


class TestSobolevNorm:
    def test_examples(self, grid2d):
        f = scalar_from_function(grid2d, lambda x, y: np.sin(x))
        assert abs(sobolev_norm(f, 0) - 1 / np.sqrt(2)) < 1e-13
        assert abs(sobolev_norm(f, 1) - 1.0) < 1e-13
        one = constant_scalar(grid2d, 1.0)
        for s in (0.0, 1.5, 3.0):
            assert abs(sobolev_norm(one, s) - 1.0) < 1e-14

    def test_vector_sums_components(self, grid2d):
        u = vector_from_functions(grid2d,
                                  lambda x, y: np.sin(x),
                                  lambda x, y: np.sin(x))
        assert abs(sobolev_norm(u, 0) - 1.0) < 1e-13

    @pytest.mark.parametrize("s", [0.0, 1.5, 3.5])
    def test_vector_and_pair_norms_are_their_component_norms_bitwise(self, grid3d,
                                                                       rng, s):
        # one weight per call, the per-component arithmetic unchanged
        u, w = smooth_vector(grid3d, rng), smooth_vector(grid3d, rng)
        per_component = float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in u)))
        assert sobolev_norm(u, s) == per_component
        pair = GradientPair(u, w)
        assert sobolev_norm(pair, s) == float(np.hypot(sobolev_norm(u, s),
                                                       sobolev_norm(w, s)))


    @pytest.mark.parametrize("dims,res", [(2, 32), (3, 16)])
    def test_held_weights_give_the_direct_formula_bitwise(self, rng, dims, res):
        # the four exponents of a sweep with s_norm = 3.5: 0, 1, s, s + 1
        grid = make_grid(dims, res)
        f, u = smooth_scalar(grid, rng), smooth_vector(grid, rng)
        for s in (0, 1, 3.5, 4.5):
            direct = grid.weight * (1.0 + grid.k_sq) ** s

            def norm(c):
                return float(np.sqrt(np.sum(direct * np.abs(c.coeffs) ** 2)))

            assert sobolev_norm(f, s) == norm(f)
            assert sobolev_norm(u, s) == float(np.sqrt(sum(norm(c) ** 2 for c in u)))
            held = grid.sobolev_weight(s)
            assert held.tobytes() == direct.tobytes()
            assert grid.sobolev_weight(s) is held
            assert not held.flags.writeable
        # (1 + |k|^2)^0 is 1.0 exactly, so the grid's own weight serves s = 0
        assert grid.sobolev_weight(0) is grid.sobolev_weight(0.0) is grid.weight

def _full_spectrum(samples):
    """Full-spectrum coefficients of real samples, made exactly Hermitian."""
    full = np.fft.fftn(samples) / samples.size
    mirror = np.roll(np.flip(full), 1, axis=tuple(range(samples.ndim)))
    return (full + np.conj(mirror)) / 2


def _full_k_sq(grid):
    k1d = np.fft.fftfreq(grid.resolution, d=1.0 / grid.resolution)
    return sum(k ** 2 for k in np.meshgrid(*(k1d,) * grid.dims, indexing="ij"))


class TestHalfSpectrumSums:
    """Sums over the stored half spectrum equal the sums over the full one.

    White-noise samples put energy on every mode, the k_N = 0 and k_N = n/2
    planes (weight 1) included."""

    @pytest.mark.parametrize("dims,res", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("s", [0.0, 1.0, 3.5])
    def test_sobolev_norm(self, rng, dims, res, s):
        grid = make_grid(dims, res)
        samples = rng.standard_normal(grid.shape)
        f = transform_forward(grid, samples)
        assert np.abs(f.coeffs[..., 0]).min() > 0 and np.abs(f.coeffs[..., -1]).min() > 0
        full = np.fft.fftn(samples) / samples.size
        expected = np.sqrt(np.sum((1.0 + _full_k_sq(grid)) ** s * np.abs(full) ** 2))
        assert abs(sobolev_norm(f, s) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("dims,res", [(2, 16), (3, 8)])
    def test_l2_inner(self, rng, dims, res):
        grid = make_grid(dims, res)
        a, b = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        expected = np.real(np.sum(np.conj(np.fft.fftn(a)) * np.fft.fftn(b))) / a.size ** 2
        got = l2_inner(transform_forward(grid, a), transform_forward(grid, b))
        assert abs(got - expected) < 1e-13
        # Parseval on the samples as well
        assert abs(got - np.mean(a * b)) < 1e-13


class FullMeshGrid(TorusGrid):
    """A grid whose wavenumbers k and kd are full meshgrids, every symbol
    built from them as before the open meshes: the reference they must
    reproduce bit for bit."""

    def __init__(self, dims, n):
        super().__init__(dims, n)
        k1d = [np.fft.fftfreq(n, d=1.0 / n)] * (dims - 1) + [np.fft.rfftfreq(n, d=1.0 / n)]
        self.k = np.meshgrid(*k1d, indexing="ij")
        self.k_sq = sum(ki ** 2 for ki in self.k)
        self.inv_k_sq = np.where(self.k_sq > 0,
                                 1.0 / np.where(self.k_sq > 0, self.k_sq, 1.0), 0.0)
        k1d_deriv = [np.where(np.abs(ki) == n // 2, 0.0, ki) for ki in k1d]
        self.kd = np.meshgrid(*k1d_deriv, indexing="ij")
        self.ik = [1j * ki for ki in self.kd]
        kd_sq = sum(ki ** 2 for ki in self.kd)
        self.inv_kd_sq = np.where(kd_sq > 0, 1.0 / np.where(kd_sq > 0, kd_sq, 1.0), 0.0)
        mask = np.ones(self.spectral_shape, dtype=bool)
        for ki in self.k:
            mask &= np.abs(ki) <= n // 3
        self.dealias_mask = mask
        self.band_mask = mask[..., :self.band].astype(np.complex128)
        self.weight = np.where((self.k[-1] == 0) | (self.k[-1] == n // 2), 1.0, 2.0)


class TestOpenMeshSymbols:
    """The open-mesh wavenumbers change no bit of any operator."""

    @pytest.mark.parametrize("dims,res", [(2, 32), (3, 16)])
    def test_operators_equal_the_full_mesh_reference(self, rng, dims, res):
        grid, ref = make_grid(dims, res), FullMeshGrid(dims, res)
        for name in ("k", "kd", "ik"):
            for a in range(dims):
                assert (np.broadcast_to(getattr(grid, name)[a], grid.spectral_shape).tobytes()
                        == getattr(ref, name)[a].tobytes())
        for name in ("k_sq", "inv_k_sq", "inv_kd_sq", "weight", "dealias_mask",
                     "band_mask"):
            assert getattr(grid, name).tobytes() == getattr(ref, name).tobytes(), name

        u = smooth_vector(grid, rng)
        u_ref = as_vector(ref, [c.coeffs for c in u])
        f, f_ref = u[0], u_ref[0]

        def same(x, y):
            if isinstance(x, SpectralScalar):
                return x.coeffs.tobytes() == y.coeffs.tobytes()
            return all(a.coeffs.tobytes() == b.coeffs.tobytes() for a, b in zip(x, y))

        for a in range(dims):
            assert same(derivative(f, a), derivative(f_ref, a))
        assert same(divergence(u), divergence(u_ref))
        assert same(laplacian(f), laplacian(f_ref))
        assert same(laplacian(u), laplacian(u_ref))
        assert same(leray_p(u), leray_p(u_ref))
        assert same(leray_q(u), leray_q(u_ref))
        assert same(gradient_potential(u), gradient_potential(u_ref))
        assert same(dealias(u), dealias(u_ref))
        for s in (0.0, 1.0, 3.5):
            assert sobolev_norm(f, s) == sobolev_norm(f_ref, s)
            assert sobolev_norm(u, s) == sobolev_norm(u_ref, s)


class TestHermitianSymmetry:
    def test_operations_keep_fields_real(self, grid2d, rng):
        f = smooth_scalar(grid2d, rng)
        g = smooth_scalar(grid2d, rng)
        for out in (derivative(f, 0), laplacian(f), product(f, g),
                    inverse_laplacian(f - constant_scalar(grid2d, f.mean)),
                    dealias(f)):
            back = to_spectral(grid2d, to_physical(grid2d, out.coeffs, masked=False),
                               masked=False)
            assert np.abs(back - out.coeffs).max() < 1e-11


class TestSnapshots:
    def test_scalar_round_trip(self, grid2d, rng, tmp_path):
        f = smooth_scalar(grid2d, rng)
        path = tmp_path / "field.qnl"
        write_snapshot(path, f)
        back = read_snapshot(path)
        assert back.grid is grid2d
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_vector_round_trip(self, grid3d, rng, tmp_path):
        u = smooth_vector(grid3d, rng)
        path = tmp_path / "vec.qnl"
        write_snapshot(path, u)
        back = read_snapshot(path)
        assert back.grid is grid3d
        for a, b in zip(back, u):
            assert a.grid is grid3d
            assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("dims,res", [(2, 16), (3, 8)])
    def test_file_holds_full_spectrum(self, rng, tmp_path, dims, res):
        grid = make_grid(dims, res)
        blocks = [_full_spectrum(rng.standard_normal(grid.shape)) for _ in range(dims)]
        half = [b[..., :res // 2 + 1] for b in blocks]
        for field, kind, count in ((SpectralScalar(grid, half[0]), 1, 1),
                                   (as_vector(grid, half), 2, dims)):
            path = tmp_path / f"field{kind}.qnl"
            write_snapshot(path, field)
            expected = (b"QNL1" + struct.pack("<III", dims, res, kind)
                        + b"".join(b.astype("<c16").tobytes() for b in blocks[:count]))
            assert path.read_bytes() == expected

    def test_read_write_same_bytes(self, grid3d, rng, tmp_path):
        for i, field in enumerate((smooth_scalar(grid3d, rng), smooth_vector(grid3d, rng))):
            first, second = tmp_path / f"a{i}.qnl", tmp_path / f"b{i}.qnl"
            write_snapshot(first, field)
            write_snapshot(second, read_snapshot(first))
            assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qnl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, grid2d, rng, tmp_path):
        f = smooth_scalar(grid2d, rng)
        path = tmp_path / "cut.qnl"
        write_snapshot(path, f)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)


def test_divergence_of_gradient_is_laplacian(grid2d, rng):
    f = smooth_scalar(grid2d, rng)
    # gradient/divergence zero the Nyquist column, so compare on a clean field
    f = SpectralScalar(grid2d, f.coeffs * grid2d.dealias_mask)
    assert sobolev_norm(divergence(gradient(f)) - laplacian(f), 0) < 1e-12


def test_stack_and_as_vector_share_arrays(grid2d, rng):
    f, u = smooth_scalar(grid2d, rng), smooth_vector(grid2d, rng)
    y = stack(f, u, f)
    assert len(y) == 2 + grid2d.dims
    assert y[0] is f.coeffs and y[-1] is f.coeffs
    assert all(a is c.coeffs for a, c in zip(y[1:-1], u))
    v = as_vector(grid2d, y[1:-1])
    assert all(c.coeffs is a for c, a in zip(v, y[1:-1]))


def _kind_3_file(grid, path):
    """A scalar snapshot file whose header names field kind 3."""
    write_snapshot(path, zeros_scalar(grid))
    data = path.read_bytes()
    path.write_bytes(data[:12] + struct.pack("<I", 3) + data[16:])
    return path


# case -> (call on (grid, path), the error it raises or None, its message)
PUBLIC_BRANCHES = {
    "real coefficients": (lambda g, path: SpectralScalar(g, np.ones(g.spectral_shape)),
                          None, None),
    "one component": (lambda g, path: SpectralVector(g, (zeros_scalar(g),)),
                      ValueError, "expected 2 components, got 1"),
    "component on another grid": (
        lambda g, path: SpectralVector(g, (zeros_scalar(g), zeros_scalar(make_grid(2, 16)))),
        ValueError, "component grid mismatch"),
    "one function": (lambda g, path: vector_from_functions(g, np.sin),
                     ValueError, "need 2 component functions"),
    "not a field": (lambda g, path: write_snapshot(path, g.weight),
                    TypeError, "cannot snapshot object of type <class 'numpy.ndarray'>"),
    "unknown kind": (lambda g, path: read_snapshot(_kind_3_file(g, path)),
                     ValueError, "unknown snapshot field kind 3"),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_BRANCHES))
def test_public_field_and_snapshot_branches(grid2d, tmp_path, case):
    call, error, message = PUBLIC_BRANCHES[case]
    path = tmp_path / "field.qnl"
    if error is None:  # real coefficients are stored as complex
        f = call(grid2d, path)
        assert f.coeffs.dtype == np.complex128 and np.all(f.coeffs == 1.0)
        return
    with pytest.raises(error) as info:
        call(grid2d, path)
    assert str(info.value) == message
    assert case != "not a field" or not path.exists()
