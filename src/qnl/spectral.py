"""Fourier representation of periodic fields on the 2- and 3-torus.

Fields live on the uniform collocation grid of [0, 2*pi)^N and are stored as
Fourier-series coefficients under the convention

    f_hat(k) = (2*pi)^(-N) * integral over T^N of f(x) exp(-i k.x) dx,

so analytic test fields have exactly representable coefficients (e.g.
sin(x1) -> -+ i/2 at k = +-e1).  Fields are real, so the modes with k_N < 0
are the conjugates of their mirror images and are not stored: a coefficient
array is the real-FFT half spectrum k_N = 0 ... n/2, of shape
`grid.spectral_shape`.  Linear operators act mode-wise and are exact on it;
sums over the spectrum (`sobolev_norm`, `l2_inner`) take the Hermitian
weight `grid.weight`, so they equal the sums over the full spectrum.  Only
`write_snapshot` expands to the full spectrum, for the QNL1 file layout.

A process holds one `TorusGrid` per (dims, resolution): `make_grid` builds
it on first use and returns it from then on.  A grid pickles as the call
`make_grid(dims, resolution)`, so a field sent to another process, such as
the sweep's forked child piping its snapshots back, arrives on the
receiver's own grid, and `read_snapshot` reads onto it as well.  So the
field operations compare grids by identity.  Its wavenumbers `k` and `kd`
are open meshes, one n-vector per axis; the symbols they build (|k|^2, the
masks, the weight, the derivative symbols `ik`) are full arrays, which the
grid builds once (see `TorusGrid`).

Every transform is a real FFT behind two helpers: `to_physical` turns a
coefficient array into real samples and `to_spectral` real samples into a
coefficient array, each optionally 2/3-masked.  Both call numpy's pocketfft
gufuncs (`numpy.fft._pocketfft_umath`) directly, one 1-D pass per axis in
the axis order of irfftn/rfftn: the inverse runs `ifft` over the leading
axes and ends with `irfft` along the last, the forward starts with
`rfft_n_even` along the last (resolutions are even) and runs `fft` over the
leading axes in reverse.  The forward passes scale by 1/n and the inverse
ones by 1, which is numpy.fft's norm="forward", so a transform is bitwise
numpy.fft.irfftn or rfftn without its Python wrapper.  An unmasked
transform passes over all n/2 + 1 last-axis columns.  A masked one is
pruned (Markel 1971): the 2/3 mask zeroes every last-axis column past
`grid.band` = n/3 + 1, so its leading-axis passes run over those columns
only, and its samples and in-band coefficients are bitwise those of the
masked n-d transform.  The inverse's `irfft` zero-pads the band back to
n/2 + 1; the forward writes +0 past the band, where the n-d transform times
the mask leaves signed zeros.  `physical_derivative` is `to_physical` of a
derivative.

Nonlinear terms follow the transform method.  An RHS evaluation
inverse-transforms each 2/3-dealiased field and derivative it needs once,
forms every product pointwise, sums the products that enter one tendency
and forward-transforms that sum once, masking the result.  By linearity
this equals the sum of separately dealiased products.  A factor that is
itself a dealiased product (a pressure, a heat term) is forward-transformed,
masked and sampled again before the next product.  `product` is the
single-product form of the same rule.  The Nyquist planes are zeroed by
differentiation to keep real fields real.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import InvalidResolutionError, NonZeroMeanError

MEAN_TOL = 1e-10

_SNAPSHOT_MAGIC = b"QNL1"
_KIND_SCALAR = 1
_KIND_VECTOR = 2


class TorusGrid:
    """Uniform collocation grid on [0, 2*pi)^dims with integer wavenumbers.

    Samples have `shape`, n^dims; coefficient arrays have `spectral_shape`,
    n^(dims-1) x (n/2 + 1).  Wavenumbers run through -n/2 ... n/2 - 1 in
    FFT layout on the leading axes and through 0 ... n/2 on the last.

    The wavenumbers `k` and the Nyquist-zeroed derivative wavenumbers `kd`
    are open meshes (`np.meshgrid(..., sparse=True)`): one array per axis,
    of length n along that axis and 1 along the others.  They only enter
    real-by-complex products with coefficient arrays, which broadcast them
    to the same values at the same speed.  The symbols built from them are
    full `spectral_shape` arrays: |k|^2, the inverse Laplacian symbols, the
    2/3-rule dealiasing mask, the Hermitian weight (1 on the k_N = 0 and
    k_N = n/2 planes, which hold their own mirror images, and 2 elsewhere,
    where each mode stands for itself and -k) and the derivative symbols
    `ik`.  `ik` stays full because a complex-by-complex product with an
    open mesh runs at half the speed, and every derivative multiplies by it.

    Build grids with `make_grid`, which returns one grid per (dims,
    resolution) per process; a grid pickles as that call, so an unpickled
    field shares the receiving process's grid.  Grids compare by identity.
    The arrays are read-only.
    """

    def __init__(self, dims: int, resolution: int):
        if dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {dims}")
        if resolution % 2 != 0 or resolution < 8:
            raise InvalidResolutionError(
                f"resolution must be even and >= 8, got {resolution}")
        self.dims = dims
        self.resolution = resolution
        self.shape = (resolution,) * dims
        self.spectral_shape = (resolution,) * (dims - 1) + (resolution // 2 + 1,)
        self.axes = tuple(range(dims))

        n = resolution
        # 0, 1, ..., n/2-1, -n/2, ..., -1 on the leading axes, 0, 1, ..., n/2
        # on the last.
        k1d = [np.fft.fftfreq(n, d=1.0 / n)] * (dims - 1) + [np.fft.rfftfreq(n, d=1.0 / n)]
        self.k = np.meshgrid(*k1d, indexing="ij", sparse=True)
        self.k_sq = sum(ki ** 2 for ki in self.k)
        with np.errstate(divide="ignore"):
            inv = np.where(self.k_sq > 0, 1.0 / np.where(self.k_sq > 0, self.k_sq, 1.0), 0.0)
        self.inv_k_sq = inv

        # Derivative symbols with the unmatched Nyquist mode removed; the
        # projections reuse them so curl(Q u) and div(P u) vanish exactly.
        k1d_deriv = [np.where(np.abs(ki) == n // 2, 0.0, ki) for ki in k1d]
        self.kd = np.meshgrid(*k1d_deriv, indexing="ij", sparse=True)
        self.ik = [1j * np.broadcast_to(ki, self.spectral_shape) for ki in self.kd]
        kd_sq = sum(ki ** 2 for ki in self.kd)
        self.inv_kd_sq = np.where(kd_sq > 0, 1.0 / np.where(kd_sq > 0, kd_sq, 1.0), 0.0)

        cutoff = n // 3
        mask = np.ones(self.spectral_shape, dtype=bool)
        for ki in self.k:
            mask &= np.abs(ki) <= cutoff
        self.dealias_mask = mask
        # The last-axis columns k_N = 0 ... n/3 the mask keeps, and the mask
        # on them: the masked transforms touch no other column.  It is held
        # as complex 1 and 0, the values a bool mask is cast to in a product,
        # so multiplying by it needs no cast buffer.
        self.band = cutoff + 1
        self.band_mask = mask[..., :self.band].astype(np.complex128)
        # The gufunc `axes` argument of a 1-D pass along each leading axis.
        self.passes = tuple([(a,), (), (a,)] for a in self.axes[:-1])
        self.weight = np.full(self.spectral_shape, 2.0)
        self.weight[..., [0, n // 2]] = 1.0
        for array in (*self.k, *self.kd, *self.ik, self.k_sq, self.inv_k_sq,
                      self.inv_kd_sq, self.dealias_mask, self.band_mask, self.weight):
            array.flags.writeable = False
        self._sobolev_weights = {0: self.weight}

    def sobolev_weight(self, s: float) -> np.ndarray:
        """`weight * (1 + |k|^2)^s`, the H^s norm's weight on the half
        spectrum.  Built on the first call for each s and held, read-only:
        a sweep uses four exponents (0, 1, s_norm and s_norm + 1); for 0,
        `weight` itself, which the formula gives bit for bit."""
        weight = self._sobolev_weights.get(s)
        if weight is None:
            weight = self.weight * (1.0 + self.k_sq) ** s
            weight.flags.writeable = False
            self._sobolev_weights[s] = weight
        return weight

    def collocation_points(self):
        """Physical-space coordinate arrays, shape-matched to the fields."""
        x1d = 2.0 * np.pi * np.arange(self.resolution) / self.resolution
        return np.meshgrid(*(x1d,) * self.dims, indexing="ij")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.resolution

    def __reduce__(self):
        # Pickled as the make_grid call: no array is sent, and unpickling
        # returns the receiving process's own grid.
        return make_grid, (self.dims, self.resolution)

    def __repr__(self):
        return f"TorusGrid(dims={self.dims}, resolution={self.resolution})"


@functools.cache
def make_grid(dims: int, resolution: int) -> TorusGrid:
    """The process's one validated grid for (dims, resolution), built on
    first use."""
    return TorusGrid(dims, resolution)


def _check_same_grid(a, b):
    if a.grid is not b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass(eq=False)
class SpectralScalar:
    """Scalar field as Fourier coefficients on a TorusGrid."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectral_shape:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match "
                             f"grid {self.grid.spectral_shape}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @property
    def mean(self) -> float:
        return float(self.coeffs[(0,) * self.grid.dims].real)

    def samples(self) -> np.ndarray:
        return transform_inverse(self)

    def copy(self) -> "SpectralScalar":
        return SpectralScalar(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a):
        return SpectralScalar(self.grid, self.coeffs * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralScalar(self.grid, -self.coeffs)


@dataclass(eq=False)
class SpectralVector:
    """Vector field with one SpectralScalar per spatial axis."""

    grid: TorusGrid
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.dims:
            raise ValueError(
                f"expected {self.grid.dims} components, got {len(comps)}")
        for c in comps:
            if c.grid is not self.grid:
                raise ValueError("component grid mismatch")
        self.components = comps

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def copy(self) -> "SpectralVector":
        return SpectralVector(self.grid, tuple(c.copy() for c in self.components))

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralVector(self.grid, tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralVector(self.grid, tuple(a - b for a, b in zip(self, other)))

    def __mul__(self, a):
        return SpectralVector(self.grid, tuple(c * a for c in self.components))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralVector(self.grid, tuple(-c for c in self.components))


def _passes(kernel, lines, fct, passes, out):
    """lines after the 1-D kernel has run along each axis of passes in turn,
    each scaled by fct: the first pass writes into out, the others in place."""
    for axes in passes:
        lines = kernel(lines, fct, axes=axes, out=out)
        out = lines
    return lines


def to_physical(grid: TorusGrid, coeffs: np.ndarray, masked: bool = True) -> np.ndarray:
    """Real collocation samples of a coefficient array, one inverse
    transform; when masked the 2/3 mask is applied first."""
    if masked:
        lines = coeffs[..., :grid.band] * grid.band_mask
        out = lines
    else:
        lines, out = coeffs, np.empty(grid.spectral_shape, dtype=np.complex128)
    lines = _passes(_pocketfft.ifft, lines, 1, grid.passes, out)
    return _pocketfft.irfft(lines, 1, out=np.empty(grid.shape))


def physical_derivative(grid: TorusGrid, coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Dealiased samples of the derivative along axis, one inverse transform."""
    return to_physical(grid, grid.ik[axis] * coeffs)


def to_spectral(grid: TorusGrid, samples: np.ndarray, masked: bool = True) -> np.ndarray:
    """Coefficient array of real collocation samples, one forward transform;
    when masked the result is 2/3-dealiased."""
    fct = 1.0 / grid.resolution
    coeffs = _pocketfft.rfft_n_even(
        samples, fct, out=np.empty(grid.spectral_shape, dtype=np.complex128))
    passes = grid.passes[::-1]
    if not masked:
        return _passes(_pocketfft.fft, coeffs, fct, passes, coeffs)
    # The first leading-axis pass reads the band and writes it contiguous,
    # then the band, masked, and +0 past it fill the coefficient array.
    band = _passes(_pocketfft.fft, coeffs[..., :grid.band], fct, passes,
                   np.empty(grid.band_mask.shape, dtype=np.complex128))
    band *= grid.band_mask
    coeffs[..., :grid.band] = band
    coeffs[..., grid.band:] = 0.0
    return coeffs


def vector_from_samples(grid: TorusGrid, samples) -> SpectralVector:
    """Dealiased vector field from per-component samples, one forward
    transform each."""
    return as_vector(grid, [to_spectral(grid, s) for s in samples])


def physical_gradient(u: SpectralVector):
    """Dealiased samples g[a][b] of d_a u_b, one inverse transform each."""
    grid = u.grid
    return [[physical_derivative(grid, c.coeffs, a) for c in u.components]
            for a in range(grid.dims)]


def transform_forward(grid: TorusGrid, samples: np.ndarray) -> SpectralScalar:
    """Real collocation samples -> Fourier-series coefficients."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(
            f"sample shape {samples.shape} does not match grid {grid.shape}")
    return SpectralScalar(grid, to_spectral(grid, samples, masked=False))


def transform_inverse(f: SpectralScalar) -> np.ndarray:
    """Fourier coefficients -> real collocation samples."""
    return to_physical(f.grid, f.coeffs, masked=False)


def scalar_from_function(grid: TorusGrid, fn) -> SpectralScalar:
    """Sample fn(x1, ..., xN) on the collocation grid and transform."""
    return transform_forward(grid, fn(*grid.collocation_points()))


def vector_from_functions(grid: TorusGrid, *fns) -> SpectralVector:
    if len(fns) != grid.dims:
        raise ValueError(f"need {grid.dims} component functions")
    return SpectralVector(grid, tuple(scalar_from_function(grid, fn) for fn in fns))


def zeros_scalar(grid: TorusGrid) -> SpectralScalar:
    return SpectralScalar(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))


def zeros_vector(grid: TorusGrid) -> SpectralVector:
    return SpectralVector(grid, tuple(zeros_scalar(grid) for _ in range(grid.dims)))


def as_vector(grid: TorusGrid, arrays) -> SpectralVector:
    """Vector field whose components view the given coefficient arrays."""
    return SpectralVector(grid, tuple(SpectralScalar(grid, c) for c in arrays))


def stack(*fields) -> tuple:
    """The coefficient arrays of scalar and vector fields, in order, as one
    flat tuple (the solvers' state layout); nothing is copied."""
    return tuple(c for f in fields for c in (
        (f.coeffs,) if isinstance(f, SpectralScalar) else (g.coeffs for g in f)))


def constant_scalar(grid: TorusGrid, value: float) -> SpectralScalar:
    f = zeros_scalar(grid)
    f.coeffs[(0,) * grid.dims] = value
    return f


def derivative(f: SpectralScalar, axis: int) -> SpectralScalar:
    """Spectral partial derivative along an axis; Nyquist mode zeroed."""
    if not 0 <= axis < f.grid.dims:
        raise ValueError(f"axis {axis} out of range for dims={f.grid.dims}")
    return SpectralScalar(f.grid, f.coeffs * f.grid.ik[axis])


def gradient(f: SpectralScalar) -> SpectralVector:
    return SpectralVector(f.grid, tuple(derivative(f, a) for a in range(f.grid.dims)))


def divergence(u: SpectralVector) -> SpectralScalar:
    out = derivative(u[0], 0)
    for a in range(1, u.grid.dims):
        out = out + derivative(u[a], a)
    return out


def laplacian(f):
    """Laplacian of a scalar or (componentwise) vector field."""
    if isinstance(f, SpectralVector):
        return SpectralVector(f.grid, tuple(laplacian(c) for c in f.components))
    return SpectralScalar(f.grid, -f.grid.k_sq * f.coeffs)


def inverse_laplacian(f: SpectralScalar) -> SpectralScalar:
    """Mean-zero solution g of lap(g) = f; requires mean-zero input."""
    mean = abs(f.coeffs[(0,) * f.grid.dims])
    if mean > MEAN_TOL:
        raise NonZeroMeanError(
            f"inverse Laplacian needs mean-zero input, |f_0| = {mean:.3e}")
    return SpectralScalar(f.grid, -f.grid.inv_k_sq * f.coeffs)


def product(f: SpectralScalar, g: SpectralScalar) -> SpectralScalar:
    """Dealiased pointwise product of two scalar fields."""
    _check_same_grid(f, g)
    grid = f.grid
    samples = to_physical(grid, f.coeffs) * to_physical(grid, g.coeffs)
    return SpectralScalar(grid, to_spectral(grid, samples))


def sobolev_norm(f, s: float) -> float:
    """H^s norm (sum over components for vectors and pairs of vectors),
    with the grid's held weight for s."""
    return _weighted_norm(f, f.grid.sobolev_weight(s))


def _weighted_norm(f, weight: np.ndarray) -> float:
    if hasattr(f, "grad_q"):  # GradientPair-like
        return float(np.hypot(_weighted_norm(f.grad_q, weight),
                              _weighted_norm(f.grad_psi, weight)))
    if isinstance(f, SpectralVector):
        return float(np.sqrt(sum(_weighted_norm(c, weight) ** 2 for c in f.components)))
    return float(np.sqrt(np.sum(weight * np.abs(f.coeffs) ** 2)))


def l2_inner(f, g) -> float:
    """Coefficient-space L^2 inner product (real part)."""
    if isinstance(f, SpectralVector):
        return float(sum(l2_inner(a, b) for a, b in zip(f, g)))
    _check_same_grid(f, g)
    return float(np.real(np.sum(f.grid.weight * np.conj(f.coeffs) * g.coeffs)))


def _full_spectrum(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """The full n^N spectrum of a coefficient array: the modes with k_N < 0
    are the conjugates of their mirror images -k."""
    n = grid.resolution
    neg = (-np.arange(n)) % n
    mirror = coeffs[np.ix_(*(neg,) * (grid.dims - 1), np.arange(n // 2 - 1, 0, -1))]
    return np.concatenate([coeffs, np.conj(mirror)], axis=-1)


def write_snapshot(path, field) -> None:
    """Write a field to the self-describing little-endian binary format.

    Layout: magic "QNL1", then uint32 dims, resolution and kind (1 = scalar,
    2 = vector), then the full n^N spectrum in FFT layout as row-major
    (re, im) float64 pairs, vector components in axis order.
    """
    if isinstance(field, SpectralVector):
        kind, blocks = _KIND_VECTOR, [c.coeffs for c in field.components]
    elif isinstance(field, SpectralScalar):
        kind, blocks = _KIND_SCALAR, [field.coeffs]
    else:
        raise TypeError(f"cannot snapshot object of type {type(field)!r}")
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", grid.dims, grid.resolution, kind))
        for block in blocks:
            fh.write(_full_spectrum(grid, block).astype("<c16", copy=False).tobytes())


def read_snapshot(path):
    """Read a field written by write_snapshot, keeping the half spectrum."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        dims, resolution, kind = struct.unpack("<III", fh.read(12))
        grid = make_grid(dims, resolution)
        nbytes = 16 * resolution ** dims
        nblocks = {_KIND_SCALAR: 1, _KIND_VECTOR: dims}.get(kind)
        if nblocks is None:
            raise ValueError(f"unknown snapshot field kind {kind}")
        comps = []
        for _ in range(nblocks):
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ValueError("truncated snapshot payload")
            full = np.frombuffer(raw, dtype="<c16").reshape(grid.shape)
            comps.append(full[..., :grid.spectral_shape[-1]].astype(np.complex128))
    if kind == _KIND_SCALAR:
        return SpectralScalar(grid, comps[0])
    return as_vector(grid, comps)
