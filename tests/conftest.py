import numpy as np
import pytest

from qnl import spectral
from qnl.limit_solver import advective_dt
from qnl.nsp import nsp_dt
from qnl.spectral import (SpectralScalar, SpectralVector, derivative,
                          make_grid, product, sobolev_norm, transform_forward)


@pytest.fixture
def grid2d():
    return make_grid(2, 32)


@pytest.fixture
def grid3d():
    return make_grid(3, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


def default_nsp_dt(u, lam):
    """The sweep's NSP step for the initial velocity u at the default
    phase_resolution (16) and dt_max (0.01)."""
    return nsp_dt(advective_dt(u), lam, 16, 0.01)


def smooth_scalar(grid, rng, decay=4.0):
    """Random real field with a Gaussian spectral envelope, unit L2 norm."""
    raw = transform_forward(grid, rng.standard_normal(grid.shape))
    f = SpectralScalar(grid, raw.coeffs * np.exp(-grid.k_sq / (2.0 * decay)))
    return f * (1.0 / sobolev_norm(f, 0))


def smooth_vector(grid, rng, decay=4.0):
    return SpectralVector(grid, tuple(smooth_scalar(grid, rng, decay)
                                      for _ in range(grid.dims)))


def band_limited_scalar(grid, rng, kmax):
    """Random real field supported on |k_j| <= kmax per axis."""
    f = smooth_scalar(grid, rng, decay=100.0)
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for ki in grid.k:
        mask &= np.abs(ki) <= kmax
    return SpectralScalar(grid, f.coeffs * mask)


# -- oracles: one separately dealiased product() per quadratic term ----------
# The solvers form the same products pointwise and transform each field and
# each tendency once (the transform method), so they agree to roundoff.

def advect(u, f):
    """Advection u . grad(f) of a scalar, or componentwise of a vector."""
    if isinstance(f, SpectralVector):
        return SpectralVector(f.grid, tuple(advect(u, c) for c in f.components))
    out = product(u[0], derivative(f, 0))
    for a in range(1, f.grid.dims):
        out = out + product(u[a], derivative(f, a))
    return out


def strain_dissipation(v, mu):
    """(mu/2) * sum_ij (d_i v_j + d_j v_i)^2, dealiased."""
    out = None
    for i in range(v.grid.dims):
        for j in range(i, v.grid.dims):
            sij = derivative(v[j], i) + derivative(v[i], j)
            term = product(sij, sij)
            if i != j:
                term = term * 2.0
            out = term if out is None else out + term
    return out * (0.5 * mu)


# Every transform of spectral.py makes exactly one real 1-D pass: a forward
# transform starts with pocketfft's rfft_n_even gufunc and an inverse ends
# with its irfft, masked or not.  Counting those two calls on the gufunc
# module spectral.py calls counts each transform once.
TRANSFORMS = ("rfft_n_even", "irfft")


@pytest.fixture
def count_transforms(monkeypatch):
    """Callable that runs fn and returns how many transforms it made."""
    calls = [0]
    for name in TRANSFORMS:
        original = getattr(spectral._pocketfft, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral._pocketfft, name, counted)

    def run(fn):
        calls[0] = 0
        fn()
        return calls[0]

    return run
