"""Leray decomposition of torus vector fields in Fourier space.

Q extracts the curl-free (gradient) part mode-by-mode, P = I - Q the
divergence-free part.  The k = 0 (mean) mode belongs to the P part:
constants are divergence-free and scalar potentials are mean-zero.
"""

from __future__ import annotations

from .spectral import SpectralScalar, SpectralVector, as_vector


def _q_coeffs(u: SpectralVector):
    # Built from the Nyquist-zeroed derivative symbols, matching derivative();
    # pure-Nyquist rows therefore belong to the P part, like the mean mode.
    grid = u.grid
    k_dot_u = sum(grid.kd[a] * u[a].coeffs for a in range(grid.dims))
    scale = k_dot_u * grid.inv_kd_sq
    return [grid.kd[a] * scale for a in range(grid.dims)]


def leray_q(u: SpectralVector) -> SpectralVector:
    """Gradient part: (Qu)_k = k (k . u_k) / |k|^2, zero at k = 0."""
    grid = u.grid
    return as_vector(grid, _q_coeffs(u))


def leray_p(u: SpectralVector) -> SpectralVector:
    """Divergence-free part P = I - Q."""
    grid = u.grid
    qc = _q_coeffs(u)
    return as_vector(grid, [u[a].coeffs - qc[a] for a in range(grid.dims)])


def gradient_potential(u: SpectralVector) -> SpectralScalar:
    """The mean-zero potential chi of the gradient part, grad(chi) = Qu:
    chi_k = -i (k . u_k) / |k|^2 with the symbols of Q, so that gradient()
    of it is Qu bit for bit."""
    grid = u.grid
    k_dot_u = sum(grid.kd[a] * u[a].coeffs for a in range(grid.dims))
    return SpectralScalar(grid, -1j * k_dot_u * grid.inv_kd_sq)


def decompose(u: SpectralVector):
    """Split u = Pu + Qu and return (Pu, Qu, potential) with grad(potential) = Qu."""
    return leray_p(u), leray_q(u), gradient_potential(u)
