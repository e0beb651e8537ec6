"""Rotation group acting on (gradient velocity part, electric gradient) pairs.

The generator swaps the slots with a sign, (a, b) -> (-b, a), and squares to
minus the identity, so the group element at angle tau is the closed-form
rotation (a, b) -> (a cos tau - b sin tau, a sin tau + b cos tau).  Acting at
angle -t/lambda it filters the fast 1/lambda exchange between the gradient
velocity and the electric field into a slowly varying pair; the closed form
(rather than a numerical exponential) is what keeps the stiff time stepper
exact on the oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

from .errors import NotGradientError
from .projections import leray_q
from .spectral import SpectralVector, as_vector, sobolev_norm

GRADIENT_TOL = 1e-10


@dataclass(eq=False)
class GradientPair:
    """A pair of curl-free, mean-zero vector fields the group rotates."""

    grad_q: SpectralVector
    grad_psi: SpectralVector

    @property
    def grid(self):
        return self.grad_q.grid

    def __sub__(self, other):
        return GradientPair(self.grad_q - other.grad_q, self.grad_psi - other.grad_psi)

    def __mul__(self, a):
        return GradientPair(self.grad_q * a, self.grad_psi * a)

    __rmul__ = __mul__


def check_gradient(u: SpectralVector) -> None:
    """Raise NotGradientError unless u is (numerically) a fixed point of Q."""
    residual = sobolev_norm(leray_q(u) - u, 0)
    scale = max(1.0, sobolev_norm(u, 0))
    if residual > GRADIENT_TOL * scale:
        raise NotGradientError(
            f"field is not curl-free: Q fixed-point residual {residual:.3e}")


def _validated(pair: GradientPair) -> GradientPair:
    check_gradient(pair.grad_q)
    check_gradient(pair.grad_psi)
    return pair


def rotate_slots(tau: float, a: SpectralVector, b: SpectralVector):
    """Slot rotation (a, b) -> (a cos - b sin, a sin + b cos), no validation."""
    c, s = cos(tau), sin(tau)
    grid = a.grid
    return (as_vector(grid, [c * ai.coeffs - s * bi.coeffs for ai, bi in zip(a, b)]),
            as_vector(grid, [s * ai.coeffs + c * bi.coeffs for ai, bi in zip(a, b)]))


def generator(pair: GradientPair) -> GradientPair:
    """Apply the group generator: (a, b) -> (-b, a)."""
    _validated(pair)
    return GradientPair(-pair.grad_psi, pair.grad_q)


def apply_group(tau: float, pair: GradientPair) -> GradientPair:
    """Rotate the pair by angle tau (an isometry in every H^s)."""
    _validated(pair)
    a, b = rotate_slots(tau, pair.grad_q, pair.grad_psi)
    return GradientPair(a, b)
