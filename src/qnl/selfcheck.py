"""Invariant battery behind `qnl check`: quick numerical self-diagnostics."""

from __future__ import annotations

import numpy as np

from .harness import random_smooth_scalar, random_smooth_vector
from .limit_solver import PhysParams
from .nsp import NSPState, poisson_solve, run_nsp
from .oscillation import GradientPair, apply_group
from .projections import decompose, leray_p, leray_q
from .spectral import (SpectralScalar, constant_scalar, gradient, laplacian,
                       make_grid, product, scalar_from_function, sobolev_norm,
                       transform_forward, transform_inverse, zeros_vector)


def run_checks(resolution: int = 32, seed: int = 0, verbose: bool = False) -> int:
    """Run all checks; return the number of failures."""
    grid = make_grid(2, resolution)
    rng = np.random.default_rng(seed)
    failures = 0

    def report(name, value, tol):
        nonlocal failures
        ok = value <= tol
        if not ok:
            failures += 1
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tol {tol:.1e})")

    f = random_smooth_scalar(grid, rng)
    roundtrip = transform_forward(grid, transform_inverse(f))
    report("transform round trip", sobolev_norm(roundtrip - f, 0), 1e-12)

    u = random_smooth_vector(grid, rng)
    qu = leray_q(u)
    pu = leray_p(u)
    report("Q idempotent", sobolev_norm(leray_q(qu) - qu, 0), 1e-12)
    report("PQ = 0", sobolev_norm(leray_q(pu), 0), 1e-12)
    report("Helmholtz reassembly", sobolev_norm(pu + qu - u, 0), 1e-12)

    pair = GradientPair(leray_q(random_smooth_vector(grid, rng)),
                        gradient(random_smooth_scalar(grid, rng)))
    rotated = apply_group(0.37, pair)
    report("group isometry (H^2)",
           abs(sobolev_norm(rotated, 2.0) - sobolev_norm(pair, 2.0)), 1e-12)
    twice = apply_group(0.6, apply_group(0.9, pair))
    once = apply_group(1.5, pair)
    report("group law", sobolev_norm(twice.grad_q - once.grad_q, 0)
           + sobolev_norm(twice.grad_psi - once.grad_psi, 0), 1e-12)

    lam = 0.3
    rho = constant_scalar(grid, 1.0) + lam * scalar_from_function(
        grid, lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    phi = poisson_solve(rho, lam)
    residual = (-lam) * laplacian(phi) - rho + constant_scalar(grid, 1.0)
    report("Poisson residual", sobolev_norm(residual, 0), 1e-12)

    theta = constant_scalar(grid, 1.5)
    eq = NSPState(constant_scalar(grid, 1.0), zeros_vector(grid), theta)
    stepped = run_nsp(eq, PhysParams(0.05, 0.0, 0.05), 0.2, 0.01, dt=0.01).states[-1]
    drift = (sobolev_norm(stepped.rho - eq.rho, 0)
             + sobolev_norm(stepped.u, 0)
             + sobolev_norm(stepped.theta - theta, 0))
    report("equilibrium fixed point", drift, 1e-13)

    g = random_smooth_scalar(grid, rng)
    ones = constant_scalar(grid, 1.0)
    band = SpectralScalar(grid, g.coeffs * grid.dealias_mask)
    report("f * 1 = f (dealiased band)", sobolev_norm(product(g, ones) - band, 0), 1e-13)

    _, _, potential = decompose(u)
    report("decompose potential", sobolev_norm(gradient(potential) - qu, 0), 1e-12)

    if verbose:
        print(f"{failures} failure(s)")
    return failures
