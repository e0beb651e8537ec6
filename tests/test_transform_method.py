"""Transform-once RHS: same discrete operator as the product() composition.

The reference functions below are the RHS formulas written as sums of
separately dealiased products (product() and the conftest oracles advect()
and strain_dissipation()).  The solvers form the
same products pointwise and transform each field and each tendency once, so
the two must agree to roundoff.  The transform counts per RHS evaluation
are pinned by wrapping the real 1-D pass each transform makes
(conftest.count_transforms).
"""

import numpy as np
import pytest

from qnl.ansatz import osc_rhs
from qnl.harness import default_base_fields, gen_initial_data
from qnl.limit_solver import LimitState, PhysParams, ns_rhs
from qnl.nsp import NSPState, _electric_residue, nsp_rhs_nonstiff, poisson_solve
from qnl.oscillation import GradientPair
from qnl.projections import leray_p, leray_q
from qnl.spectral import (SpectralVector, constant_scalar, divergence,
                          gradient, laplacian, make_grid, product,
                          to_physical, transform_forward)

from conftest import advect, smooth_scalar, strain_dissipation

RTOL = 1e-12
LAM = 0.05
PARAMS = {
    "ns": PhysParams(0.05, 0.0, 0.05),
    "euler_nsp": PhysParams(0.01, 0.01, 0.01),  # lambda-scaled dissipation
    "inviscid": PhysParams(0.0, 0.0, 0.0),
}
GRIDS = {2: 32, 3: 16}


# -- reference formulas: one product() per quadratic term ---------------------

def ref_nsp_rhs(state, params):
    grid = state.grid
    rho, u, theta = state.rho, state.u, state.theta
    inv_rho = transform_forward(grid, 1.0 / rho.samples())
    flux = SpectralVector(grid, tuple(product(rho, u[a]) for a in range(grid.dims)))
    drho = -divergence(flux)
    du = -advect(u, u)
    grad_p = gradient(product(rho, theta))
    du = du - SpectralVector(grid, tuple(product(inv_rho, grad_p[a])
                                         for a in range(grid.dims)))
    if params.mu != 0.0 or params.nu != 0.0:
        visc = params.mu * laplacian(u) + (params.mu + params.nu) * gradient(divergence(u))
        du = du + SpectralVector(grid, tuple(product(inv_rho, visc[a])
                                             for a in range(grid.dims)))
    div_u = divergence(u)
    dtheta = -advect(u, theta) - product(theta, div_u)
    heat = None
    if params.kappa != 0.0:
        heat = params.kappa * laplacian(theta)
    if params.nu != 0.0:
        term = params.nu * product(div_u, div_u)
        heat = term if heat is None else heat + term
    if params.mu != 0.0:
        term = strain_dissipation(u, params.mu)
        heat = term if heat is None else heat + term
    if heat is not None:
        dtheta = dtheta + product(inv_rho, heat)
    return drho, du, dtheta


def ref_electric_residue(u, grad_phi):
    lap_phi = divergence(grad_phi)
    return -leray_q(SpectralVector(u.grid, tuple(product(c, lap_phi) for c in u)))


def ref_ns_rhs(state, params):
    v, theta = state.v, state.theta
    dv = leray_p(-advect(v, v))
    if params.mu != 0.0:
        dv = dv + params.mu * laplacian(v)
    dtheta = -advect(v, theta)
    if params.kappa != 0.0:
        dtheta = dtheta + params.kappa * laplacian(theta)
    if params.mu != 0.0:
        dtheta = dtheta + strain_dissipation(v, params.mu)
    return dv, dtheta


def ref_osc_rhs(pair, v, params):
    coeff = params.mu + 0.5 * params.nu

    def one(g):
        div_g = divergence(g)
        total = advect(v, g) + advect(g, v) + SpectralVector(
            g.grid, tuple(product(v[a], div_g) for a in range(g.grid.dims)))
        out = -0.5 * leray_q(total)
        if coeff != 0.0:
            out = out + coeff * gradient(divergence(g))
        return out

    return GradientPair(one(pair.grad_q), one(pair.grad_psi))


# -- helpers -------------------------------------------------------------------

def coefficient_blocks(fields):
    """Flatten scalars, vectors and pairs into a list of coefficient arrays."""
    out = []
    for f in fields:
        if isinstance(f, GradientPair):
            out += coefficient_blocks([f.grad_q, f.grad_psi])
        elif isinstance(f, SpectralVector):
            out += [c.coeffs for c in f]
        else:
            out.append(f.coeffs)
    return out


def assert_same_operator(got, expected):
    for g, e in zip(coefficient_blocks(got), coefficient_blocks(expected), strict=True):
        scale = max(np.abs(e).max(), 1e-300)
        assert np.abs(g - e).max() <= RTOL * scale


def rough_scalar(grid, rng, offset, amp):
    """offset plus a mean-zero random field with content up to the Nyquist
    modes, scaled to a sup norm of amp, so dropping a mask shows."""
    f = smooth_scalar(grid, rng, decay=100.0)
    f = f - constant_scalar(grid, f.mean)
    return constant_scalar(grid, offset) + f * (amp / np.abs(f.samples()).max())


def rough_vector(grid, rng, amp):
    return SpectralVector(grid, tuple(rough_scalar(grid, rng, 0.0, amp)
                                      for _ in range(grid.dims)))


class Fields:
    """Limit state, filtered pair and NSP state the RHS are evaluated on."""

    def __init__(self, v, theta, pair, nsp_state):
        self.limit = LimitState(v, theta)
        self.v = v
        self.pair = pair
        self.nsp = nsp_state


@pytest.fixture(params=[(dims, kind) for dims in sorted(GRIDS)
                        for kind in ("ic_random_amp", "rough")],
                ids=lambda p: f"{p[0]}d-{p[1]}")
def fields(request):
    dims, kind = request.param
    grid = make_grid(dims, GRIDS[dims])
    if kind == "ic_random_amp":
        base = default_base_fields(grid, "ill", random_amp=0.05, seed=7)
        return Fields(base.v0, base.theta0,
                      GradientPair(base.qu0, gradient(base.phi0)),
                      gen_initial_data("ill", LAM, base))
    rng = np.random.default_rng(11)
    rho = rough_scalar(grid, rng, 1.0, 0.3)
    nsp_state = NSPState(rho, rough_vector(grid, rng, 0.5),
                         rough_scalar(grid, rng, 2.0, 0.5), poisson_solve(rho, LAM))
    pair = GradientPair(gradient(rough_scalar(grid, rng, 0.0, 0.3)),
                        gradient(rough_scalar(grid, rng, 0.0, 0.3)))
    return Fields(leray_p(rough_vector(grid, rng, 0.5)),
                  rough_scalar(grid, rng, 2.0, 0.5), pair, nsp_state)


# -- equivalence -------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_nsp_rhs_matches_product_composition(fields, kind):
    params = PARAMS[kind]
    assert_same_operator(nsp_rhs_nonstiff(fields.nsp, params, LAM),
                         ref_nsp_rhs(fields.nsp, params))


def test_electric_residue_matches_product_composition(fields):
    # the NSP state carries the residue by its potential
    u, phi = fields.nsp.u, fields.nsp.phi
    us = [to_physical(u.grid, c.coeffs) for c in u]
    assert_same_operator([gradient(_electric_residue(us, phi))],
                         [ref_electric_residue(u, gradient(phi))])


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_ns_rhs_matches_product_composition(fields, kind):
    params = PARAMS[kind]
    assert_same_operator(ns_rhs(fields.limit, params), ref_ns_rhs(fields.limit, params))


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_osc_rhs_matches_product_composition(fields, kind):
    params = PARAMS[kind]
    assert_same_operator([osc_rhs(fields.pair, fields.v, params)],
                         [ref_osc_rhs(fields.pair, fields.v, params)])


# -- transform counts ----------------------------------------------------------

# dims -> ceilings for (nsp_rhs_nonstiff, ns_rhs, osc_rhs); the product()
# composition above makes 56/27/60 in 2D and 92/54/126 in 3D.
CEILINGS = {2: (25, 11, 20), 3: (36, 19, 36)}


def test_transforms_per_rhs(fields, count_transforms):
    params = PARAMS["ns"]
    counts = (count_transforms(lambda: nsp_rhs_nonstiff(fields.nsp, params, LAM)),
              count_transforms(lambda: ns_rhs(fields.limit, params)),
              count_transforms(lambda: osc_rhs(fields.pair, fields.v, params)))
    ceilings = CEILINGS[fields.v.grid.dims]
    assert all(c <= m for c, m in zip(counts, ceilings)), (counts, ceilings)
    # the counter sees the old composition too, so the ceilings are not vacuous
    assert count_transforms(lambda: ref_ns_rhs(fields.limit, params)) > ceilings[1]
