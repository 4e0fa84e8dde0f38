import dataclasses
import math

import numpy as np
import pytest

from structpop.ibm import square_integrability_constant
from structpop.kernel import survival_matrix
from structpop.malthus import (MalthusProblem, SubcriticalError, dual_profile,
                               eta_lower_bound, refinement_sweep,
                               solve_eigentriple, stationary_state)
from structpop.model import build_grids, build_model, constant_scenario
from structpop.pde import TransportSolver, stationary_residual
from structpop.spectral import assemble


def test_rho_of_lambda_closed_forms(constant_setup):
    prob = constant_setup.problem
    rho, rbar = prob.rho_of_lambda(0.0)
    assert rho == pytest.approx(2.0, abs=1e-6)
    assert rbar == pytest.approx(1.4, abs=1e-6)
    rho, rbar = prob.rho_of_lambda(1.0)
    assert rho == pytest.approx(1.0, abs=1e-6)
    assert rbar == pytest.approx(0.7, abs=1e-6)
    rho, rbar = prob.rho_of_lambda(9.0)
    assert rho == pytest.approx(0.2, abs=1e-6)
    assert rbar == pytest.approx(0.14, abs=1e-6)


def test_rho_strictly_decreasing(constant_setup):
    prob = constant_setup.problem
    samples = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rhos = [prob.rho_of_lambda(l)[0] for l in samples]
    for a, b in zip(rhos, rhos[1:]):
        assert a > b + 1e-6


def test_rho_lipschitz_on_samples(constant_setup):
    prob = constant_setup.problem
    h = 1e-3
    for lam in (0.0, 1.0, 2.0):
        diff = abs(prob.rho_of_lambda(lam + h)[0] - prob.rho_of_lambda(lam)[0])
        # |d rho/d lam| = B/(lam+D)^2 <= 2 here
        assert diff <= 2.5 * h


def test_lambda_star_constant_model(constant_setup):
    lam = constant_setup.problem.find_lambda_star(tol_lam=1e-6)
    assert lam == pytest.approx(1.0, abs=1e-6)


def test_subcritical_rejected():
    cfg = dataclasses.replace(
        constant_scenario(nx=8),
        birth={"family": "constant", "params": {"value": 0.5}})
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    with pytest.raises(SubcriticalError):
        MalthusProblem(model, tg, ag).find_lambda_star()


def test_eigentriple_constant_closed_form(constant_setup):
    s = constant_setup
    tr = s.triple
    target = 2.0 * np.exp(-2.0 * s.agrid.nodes)[None, :]
    assert np.abs(tr.N_grid - target).max() < 1e-3
    assert np.abs(tr.phi_grid - 1.0).max() < 1e-6
    assert tr.norms["intN"] == pytest.approx(1.0, abs=1e-8)
    assert tr.norms["intNphi"] == pytest.approx(1.0, abs=1e-8)
    assert tr.regime == "Regular"


def test_N_factorization(constant_setup):
    s = constant_setup
    tr = s.triple
    R = survival_matrix(s.model, s.tgrid.nodes, s.agrid.nodes, tr.lambda_star)
    ratio = tr.N_grid[:, 0][:, None] * R
    assert np.abs(tr.N_grid - ratio).max() < 1e-12   # N = mu R by construction
    assert np.allclose(tr.N_grid[:, 0] / tr.mu_profile,
                       tr.N_grid[0, 0] / tr.mu_profile[0])


def test_boundary_identity(constant_setup):
    # independent check of the factorization: N(x, 0) equals the birth flux
    s = constant_setup
    tr = s.triple
    flux = s.solver.renewal_flux(tr.N_grid)
    assert np.abs(flux - tr.N_grid[:, 0]).max() < 1e-6


def test_dual_ode_residual(constant_setup):
    # d phi/da - (D + lam) phi + B[(1-p)phi(x,0) + p int k phi(y,0)] = 0
    s = constant_setup
    tr = s.triple
    phi = tr.phi_grid
    da = s.agrid.da
    dphi = (phi[:, 1:] - phi[:, :-1]) / da
    mid = 0.5 * (phi[:, 1:] + phi[:, :-1])
    ages = 0.5 * (s.agrid.nodes[:-1] + s.agrid.nodes[1:])
    X = s.tgrid.nodes[:, None]
    B = s.model.birth(X, ages[None, :])
    D = s.model.death(X, ages[None, :])
    p = s.model.mutation_prob
    phi0 = phi[:, 0]
    mut = s.model.mutation_kernel(X, s.tgrid.nodes[None, :]) @ (
        phi0 * s.tgrid.weights)
    G = B * ((1 - p) * phi0[:, None] + p * mut[:, None])
    res = dphi - (D + tr.lambda_star) * mid + G
    assert np.abs(res).max() < 10 * da


def test_duality_pairing_at_star(constant_setup):
    s = constant_setup
    lam = s.triple.lambda_star
    ck, _, _ = s.problem.eigendata(lam)
    direct = assemble(ck, s.tgrid, "direct")
    dual = assemble(ck, s.tgrid, "dual")
    rng = np.random.default_rng(3)
    w = s.tgrid.weights
    for _ in range(5):
        f = rng.random(s.tgrid.n)
        g = rng.random(s.tgrid.n)
        lhs = float((direct.M @ f) @ (g * w))
        rhs = float(f @ ((dual.M @ g) * w))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eta_lower_bounds(constant_setup):
    s = constant_setup
    tr = s.triple
    assert tr.eta_lower == pytest.approx(0.6, abs=1e-6)
    assert tr.eta_lower_proof == pytest.approx(0.42, abs=1e-3)


def test_eta_lower_degenerate_warning(constant_setup):
    phi = np.ones((4, 4))
    cfg = dataclasses.replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 0.0}})
    model = build_model(cfg)
    val, proof, warn = eta_lower_bound(phi, model, 1.0)
    assert val == 0.0 and proof == 0.0 and warn


def test_stationary_state_constant(constant_setup):
    s = constant_setup
    lam, nbar, mass = s.stationary()
    assert s.model.competition * mass == pytest.approx(lam, abs=1e-12)
    target = 2.0 * np.exp(-2.0 * s.agrid.nodes)[None, :]
    assert np.abs(nbar - target).max() < 1e-3


def test_stationary_mass_scales_with_competition():
    cfg = dataclasses.replace(constant_scenario(nx=8), c=2.0)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    prob = MalthusProblem(model, tg, ag)
    _, _, mass = stationary_state(prob)
    assert mass == pytest.approx(0.5, abs=1e-5)


def test_singular_triple_flagged(singular_setup):
    with pytest.warns(UserWarning, match="near-singular"):
        tr = solve_eigentriple(singular_setup.problem)
    assert tr.regime == "PossiblySingular"
    assert 2.6 < tr.lambda_star < 2.8


def test_refinement_sweep_regular_gap_persists():
    def make_problem(nx):
        cfg = constant_scenario(nx=nx)
        model = build_model(cfg)
        tg, ag = build_grids(cfg, model)
        return MalthusProblem(model, tg, ag)

    rows = refinement_sweep(make_problem, [16, 32, 64])
    for row in rows:
        assert row["regime"] == "Regular"
        assert row["gap"] == pytest.approx(0.3, abs=1e-4)


def test_gaussian_kernel_constant_rates():
    # B=2, D=1 and a normalized kernel give lambda* = B - D = 1 and phi = 1
    # whatever k is; a non-constant kernel matrix exposes a transposed kmat.
    cfg = dataclasses.replace(constant_scenario(),
                              kernel={"family": "gaussian", "params": {"width": 0.15}})
    model = build_model(cfg)
    tgrid, agrid = build_grids(cfg, model)
    problem = MalthusProblem(model, tgrid, agrid)
    triple = solve_eigentriple(problem)
    _, nbar, _ = stationary_state(problem, triple)
    solver = TransportSolver(model, tgrid, agrid)
    assert abs(triple.lambda_star - 1.0) <= 1e-3
    assert np.abs(triple.phi_grid - 1.0).max() <= 1e-3
    assert stationary_residual(solver, nbar) <= 1e-3
    C = square_integrability_constant(model, triple.phi_grid, tgrid, agrid)
    assert abs(C - 3.0) <= 1e-3
