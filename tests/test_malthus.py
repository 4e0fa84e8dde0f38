import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import cell_path, lattice_collapse, renewal_flux
from structpop import kernel, malthus, pde, spectral
from structpop.ibm import square_integrability_constant
from structpop.kernel import survival_matrix
from structpop.malthus import (MalthusProblem, SubcriticalError, _falsi,
                               dual_profile, eta_lower_bound, refinement_sweep,
                               solve_eigentriple, stationary_state)
from structpop.model import (build_grids, build_model, constant_scenario,
                             singular_scenario)
from structpop.pde import stationary_residual
from structpop.spectral import perron


def test_rho_of_lambda_closed_forms(constant_setup):
    prob = constant_setup.problem
    rho, rbar = prob.rho_of_lambda(0.0), prob.clonal_rate(0.0).max()
    assert rho == pytest.approx(2.0, abs=1e-6)
    assert rbar == pytest.approx(1.4, abs=1e-6)
    rho, rbar = prob.rho_of_lambda(1.0), prob.clonal_rate(1.0).max()
    assert rho == pytest.approx(1.0, abs=1e-6)
    assert rbar == pytest.approx(0.7, abs=1e-6)
    rho, rbar = prob.rho_of_lambda(9.0), prob.clonal_rate(9.0).max()
    assert rho == pytest.approx(0.2, abs=1e-6)
    assert rbar == pytest.approx(0.14, abs=1e-6)


def test_rho_strictly_decreasing(constant_setup):
    prob = constant_setup.problem
    samples = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rhos = [prob.rho_of_lambda(l) for l in samples]
    for a, b in zip(rhos, rhos[1:]):
        assert a > b + 1e-6


def test_rho_lipschitz_on_samples(constant_setup):
    prob = constant_setup.problem
    h = 1e-3
    for lam in (0.0, 1.0, 2.0):
        diff = abs(prob.rho_of_lambda(lam + h) - prob.rho_of_lambda(lam))
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
    mu = s.problem.eigendata(tr.lambda_star)[1].profile
    assert np.allclose(tr.N_grid[:, 0] / mu, tr.N_grid[0, 0] / mu[0])


def test_boundary_identity(constant_setup):
    # independent check of the factorization: N(x, 0) equals the birth flux
    s = constant_setup
    tr = s.triple
    flux = renewal_flux(s.solver, tr.N_grid)
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
        phi0 * s.tgrid.dx)
    G = B * ((1 - p) * phi0[:, None] + p * mut[:, None])
    res = dphi - (D + tr.lambda_star) * mid + G
    assert np.abs(res).max() < 10 * da


def test_duality_pairing_at_star(constant_setup):
    s = constant_setup
    lam = s.triple.lambda_star
    ck, _, _ = s.problem.eigendata(lam)
    direct = s.problem.mix.scaled(ck.sB)
    rng = np.random.default_rng(3)
    w = s.tgrid.dx
    for _ in range(5):
        f = rng.random(s.tgrid.n)
        g = rng.random(s.tgrid.n)
        lhs = float((direct @ f) @ (g * w))
        rhs = float(f @ ((direct.T @ g) * w))
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
    _, _, mass = stationary_state(prob, solve_eigentriple(prob))
    assert mass == pytest.approx(0.5, abs=1e-5)


def test_singular_triple_flagged(singular_setup):
    tr = solve_eigentriple(singular_setup.problem)
    assert "near-singular" in tr.diagnostics["warnings"]["near_singular_spectrum"]
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
    # whatever k is; a non-constant kernel matrix exposes a transposed Mix.
    cfg = dataclasses.replace(constant_scenario(),
                              kernel={"family": "gaussian", "params": {"width": 0.15}})
    model = build_model(cfg)
    tgrid, agrid = build_grids(cfg, model)
    problem = MalthusProblem(model, tgrid, agrid)
    triple = solve_eigentriple(problem)
    _, nbar, _ = stationary_state(problem, triple)
    assert abs(triple.lambda_star - 1.0) <= 1e-3
    assert np.abs(triple.phi_grid - 1.0).max() <= 1e-3
    assert stationary_residual(model, tgrid, agrid, problem.mix, nbar) <= 1e-3
    C = square_integrability_constant(model, triple.phi_grid, tgrid, agrid, problem.mix)
    assert abs(C - 3.0) <= 1e-3


def _secular_rho(ck, tgrid, model):
    """Perron root of diag(r) + rank one, for the uniform kernel k = 1/|S|.

    rho is the unique root above rbar of 1 = sum_j c_j / (rho - r_j), with
    c_j = (p/|S|) sB_j w_j and r = (1 - p) sB. The sum is at least 1 at
    rbar + c_argmax and at most 1 at rbar + sum(c), which brackets the root.
    """
    p = model.mutation_prob
    r = (1.0 - p) * ck.sB
    lo, hi = model.trait_domain
    c = (p / (hi - lo)) * ck.sB * tgrid.dx
    rbar = float(r.max())
    return brentq(lambda rho: 1.0 - float(np.sum(c / (rho - r))),
                  rbar + c[np.argmax(r)], rbar + c.sum(), xtol=1e-15)


def test_secular_equation_oracle_singular_800():
    """perron and lambda* against the uniform-kernel secular equation at nx=800."""
    cfg = singular_scenario(nx=800)
    model = build_model(cfg)
    tgrid, agrid = build_grids(cfg, model)
    problem = MalthusProblem(model, tgrid, agrid)
    lam_star = problem.find_lambda_star(1e-6)

    for lam in (0.0, 2.0, lam_star):
        ck = lattice_collapse(model, tgrid, agrid, lam)
        rho = perron(problem.mix.scaled(ck.sB), tgrid.dx).rho
        assert abs(rho - _secular_rho(ck, tgrid, model)) <= 1e-12 * rho

    def secular_gap(lam):
        return _secular_rho(lattice_collapse(model, tgrid, agrid, lam), tgrid, model) - 1.0

    lo, hi = problem.lambda_search["bracket"]
    lam_oracle = brentq(secular_gap, lo, hi, xtol=1e-13)
    assert abs(lam_star - lam_oracle) <= 1e-6


AGING_DEATH = {"family": "affine", "params": {"base": 1.0, "slope_a": 0.5}}


def singular_problem(nx, **changes):
    cfg = dataclasses.replace(singular_scenario(nx=nx), **changes)
    model = build_model(cfg)
    return MalthusProblem(model, *build_grids(cfg, model))


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its return value to a list."""
    calls = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_eigendata_reuses_the_search(monkeypatch):
    problem = singular_problem(64)
    rho = problem.rho_of_lambda(1.5)
    _, pd_search = problem.direct_pair(1.5)
    collapses = counting(monkeypatch, kernel, "collapse")
    solves = counting(monkeypatch, spectral, "perron")
    ck, pd, pq = problem.eigendata(1.5)
    assert collapses == []
    assert [pair.rho for pair in solves] == [pq.rho]     # the dual solve alone
    assert pd is pd_search
    assert problem.eigendata(1.5)[2] is pq and len(solves) == 1   # asked again: kept
    fresh = lattice_collapse(problem.model, problem.tgrid, problem.agrid, 1.5)
    assert pd.rho == rho
    np.testing.assert_array_equal(ck.sB, fresh.sB)
    # the operator's diagonal is the clonal law's (1 - p) sB, bit for bit
    np.testing.assert_array_equal(problem.clonal_rate(1.5),
                                  (1.0 - problem.model.mutation_prob) * fresh.sB)


def test_refinement_sweep_solves_direct_pairs_only(monkeypatch):
    # a fresh grid costs its search's direct solves and no dual; the grid whose
    # lambda* is already solved costs no solve at all
    solved = singular_problem(64)
    solved.find_lambda_star(1e-6)
    fresh = []

    def make_problem(nx):
        if nx == solved.tgrid.n:
            return solved
        fresh.append(singular_problem(nx))
        return fresh[-1]

    def no_dual(direct):
        raise AssertionError("the sweep formed a dual operator")
    monkeypatch.setattr(kernel.MixForm, "T", property(no_dual))
    solves = counting(monkeypatch, spectral, "perron")
    rows = refinement_sweep(make_problem, [16, 32, 64])
    assert len(fresh) == 2 and solved.lambda_search["evaluations"] == 0
    assert len(solves) == sum(p.lambda_search["evaluations"] for p in fresh) > 0
    ck, pd = solved.direct_pair(rows[-1]["lambda_star_h"])
    rbar = float(((1.0 - solved.model.mutation_prob) * ck.sB).max())
    assert rows[-1]["gap"] == pd.rho - rbar
    assert rows[-1]["regime"] == spectral.regime(pd.rho, rbar)


@pytest.mark.parametrize("death, evaluations", [
    ({"family": "constant", "params": {"value": 1.0}}, 5),
    ({"family": "affine", "params": {"base": 1.0, "slope_x": 0.5}}, 7),
    (AGING_DEATH, 9)],
    ids=["preset", "trait_dependent_death", "aging_death"])
def test_search_warm_starts_each_direct_solve(monkeypatch, death, evaluations):
    problem = singular_problem(200, death=death)
    solves = counting(monkeypatch, spectral, "perron")
    collapses = counting(monkeypatch, kernel, "collapse")
    lam = problem.find_lambda_star(1e-6)
    search = problem.lambda_search
    assert len(collapses) == len(solves) == search["evaluations"] == evaluations
    assert solves[0].path == "shift-invert"
    assert [p.path for p in solves[1:]] == ["warm"] * (evaluations - 1)
    if death["family"] == "constant":
        # M(lambda) = M(0) / (1 + lambda): the last profile is already the answer
        assert [p.iterations for p in solves[1:]] == [0] * (evaluations - 1)
    assert search["perron_iterations"] == sum(p.iterations for p in solves)
    n = problem.agrid.n_cells
    cells = [problem.direct_pair(l)[0].age_cells for l in problem._direct]
    assert search["age_cells"] == sum(cells)
    assert cells[0] == search["prefix_cells"]   # lambda = 0 sums every cell the factors hold
    if death is AGING_DEATH:    # the whole lattice, cut at the horizon as lambda grows
        assert search["prefix_cells"] == n and sum(cells) < evaluations * n
        assert search["age_flat_from"] is None
    else:                       # no cells: each collapse is its closed-form tail
        assert search["prefix_cells"] == 0 and search["age_flat_from"] == 0.0
    cold = spectral.perron(problem.mix.scaled(
        lattice_collapse(problem.model, problem.tgrid, problem.agrid, lam).sB),
        problem.tgrid.dx)
    assert abs(problem.rho_of_lambda(lam) - cold.rho) <= 1e-12 * cold.rho


def test_perron_counts_the_inverses_it_forms(monkeypatch):
    inverses = counting(monkeypatch, np.linalg, "inv")
    solves = counting(monkeypatch, spectral, "perron")
    problem = singular_problem(64)
    problem.find_lambda_star(1e-6)
    search = list(solves)
    # the cold lambda = 0 solve leaves power iteration for shift-inverse
    assert search[0].path == "shift-invert" and search[0].shifts >= 1
    assert problem.lambda_search["perron_shifts"] == sum(p.shifts for p in search)
    solve_eigentriple(problem)
    assert sum(p.shifts for p in solves) == len(inverses)
    assert all(p.summary()["shifts"] == p.shifts for p in solves)
    del solves[:]
    cfg = constant_scenario()
    model = build_model(cfg)
    solve_eigentriple(MalthusProblem(model, *build_grids(cfg, model)))
    assert solves and all(p.shifts == 0 for p in solves)


def test_narrow_kernel_search_shift_inverts_and_starts_the_dual_warm():
    # gaussian(0.01) at nx = 200: power steps contract the residual too slowly,
    # and the dual starts from its exact eigenvector
    cfg = dataclasses.replace(constant_scenario(nx=200), kernel={
        "family": "gaussian", "params": {"width": 0.01}})
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    triple = solve_eigentriple(problem)
    assert problem.lambda_search["perron_iterations"] <= 500
    dual_solve = triple.diagnostics["perron"]["dual"]
    assert dual_solve["path"] == "warm" and dual_solve["iterations"] <= 1


def test_singular_search_at_nx_3200_accepts_at_the_rounding_floor(monkeypatch):
    # the Perron vector sharpens like 1/h here: at lambda = 0 rounding alone
    # leaves a residual above 1e-12 rho, which only the floor term accepts
    problem = singular_problem(3200)
    solves = counting(monkeypatch, spectral, "perron")
    start = time.perf_counter()
    lam = problem.find_lambda_star(1e-6)
    elapsed = time.perf_counter() - start
    assert lam == pytest.approx(2.7882265, abs=1e-6)
    assert max(p.residual / p.rho for p in solves) > 1e-12
    assert elapsed < 20.0


def test_eigentriple_reports_perron_and_keeps_factors():
    problem = singular_problem(64)
    tr = solve_eigentriple(problem)
    perron = tr.diagnostics["perron"]
    assert perron["direct"]["path"] == "warm"
    assert perron["dual"]["path"] == "warm" and perron["dual"]["iterations"] == 0
    for side in ("direct", "dual"):
        lb, ub = perron[side]["cw_bracket"]
        assert lb <= tr.norms["rho_at_star"] * (1 + 1e-11) and ub >= lb
        assert perron[side]["iterations"] >= 0
    # kept for the lambdas asked later (verify's rho samples); the CLI drops
    # them before any PDE or IBM run (test_cli::test_dynamics_run_without_age_factors)
    kept = problem._factors
    assert kept is not None and problem.factors is kept
    problem.release_factors()
    assert problem._factors is None


def profile_step_peak(config):
    """What `solve_eigentriple` allocates at its peak once lambda* is solved, in
    (nx, na + 1) grids of the whole age lattice."""
    model = build_model(config)
    problem = MalthusProblem(model, *build_grids(config, model))
    problem.eigendata(problem.find_lambda_star(1e-6))
    problem.factors
    grid = 8 * problem.tgrid.n * (problem.agrid.n_cells + 1)
    tracemalloc.start()
    try:
        solve_eigentriple(problem)
        return tracemalloc.get_traced_memory()[1] / grid
    finally:
        tracemalloc.stop()


def test_profile_step_forms_no_grid_sized_integrand():
    # R and phi are the two (x, a) grids the profile step forms; N is formed in
    # R's place. Through the cell path, the recursion's temporaries span
    # [0, A_max + L], 3658 ages at nx = 64 with the singular preset's rates, by
    # blocks of 17 trait rows (kernel.row_blocks, each temporary at most
    # kernel.BLOCK_BYTES): 0.4 grid each.
    # Four are alive at once (the joined factors d and C, and cell_integrals'
    # -z and cells), so the step reads 3.64 grids; the bound leaves a quarter
    # grid over that.
    assert profile_step_peak(cell_path(singular_scenario(nx=64))) <= 3.9
    # The preset itself forms no cells: R and phi in closed form, and one of
    # the normalisation's 16-row blocks (`grid_integral`), 2.31 grids (2.56
    # where the next block was formed before the last was dropped)
    assert profile_step_peak(singular_scenario(nx=64)) <= 2.32


PRESETS = pytest.mark.parametrize("scenario", [singular_scenario, constant_scenario],
                                  ids=["singular", "constant"])


@PRESETS
def test_solve_eigentriple_lifts_on_the_whole_age_lattice(scenario):
    # the IBM benchmark workload reads N_grid and phi_grid with build_grids' lattice
    cfg = scenario(nx=16)
    model = build_model(cfg)
    tgrid, agrid = build_grids(cfg, model)
    triple = solve_eigentriple(MalthusProblem(model, tgrid, agrid), tol_lam=1e-6)
    assert triple.agrid == agrid
    assert triple.N_grid.shape == triple.phi_grid.shape == (cfg.nx, agrid.n_cells + 1)


@PRESETS
def test_profiles_on_the_lambda_star_lattice_are_the_whole_ones_renormalized(scenario):
    # N = mu R with R the same bits on the prefix, so N moves only by its
    # scale: the mass past the prefix's end, 8.9e-11 (singular) and 9.9e-11
    # (constant) at nx = 64. The rows' tails are one fraction of each row, so
    # phi's scale does not move, and phi reads 2.5e-16 and 4.4e-16 of its maximum
    cfg = scenario(nx=64)
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    lam = problem.find_lambda_star(1e-6)
    lattice = kernel.profile_lattice(model, lam, problem.agrid)
    short = malthus.eigentriple(problem, lam, lattice)
    whole = malthus.eigentriple(problem, lam, problem.agrid)
    m = lattice.n_cells + 1
    assert short.agrid == lattice and short.N_grid.shape == (problem.tgrid.n, m)
    assert short.lambda_star == whole.lambda_star
    ratio = short.N_grid / whole.N_grid[:, :m]
    assert 0.0 < ratio.min() - 1.0 <= 1e-10
    assert ratio.max() - ratio.min() <= 1e-15
    assert np.abs(short.phi_grid - whole.phi_grid[:, :m]).max() <= 1e-15 * whole.phi_grid.max()
    for key in ("intN", "intNphi"):
        assert short.norms[key] == pytest.approx(1.0, abs=1e-14)


def problem_at_root(cfg):
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    ck, pd, pq = problem.eigendata(problem.find_lambda_star(1e-6))
    cold = perron(problem.mix.scaled(ck.sB).T, problem.tgrid.dx)
    return ck, pq, cold


def reference_phi(problem, triple, model):
    """phi with its tail integrals summed cell by cell over the whole of
    [0, 2 A_max], for the problem's rates as `model` holds them."""
    tg, ag = problem.tgrid, problem.agrid
    lam = triple.lambda_star
    _, _, pq = problem.eigendata(lam)
    doubled = kernel.age_factors(model, tg.nodes, ag.da * np.arange(2 * ag.n_cells + 1))
    assert doubled.n_cells == 2 * ag.n_cells
    cells = kernel.cell_integrals(doubled, lam)
    tails = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1][:, :ag.n_cells + 1]
    phi = tails * (problem.mix.T @ pq.profile)[:, None]
    phi /= survival_matrix(model, tg.nodes, ag.nodes, lam)
    mw = tg.dx * ag.quad_weights()[None, :]
    return phi / np.sum(triple.N_grid * phi * mw)


@PRESETS
def test_phi_matches_tails_over_twice_the_horizon(scenario):
    # The presets' q is B / (D + lambda*) in closed form, so phi is flat along
    # each row, at its age-0 value: the sum of the tails from 0. The reference
    # sums the same rates cell by cell; past age 0 it divides by R, and so
    # drifts along a row by the rounding of R's exponent (2.6e-14 of a row on
    # the singular preset at nx = 64).
    cfg = scenario(nx=64)
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    triple = solve_eigentriple(problem)
    ref = reference_phi(problem, triple, build_model(cell_path(cfg)))
    phi = triple.phi_grid
    assert np.abs(phi[:, 0] - ref[:, 0]).max() <= 1e-15 * ref.max()
    np.testing.assert_array_equal(phi, np.repeat(phi[:, :1], phi.shape[1], axis=1))


def test_phi_matches_tails_over_twice_the_horizon_where_the_death_rate_ages():
    # cell by cell to the horizon on the whole lattice: 3.1e-15 of phi's maximum
    # off, at the far end of the rows, where R's exponent rounds the most
    cfg = dataclasses.replace(singular_scenario(nx=64), death=AGING_DEATH)
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    triple = solve_eigentriple(problem)
    ref = reference_phi(problem, triple, model)
    assert np.abs(triple.phi_grid - ref).max() <= 4e-15 * ref.max()


@pytest.mark.parametrize("scenario, tol, bound", [
    (constant_scenario, 1e-10, 2e-15), (constant_scenario, 1e-180, 2e-15),
    (constant_scenario, 1e-4, 1e-14),
    (singular_scenario, 1e-10, 2e-14), (singular_scenario, 1e-180, 1.5e-13)],
    ids=["constant", "constant-1e-180", "constant-1e-4", "singular", "singular-1e-180"])
def test_phi_is_constant_in_age_where_the_rates_are(scenario, tol, bound):
    # B and D do not depend on age, so every cell of a row is the same and the
    # recursion's fixed point is one value per row. At tol = 1e-180 the lattice
    # runs to age 415, where R underflows, and the recursion takes age blocks.
    # The singular preset reads 1.3e-14 and 9.1e-14: its exponents reach
    # about 140 and SPAN, and each is rounded to an ulp, which e^-E carries.
    # At tol = 1e-4 the continuation past A_max needs more ages than the
    # lattice has: cut at the lattice's length, phi moved 2.4e-9 in age
    cfg = scenario(nx=64, tol=tol)
    model = build_model(cfg)
    phi = solve_eigentriple(MalthusProblem(model, *build_grids(cfg, model))).phi_grid
    assert np.abs(phi - phi[:, :1]).max() <= bound * phi.max()


@PRESETS
def test_dual_at_root_starts_from_direct_pair(scenario):
    # a symmetric diag(w) Mix makes the dual matrix diag(sB) M diag(sB)^{-1}
    _, pq, cold = problem_at_root(scenario(nx=64))
    assert (pq.path, pq.iterations) == ("warm", 0)
    assert np.abs(pq.profile - cold.profile).max() <= 1e-12 * cold.profile.max()


@PRESETS
def test_dual_starts_warm_for_every_kernel_family(scenario):
    # the gaussian kernel is g / Z with g symmetric, so sB mu k(x, x) is the
    # dual eigenvector although diag(w) Mix is not symmetric
    cfg = dataclasses.replace(scenario(nx=64), kernel={
        "family": "gaussian", "params": {"width": 0.15}})
    _, pq, cold = problem_at_root(cfg)
    assert pq.path == "warm" and pq.iterations <= 1
    assert abs(pq.rho - cold.rho) <= 1e-12 * cold.rho
    assert np.abs(pq.profile - cold.profile).max() <= 1e-9 * cold.profile.max()


@pytest.mark.parametrize("family", [
    {"family": "uniform", "params": {}},
    {"family": "gaussian", "params": {"width": 0.15}},
    {"family": "gaussian", "params": {"width": 0.01}}],
    ids=["uniform", "gaussian_0.15", "gaussian_0.01"])
def test_every_kernel_family_is_symmetric_over_its_diagonal(family):
    # the dual start's premise: k(x, y) = g(x, y) / Z(x) with g symmetric and
    # g(x, x) constant, so k(x_i, x_j) / k(x_i, x_i) = g_ij / g0 is symmetric
    cfg = dataclasses.replace(constant_scenario(nx=64), kernel=family)
    model = build_model(cfg)
    K = model.mutation_kernel.matrix(build_grids(cfg, model)[0].nodes)
    ratio = K / np.diag(K)[:, None]
    np.testing.assert_allclose(ratio, ratio.T, rtol=1e-13, atol=0.0)


@PRESETS
def test_dual_stays_cold_where_the_birth_integral_vanishes(scenario):
    # traits below 0.2 are clipped onto the all-zero row: sB = 0 there
    cfg = dataclasses.replace(scenario(nx=64), birth={
        "family": "tabulated", "params": {"x_nodes": [0.2, 0.6, 1.0],
                                          "a_nodes": [0.0, 1.0],
                                          "values": [[0.0, 0.0], [3.0, 3.0], [3.0, 3.0]]}})
    ck, pq, cold = problem_at_root(cfg)
    assert np.any(ck.sB == 0) and np.all(ck.sB >= 0)
    assert pq.path != "warm"
    assert (pq.path, pq.iterations) == (cold.path, cold.iterations)


# ---------------------------------------------------------------------------
# the lambda* search: regula falsi on 1/rho - 1
# ---------------------------------------------------------------------------

SEARCH_CASES = {      # (preset, nx, changes, pinned evaluations or None)
    "constant": (constant_scenario, 64, {}, 2),
    "singular": (singular_scenario, 64, {}, 5),
    "singular_800": (singular_scenario, 800, {}, 5),
    "singular_affine_death": (singular_scenario, 64, {
        "death": {"family": "affine", "params": {"base": 1.0, "slope_x": 0.5}}}, None),
    "gaussian_kernel": (singular_scenario, 64, {
        "kernel": {"family": "gaussian", "params": {"width": 0.15}}}, None),
    "gaussian_bump": (singular_scenario, 64, {"birth": {"family": "gaussian_bump", "params": {
        "base": 1.0, "amp": 2.0, "center": 0.3, "width": 0.1}}}, None),
    "tabulated": (singular_scenario, 64, {"birth": {"family": "tabulated", "params": {
        "x_nodes": [0.0, 0.5, 1.0], "a_nodes": [0.0, 1.0, 3.0],
        "values": [[1.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]]}}}, None),
    "p_0.118": (singular_scenario, 64, {"p": 0.118}, None),
    "logistic_age": (singular_scenario, 64, {"birth": {"family": "logistic_age", "params": {
        "low": 0.5, "high": 4.0, "midpoint": 1.0, "scale": 0.3}}}, None),
    "affine_death_in_age": (singular_scenario, 64, {
        "death": {"family": "affine", "params": {"base": 1.0, "slope_a": 0.5}}}, None),
}


@pytest.mark.parametrize("name", list(SEARCH_CASES))
def test_lambda_star_matches_a_brentq_reference(name):
    preset, nx, changes, pinned = SEARCH_CASES[name]
    cfg = dataclasses.replace(preset(nx=nx), **changes)
    model = build_model(cfg)
    problem = MalthusProblem(model, *build_grids(cfg, model))
    lam_star = problem.find_lambda_star(1e-6)
    lo, hi = problem.lambda_search["bracket"]
    ref = brentq(lambda lam: problem.rho_of_lambda(lam) - 1.0, lo, hi, xtol=1e-14)
    assert abs(lam_star - ref) <= 1e-6
    if pinned is not None:
        # 1/rho is affine in lambda when sB = B / (D + lambda): one step lands on the root
        assert problem.lambda_search["evaluations"] == pinned
    if name == "constant":
        assert lam_star == 1.0      # rho(1) = 1 - 4.4e-16 passes the 4 eps rule


FALSI_CASES = {       # increasing g with g(lo) < 0 < g(hi)
    "quadratic": (lambda x: x * x - 2.0, 0.0, 3.0),
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "cos_fixed_point": (lambda x: x - math.cos(x), 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 5.0, -1.0, 4.0),
    "atan_wide_bracket": (lambda x: math.atan(x - 0.3), -10.0, 50.0),
    "steep_tanh": (lambda x: math.tanh(20.0 * (x - 0.37)), -1.0, 1.0),
    "log": (lambda x: math.log(x) + x, 0.01, 3.0),
    "root_at_zero": (math.sinh, -1.0, 2.0),
}


@pytest.mark.parametrize("xtol", [1e-6, 1e-12, 5e-324])
@pytest.mark.parametrize("name", sorted(FALSI_CASES))
def test_brentq_port_matches_scipy(name, xtol):
    # _falsi is the in-house stand-in for scipy's brentq: it must find scipy's root.
    # Below any bracket width (5e-324) the search ends by the 4 eps rule alone.
    g, lo, hi = FALSI_CASES[name]
    ref = brentq(g, lo, hi, xtol=xtol)
    assert abs(_falsi(g, lo, hi, xtol) - ref) <= xtol + 8 * math.ulp(max(1.0, abs(ref)))


def test_search_rejects_a_non_finite_rho(monkeypatch):
    problem = singular_problem(16)
    rho = {0.0: 3.0, 1.0: 2.0, 2.0: 0.5}
    monkeypatch.setattr(problem, "rho_of_lambda", lambda lam: rho.get(lam, math.nan))
    with pytest.raises(ValueError, match="nan"):
        problem.find_lambda_star()


@pytest.mark.parametrize("g, tol, error", [
    (lambda x: math.nan if x == 1.0 else x - 0.5, 1e-6, ValueError),
    (lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 1e-6, ValueError),
    (lambda x: -math.inf if x == 0.0 else x, 1e-6, ValueError),
    (lambda x: 1.0 if x >= 0.3 else -1.0, 0.0, RuntimeError)],
    ids=["nan_at_end", "nan_inside", "infinite_end", "no_convergence"])
def test_falsi_errors(g, tol, error):
    with pytest.raises(error):
        _falsi(g, 0.0, 1.0, tol)


def test_lambda_search_forms_no_nx_by_nx_array(monkeypatch):
    # the singular preset holds Mix at rank 1, so no operator or shift-inverse
    # of the search is an (nx, nx) array: the tracemalloc peak of each
    # operator's forming (MixForm.scaled) and each perron call, above what was
    # traced as it began, stays below one
    nx = 800
    config = singular_scenario(nx=nx)
    model = build_model(config)
    problem = MalthusProblem(model, *build_grids(config, model))
    peaks = []

    def measured(fn):
        def call(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return result
        return call
    monkeypatch.setattr(kernel.MixForm, "scaled", measured(kernel.MixForm.scaled))
    monkeypatch.setattr(spectral, "perron", measured(spectral.perron))
    tracemalloc.start()
    try:
        problem.find_lambda_star()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * problem.lambda_search["evaluations"] == 10
    assert problem.lambda_search["perron_shifts"] >= 1     # a shift-inverse ran
    assert max(peaks) < nx * nx * 8


# The exact age structure: B = 2, D = 1 + 0.5 a (an `affine` death with
# slope_a), p = 0.3 and the uniform kernel. B and D do not read the trait, so
# Mix's column sums of 1 give rho(lambda) = sB_lambda, and with
# R = e^{-beta a - s a^2 / 2}, beta = d0 + lambda,
#     sB_lambda = B I(beta),   I(beta) = int_0^inf e^{-beta t - s t^2 / 2} dt
#               = sqrt(pi / 2s) e^{beta^2 / 2s} erfc(beta / sqrt(2s)).
# At the root B I(beta*) = 1, so N = mu R with mu = B; q(a) = B I(beta* + s a),
# and int R q da = B int a R da = (B - beta*) / s gives phi = s q / (B (B - beta*)).
AGE_ORACLE = {"birth": 2.0, "base": 1.0, "slope_a": 0.5}


def _age_integral(beta: float) -> float:
    """I(beta) of the age oracle, by math.erfc."""
    s = AGE_ORACLE["slope_a"]
    z = beta / math.sqrt(2.0 * s)
    return math.sqrt(math.pi / (2.0 * s)) * math.exp(z * z) * math.erfc(z)


def _age_oracle_root() -> float:
    """lambda* of the age oracle: B I(d0 + lambda) = 1, by bisection to rounding."""
    lo, hi = 0.0, 2.0
    while hi - lo > 4 * math.ulp(hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if AGE_ORACLE["birth"] * _age_integral(AGE_ORACLE["base"] + mid) > 1 \
            else (lo, mid)
    return 0.5 * (lo + hi)


def age_oracle_model(nx, da):
    """The age oracle's model, c = 1, with its grids at nx and da."""
    cfg = dataclasses.replace(constant_scenario(nx=nx, da=da), death={
        "family": "affine", "params": {"base": AGE_ORACLE["base"],
                                       "slope_a": AGE_ORACLE["slope_a"]}})
    model = build_model(cfg)
    return model, *build_grids(cfg, model)


def age_oracle_N(lam, a):
    """The oracle's N at the growth rate lam, on the ages a: B R, unit mass on |S| = 1."""
    beta, s = AGE_ORACLE["base"] + lam, AGE_ORACLE["slope_a"]
    return AGE_ORACLE["birth"] * np.exp(-beta * a - 0.5 * s * a * a)


def age_oracle_errors(da):
    """The errors of lambda*, N and phi (the last two relative to each one's
    maximum) on the profiles' lattice at age step da, nx = 16."""
    b, s = AGE_ORACLE["birth"], AGE_ORACLE["slope_a"]
    model, tgrid, agrid = age_oracle_model(16, da)
    problem = MalthusProblem(model, tgrid, agrid)
    lam = problem.find_lambda_star(1e-13)
    triple = malthus.eigentriple(problem, lam, kernel.profile_lattice(model, lam, problem.agrid))
    exact = _age_oracle_root()
    beta, a = AGE_ORACLE["base"] + exact, triple.agrid.nodes
    N = age_oracle_N(exact, a)
    phi = np.array([s * b * _age_integral(beta + s * x) / (b * (b - beta)) for x in a])
    return (lam - exact, np.abs(triple.N_grid - N).max() / N.max(),
            np.abs(triple.phi_grid - phi).max() / phi.max())


def test_age_structure_oracle_second_order_in_da():
    # The product quadrature is second order in da where the rates read age.
    # Measured: lambda* - exact = -0.0914 da^2 (-9.144e-6 at da = 0.01), N's
    # error 0.0417 da^2 and phi's 0.00706 da^2, each halving dividing it by
    # 4.00. The bounds leave a fifth over the measured constants; a cell's
    # death rate read at one end makes the error first order.
    errors = {da: age_oracle_errors(da) for da in (0.02, 0.01, 0.005)}
    lam_err, N_err, phi_err = errors[0.01]
    assert _age_oracle_root() == pytest.approx(0.7721767308567238, abs=1e-15)
    assert abs(lam_err) <= 0.11 * 0.01 ** 2
    assert N_err <= 0.05 * 0.01 ** 2
    assert phi_err <= 0.0085 * 0.01 ** 2
    for coarse, fine in ((0.02, 0.01), (0.01, 0.005)):
        assert errors[coarse][0] / errors[fine][0] == pytest.approx(4.0, abs=0.1)


def test_dynamics_settle_on_the_exact_stationary_state():
    # The nonlinear flow of the age oracle (c = 1) from a uniform state, to
    # T = 20 at nx = 8, da = 0.01, against the exact stationary state
    # (lambda*/c) N: its history sums take the FFT path once and fall back to
    # the direct sums three times. Measured: mass - lambda*/c = 1.86e-8 and
    # the distance 1.84e-8, both still falling with t (at 2.5e-8 at t = 19.6):
    # the flow's own transient, not its discretization, sets them. The bounds
    # leave a third over them; a cell's death rate read at its left end moves
    # both to 2.5e-3.
    model, tgrid, agrid = age_oracle_model(8, 0.01)
    lam = _age_oracle_root()
    target = np.broadcast_to(lam / model.competition * age_oracle_N(lam, agrid.nodes),
                             (tgrid.n, agrid.n_cells + 1))
    solver = pde.TransportSolver(model, tgrid, agrid, kernel.mix_matrix(model, tgrid))
    _, trace = pde.run(solver, pde.uniform_state(tgrid, agrid), 20.0, target=target,
                       record_every=10)
    assert solver.history["fft_blocks"] >= 1 and solver.history["direct_blocks"] >= 1
    assert abs(trace.mass[-1] - lam / model.competition) <= 2.5e-8
    assert trace.tv_to_target[-1] <= 2.5e-8
