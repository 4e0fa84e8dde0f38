import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from conftest import cell_path, renewal_flux
from structpop import _loops, pde
from structpop.kernel import mix_matrix, prefix_cells, survival_matrix
from structpop.model import (AgeGrid, build_grids, build_model,
                             constant_scenario, midpoint_grid)
from structpop.malthus import MalthusProblem, solve_eigentriple


def age_bump_state(tgrid, agrid, mass=1.0):
    """Smooth cohort near age 0.25 (Simpson-friendly, unlike a raw spike)."""
    prof = np.exp(-((agrid.nodes - 0.25) / 0.05) ** 2)
    values = np.ones((tgrid.n, 1)) * prof[None, :]
    qa = agrid.quad_weights()
    total = float(np.sum(values * tgrid.dx * qa[None, :]))
    return pde.DensityState(t=0.0, values=values * (mass / total))


def make_solver(birth=2.0, death=1.0, c=1.0, nx=16, n_cells=600, twin=False):
    """Constant rates, whose history sums past age 0 are in closed form; or with
    twin, their cell-path twin (`conftest.cell_path`), whose are by FFT."""
    cfg = dataclasses.replace(
        constant_scenario(nx=nx), c=c,
        birth={"family": "constant", "params": {"value": birth}},
        death={"family": "constant", "params": {"value": death}})
    model = build_model(cell_path(cfg) if twin else cfg)
    tg = midpoint_grid((0.0, 1.0), nx)
    ag = AgeGrid(da=0.01, n_cells=n_cells)
    return model, tg, ag, pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))


def c_zero_twin(solver):
    """The solver of the same model without competition: the linear flow."""
    return pde.TransportSolver(dataclasses.replace(solver.model, competition=0.0),
                               solver.tgrid, solver.agrid, solver.mix)


def test_pure_death_closed_form():
    # young smooth cohort so nothing reaches the age horizon by T
    _, tg, ag, solver = make_solver(birth=0.0, c=0.0)
    st = age_bump_state(tg, ag)
    _, trace = pde.run(solver, st, 5.0, record_every=100)
    assert abs(trace.mass[-1] - math.exp(-5.0)) < 1e-6


def test_death_with_competition_first_order():
    # d rho/dt = -rho - rho^2 has the closed form rho0 e^{-t}/(1 + rho0(1-e^{-t}));
    # the start-of-step competition mass makes the scheme genuinely first order
    def mass_error(da):
        cfg = constant_scenario()
        model = build_model(dataclasses.replace(
            cfg, birth={"family": "constant", "params": {"value": 0.0}}))
        tg = midpoint_grid((0.0, 1.0), 8)
        ag = AgeGrid(da=da, n_cells=int(round(6.0 / da)))
        solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
        st = age_bump_state(tg, ag)
        m0 = 1.0
        _, trace = pde.run(solver, st, 3.0, record_every=10 ** 9)
        truth = m0 * math.exp(-3.0) / (1.0 + m0 * (1.0 - math.exp(-3.0)))
        return abs(trace.mass[-1] - truth)

    e1 = mass_error(0.01)
    e2 = mass_error(0.005)
    assert e1 > 0
    assert e2 == pytest.approx(0.5 * e1, rel=0.2)


def test_positivity_and_mass_cache(constant_setup):
    s = constant_setup
    st = pde.dirac_state(s.tgrid, s.agrid, x=0.3, a=0.5)
    assert s.solver.mass(st.values) == pytest.approx(1.0, rel=1e-12)
    for _ in range(50):
        s.solver.step_nonlinear(st)
        assert np.all(st.values >= 0)


def test_nonlinear_converges_from_uniform(constant_setup):
    s = constant_setup
    _, nbar, _ = s.stationary()
    st = pde.uniform_state(s.tgrid, s.agrid)
    _, trace = pde.run(s.solver, st, 30.0, target=nbar,
                       phi=s.triple.phi_grid, lam_star=s.triple.lambda_star,
                       record_every=500)
    assert trace.tv_to_target[-1] <= 1e-2
    assert trace.mass[-1] == pytest.approx(1.0, abs=1e-2)
    assert abs(trace.D_t[-1]) <= 1e-2          # mean growth-rate gap closes


def test_stationary_state_is_fixed_point(constant_setup):
    s = constant_setup
    _, nbar, _ = s.stationary()
    st = pde.DensityState(0.0, nbar.copy())
    _, trace = pde.run(s.solver, st, 10.0, target=nbar, record_every=1000)
    assert trace.tv_to_target[-1] <= 10 * s.agrid.da


def test_renewal_flux_examples(constant_setup):
    s = constant_setup
    assert np.all(renewal_flux(s.solver, np.zeros_like(s.triple.N_grid)) == 0)
    flux = renewal_flux(s.solver, s.triple.N_grid)
    assert np.abs(flux - s.triple.N_grid[:, 0]).max() < 1e-6


def test_renewal_flux_mutation_free_limit():
    cfg = dataclasses.replace(constant_scenario(nx=8), p=1e-12)
    model = build_model(cfg)
    tg = midpoint_grid((0.0, 1.0), 8)
    ag = AgeGrid(da=0.01, n_cells=400)
    solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
    n = np.exp(-ag.nodes)[None, :] * (1.0 + tg.nodes)[:, None]
    clonal = np.sum(solver.B * n * solver.qa[None, :], axis=1)
    assert np.abs(renewal_flux(solver, n) - clonal).max() < 1e-10


def test_distances_trivial_cases(constant_setup):
    s = constant_setup
    target = s.triple.N_grid
    tv, pw = s.solver.distances(target, target, s.triple.phi_grid)
    assert tv == 0.0 and pw == 0.0
    tv, _ = s.solver.distances(2.0 * target, target, s.triple.phi_grid)
    assert tv == pytest.approx(1.0, abs=1e-8)   # unit-mass target


def test_linear_invariant_and_contraction(constant_setup):
    s = constant_setup
    tr = s.triple
    xt = (s.tgrid.nodes - s.tgrid.nodes[0]) / (s.tgrid.nodes[-1] - s.tgrid.nodes[0])
    v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
    m0 = float(np.sum(v0 * tr.phi_grid * s.solver.mass_w))
    st = pde.DensityState(0.0, v0.copy())
    _, trace = pde.run(s.linear_solver, st, 20.0, target=m0 * tr.N_grid,
                       phi=tr.phi_grid, lam_star=tr.lambda_star, record_every=10)
    inv = np.asarray(trace.invariant_value)
    assert np.abs(inv - inv[0]).max() / inv[0] <= 0.01
    t = np.asarray(trace.t)
    d = np.asarray(trace.phi_weighted_dist)
    mask = (t >= 5.0) & (t <= 20.0)
    rate = -np.polyfit(t[mask], np.log(d[mask]), 1)[0]
    assert rate >= 0.35
    # non-increasing past the transient, up to jitter at the scheme's floor
    assert np.all(np.diff(d[mask]) <= 1e-7)


def test_invariant_drift_halves_with_dt(constant_setup):
    def drift(da):
        cfg = constant_scenario(da=da)
        model = build_model(cfg)
        tg, ag = build_grids(cfg, model)
        prob = MalthusProblem(model, tg, ag)
        tr = solve_eigentriple(prob, tol_lam=1e-10)
        linear = dataclasses.replace(model, competition=0.0)
        solver = pde.TransportSolver(linear, tg, ag, prob.mix)
        xt = (tg.nodes - tg.nodes[0]) / (tg.nodes[-1] - tg.nodes[0])
        v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
        st = pde.DensityState(0.0, v0)
        _, trace = pde.run(solver, st, 20.0, phi=tr.phi_grid,
                           lam_star=tr.lambda_star, record_every=50)
        inv = np.asarray(trace.invariant_value)
        return np.abs(inv - inv[0]).max() / inv[0]

    d1 = drift(0.01)
    d2 = drift(0.005)
    assert d1 <= 0.01
    assert d2 <= max(0.6 * d1, 1e-9)


def test_eigenfunction_grows_exponentially(constant_setup):
    s = constant_setup
    tr = s.triple
    st = pde.DensityState(0.0, tr.N_grid.copy())
    _, trace = pde.run(s.linear_solver, st, 5.0, record_every=500)
    expected = math.exp(tr.lambda_star * 5.0)
    assert trace.mass[-1] == pytest.approx(expected, rel=10 * s.agrid.da)


def test_transform_identity_c_zero():
    _, tg, ag, solver = make_solver(c=0.0)
    st = pde.uniform_state(tg, ag)
    assert pde.transform_check(solver, st, 3.0) == 0.0


def test_transform_identity_first_order(constant_setup):
    def disc(da):
        cfg = constant_scenario(da=da)
        model = build_model(cfg)
        tg, ag = build_grids(cfg, model)
        solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
        return pde.transform_check(solver, pde.uniform_state(tg, ag), 10.0)

    d1 = disc(0.01)
    d2 = disc(0.005)
    assert d1 <= 50 * 0.01             # <= C dt with a generous C
    assert d2 <= 0.6 * d1


def test_transform_check_reads_through_the_fold(monkeypatch):
    # lambda* ~ 19: s is folded into u before t = 20, and S_t must not be
    _, tg, ag, solver = make_solver(birth=20.0, nx=8)
    st = pde.uniform_state(tg, ag)
    _, trace = pde.run(solver, st.copy(), 20.0)
    assert math.exp(-solver.dt * float(np.sum(trace.mass[:-1]))) < pde._S_FLOOR
    folded = pde.transform_check(solver, st, 20.0)
    monkeypatch.setattr(pde, "_S_FLOOR", 0.0)
    assert folded == pytest.approx(pde.transform_check(solver, st, 20.0), rel=1e-12)


def test_stationary_residual_and_negative_control(constant_setup):
    s = constant_setup
    _, nbar, _ = s.stationary()
    assert pde.stationary_residual(s.model, s.tgrid, s.agrid, s.problem.mix, nbar) <= 1e-3
    bogus = pde.uniform_state(s.tgrid, s.agrid).values
    assert pde.stationary_residual(s.model, s.tgrid, s.agrid, s.problem.mix, bogus) > 1e-2


def test_stationary_residual_forms_one_test_function_at_a_time(constant_setup):
    # the basket's 15 (f, df/da) pairs are 30 (x, a) grids: formed whole, the
    # residual peaked at 36 grids, and one pair at a time, with B, D, the last
    # pair, its G and integrand alive as the next pair formed, at 9.1. Each
    # term its own grid_integral and int G[f] nbar a product of two trait
    # vectors, it holds (D + c mass) nbar and the pair being formed with one
    # temporary: 4.1 grids
    s = constant_setup
    _, nbar, _ = s.stationary()
    grid = 8 * s.tgrid.n * (s.agrid.n_cells + 1)
    tracemalloc.start()
    try:
        pde.stationary_residual(s.model, s.tgrid, s.agrid, s.problem.mix, nbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * grid


def test_mass_ode_diagnostic(constant_setup):
    s = constant_setup
    st = pde.uniform_state(s.tgrid, s.agrid)
    _, trace = pde.run(s.solver, st, 10.0, lam_star=s.triple.lambda_star,
                       phi=s.triple.phi_grid, record_every=10)
    res = pde.mass_ode_residual(trace, s.triple.lambda_star,
                                s.model.competition)
    assert res < 0.05                  # finite-difference check of the mass law


def test_subcritical_mass_decays():
    _, tg, ag, solver = make_solver(birth=0.5)
    st = pde.uniform_state(tg, ag)
    _, trace = pde.run(solver, st, 8.0, record_every=100)
    m = np.asarray(trace.mass)
    tail = m[m.size // 4:]
    assert np.all(np.diff(tail) < 0)
    assert m[-1] < 0.05 * m[0]


def test_truncation_loss_accounted(constant_setup):
    s = constant_setup
    st = pde.uniform_state(s.tgrid, s.agrid)
    _, trace = pde.run(s.solver, st, 5.0, record_every=100)
    assert trace.truncation_loss[-1] <= 1e-8   # tail tolerance times run length


def test_dirac_state_carries_unit_mass(constant_setup):
    s = constant_setup
    st = pde.dirac_state(s.tgrid, s.agrid, x=0.51, a=0.0, mass=2.5)
    assert s.solver.mass(st.values) == pytest.approx(2.5, rel=1e-12)
    assert np.count_nonzero(st.values) == 1


def newborn_reference(solver, v):
    """The boundary solve the precomposed matrix replaced: LU of I - A, then mix."""
    p, b0, q0 = solver.model.mutation_prob, solver.B[:, 0], solver.qa[0]
    kmat = solver.model.mutation_kernel.matrix(solver.tgrid.nodes)
    w = solver.tgrid.dx
    A = np.diag((1.0 - p) * b0 * q0)
    A += p * q0 * (kmat * (b0 * w)[:, None]).T
    mixed = (1.0 - p) * v + p * kmat.T @ (v * w)
    return lu_solve(lu_factor(np.eye(solver.tgrid.n) - A), mixed)


@pytest.mark.parametrize("changes", [
    {},
    {"kernel": {"family": "gaussian", "params": {"width": 0.15}}, "p": 0.4},
    {"birth": {"family": "logistic_age",
               "params": {"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.3}}},
    {"birth": {"family": "sqrt_gap", "params": {"bbar": 4.0}}, "p": 0.05}],
    ids=["constant", "gaussian_kernel", "logistic_age_birth", "trait_dependent_birth"])
def test_newborn_matrix_matches_boundary_solve(changes, rng):
    cfg = dataclasses.replace(constant_scenario(nx=24), **changes)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
    for _ in range(5):
        v = rng.uniform(0.1, 2.0, solver.tgrid.n)
        ref = newborn_reference(solver, v)
        assert np.abs(solver._newborn @ v - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("T", [0.5, -1.0, math.nan, math.inf])
def test_run_and_transform_check_reject_bad_horizon(T):
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    st = pde.uniform_state(tg, ag)
    pde.run(solver, st, 1.0)                   # state.t is now 1.0
    with pytest.raises(ValueError, match="horizon"):
        pde.run(solver, st, T)
    with pytest.raises(ValueError, match="horizon"):
        pde.transform_check(solver, st, T)
    assert st.t == pytest.approx(1.0)          # nothing was stepped


@pytest.mark.parametrize("record_every", [0, -1])
def test_run_rejects_a_record_stride_below_one(record_every):
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    st = pde.uniform_state(tg, ag)
    with pytest.raises(ValueError, match="record_every"):
        pde.run(solver, st, 1.0, record_every=record_every)
    assert st.t == 0.0 and st._cohort is None   # nothing was stepped


@pytest.mark.parametrize("grid", ["state", "target", "phi"])
def test_run_rejects_a_grid_of_another_shape(grid):
    # the compiled record reads every grid through a raw pointer at the solver's shape
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    short = np.ones((8, 200))
    state = pde.DensityState(0.0, short if grid == "state" else solver.R.copy())
    kwargs = {grid: short} if grid != "state" else {}
    with pytest.raises(ValueError, match=f"{grid} shape"):
        pde.run(solver, state, 0.1, **kwargs)


def test_run_to_the_state_time_makes_no_step():
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    st = pde.uniform_state(tg, ag)
    _, trace = pde.run(solver, st, 0.0)
    assert trace.steps == 0 and trace.t == [0.0]
    assert pde.transform_check(solver, st, 0.0) == 0.0


def test_negative_density_raises_under_optimize():
    # the guard must survive `python -O`, which strips assert statements
    script = (
        "import dataclasses\n"
        "from structpop import pde\n"
        "from structpop.kernel import mix_matrix\n"
        "from structpop.model import build_grids, build_model, constant_scenario\n"
        "cfg = constant_scenario(nx=8, tol=1e-6)\n"
        "model = dataclasses.replace(build_model(cfg), competition=0.0)\n"
        "tg, ag = build_grids(cfg, model)\n"
        "solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))\n"
        "state = pde.uniform_state(solver.tgrid, solver.agrid)\n"
        "state.values[0, 0] = -1.0\n"
        "try:\n"
        "    solver.step_nonlinear(state)\n"
        "except ValueError:\n"
        "    raise SystemExit(7)\n"
    )
    src = os.path.dirname(os.path.dirname(pde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 7, proc.stderr


def reference_run(solver, values, n_steps, c):
    """The per-cell scheme the cohort kernel replaced: decay each cell, shift, renew."""
    R = survival_matrix(solver.model, solver.tgrid.nodes, solver.agrid.nodes, 0.0)
    cell_survival = R[:, 1:] / np.maximum(R[:, :-1], 1e-300)
    nx = values.shape[0]
    M = np.empty((nx, nx))              # births of the newborns themselves
    for i in range(nx):
        unit = np.zeros_like(values)
        unit[i, 0] = 1.0
        M[:, i] = renewal_flux(solver, unit)
    n, loss = values.copy(), 0.0
    for _ in range(n_steps):
        loss += float(np.sum(n[:, -1] * cell_survival[:, -1] * solver.tgrid.dx)
                      * solver.qa[-1])
        shifted = np.zeros_like(n)
        shifted[:, 1:] = n[:, :-1] * cell_survival * math.exp(
            -c * float(np.sum(n * solver.mass_w)) * solver.dt)
        n0 = np.linalg.solve(np.eye(nx) - M, renewal_flux(solver, shifted))
        shifted[:, 0] = np.maximum(n0, 0.0)
        n = shifted
    return n, loss


def numpy_twin(solver):
    """A solver of the same model, grids and Mix that steps by NumPy, as every
    solver does on a host without the compiled loops."""
    twin = pde.TransportSolver(solver.model, solver.tgrid, solver.agrid, solver.mix)
    twin._lib = None
    return twin


def step_paths(solver):
    """The solver and, where it steps compiled, its NumPy twin."""
    return [solver] + ([numpy_twin(solver)] if solver._lib is not None else [])


def assert_matches_reference(solver, state0, n_steps, read_values_at=None):
    """Step a copy of state0 n_steps times on each step path and compare it with
    the per-cell scheme.

    Reading `values` after step `read_values_at` drops the pending block of
    history sums.
    """
    ref, ref_loss = reference_run(solver, state0.values, n_steps, solver.model.competition)
    for stepper in step_paths(solver):
        st, loss = state0.copy(), 0.0
        for k in range(n_steps):
            loss += stepper.step_nonlinear(st)
            if k + 1 == read_values_at:
                assert np.all(np.isfinite(st.values)) and st._cohort is None
        assert np.all(np.isfinite(st.values))
        assert np.abs(st.values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(loss - ref_loss) <= 1e-12 * max(ref_loss, 1e-300)
    return ref_loss


@pytest.mark.parametrize("linear", [False, True])
def test_cohort_step_matches_per_cell_reference_constant(constant_setup, linear):
    s = constant_setup
    solver = s.linear_solver if linear else s.solver
    assert_matches_reference(solver, pde.uniform_state(s.tgrid, s.agrid), 200)


def age_dependent_solver():
    """Logistic-in-age birth; death 1 + x/2 + 5a, whose survival underflows by a ~ 17."""
    cfg = dataclasses.replace(
        constant_scenario(nx=12),
        birth={"family": "logistic_age",
               "params": {"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.3}},
        death={"family": "affine",
               "params": {"base": 1.0, "slope_x": 0.5, "slope_a": 5.0}})
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    R = survival_matrix(model, tg.nodes, ag.nodes, 0.0)
    assert np.any(R[:, -1] == 0.0)      # survival underflows inside the horizon
    return pde.TransportSolver(model, tg, ag, mix_matrix(model, tg)), R


@pytest.mark.parametrize("linear", [False, True])
def test_cohort_step_matches_per_cell_reference_age_dependent(linear):
    solver, R = age_dependent_solver()
    # cohorts of a constant birth flux: density R0 (1 + x), all ages populated
    st = pde.DensityState(0.0, R * (1.0 + solver.tgrid.nodes)[:, None])
    assert_matches_reference(c_zero_twin(solver) if linear else solver, st, 200)


def test_cohort_step_loss_where_horizon_survival_squared_underflows():
    # death 80 on [0, 6]: R0 ~ 1e-208 at the horizon, so R0^2 underflows but R0 does not
    _, tg, ag, solver = make_solver(death=80.0, nx=8)
    assert solver.R[0, -1] ** 2 == 0.0 < solver.R[0, -1]
    st = pde.uniform_state(tg, ag, a_scale=5.0)   # O(1) density at the horizon
    ref_loss = assert_matches_reference(solver, st, 200)
    assert ref_loss > 1e-6


def test_cohort_step_kills_mass_where_survival_underflows():
    solver, R = age_dependent_solver()
    dead = R < 1e-300                   # includes every age where R0 is exactly 0
    for stepper in step_paths(solver):
        st = pde.uniform_state(solver.tgrid, solver.agrid, a_scale=5.0)
        assert np.all(st.values[dead] > 0)
        stepper.step_nonlinear(st)
        assert np.all(st.values[dead] == 0.0)
        stepper.step_nonlinear(st, 20)
        assert np.all(np.isfinite(st.values)) and np.all(st.values[dead] == 0.0)


def test_cohort_step_long_run_folds_the_competition_scalar():
    # lambda* ~ 19: the product of exp(-c m dt) underflows long before t = 60
    _, tg, ag, solver = make_solver(birth=20.0, nx=8)
    state0 = pde.uniform_state(tg, ag)
    ref = None
    for stepper in step_paths(solver):
        st = state0.copy()
        _, trace = pde.run(stepper, st, 60.0, record_every=1)
        assert math.exp(-solver.dt * float(np.sum(trace.mass[:-1]))) == 0.0
        if ref is None:
            ref, _ = reference_run(solver, state0.values, trace.steps, 1.0)
        assert np.abs(st.values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert trace.mass[-1] == pytest.approx(np.sum(ref * solver.mass_w), rel=1e-12)


# the block kernel: history sums over blocks of steps, newborns read off the ring
HISTORY_KEYS = ("fft_blocks", "direct_blocks", "closed_form_blocks")
BLOCK_CASES = {
    # the horizon is 600 steps: past it, plus two blocks, only newborns remain
    "constant_past_horizon_nonlinear": (dict(nx=8), 600 + 2 * 512 + 50, False, None),
    "constant_past_horizon_linear": (dict(nx=8), 600 + 2 * 512 + 50, True, None),
    "declining_linear": (dict(birth=0.5, nx=8), 700, True, None),
    "values_read_mid_block": (dict(nx=8), 700, False, 300),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_kernel_matches_per_cell_reference(case):
    # the constant model's history sums are in closed form, its cell-path twin's by FFT
    solver_args, n_steps, linear, read_at = BLOCK_CASES[case]
    for twin in (False, True):
        model, tg, ag, solver = make_solver(**solver_args, twin=twin)
        if case == "declining_linear":
            prob = MalthusProblem(model, tg, ag)
            assert prob.rho_of_lambda(0.0) < 1.0          # subcritical: lambda* < 0
        if linear:
            solver = c_zero_twin(solver)
        assert_matches_reference(solver, pde.uniform_state(tg, ag), n_steps, read_at)
        fft, direct, closed = (solver.history[k] for k in HISTORY_KEYS)
        if twin:
            assert fft >= 2 and direct == 0 and closed == 0
        else:
            assert closed >= 2 and fft == direct == 0


def assert_same_ring(got, want):
    """Two stepped states hold the same ring to roundoff: head, block, s and msum."""
    (_, u, head, s, msum, (_, m, K)), (_, v, head_v, s_v, msum_v, (_, m_v, K_v)) = (
        got._cohort, want._cohort)
    assert (head, m, K) == (head_v, m_v, K_v) and got.t == want.t
    assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
    assert s == pytest.approx(s_v, rel=1e-12) and msum == pytest.approx(msum_v, rel=1e-12)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES) + ["constant_pde"])
def test_compiled_step_matches_the_numpy_step(constant_setup, case):
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    if case == "constant_pde":      # the benchmark's shape: nx = 64, 3000 steps
        s = constant_setup
        solver = pde.TransportSolver(s.model, s.tgrid, s.agrid, s.problem.mix)
        n_steps, read_at, state0 = 3000, None, pde.uniform_state(s.tgrid, s.agrid)
    else:
        solver_args, n_steps, linear, read_at = BLOCK_CASES[case]
        _, tg, ag, solver = make_solver(**solver_args)
        solver = c_zero_twin(solver) if linear else solver
        state0 = pde.uniform_state(tg, ag)
    twin = numpy_twin(solver)
    assert solver._lib is not None
    compiled, stepped = state0.copy(), state0.copy()
    done, sizes = 0, itertools.cycle((1, 37, 300))  # calls that start, end and span blocks
    while done < n_steps:
        stop = read_at if read_at and done < read_at else n_steps
        n = min(next(sizes), stop - done)
        loss = solver.step_nonlinear(compiled, n)
        assert loss == pytest.approx(twin.step_nonlinear(stepped, n), rel=1e-12, abs=1e-300)
        assert_same_ring(compiled, stepped)
        done += n
        if done == read_at:
            assert np.abs(compiled.values - stepped.values).max() <= (
                1e-12 * np.abs(stepped.values).max())
    assert solver.history == twin.history and solver.history["closed_form_blocks"] >= 2


@pytest.mark.parametrize("linear", [False, True])
def test_a_non_finite_newborn_raises_on_both_step_paths(linear):
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    if linear:      # the births of a density near the float limit overflow
        solver, mass = c_zero_twin(solver), 1e308
    else:           # exp(-c m dt) underflows: s = 0, and the newborns are NaN
        mass = 1e6
    for stepper in step_paths(solver):
        st = pde.uniform_state(tg, ag, mass=mass)
        # the step raises, and warns of nothing on the way
        with warnings.catch_warnings(), pytest.raises(ValueError,
                                                      match="transport step produced"):
            warnings.simplefilter("error", RuntimeWarning)
            stepper.step_nonlinear(st, 5)
        assert st.t == 0.0


def test_competition_only_scales_the_ring():
    # the premise of the one stepping path: u's recursion is free of c, so the
    # nonlinear state is s times the linear one until s is folded into u
    _, tg, ag, solver = make_solver(nx=8)
    twin = c_zero_twin(solver)
    nonlinear = pde.uniform_state(tg, ag)
    linear = nonlinear.copy()
    for _ in range(2 * 512 + 50):
        solver.step_nonlinear(nonlinear)
        twin.step_nonlinear(linear)
        (_, u, head, s, _, _), (_, v, head_v, one, _, _) = nonlinear._cohort, linear._cohort
        assert head == head_v and one == 1.0 and pde._S_FLOOR <= s < 1.0
        assert np.array_equal(u, v)
    assert solver.history["closed_form_blocks"] >= 2 and twin.history["closed_form_blocks"] >= 2
    ref = s * linear.values
    assert np.abs(nonlinear.values - ref).max() <= 1e-15 * np.abs(ref).max()


def test_history_sums_are_direct_where_the_fft_bound_fails():
    # death 80: u = n / R0 reaches ~1e208 at the horizon, far beyond the FFT's
    # accuracy; the cell-path twin's guard sends a block to the direct sum, and
    # the constant model's closed form, which sums R0 u = n, holds throughout
    for twin in (True, False):
        _, tg, ag, solver = make_solver(death=80.0, nx=8, twin=twin)
        assert_matches_reference(solver, pde.uniform_state(tg, ag, a_scale=5.0), 600)
        if twin:
            assert solver.history["direct_blocks"] >= 1
        else:
            assert solver.history["closed_form_blocks"] >= 1
            assert solver.history["fft_blocks"] == solver.history["direct_blocks"] == 0


def test_history_sums_by_trait_chunks_where_the_fft_bound_fails():
    # the death-80 cell-path twin at nx = 64: the FFT guard fails and the sums
    # are direct. Guard and direct sums run by _CHUNK trait rows, so a block
    # forms no ring-sized temporary beyond one chunk's FFTs: measured 2.19
    # (nx, na+1) grids at K = 512 and 0.28 at K = 1, where the whole-ring guard
    # and roll took 2.54 and 1.02. The sums are the whole ring's, bit for bit
    _, tg, ag, solver = make_solver(death=80.0, nx=64, twin=True)
    v = pde.uniform_state(tg, ag, a_scale=5.0).values
    u = np.roll(np.divide(v, solver.R, out=np.zeros(v.shape), where=solver.R > 0.0), 77,
                axis=1)
    L, t, grid = u.shape[1], solver._tail, v.nbytes
    c = np.roll(u, -77, axis=1)
    solver._history(u, 77, np.empty((tg.n, 2, 512)))     # plans the FFT length once
    for K, bound in ((512, 2.3), (1, 0.4)):
        hist = np.full((tg.n, 2, K), np.nan)
        direct = solver.history["direct_blocks"]
        tracemalloc.start()
        try:
            solver._history(u, 77, hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver.history["direct_blocks"] == direct + (K > 1)     # K = 1: no FFT
        assert peak <= bound * grid, (K, peak / grid)
        for m in range(1, K + 1):
            j = min(t, L - m)
            want = np.matmul(solver._W[:, :, m:m + j], c[:, :j, None])[:, :, 0]
            assert hist[:, :, m - 1].tobytes() == want.tobytes()


def tabulated_solver(a_f, nx=8, n_cells=600, values=((0.5, 1.0), (0.8, 1.3))):
    """Death tabulated in age up to a_f and flat past it, so that the history
    sums' tail starts at the first node at or past a_f; values[i] are the
    rates at trait x_i = i and ages 0 and a_f."""
    cfg = dataclasses.replace(constant_scenario(nx=nx), death={
        "family": "tabulated", "params": {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, a_f],
                                          "values": [list(v) for v in values]}})
    model = build_model(cfg)
    tg, ag = midpoint_grid((0.0, 1.0), nx), AgeGrid(da=0.01, n_cells=n_cells)
    return pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))


def defining_history(solver, u, head, K):
    """hist[:, :, m-1] = sum_j W[:, :, j+m] c_j over the whole lattice, term by term."""
    W = np.stack([solver.B * solver.qa * solver.R, solver.mass_w * solver.R], axis=1)
    c, L = np.roll(u, -head, axis=1), u.shape[1]
    hist = np.zeros((u.shape[0], 2, K))
    for m in range(1, min(K, L - 1) + 1):
        hist[:, :, m - 1] = np.einsum("xrj,xj->xr", W[:, :, m:], c[:, :L - m])
    return hist


# the tail starts at age 0 (constant rates), or past it at an even or an odd node
HISTORY_TAILS = {"constant": (None, 0), "even_start": (0.5, 50), "odd_start": (0.37, 37)}


@pytest.mark.parametrize("K", [1, 2, 37, 200, 201])
@pytest.mark.parametrize("case", sorted(HISTORY_TAILS))
def test_closed_form_history_sums_match_the_defining_sums(case, K, rng):
    # a block of K = 201 steps is longer than the 200 ages left past a_1
    a_f, tail = HISTORY_TAILS[case]
    solver = (make_solver(nx=8, n_cells=200)[3] if a_f is None
              else tabulated_solver(a_f, n_cells=200))
    assert solver._tail == solver.prefix_cells == tail
    assert solver.prefix_cells == prefix_cells(solver.model, solver.agrid.nodes)
    u = rng.uniform(0.5, 1.5, solver.R.shape)
    for head in (0, 1, 77):
        hist = np.full((u.shape[0], 2, K), np.nan)
        solver._history(u, head, hist)
        want = defining_history(solver, u, head, K)
        assert np.all(np.abs(hist - want) <= 4e-15 * np.abs(want).max(axis=2)[:, :, None])
    blocks = solver.history
    assert blocks["closed_form_blocks"] == 3
    assert blocks["fft_blocks"] + blocks["direct_blocks"] == (3 if K > 1 and tail else 0)


def test_history_sums_keep_their_precision_under_a_steeply_aging_death(rng):
    # death 0.1 -> 20 over ages [0, 10], flat past them: R falls by e^{-100} before
    # the tail, so a tail survival carried back to age 0 would stand e^{99} too
    # large there, and running sums from age 0 would drop every tail term of a
    # density spread over all ages
    solver = tabulated_solver(10.0, n_cells=2000, values=((0.1, 20.0), (0.1, 18.0)))
    assert solver._tail == 1000
    # u of order 1 (a density that falls as R), and n = u R of order 1; the second
    # reads R's exponent, down to -300 here, whose running sum's rounding moves R
    # along the tail by about 1e-12 (8.3e-15 of a row's largest sum, measured,
    # against 2.0e-15 for the first)
    u = rng.uniform(0.5, 1.5, solver.R.shape)
    for ring, bound in ((u, 4e-15), (u / solver.R, 2e-14)):
        for head in (0, 77):
            c = np.roll(ring, head, axis=1)         # age a_j at column (head + j) mod L
            hist = np.full((u.shape[0], 2, 512), np.nan)
            solver._history(c, head, hist)
            want = defining_history(solver, c, head, 512)
            assert np.all(np.abs(hist - want) <= bound * np.abs(want).max(axis=2)[:, :, None])
    assert solver.history["closed_form_blocks"] == 4
    assert_matches_reference(solver, pde.uniform_state(solver.tgrid, solver.agrid), 700)
    assert solver.history["closed_form_blocks"] >= 6


@pytest.mark.parametrize("linear", [False, True])
def test_tail_past_age_zero_matches_per_cell_reference(linear):
    solver = tabulated_solver(1.5)
    assert solver._tail == 150 and solver.history["closed_form_blocks"] == 0
    solver = c_zero_twin(solver) if linear else solver
    # cohorts of a constant birth flux: density R0 (1 + x), all ages populated
    st = pde.DensityState(0.0, solver.R * (1.0 + solver.tgrid.nodes)[:, None])
    assert_matches_reference(solver, st, 700)
    assert solver.history["closed_form_blocks"] >= 2 and solver.history["fft_blocks"] >= 2


@pytest.mark.parametrize("record", ["c", "numpy"])
def test_preset_run_matches_its_cell_path_twin(constant_setup, monkeypatch, record):
    # the same rates, summed in closed form past age 0 and cell by cell
    use_record_path(monkeypatch, record)
    s = constant_setup
    twin = pde.TransportSolver(build_model(cell_path(s.config)), s.tgrid, s.agrid, s.problem.mix)
    solver = pde.TransportSolver(s.model, s.tgrid, s.agrid, s.problem.mix)
    assert (solver._tail, twin._tail) == (0, s.agrid.n_cells + 1)
    assert (solver.prefix_cells, twin.prefix_cells) == (0, s.agrid.n_cells)
    kwargs = dict(target=s.stationary()[1], phi=s.triple.phi_grid,
                  lam_star=s.triple.lambda_star, record_every=10)
    runs = [pde.run(sv, pde.uniform_state(s.tgrid, s.agrid), 12.0, **kwargs)
            for sv in (solver, twin)]
    (got, got_trace), (want, want_trace) = runs
    assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()
    mass = np.asarray(want_trace.mass)
    for name in ("mass", "truncation_loss"):
        np.testing.assert_allclose(getattr(got_trace, name), getattr(want_trace, name),
                                   rtol=1e-12, atol=0.0)
    for name in ("tv_to_target", "phi_weighted_dist"):     # they fall to 1e-5 of the mass
        gap = np.subtract(getattr(got_trace, name), getattr(want_trace, name))
        assert np.all(np.abs(gap) <= 1e-14 * mass)
    assert got_trace.t == want_trace.t and got_trace.D_t == want_trace.D_t
    assert solver.history["fft_blocks"] == solver.history["direct_blocks"] == 0
    assert twin.history["closed_form_blocks"] == 0
    assert solver.history["closed_form_blocks"] == twin.history["fft_blocks"] + 1 >= 3


def test_growth_diagnostic_is_exactly_zero_on_the_constant_preset(constant_setup):
    # B - D = 1 = lambda*: the numerator and the mass come from the same kind of pass
    s = constant_setup
    assert s.triple.lambda_star == 1.0
    st = pde.uniform_state(s.tgrid, s.agrid)
    _, trace = pde.run(s.solver, st, 6.0, target=s.triple.N_grid, phi=s.triple.phi_grid,
                       lam_star=s.triple.lambda_star, record_every=7)
    assert len(trace.D_t) == 87 and all(d == 0.0 for d in trace.D_t)


@pytest.mark.parametrize("T, steps", [(0.005, 1), (0.015, 2), (0.025, 3), (30.0, 3000),
                                      (None, 0)])
def test_run_ends_at_the_first_step_time_at_or_after_the_horizon(T, steps):
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)       # dt = 0.01
    st = pde.uniform_state(tg, ag)
    if T is None:                        # the state's own time, after some steps
        pde.run(solver, st, 0.3)
        T = st.t
    t0 = st.t
    _, trace = pde.run(solver, st.copy(), T, record_every=10 ** 9)
    assert trace.steps == steps
    assert trace.t[-1] >= T - 1e-9 * solver.dt
    assert trace.t[-1] == pytest.approx(t0 + steps * solver.dt, abs=1e-9)
    calls = []
    step = solver.step_nonlinear
    solver.step_nonlinear = lambda state: calls.append(1) or step(state)
    pde.transform_check(solver, st, T)
    assert len(calls) == steps


def record_case(case, s):
    """(solver, initial state, run keywords) of one run the two records must agree on."""
    tr = s.triple
    nbar = s.stationary()[1]
    if case in ("constant_pde", "float32", "fortran"):  # the benchmark's shape
        v0 = pde.uniform_state(s.tgrid, s.agrid).values
        # a state in another dtype or memory order steps on a float64, C-order ring
        v0 = {"float32": v0.astype(np.float32), "fortran": np.asfortranarray(v0)}.get(case, v0)
        return s.solver, pde.DensityState(0.0, v0), dict(
            target=nbar, phi=tr.phi_grid, lam_star=tr.lambda_star)
    if case == "linear":            # test_linear_invariant_and_contraction's run
        xt = (s.tgrid.nodes - s.tgrid.nodes[0]) / (s.tgrid.nodes[-1] - s.tgrid.nodes[0])
        v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
        m0 = float(np.sum(v0 * tr.phi_grid * s.solver.mass_w))
        return s.linear_solver, pde.DensityState(0.0, v0), dict(
            target=m0 * tr.N_grid, phi=tr.phi_grid, lam_star=tr.lambda_star)
    if case == "dirac":             # a spike, and distances without phi
        return s.solver, pde.dirac_state(s.tgrid, s.agrid, x=0.3, a=0.5), dict(
            target=nbar, lam_star=tr.lambda_star)
    if case == "phi_reads_age":     # phi not flat past the tail start: read per cell
        phi = tr.phi_grid * (1.0 + 0.5 * np.cos(3.0 * s.agrid.nodes))
        return s.solver, pde.uniform_state(s.tgrid, s.agrid), dict(
            target=nbar, phi=phi, lam_star=tr.lambda_star)
    if case == "tail_past_age_zero":    # the record's tail from node 150, across heads
        solver = tabulated_solver(1.5)
        ages = solver.agrid.nodes
        phi = (1.0 + solver.tgrid.nodes)[:, None] * (
            1.0 + 0.5 * np.cos(3.0 * np.minimum(ages, ages[150])))
        return solver, pde.uniform_state(solver.tgrid, solver.agrid), dict(
            target=solver.R * 0.7, phi=phi, lam_star=0.5)
    # no target and no phi; lambda* off the model's, so D(t) is not 0
    _, tg, ag, solver = make_solver(birth=3.0, nx=8, n_cells=400)
    return solver, age_bump_state(tg, ag), dict(lam_star=0.5)


@pytest.mark.parametrize("case", ["constant_pde", "float32", "fortran", "linear", "dirac",
                                  "bare", "phi_reads_age", "tail_past_age_zero"])
def test_compiled_record_matches_the_numpy_record(constant_setup, monkeypatch, case):
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    traces = {}
    for record in ("c", "numpy"):
        # built with the library loaded, so both arms step compiled: only the record differs
        solver, state, kwargs = record_case(case, constant_setup)
        assert solver._lib is not None
        with monkeypatch.context() as m:
            if record == "numpy":
                m.setattr(_loops, "library", lambda: (None, "disabled for this test"))
            traces[record] = pde.run(solver, state, 3.0, record_every=10, **kwargs)[1]
        assert traces[record].record == record
    c, ref = traces["c"], traces["numpy"]
    assert c.t == ref.t and c.truncation_loss == ref.truncation_loss and len(c.t) == 31
    mass = np.asarray(ref.mass)
    np.testing.assert_allclose(c.mass, mass, rtol=1e-13, atol=0.0)
    inv = np.asarray(ref.invariant_value)
    assert inv.size == (31 if case == "linear" else 0)
    np.testing.assert_allclose(c.invariant_value, inv, rtol=1e-13, atol=0.0)
    distances = {"tv": (c.tv_to_target, ref.tv_to_target),
                 "pw": (c.phi_weighted_dist, ref.phi_weighted_dist)}
    if case == "bare":
        assert all(got == want == [] for got, want in distances.values())
    for name, (got, want) in distances.items():
        if case == "dirac" and name == "pw":
            assert len(got) == 31 and np.isnan(got).all() and np.isnan(want).all()
        elif case != "bare":
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-14 * mass)
    if case in ("bare", "tail_past_age_zero"):
        assert min(np.abs(ref.D_t)) > 0.1
        np.testing.assert_allclose(c.D_t, ref.D_t, rtol=1e-13, atol=0.0)
    else:                           # B - D = 1 = lambda*: every numerator term is 0
        assert all(d == 0.0 for d in c.D_t + ref.D_t) and len(c.D_t) == 31


def use_record_path(monkeypatch, record):
    """Have the solvers and runs built from here on take their records on one
    path: "c" (skipped where the library is unavailable) or "numpy"."""
    if record == "c" and _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    if record == "numpy":
        monkeypatch.setattr(_loops, "library", lambda: (None, "disabled for this test"))


@pytest.mark.parametrize("record", ["c", "numpy"])
def test_the_first_record_reads_the_state_as_given(monkeypatch, record):
    # the state has density at ages where R0 < 1e-300, which the ring cannot
    # hold: record 0 still reports the state's own mass, not the ring's
    use_record_path(monkeypatch, record)
    solver, _ = age_dependent_solver()
    st = pde.uniform_state(solver.tgrid, solver.agrid, a_scale=5.0)
    mass = solver.mass(st.values)
    assert mass == pytest.approx(1.0, rel=1e-14)
    assert solver.mass(st.values * (solver.R > 0.0)) < 0.98
    _, trace = pde.run(solver, st, 0.03)
    assert trace.record == record and len(trace.mass) == 4
    assert trace.mass[0] == pytest.approx(mass, rel=1e-13)


@pytest.mark.parametrize("record", ["c", "numpy"])
@pytest.mark.parametrize("other", ["c_zero_twin", "other_death"])
def test_run_traces_a_state_another_solver_stepped(monkeypatch, record, other):
    # the c = 0 twin's ring has the solver's R; another death rate's does not
    use_record_path(monkeypatch, record)
    _, tg, ag, solver = make_solver(nx=8, n_cells=200)
    stepper = c_zero_twin(solver) if other == "c_zero_twin" else make_solver(
        death=1.5, nx=8, n_cells=200)[3]
    st = pde.uniform_state(tg, ag)
    stepper.step_nonlinear(st, 31)      # an odd head: the ring's spans change lanes
    assert st._values is None and st._cohort[0] is stepper
    given = pde.DensityState(st.t, stepper.density(st).copy())
    kwargs = dict(target=given.values.copy(), phi=np.ones(solver.R.shape), lam_star=1.0,
                  record_every=5)
    _, got = pde.run(solver, st, st.t + 0.5, **kwargs)
    _, want = pde.run(solver, given, given.t + 0.5, **kwargs)
    assert got.record == record and len(got.t) == 11
    assert got == want
