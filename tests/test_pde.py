import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from structpop import pde
from structpop.kernel import survival_matrix
from structpop.model import (AgeGrid, build_grids, build_model,
                             constant_scenario, midpoint_grid)
from structpop.malthus import MalthusProblem, solve_eigentriple


def age_bump_state(tgrid, agrid, mass=1.0):
    """Smooth cohort near age 0.25 (Simpson-friendly, unlike a raw spike)."""
    prof = np.exp(-((agrid.nodes - 0.25) / 0.05) ** 2)
    values = np.ones((tgrid.n, 1)) * prof[None, :]
    qa = agrid.quad_weights()
    total = float(np.sum(values * tgrid.weights[:, None] * qa[None, :]))
    return pde.DensityState(t=0.0, values=values * (mass / total))


def make_solver(birth=2.0, death=1.0, c=1.0, nx=16, n_cells=600):
    cfg = dataclasses.replace(
        constant_scenario(nx=nx), c=c,
        birth={"family": "constant", "params": {"value": birth}})
    if death != 1.0:
        cfg = dataclasses.replace(
            cfg, death={"family": "constant", "params": {"value": death}})
    model = build_model(cfg)
    tg = midpoint_grid((0.0, 1.0), nx)
    ag = AgeGrid(da=0.01, n_cells=n_cells)
    return model, tg, ag, pde.TransportSolver(model, tg, ag)


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
        solver = pde.TransportSolver(model, tg, ag)
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
    assert np.all(s.solver.renewal_flux(np.zeros_like(s.triple.N_grid)) == 0)
    flux = s.solver.renewal_flux(s.triple.N_grid)
    assert np.abs(flux - s.triple.N_grid[:, 0]).max() < 1e-6


def test_renewal_flux_mutation_free_limit():
    cfg = dataclasses.replace(constant_scenario(nx=8), p=1e-12)
    model = build_model(cfg)
    tg = midpoint_grid((0.0, 1.0), 8)
    ag = AgeGrid(da=0.01, n_cells=400)
    solver = pde.TransportSolver(model, tg, ag)
    n = np.exp(-ag.nodes)[None, :] * (1.0 + tg.nodes)[:, None]
    clonal = np.sum(solver.B * n * solver.qa[None, :], axis=1)
    assert np.abs(solver.renewal_flux(n) - clonal).max() < 1e-10


def test_distances_trivial_cases(constant_setup):
    s = constant_setup
    target = s.triple.N_grid
    tv, pw = s.solver.distances(target, target, s.triple.phi_grid)
    assert tv == 0.0 and pw == 0.0
    tv, _ = s.solver.distances(2.0 * target, target)
    assert tv == pytest.approx(1.0, abs=1e-8)   # unit-mass target


def test_linear_invariant_and_contraction(constant_setup):
    s = constant_setup
    tr = s.triple
    xt = (s.tgrid.nodes - s.tgrid.nodes[0]) / (s.tgrid.nodes[-1] - s.tgrid.nodes[0])
    v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
    m0 = float(np.sum(v0 * tr.phi_grid * s.solver.mass_w))
    st = pde.DensityState(0.0, v0.copy())
    _, trace = pde.run(s.solver, st, 20.0, mode="linear", target=m0 * tr.N_grid,
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
        solver = pde.TransportSolver(model, tg, ag)
        xt = (tg.nodes - tg.nodes[0]) / (tg.nodes[-1] - tg.nodes[0])
        v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
        st = pde.DensityState(0.0, v0)
        _, trace = pde.run(solver, st, 20.0, mode="linear", phi=tr.phi_grid,
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
    _, trace = pde.run(s.solver, st, 5.0, mode="linear", record_every=500)
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
        solver = pde.TransportSolver(model, tg, ag)
        return pde.transform_check(solver, pde.uniform_state(tg, ag), 10.0)

    d1 = disc(0.01)
    d2 = disc(0.005)
    assert d1 <= 50 * 0.01             # <= C dt with a generous C
    assert d2 <= 0.6 * d1


def test_stationary_residual_and_negative_control(constant_setup):
    s = constant_setup
    _, nbar, _ = s.stationary()
    assert pde.stationary_residual(s.solver, nbar) <= 1e-3
    bogus = pde.uniform_state(s.tgrid, s.agrid).values
    assert pde.stationary_residual(s.solver, bogus) > 1e-2


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


def test_run_rejects_unknown_mode(constant_setup):
    s = constant_setup
    st = pde.uniform_state(s.tgrid, s.agrid)
    with pytest.raises(ValueError):
        pde.run(s.solver, st, 1.0, mode="sideways")


def test_negative_density_raises_under_optimize():
    # the guard must survive `python -O`, which strips assert statements
    script = (
        "from structpop import pde\n"
        "from structpop.model import build_grids, build_model, constant_scenario\n"
        "cfg = constant_scenario(nx=8, tol=1e-6)\n"
        "model = build_model(cfg)\n"
        "solver = pde.TransportSolver(model, *build_grids(cfg, model))\n"
        "state = pde.uniform_state(solver.tgrid, solver.agrid)\n"
        "state.values[0, 0] = -1.0\n"
        "try:\n"
        "    solver.step_linear(state)\n"
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
        M[:, i] = solver.renewal_flux(unit)
    n, loss = values.copy(), 0.0
    for _ in range(n_steps):
        loss += float(np.sum(n[:, -1] * cell_survival[:, -1] * solver.tgrid.weights)
                      * solver.qa[-1])
        shifted = np.zeros_like(n)
        shifted[:, 1:] = n[:, :-1] * cell_survival * math.exp(
            -c * float(np.sum(n * solver.mass_w)) * solver.dt)
        n0 = np.linalg.solve(np.eye(nx) - M, solver.renewal_flux(shifted))
        shifted[:, 0] = np.maximum(n0, 0.0)
        n = shifted
    return n, loss


def assert_matches_reference(solver, state0, n_steps, linear=False):
    st = state0.copy()
    step = solver.step_linear if linear else solver.step_nonlinear
    loss = sum(step(st) for _ in range(n_steps))
    ref, ref_loss = reference_run(solver, state0.values, n_steps,
                                  0.0 if linear else solver.model.competition)
    assert np.all(np.isfinite(st.values))
    assert np.abs(st.values - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(loss - ref_loss) <= 1e-12 * max(ref_loss, 1e-300)
    return ref_loss


@pytest.mark.parametrize("linear", [False, True])
def test_cohort_step_matches_per_cell_reference_constant(constant_setup, linear):
    s = constant_setup
    assert_matches_reference(s.solver, pde.uniform_state(s.tgrid, s.agrid), 200, linear)


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
    return pde.TransportSolver(model, tg, ag), R


@pytest.mark.parametrize("linear", [False, True])
def test_cohort_step_matches_per_cell_reference_age_dependent(linear):
    solver, R = age_dependent_solver()
    # cohorts of a constant birth flux: density R0 (1 + x), all ages populated
    st = pde.DensityState(0.0, R * (1.0 + solver.tgrid.nodes)[:, None])
    assert_matches_reference(solver, st, 200, linear)


def test_cohort_step_loss_where_horizon_survival_squared_underflows():
    # death 80 on [0, 6]: R0 ~ 1e-208 at the horizon, so R0^2 underflows but R0 does not
    _, tg, ag, solver = make_solver(death=80.0, nx=8)
    assert solver.R[0, -1] ** 2 == 0.0 < solver.R[0, -1]
    st = pde.uniform_state(tg, ag, a_scale=5.0)   # O(1) density at the horizon
    ref_loss = assert_matches_reference(solver, st, 200)
    assert ref_loss > 1e-6


def test_cohort_step_kills_mass_where_survival_underflows():
    solver, R = age_dependent_solver()
    st = pde.uniform_state(solver.tgrid, solver.agrid, a_scale=5.0)
    dead = R < 1e-300                   # includes every age where R0 is exactly 0
    assert np.all(st.values[dead] > 0)
    solver.step_nonlinear(st)
    assert np.all(st.values[dead] == 0.0)
    for _ in range(20):
        solver.step_nonlinear(st)
    assert np.all(np.isfinite(st.values)) and np.all(st.values[dead] == 0.0)


def test_cohort_step_long_run_folds_the_competition_scalar():
    # lambda* ~ 19: the product of exp(-c m dt) underflows long before t = 60
    _, tg, ag, solver = make_solver(birth=20.0, nx=8)
    st = pde.uniform_state(tg, ag)
    state0 = st.copy()
    _, trace = pde.run(solver, st, 60.0, record_every=1)
    assert math.exp(-solver.dt * float(np.sum(trace.mass[:-1]))) == 0.0
    ref, _ = reference_run(solver, state0.values, trace.steps, 1.0)
    assert np.abs(st.values - ref).max() <= 1e-12 * np.abs(ref).max()
    assert trace.mass[-1] == pytest.approx(np.sum(ref * solver.mass_w), rel=1e-12)
