"""End-to-end acceptance checks at pinned tolerances.

Each test prints one PASS/FAIL line so the suite output doubles as the
verification report. Heavy shared state (the constant-model eigen data)
comes from the session fixtures in conftest.
"""

import math
import time

import numpy as np
import pytest

import conftest

from structpop import ibm, pde
from structpop.kernel import MixForm, mix_matrix
from structpop.malthus import MalthusProblem, refinement_sweep, solve_eigentriple
from structpop.model import (build_grids, build_model, constant_scenario, midpoint_grid,
                             replace, singular_scenario)
from structpop.spectral import adjoint_residual, perron


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num}: {desc} ({detail})"


def test_criterion_01_malthusian_parameter():
    t0 = time.monotonic()
    cfg = constant_scenario(nx=64, da=0.01)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    prob = MalthusProblem(model, tg, ag)
    rho0 = prob.rho_of_lambda(0.0)
    lam = prob.find_lambda_star(tol_lam=1e-6)
    elapsed = time.monotonic() - t0
    ok = abs(lam - 1.0) <= 1e-3 and abs(rho0 - 2.0) <= 1e-6 and elapsed < 5.0
    report(1, "constant-model growth rate", ok,
           f"lambda*={lam:.7f}, rho(0)={rho0:.9f}, {elapsed:.1f}s")


def test_criterion_02_spectral_radius_identities(constant_setup, singular_setup):
    worst_rel, worst_adj = 0.0, 0.0
    for s in (constant_setup, singular_setup):
        p, dx = s.model.mutation_prob, s.tgrid.dx
        k = s.model.mutation_kernel.matrix(s.tgrid.nodes)     # k[i, j] = k(x_i, x_j)
        for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
            ck = conftest.lattice_collapse(s.model, s.tgrid, s.agrid, lam)
            direct = mix_matrix(s.model, s.tgrid).scaled(ck.sB)
            rd, rq = perron(direct, dx).rho, perron(direct.T, dx).rho
            worst_rel = max(worst_rel, abs(rd - rq) / rd)
            # direct.T is the transpose by construction; pair direct with a
            # dual built from k instead: (1 - p) sB_i delta_ij + p sB_i k(x_i, x_j) dx
            dual_k = np.diag((1 - p) * ck.sB) + p * ck.sB[:, None] * k * dx
            worst_adj = max(worst_adj, adjoint_residual(direct, dx, lambda rows: dual_k[rows]))
    ok = worst_rel <= 1e-10 and worst_adj <= 1e-14
    report(2, "direct/dual spectral radius identity", ok,
           f"max rel diff={worst_rel:.2e}, adjoint defect={worst_adj:.2e}")


def test_criterion_03_monotone_continuous(constant_setup):
    prob = constant_setup.problem
    sample = [0.0, 0.5, 1.0, 2.0, 3.0]
    rhos = [prob.rho_of_lambda(l) for l in sample]
    monotone = all(a > b + 1e-6 for a, b in zip(rhos, rhos[1:]))
    slopes = [abs(r2 - r1) / (l2 - l1) for (l1, r1), (l2, r2)
              in zip(zip(sample, rhos), zip(sample[1:], rhos[1:]))]
    lipschitz = max(slopes)
    ok = monotone and math.isfinite(lipschitz)
    report(3, "rho strictly decreasing with finite modulus", ok,
           f"rho={['%.4f' % r for r in rhos]}, L<={lipschitz:.3f}")


def test_criterion_04_regular_eigen_elements(constant_setup):
    s = constant_setup
    tr = s.triple
    target = 2.0 * np.exp(-2.0 * s.agrid.nodes)[None, :]
    n_err = float(np.abs(tr.N_grid - target).max())
    phi_err = float(np.abs(tr.phi_grid - 1.0).max())
    ok = (n_err <= 1e-3 and phi_err <= 1e-6
          and abs(tr.norms["intN"] - 1.0) <= 1e-8
          and abs(tr.norms["intNphi"] - 1.0) <= 1e-8)
    report(4, "eigen elements match closed forms", ok,
           f"|N-2e^-2a|={n_err:.2e}, |phi-1|={phi_err:.2e}, "
           f"norms=({tr.norms['intN']:.10f}, {tr.norms['intNphi']:.10f})")


def test_criterion_05_stationarity(constant_setup):
    s = constant_setup
    lam, nbar, mass = s.stationary()
    defect = pde.stationary_residual(s.model, s.tgrid, s.agrid, s.problem.mix, nbar)
    balance = abs(s.model.competition * mass - lam)
    ok = defect <= 1e-3 and balance <= 1e-8
    report(5, "stationary state solves the weak problem", ok,
           f"weak defect={defect:.2e}, |c*mass-lambda*|={balance:.2e}")


def test_criterion_06_global_convergence(constant_setup):
    s = constant_setup
    _, nbar, _ = s.stationary()
    initials = {
        "uniform": pde.uniform_state(s.tgrid, s.agrid),
        "trait_dirac": pde.dirac_state(s.tgrid, s.agrid, x=0.51, a=0.0),
        "rescaled": pde.DensityState(0.0, 3.0 * nbar),
    }
    details, ok = [], True
    for name, st in initials.items():
        t0 = time.monotonic()
        _, trace = pde.run(s.solver, st, 30.0, target=nbar, record_every=1000)
        elapsed = time.monotonic() - t0
        tv, m = trace.tv_to_target[-1], trace.mass[-1]
        ok = ok and tv <= 1e-2 and abs(m - 1.0) <= 1e-2 and elapsed < 60.0
        details.append(f"{name}: tv={tv:.2e}, mass={m:.4f}, {elapsed:.0f}s")
    report(6, "nonlinear flow reaches the stationary state", ok, "; ".join(details))


def _linear_diagnostics(da):
    cfg = constant_scenario(da=da)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    prob = MalthusProblem(model, tg, ag)
    tr = solve_eigentriple(prob, tol_lam=1e-10)
    linear = replace(model, competition=0.0)
    solver = pde.TransportSolver(linear, tg, ag, prob.mix)
    xt = (tg.nodes - tg.nodes[0]) / (tg.nodes[-1] - tg.nodes[0])
    v0 = tr.N_grid * (1.0 + 0.5 * np.cos(2 * np.pi * xt))[:, None]
    m0 = float(np.sum(v0 * tr.phi_grid * solver.mass_w))
    st = pde.DensityState(0.0, v0)
    _, trace = pde.run(solver, st, 20.0, target=m0 * tr.N_grid,
                       phi=tr.phi_grid, lam_star=tr.lambda_star, record_every=20)
    inv = np.asarray(trace.invariant_value)
    drift = float(np.abs(inv - inv[0]).max() / inv[0])
    t = np.asarray(trace.t)
    d = np.asarray(trace.phi_weighted_dist)
    mask = (t >= 5.0) & (t <= 20.0)
    rate = float(-np.polyfit(t[mask], np.log(d[mask]), 1)[0])
    return drift, rate


def test_criterion_07_exponential_contraction():
    drift1, rate = _linear_diagnostics(0.01)
    drift2, _ = _linear_diagnostics(0.005)
    ok = (drift1 <= 0.01 and drift2 <= max(0.6 * drift1, 1e-9) and rate >= 0.35)
    report(7, "conserved pairing and contraction rate", ok,
           f"drift(dt)={drift1:.2e}, drift(dt/2)={drift2:.2e}, rate={rate:.3f}")


def test_criterion_08_singular_example():
    t0 = time.monotonic()

    def make_problem(nx, scenario=singular_scenario):
        cfg = scenario(nx=nx)
        model = build_model(cfg)
        tg, ag = build_grids(cfg, model)
        return MalthusProblem(model, tg, ag)

    nx_list = [100, 200, 400, 800]
    lams, gaps, fracs = [], [], []
    for nx in nx_list:
        prob = make_problem(nx)
        lam = prob.find_lambda_star(tol_lam=1e-6)
        pair = prob.eigendata(lam)[1]
        lams.append(lam)
        gaps.append(pair.rho - float(prob.clonal_rate(lam).max()))
        sel = prob.tgrid.nodes <= 0.05
        fracs.append(float(np.sum(pair.profile[sel] * prob.tgrid.dx)))
    const_rows = refinement_sweep(make_problem(nx, constant_scenario) for nx in (100, 200, 400))
    elapsed = time.monotonic() - t0

    ok = (all(a < b for a, b in zip(lams, lams[1:]))
          and abs(lams[-1] - 2.8) <= 0.05
          and all(a > b for a, b in zip(gaps, gaps[1:]))
          and all(a < b for a, b in zip(fracs, fracs[1:]))
          and all(gap > 0.25 for _, _, gap, _ in const_rows)
          and elapsed < 120.0)
    report(8, "concentrating spectrum under refinement", ok,
           f"lambda*={['%.4f' % l for l in lams]}, gaps={['%.1e' % g for g in gaps]}, "
           f"mass[0,0.05]={['%.3f' % f for f in fracs]}, "
           f"regular gap~{const_rows[-1][2]:.3f}, {elapsed:.0f}s")


def test_criterion_09_hydrodynamic_limit(constant_setup):
    t0 = time.monotonic()
    s = constant_setup
    tr = s.triple
    st = pde.DensityState(0.0, tr.N_grid.copy())
    _, trace = pde.run(s.solver, st, 10.0, record_every=10 ** 9)
    pde_mass = trace.mass[-1]

    def batch(K, M, seed):
        init = lambda sd: ibm.sample_from_density(tr.N_grid, s.tgrid, s.agrid, K, sd)
        logs = ibm.run_replicates(s.model, s.tgrid, K, 10.0, [0.0, 10.0], seed,
                                  M, init_sampler=init, store_snapshots=False)
        return np.array([log.masses[-1] for log in logs])

    m = batch(2000, 50, s.config.seed)
    se = m.std(ddof=1) / math.sqrt(m.size)
    gap = abs(m.mean() - pde_mass)
    d500 = np.mean([abs(batch(500, 20, 42000 + r).mean() - pde_mass)
                    for r in range(5)])
    d2000 = np.mean([abs(batch(2000, 20, 42500 + r).mean() - pde_mass)
                     for r in range(5)])
    elapsed = time.monotonic() - t0
    ok = gap <= 3 * se and d500 > d2000 and elapsed < 300.0
    report(9, "particle system tracks the density limit", ok,
           f"|mean-pde|={gap:.2e} vs 3se={3 * se:.2e}; "
           f"d500={d500:.4f} > d2000={d2000:.4f}; {elapsed:.0f}s")


def test_criterion_10_martingale_flatness(constant_setup):
    s = constant_setup
    tr = s.triple
    K, M, T = 2000, 50, 3.0
    init = lambda sd: ibm.sample_from_density(tr.N_grid, s.tgrid, s.agrid, K, sd)
    logs = ibm.run_replicates(s.model, s.tgrid, K, T, np.linspace(0, T, 7),
                              s.config.seed, M, init_sampler=init, linear=True)
    series = ibm.martingale_series(logs, tr.phi_grid, tr.lambda_star,
                                   s.tgrid, s.agrid)
    drift, se = series["mean_drift"], series["se"]
    ok = abs(drift) <= 3 * se
    report(10, "rescaled pairing is a flat martingale", ok,
           f"mean(V_T-V_0)={drift:.2e}, 3se={3 * se:.2e}")


def test_criterion_11_degenerate_spectrum():
    tg = midpoint_grid((0.0, 1.0), 50)
    r = 0.8 + 0.4 * np.cos(2.0 * tg.nodes)
    mutation_free = MixForm(np.ones(50), np.zeros((50, 0)), np.zeros((50, 0)))
    pair = perron(mutation_free.scaled(r), tg.dx)     # Mix = I: no mutation, sB = r
    err = abs(pair.rho - float(r.max()))
    ok = err <= 1e-12
    report(11, "mutation-free operator has rho = max r", ok, f"err={err:.2e}")


def test_criterion_12_transform_identity():
    def disc(da, c):
        cfg = replace(constant_scenario(da=da), c=c)
        model = build_model(cfg)
        tg, ag = build_grids(cfg, model)
        solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
        return pde.transform_check(solver, pde.uniform_state(tg, ag), 10.0)

    d_free = disc(0.01, 0.0)
    d1 = disc(0.01, 1.0)
    d2 = disc(0.005, 1.0)
    ok = d_free == 0.0 and d1 <= 0.5 * 0.01 and d2 <= 0.6 * d1
    report(12, "competition transform matches the linear flow", ok,
           f"c=0: {d_free}, dt: {d1:.2e}, dt/2: {d2:.2e}")
