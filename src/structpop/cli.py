"""Command-line scenario runner: spectral sweeps, eigen-elements, dynamics.

Exit codes: 0 success, 2 usage/config error, 3 subcritical model, 1 other
failure. Errors are emitted as a machine-readable JSON object on stdout.
Small tables are CSV with LF endings, '.' decimals and a stable column
order; full (x, a) grids are raw C-contiguous float64 `.npy` arrays beside
the node vectors `x.npy` and `a.npy`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

# pde and ibm are imported by the commands that run them, so that the others
# start without them (and without the compiled loops they load)
from . import kernel, malthus, spectral
from .model import (ConfigError, PRESETS, ScenarioConfig, build_grids,
                    build_model, parse_config, validate_assumptions)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_SUBCRITICAL = 3

LAMBDA_SAMPLE = (0.0, 0.5, 1.0, 2.0, 3.0)
REFUSED = "refused: regime not certified Regular"
# outputs are byte-identical across reruns only at a fixed BLAS thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _write_grids(out: str, tgrid, agrid, **grids) -> list[str]:
    """x.npy, a.npy and one (nx, na+1) array per named grid; returns the paths."""
    arrays = {"x": tgrid.nodes, "a": agrid.nodes, **grids}
    paths = []
    for name, arr in arrays.items():
        path = os.path.join(out, f"{name}.npy")
        np.save(path, np.ascontiguousarray(arr, dtype=np.float64), allow_pickle=False)
        paths.append(path)
    return paths


def _write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as f:
        f.write(text + "\n")


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "preset", None):
        config = PRESETS[args.preset]()
    elif args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as f:
            config = parse_config(f.read())
    else:
        raise ConfigError("no config given: use --config PATH or the scenario command")
    overrides = {}
    for name in ("nx", "da", "tol", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if overrides:
        config = replace(config, **overrides)
    return config


def _setup(config: ScenarioConfig):
    model = build_model(config)
    tgrid, agrid = build_grids(config, model)
    return model, tgrid, agrid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectral(config, out: str) -> dict:
    problem = malthus.MalthusProblem(*_setup(config))
    rows = []
    for lam in LAMBDA_SAMPLE:
        pd, pq = problem.eigendata(lam)[1:]
        rbar = float(problem.clonal_rate(lam).max())
        rows.append((lam, pd.rho, pq.rho, rbar, pd.rho - rbar, spectral.regime(pd.rho, rbar)))
    path = os.path.join(out, "rho_curve.csv")
    _write_csv(path, ["lambda", "rho_direct", "rho_dual", "rbar", "gap", "regime"], rows)
    return {"rho_curve": rows[0][1], "manifest": [path]}


def _tol_lam(config) -> float:
    return min(config.tol * 1e4, 1e-6)


def _solve(config, dynamics: bool = False):
    """Set up, find lambda* and lift the eigen-triple. The profiles are formed on
    the ages they need at lambda* (`kernel.profile_lattice`), or for the
    dynamics on the whole age lattice, which they step on. The problem keeps
    its age factors for later lambdas; each command drops them before it steps
    the dynamics."""
    model, tgrid, agrid = _setup(config)
    problem = malthus.MalthusProblem(model, tgrid, agrid)
    lam = problem.find_lambda_star(_tol_lam(config))
    lattice = agrid if dynamics else kernel.profile_lattice(model, lam, agrid)
    triple = malthus.eigentriple(problem, lam, lattice)
    return model, tgrid, agrid, problem, triple


def cmd_malthus(config, out: str, solved=None) -> dict:
    model, tgrid, agrid, problem, triple = solved or _solve(config)
    rho0 = problem.rho_of_lambda(0.0)
    ck, pd = problem.direct_pair(triple.lambda_star)
    density_residual = None     # the continuous density exists in the Regular regime
    if triple.regime == "Regular":
        density_residual = spectral.density_from_profile(
            pd, problem.mix.scaled(ck.sB), tgrid.dx)[1]
    manifest = _write_grids(out, tgrid, triple.agrid, N=triple.N_grid, phi=triple.phi_grid)
    return {
        "lambda_star": triple.lambda_star,
        "density_residual": density_residual,
        "lambda_search": problem.lambda_search,
        "mix": problem.mix.summary(),
        "tail_bound": kernel.tail_bound(model, triple.lambda_star, triple.agrid.a_max),
        "rho_at_zero": rho0,
        "regime": triple.regime,
        # the gap the regime was read from
        "gap": pd.rho - float(problem.clonal_rate(triple.lambda_star).max()),
        "eta_lower": triple.eta_lower,
        "eta_lower_proof": triple.eta_lower_proof,
        "norms": triple.norms,
        "perron": triple.diagnostics["perron"],
        "warnings": triple.diagnostics["warnings"],
        "manifest": manifest,
    }


def cmd_stationary(config, out: str) -> dict:
    from . import pde
    model, tgrid, agrid, problem, triple = _solve(config)
    problem.release_factors()
    lam, nbar, mass = malthus.stationary_state(problem, triple)
    # n-bar is a scaled copy of N: drop the triple's N and phi grids before the residual
    lattice, regime, warnings = triple.agrid, triple.regime, triple.diagnostics["warnings"]
    del triple
    residual = pde.stationary_residual(model, tgrid, lattice, problem.mix, nbar)
    manifest = _write_grids(out, tgrid, lattice, nbar=nbar)
    return {"lambda_star": lam, "mass": mass, "c_mass": model.competition * mass,
            "weak_form_residual": residual, "regime": regime,
            "warnings": warnings, "manifest": manifest}


def cmd_pde(config, out: str, tmax: float) -> dict:
    from . import pde
    model, tgrid, agrid, problem, triple = _solve(config, dynamics=True)
    problem.release_factors()
    lam, nbar, _ = malthus.stationary_state(problem, triple)
    solver = pde.TransportSolver(model, tgrid, agrid, problem.mix)
    state = pde.uniform_state(tgrid, agrid)
    stride = max(1, int(round(0.1 / solver.dt)))
    _, trace = pde.run(solver, state, tmax, target=nbar, phi=triple.phi_grid,
                       lam_star=lam, record_every=stride)
    path = os.path.join(out, "pde_trace.csv")
    rows = zip(trace.t, trace.mass, trace.tv_to_target, trace.phi_weighted_dist,
               trace.D_t, trace.truncation_loss)
    _write_csv(path, ["t", "mass", "tv_to_stationary", "phi_dist", "D_t",
                      "truncation_loss"], rows)
    return {"lambda_star": lam, "final_mass": trace.mass[-1],
            "final_tv": trace.tv_to_target[-1], "regime": triple.regime,
            "warnings": triple.diagnostics["warnings"],
            "pde": {"steps": trace.steps, "truncation_loss": trace.truncation_loss[-1],
                    "history": dict(solver.history), "record": trace.record,
                    "age_flat_from": None if math.isinf(model.age_flat_from)
                    else model.age_flat_from, "prefix_cells": solver.prefix_cells,
                    "mass_ode_residual": pde.mass_ode_residual(trace, lam,
                                                               model.competition)},
            "manifest": [path]}


def cmd_ibm(config, out: str, tmax: float, replicates: int, scale: int) -> dict:
    from . import ibm
    model, tgrid, agrid, problem, triple = _solve(config, dynamics=True)
    problem.release_factors()
    # the run is linear: its expected population at tmax is scale * e^{lambda* tmax}
    if math.log(scale) + triple.lambda_star * tmax > math.log(ibm.PARTICLE_CAP):
        raise ConfigError(
            f"expected population {scale} * exp({triple.lambda_star:.4g} * {tmax:g}) "
            f"exceeds the particle cap {ibm.PARTICLE_CAP}; lower --tmax")
    sample_times = np.linspace(0.0, tmax, 11)

    def init_sampler(rep_seed):
        return ibm.sample_from_density(triple.N_grid, tgrid, agrid, scale, rep_seed)

    logs = ibm.run_replicates(model, tgrid, scale, tmax, sample_times,
                              config.seed, replicates, init_sampler=init_sampler,
                              linear=True)
    series = ibm.martingale_series(logs, triple.phi_grid, triple.lambda_star,
                                   tgrid, agrid)
    path = os.path.join(out, "ibm_trace.csv")
    rows = ((log.replicate, t, log.masses[s], series["V"][m, s])
            for m, log in enumerate(logs)
            for s, t in enumerate(log.sample_times))
    _write_csv(path, ["replicate", "t", "mass", "V"], rows)
    md, se = series["mean_drift"], series["se"]
    # births = deaths + final - initial count; the remaining events are phantoms
    events = sum(log.n_events for log in logs)
    deaths = sum(log.n_deaths for log in logs)
    births = deaths + sum(log.snapshots[-1][0].size - scale for log in logs)
    return {"lambda_star": triple.lambda_star, "mean_drift": md, "se": se,
            "ci": [md - 3 * se, md + 3 * se], "warnings": triple.diagnostics["warnings"],
            "ibm": {"events": events,
                    "phantom_fraction": (events - births - deaths) / events if events else 0.0,
                    "peak_population": max(log.peak for log in logs),
                    "loop": logs[0].loop},
            "manifest": [path]}


def _refinement_rows(config, problem):
    """Refinement sweep up to the solved grid, reusing its problem at nx = n.

    The grids are n/4 (at least 8), n/2 and n, less those outside [2, n], in
    increasing order.
    """
    n = problem.tgrid.n

    def make_problem(nx):
        if nx == n:
            return problem
        return malthus.MalthusProblem(*_setup(replace(config, nx=nx)))
    nx_list = sorted({nx for nx in (max(n // 4, 8), n // 2, n) if 2 <= nx <= n})
    return malthus.refinement_sweep(make_problem, nx_list, _tol_lam(config))


def _dual_rows_from_k(model, tgrid, ck, rows: slice) -> np.ndarray:
    """Rows of the dual from k itself, not through Mix:
    (1 - p) sB_i delta_ij + p sB_i k(x_i, x_j) dx."""
    x = tgrid.nodes
    block = model.mutation_prob * ck.sB[rows, None] * model.mutation_kernel.matrix(x[rows], x)
    block *= tgrid.dx
    index = np.arange(tgrid.n)[rows]
    block[np.arange(index.size), index] += (1.0 - model.mutation_prob) * ck.sB[index]
    return block


def cmd_verify(config, out: str, solved=None) -> dict:
    from . import ibm, pde
    model, tgrid, agrid, problem, triple = solved or _solve(config)
    checks = validate_assumptions(model, tgrid, agrid).checks
    ck, pd, pq = problem.eigendata(0.0)
    checks["adjoint_defect"] = spectral.adjoint_residual(
        problem.mix.scaled(ck.sB), tgrid.dx,
        lambda rows: _dual_rows_from_k(model, tgrid, ck, rows)) <= 1e-12
    checks["rho_identity"] = abs(pd.rho - pq.rho) <= 1e-10 * pd.rho

    rhos = [problem.rho_of_lambda(l) for l in LAMBDA_SAMPLE]
    checks["rho_decreasing"] = all(a > b + 1e-6 for a, b in zip(rhos, rhos[1:]))
    problem.release_factors()     # the sweep below re-asks lambda*, which stays cached

    manifest = []
    summary = {"checks": checks, "rho_at_zero": pd.rho, "mix": problem.mix.summary()}
    checks["norms_finite"] = all(math.isfinite(triple.norms[k]) for k in ("intN", "intNphi"))
    summary["lambda_star"] = triple.lambda_star
    summary["regime"] = triple.regime
    summary["eta_lower"] = triple.eta_lower
    # report-only: the constant C of G[phi^2] + D phi^2 <= C phi
    summary["square_integrability_constant"] = ibm.square_integrability_constant(
        model, triple.phi_grid, tgrid, triple.agrid, problem.mix)
    summary["warnings"] = triple.diagnostics["warnings"]
    if triple.regime == "Regular" and model.competition > 0:
        nbar = malthus.stationary_state(problem, triple)[1]
        checks["stationary_residual"] = pde.stationary_residual(
            model, tgrid, triple.agrid, problem.mix, nbar) <= 1e-3
    elif triple.regime != "Regular":    # a Regular model without competition has no nbar
        summary["convergence_report"] = REFUSED
        rows = _refinement_rows(config, problem)
        path = os.path.join(out, "refinement.csv")
        _write_csv(path, ["nx", "lambda_star_h", "gap", "mass_in_band"],
                   [(r["nx"], r["lambda_star_h"], r["gap"], r["mass_in_band"])
                    for r in rows])
        manifest.append(path)
    summary["checks"] = checks
    summary["all_green"] = all(checks.values())
    summary["manifest"] = manifest
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_time(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _replicate_count(text: str) -> int:
    value = int(text)
    if value < 2:    # the standard error of the drift needs two replicates
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="structpop",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="out")
        sp.add_argument("--nx", type=int, default=None)
        sp.add_argument("--da", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        return sp

    for name in ("spectral", "malthus", "stationary", "pde", "ibm", "verify"):
        sp = common(sub.add_parser(name))
        sp.add_argument("--config", default=None)   # scenario runs its preset's config
        if name == "pde":
            sp.add_argument("--tmax", type=_positive_time, default=10.0)
        if name == "ibm":   # the linear run grows like e^{lambda* t}: a short horizon
            sp.add_argument("--tmax", type=_positive_time, default=3.0)
            sp.add_argument("--replicates", type=_replicate_count, default=20)
    sc = sub.add_parser("scenario")
    sc.add_argument("preset", choices=sorted(PRESETS))
    sc.add_argument("--verify", action="store_true")
    common(sc)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK

    try:
        config = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        command = args.command
        if command in ("stationary", "pde") and config.c <= 0:
            raise ConfigError(f"{command} needs a positive competition rate c, got {config.c}")
        if command == "ibm" and not math.isfinite(build_model(config).death.sup):
            raise ConfigError("ibm's thinning needs a bounded death rate")
        if command == "scenario":
            solved = _solve(config)
            summary = cmd_malthus(config, args.out, solved)
            if args.verify:
                v = cmd_verify(config, args.out, solved)
                summary["verify"] = {k: v[k] for k in ("checks", "all_green",
                                                       "square_integrability_constant")}
                summary["manifest"] += v["manifest"]
            if summary["regime"] != "Regular":
                summary["convergence_report"] = REFUSED
        elif command == "spectral":
            summary = cmd_spectral(config, args.out)
        elif command == "malthus":
            summary = cmd_malthus(config, args.out)
        elif command == "stationary":
            summary = cmd_stationary(config, args.out)
        elif command == "pde":
            summary = cmd_pde(config, args.out, args.tmax)
        elif command == "ibm":
            summary = cmd_ibm(config, args.out, args.tmax, args.replicates, 500)
        else:
            summary = cmd_verify(config, args.out)
        summary["scenario"] = getattr(args, "preset", None) or args.config
        summary["config"] = config.to_dict()
        summary["blas_threads_env"] = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
        if "manifest" in summary:    # relative names keep reruns byte-identical
            summary["manifest"] = [os.path.basename(p) for p in summary["manifest"]]
        path = os.path.join(args.out, "summary.json")
        _write_json(path, summary)
        print(json.dumps({"status": "ok", "summary": path}))
        return EXIT_OK
    except ConfigError as e:
        print(json.dumps({"status": "error", "kind": "config", "message": str(e)}))
        return EXIT_USAGE
    except malthus.SubcriticalError as e:
        print(json.dumps({"status": "error", "kind": "subcritical", "message": str(e)}))
        return EXIT_SUBCRITICAL
    except Exception as e:   # noqa: BLE001 - CLI boundary
        print(json.dumps({"status": "error", "kind": type(e).__name__,
                          "message": str(e)}))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
