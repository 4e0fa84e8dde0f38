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

from . import ibm, malthus, pde, spectral
from .model import (AgeGrid, ConfigError, PRESETS, ScenarioConfig, build_grids,
                    build_model, parse_config, validate_assumptions)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_SUBCRITICAL = 3

LAMBDA_SAMPLE = (0.0, 0.5, 1.0, 2.0, 3.0)


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
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


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
        ck, pd, pq = problem.eigendata(lam)
        rows.append((lam, pd.rho, pq.rho, ck.rbar, pd.rho - ck.rbar, pd.regime))
    path = os.path.join(out, "rho_curve.csv")
    _write_csv(path, ["lambda", "rho_direct", "rho_dual", "rbar", "gap", "regime"], rows)
    return {"rho_curve": rows[0][1], "manifest": [path]}


def _tol_lam(config) -> float:
    return min(config.tol * 1e4, 1e-6)


def _solve(config):
    model, tgrid, agrid = _setup(config)
    problem = malthus.MalthusProblem(model, tgrid, agrid)
    triple = malthus.solve_eigentriple(problem, tol_lam=_tol_lam(config))
    return model, tgrid, agrid, problem, triple


def cmd_malthus(config, out: str, solved=None) -> dict:
    model, tgrid, agrid, problem, triple = solved or _solve(config)
    rho0, _ = problem.rho_of_lambda(0.0)
    manifest = _write_grids(out, tgrid, agrid, N=triple.N_grid, phi=triple.phi_grid)
    return {
        "lambda_star": triple.lambda_star,
        "lambda_search": problem.lambda_search,
        "rho_at_zero": rho0,
        "regime": triple.regime,
        "eta_lower": triple.eta_lower,
        "eta_lower_proof": triple.eta_lower_proof,
        "norms": triple.norms,
        "manifest": manifest,
    }


def cmd_stationary(config, out: str) -> dict:
    model, tgrid, agrid, problem, triple = _solve(config)
    lam, nbar, mass = malthus.stationary_state(problem, triple)
    solver = pde.TransportSolver(model, tgrid, agrid)
    residual = pde.stationary_residual(solver, nbar)
    manifest = _write_grids(out, tgrid, agrid, nbar=nbar)
    return {"lambda_star": lam, "mass": mass, "c_mass": model.competition * mass,
            "weak_form_residual": residual, "regime": triple.regime,
            "manifest": manifest}


def cmd_pde(config, out: str, tmax: float) -> dict:
    model, tgrid, agrid, problem, triple = _solve(config)
    lam, nbar, _ = malthus.stationary_state(problem, triple)
    solver = pde.TransportSolver(model, tgrid, agrid)
    state = pde.uniform_state(tgrid, agrid)
    stride = max(1, int(round(0.1 / solver.dt)))
    _, trace = pde.run(solver, state, tmax, mode="nonlinear", target=nbar,
                       phi=triple.phi_grid, lam_star=lam, record_every=stride)
    path = os.path.join(out, "pde_trace.csv")
    rows = zip(trace.t, trace.mass, trace.tv_to_target, trace.phi_weighted_dist,
               trace.D_t, trace.truncation_loss)
    _write_csv(path, ["t", "mass", "tv_to_stationary", "phi_dist", "D_t",
                      "truncation_loss"], rows)
    return {"lambda_star": lam, "final_mass": trace.mass[-1],
            "final_tv": trace.tv_to_target[-1], "regime": triple.regime,
            "pde": {"steps": trace.steps, "truncation_loss": trace.truncation_loss[-1]},
            "manifest": [path]}


def cmd_ibm(config, out: str, tmax: float, replicates: int, scale: int) -> dict:
    model, tgrid, agrid, problem, triple = _solve(config)
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
    return {"lambda_star": triple.lambda_star, "mean_drift": md, "se": se,
            "ci": [md - 3 * se, md + 3 * se], "manifest": [path]}


def _refinement_rows(config, problem):
    """Refinement sweep up to the solved grid, reusing its problem at nx = n."""
    n = problem.tgrid.n

    def make_problem(nx):
        if nx == n:
            return problem
        return malthus.MalthusProblem(*_setup(replace(config, nx=nx)))
    return malthus.refinement_sweep(make_problem, [max(n // 4, 8), n // 2, n],
                                    _tol_lam(config))


def cmd_verify(config, out: str, solved=None) -> dict:
    model, tgrid, agrid, problem, triple = solved or _solve(config)
    checks = {}
    report = validate_assumptions(model, tgrid, agrid)
    checks["assumptions"] = report.all_ok
    ck, pd, pq = problem.eigendata(0.0)
    direct = spectral.assemble(ck, tgrid, "direct")
    dual = spectral.assemble(ck, tgrid, "dual")
    checks["adjoint_defect"] = spectral.adjoint_residual(direct, dual) <= 1e-12
    checks["rho_identity"] = abs(pd.rho - pq.rho) <= 1e-10 * pd.rho

    rhos = [problem.rho_of_lambda(l)[0] for l in LAMBDA_SAMPLE]
    checks["rho_decreasing"] = all(a > b + 1e-6 for a, b in zip(rhos, rhos[1:]))

    manifest = []
    summary = {"checks": checks, "rho_at_zero": pd.rho}
    checks["norm_intN"] = abs(triple.norms["intN"] - 1.0) <= 1e-8
    checks["norm_intNphi"] = abs(triple.norms["intNphi"] - 1.0) <= 1e-8
    summary["lambda_star"] = triple.lambda_star
    summary["regime"] = triple.regime
    summary["eta_lower"] = triple.eta_lower
    if triple.regime == "Regular" and model.competition > 0:
        lam, nbar, mass = malthus.stationary_state(problem, triple)
        solver = pde.TransportSolver(model, tgrid, agrid)
        checks["c_mass_is_lambda"] = abs(model.competition * mass - lam) <= 1e-8
        checks["stationary_residual"] = pde.stationary_residual(solver, nbar) <= 1e-3
    else:
        summary["convergence_report"] = "refused: regime not certified Regular"
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="structpop",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default="out")
        sp.add_argument("--nx", type=int, default=None)
        sp.add_argument("--da", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        return sp

    for name in ("spectral", "malthus", "stationary", "pde", "ibm", "verify"):
        sp = common(sub.add_parser(name))
        if name in ("pde", "ibm"):
            sp.add_argument("--tmax", type=float, default=10.0)
        if name == "ibm":
            sp.add_argument("--replicates", type=int, default=20)
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
        if command == "scenario":
            solved = _solve(config)
            summary = cmd_malthus(config, args.out, solved)
            if args.verify:
                v = cmd_verify(config, args.out, solved)
                summary["verify"] = {k: v[k] for k in ("checks", "all_green")}
                summary["manifest"] += v["manifest"]
            if summary["regime"] != "Regular":
                summary["convergence_report"] = "refused: regime not certified Regular"
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
