"""The ibm-constant workload: direct library calls on the constant preset.

The CLI `ibm` subcommand cannot drive this workload: its hard-coded linear
run explodes on the constant preset. So this script makes the calls itself,
in the shapes of acceptance criteria 09 and 10, and writes a `summary.json`
plus an `ibm_trace.csv` manifest like the CLI does:

1. solve the eigentriple (lambda*, N, phi);
2. nonlinear phase: M replicates at K, T=10, samples [0, 10], each started
   from K draws of N: a stationary population whose mean mass is lambda*/c;
3. linear phase: M replicates at K, T=3, 7 sample times, started the same
   way: a growing population, then the Perron martingale series.

Usage: python ibm_workload.py --config config.json --out out

Every call goes through a module attribute (`ibm.simulate` via
`ibm.run_replicates`, `ibm.sample_from_density`, ...), so the traced run can
wrap it. Exit 0 on success, 1 on any failure (an ExplosionError included),
with a one-line JSON status on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from structpop import ibm, malthus
from structpop import model as sp_model

K = 2000
M = 20
NONLINEAR_T = 10.0
NONLINEAR_SAMPLES = (0.0, NONLINEAR_T)
LINEAR_T = 3.0
LINEAR_SAMPLES = tuple(np.linspace(0.0, LINEAR_T, 7).tolist())


def solve(config):
    model = sp_model.build_model(config)
    tgrid, agrid = sp_model.build_grids(config, model)
    problem = malthus.MalthusProblem(model, tgrid, agrid)
    triple = malthus.solve_eigentriple(problem, tol_lam=min(config.tol * 1e4, 1e-6))
    return model, tgrid, agrid, triple


def _init_sampler(triple, tgrid, agrid):
    return lambda rep_seed: ibm.sample_from_density(triple.N_grid, tgrid, agrid,
                                                    K, rep_seed)


def nonlinear_phase(model, tgrid, agrid, triple, seed):
    """Event logs of the stationary (criterion 09) run."""
    return ibm.run_replicates(model, tgrid, K, NONLINEAR_T, NONLINEAR_SAMPLES, seed, M,
                              init_sampler=_init_sampler(triple, tgrid, agrid),
                              store_snapshots=False)


def linear_phase(model, tgrid, agrid, triple, seed):
    """Logs and martingale series of the growing (criterion 10) run."""
    logs = ibm.run_replicates(model, tgrid, K, LINEAR_T, LINEAR_SAMPLES, seed, M,
                              init_sampler=_init_sampler(triple, tgrid, agrid),
                              linear=True)
    series = ibm.martingale_series(logs, triple.phi_grid, triple.lambda_star,
                                   tgrid, agrid)
    return logs, series


def _write_trace(path, nl_logs, lin_logs, series):
    with open(path, "w", newline="\n") as f:
        f.write("phase,replicate,t,mass,V\n")
        for log in nl_logs:
            for t, mass in zip(log.sample_times, log.masses):
                f.write(f"nonlinear,{log.replicate},{float(t)!r},{float(mass)!r},nan\n")
        for m, log in enumerate(lin_logs):
            for s, t in enumerate(log.sample_times):
                f.write(f"linear,{log.replicate},{float(t)!r},{float(log.masses[s])!r},"
                        f"{float(series['V'][m, s])!r}\n")


def run(config, out: str) -> dict:
    model, tgrid, agrid, triple = solve(config)
    nl_logs = nonlinear_phase(model, tgrid, agrid, triple, config.seed)
    lin_logs, series = linear_phase(model, tgrid, agrid, triple, config.seed + 1)

    final = np.array([log.masses[-1] for log in nl_logs])
    se = float(final.std(ddof=1) / math.sqrt(final.size))
    trace = "ibm_trace.csv"
    _write_trace(os.path.join(out, trace), nl_logs, lin_logs, series)
    return {
        "lambda_star": triple.lambda_star,
        "stationary_mass": triple.lambda_star / model.competition,
        "K": K,
        "M": M,
        "nonlinear": {"mean_mass": float(final.mean()), "se": se,
                      "events": sum(log.n_events for log in nl_logs)},
        "linear": {"mean_drift": series["mean_drift"], "se": series["se"],
                   "events": sum(log.n_events for log in lin_logs)},
        "config": config.to_dict(),
        "manifest": [trace],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            config = sp_model.parse_config(f.read())
        os.makedirs(args.out, exist_ok=True)
        summary = run(config, args.out)
        with open(os.path.join(args.out, "summary.json"), "w", newline="\n") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    except Exception as e:   # noqa: BLE001 - process boundary, reported as a failed run
        traceback.print_exc()
        print(json.dumps({"status": "error", "kind": type(e).__name__,
                          "message": str(e)}))
        return 1
    print(json.dumps({"status": "ok"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
