"""The three workloads: the inputs each run gets, and the checks on its outputs.

Every workload is a fresh process started from a run directory that holds
the generated `config.json` and receives the outputs in `out/`. The checks
read only `summary.json` (or the returned values it records), never the grid
file format, so a change of the grid format needs no benchmark edit.
"""

from __future__ import annotations

import copy
import json
import os

_CONSTANT = {
    "trait_domain": [0.0, 1.0],
    "rates": {"birth": {"family": "constant", "params": {"value": 2.0}},
              "death": {"family": "constant", "params": {"value": 1.0}}},
    "kernel": {"family": "uniform", "params": {}},
    "p": 0.3, "c": 1.0,
    "grids": {"nx": 64, "da": 0.01, "tol": 1e-10},
    "seed": 0,
}

_SINGULAR_800 = {
    "trait_domain": [0.0, 1.0],
    "rates": {"birth": {"family": "sqrt_gap", "params": {"bbar": 4.0}},
              "death": {"family": "constant", "params": {"value": 1.0}}},
    "kernel": {"family": "uniform", "params": {}},
    "p": 0.05, "c": 1.0,
    "grids": {"nx": 800, "da": 0.01, "tol": 1e-10},
    "seed": 0,
}

# lambda* of `scenario singular --nx 800`, recorded when the benchmark was defined.
SINGULAR_800_LAMBDA_STAR = 2.7766614


class Workload:
    """One workload: its config, its command line and its output checks."""

    name = ""
    base_config: dict = {}

    def config(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.base_config)
        cfg["seed"] = seed
        return cfg

    def program_args(self, seed: int) -> list[str]:
        """Arguments after the interpreter, run from the run directory."""
        raise NotImplementedError

    def check(self, summary: dict, config: dict) -> list[str]:
        """Failed checks of one run's summary, as messages."""
        raise NotImplementedError


def _near(problems: list, label: str, value, target: float, tol: float) -> None:
    if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
        problems.append(f"{label}={value!r}, want {target!r} +- {tol!r}")


def _same_config(problems: list, summary: dict, config: dict) -> None:
    if summary.get("config") != config:
        problems.append("summary config differs from the generated config")


class Singular800(Workload):
    """The spectral stack under a near-singular spectrum, plus emission.

    26 lambda evaluations and 52 Perron solves at 800x800, most through the
    shift-invert LU fallback, and a 214 MB (x, a) grid write. No dynamics.
    """

    name = "singular-800"
    base_config = _SINGULAR_800

    def program_args(self, seed):
        return ["-m", "structpop.cli", "scenario", "singular", "--nx", "800",
                "--seed", str(seed), "--out", "out"]

    def check(self, summary, config):
        problems = []
        if summary.get("regime") != "PossiblySingular":
            problems.append(f"regime={summary.get('regime')!r}, want 'PossiblySingular'")
        _near(problems, "lambda_star", summary.get("lambda_star"),
              SINGULAR_800_LAMBDA_STAR, 1e-5)
        norms = summary.get("norms", {})
        _near(problems, "intN", norms.get("intN"), 1.0, 1e-8)
        _near(problems, "intNphi", norms.get("intNphi"), 1.0, 1e-8)
        _same_config(problems, summary, config)
        return problems


class ConstantPde(Workload):
    """PDE stepping: 3000 nonlinear transport steps at nx=64, na~2374.

    The spectral solve is small (regular regime) and the output is 39 KB.
    """

    name = "constant-pde"
    base_config = _CONSTANT

    def program_args(self, seed):
        return ["-m", "structpop.cli", "pde", "--config", "config.json",
                "--tmax", "30", "--out", "out"]

    def check(self, summary, config):
        problems = []
        _near(problems, "lambda_star", summary.get("lambda_star"), 1.0, 1e-3)
        _near(problems, "final_mass", summary.get("final_mass"), 1.0, 1e-2)
        _near(problems, "final_tv", summary.get("final_tv"), 0.0, 1e-2)
        _same_config(problems, summary, config)
        return problems


class IbmConstant(Workload):
    """The IBM event loop two ways: a bounded population and a growing one.

    See ibm_workload.py: the shapes of acceptance criteria 09 and 10 at K=2000.
    """

    name = "ibm-constant"
    base_config = _CONSTANT

    def program_args(self, seed):
        here = os.path.dirname(os.path.abspath(__file__))
        return [os.path.join(here, "ibm_workload.py"), "--config", "config.json",
                "--out", "out"]

    def check(self, summary, config):
        problems = []
        lam = summary.get("lambda_star")
        _near(problems, "lambda_star", lam, 1.0, 1e-3)
        target = summary.get("stationary_mass")
        nl = summary.get("nonlinear", {})
        lin = summary.get("linear", {})
        for label, value, center, se in (
                ("nonlinear mean mass", nl.get("mean_mass"), target, nl.get("se")),
                ("martingale drift", lin.get("mean_drift"), 0.0, lin.get("se"))):
            if not (isinstance(se, float) and se > 0.0 and isinstance(center, float)):
                problems.append(f"{label}: no usable standard error ({se!r})")
            else:   # 5 SE: a correct simulator essentially never fails this
                _near(problems, label, value, center, 5.0 * se)
        for phase in (nl, lin):
            if not (isinstance(phase.get("events"), int) and phase["events"] > 0):
                problems.append(f"event count {phase.get('events')!r} is not positive")
        _same_config(problems, summary, config)
        return problems


WORKLOADS = {w.name: w for w in (Singular800(), ConstantPde(), IbmConstant())}


def write_config(run_dir: str, config: dict) -> str:
    path = os.path.join(run_dir, "config.json")
    with open(path, "w", newline="\n") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
