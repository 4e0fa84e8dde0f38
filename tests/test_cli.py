import ast
import collections
import dataclasses
import fnmatch
import gc
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import cell_path
from structpop import _loops, cli, ibm, kernel, malthus, pde, spectral
from structpop.cli import (EXIT_ERROR, EXIT_OK, EXIT_SUBCRITICAL, EXIT_USAGE, main)
from structpop.model import (PRESETS, build_grids, build_model, constant_scenario,
                             mass_weights, midpoint_grid, singular_scenario)


def write_config(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f)
    return str(path)


@pytest.fixture
def small_cfg(tmp_path):
    cfg = constant_scenario(nx=8, tol=1e-8)
    return write_config(tmp_path / "cfg.json", cfg)


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["malthus", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)
    assert err["status"] == "error" and err["kind"] == "config"
    assert not os.path.exists(tmp_path / "out" / "summary.json")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_subcritical_exit_code(tmp_path, capsys):
    cfg = dataclasses.replace(
        constant_scenario(nx=8, tol=1e-8),
        birth={"family": "constant", "params": {"value": 0.5}})
    path = write_config(tmp_path / "sub.json", cfg)
    code = main(["malthus", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_SUBCRITICAL
    assert json.loads(capsys.readouterr().out)["kind"] == "subcritical"


def test_malthus_artifacts(small_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["malthus", "--config", small_cfg, "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["lambda_star"] == pytest.approx(1.0, abs=1e-3)
    assert summary["regime"] == "Regular"
    assert summary["manifest"] == ["x.npy", "a.npy", "N.npy", "phi.npy"]
    search = summary["lambda_search"]
    assert search["evaluations"] > 0
    assert summary["warnings"] == {}
    for side in ("direct", "dual"):
        perron = summary["perron"][side]
        assert perron["path"] in ("power", "shift-invert", "warm")
        lb, ub = perron["cw_bracket"]
        assert lb <= summary["norms"]["rho_at_star"] * (1 + 1e-11) and lb <= ub
    assert search["bracket"][0] <= summary["lambda_star"] <= search["bracket"][1]

    grids = {name: np.load(os.path.join(out, name + ".npy"), allow_pickle=False)
             for name in ("x", "a", "N", "phi")}
    cfg = constant_scenario(nx=8, tol=1e-8)
    model = build_model(cfg)
    tgrid, agrid = build_grids(cfg, model)
    np.testing.assert_array_equal(grids["x"], tgrid.nodes)
    np.testing.assert_array_equal(   # the lambda*-sized prefix of the age lattice
        grids["a"], kernel.profile_lattice(model, summary["lambda_star"], agrid).nodes)
    assert grids["N"].shape == grids["phi"].shape == (tgrid.n, grids["a"].size)


def profile_lattice_of(config, lam_star):
    """The age lattice of a run's written profiles, and the whole one."""
    model = build_model(config)
    _, agrid = build_grids(config, model)
    return kernel.profile_lattice(model, lam_star, agrid), agrid


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_profiles_are_written_on_the_lambda_star_lattice(tmp_path, preset):
    # the profiles decay like e^{-(D + lambda*) a}: at nx = 16 the constant
    # preset writes 1152 of 2372 age cells and the singular one 634 of 2442
    config = PRESETS[preset](nx=16)
    cfg = write_config(tmp_path / "cfg.json", config)
    for name, argv in (("malthus", ["malthus", "--config", cfg]),
                       ("scenario", ["scenario", preset, "--nx", "16"]),
                       ("verify", ["scenario", preset, "--nx", "16", "--verify"])):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        lattice, whole = profile_lattice_of(config, summary["lambda_star"])
        assert 2 <= lattice.n_cells < whole.n_cells // 2 + 2 and lattice.n_cells % 2 == 0
        a, N, phi = (np.load(out / f"{g}.npy", allow_pickle=False) for g in ("a", "N", "phi"))
        np.testing.assert_array_equal(a, lattice.nodes)
        assert N.shape == phi.shape == (config.nx, lattice.n_cells + 1)
        mw = mass_weights(midpoint_grid(config.trait_domain, config.nx), lattice)
        assert float(np.sum(N @ mw)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum((N * phi) @ mw)) == pytest.approx(1.0, abs=1e-12)
        for key in ("intN", "intNphi"):
            assert summary["norms"][key] == pytest.approx(1.0, abs=1e-12)


def test_stationary_writes_nbar_on_the_lambda_star_lattice(tmp_path):
    config = constant_scenario(nx=16)
    out = tmp_path / "out"
    assert main(["stationary", "--config", write_config(tmp_path / "cfg.json", config),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    lattice, _ = profile_lattice_of(config, summary["lambda_star"])
    np.testing.assert_array_equal(np.load(out / "a.npy"), lattice.nodes)
    assert np.load(out / "nbar.npy").shape == (config.nx, lattice.n_cells + 1)
    assert summary["c_mass"] == pytest.approx(summary["lambda_star"], rel=1e-12)
    assert summary["weak_form_residual"] <= 1e-3


def test_stationary_residual_runs_beside_nbar_alone(tmp_path, monkeypatch):
    # n-bar is a scaled copy of N, so the triple's N and phi grids are dropped first
    seen = {}
    residual = pde.stationary_residual

    def traced(model, tgrid, agrid, mix, nbar):
        seen["held"], seen["grid"] = tracemalloc.get_traced_memory()[0], nbar.nbytes
        return residual(model, tgrid, agrid, mix, nbar)
    monkeypatch.setattr(pde, "stationary_residual", traced)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli.cmd_stationary(constant_scenario(nx=64), str(tmp_path))
    finally:
        tracemalloc.stop()
    assert seen["held"] - start <= 1.5 * seen["grid"]       # 3.0 grids with the triple


@pytest.mark.parametrize("argv", [["pde", "--tmax", "0.5"],
                                  ["ibm", "--tmax", "0.5", "--replicates", "2"]],
                         ids=["pde", "ibm"])
def test_dynamics_step_on_the_whole_age_lattice(tmp_path, monkeypatch, argv):
    # a cohort's births past the profiles' lattice still count in the dynamics
    config = constant_scenario(nx=8, tol=1e-8)
    _, agrid = build_grids(config, build_model(config))
    shapes = []
    eigentriple = malthus.eigentriple

    def recorded(problem, lam_star, lattice):
        triple = eigentriple(problem, lam_star, lattice)
        shapes.append((problem.agrid.n_cells, triple.agrid.n_cells, triple.N_grid.shape,
                       triple.phi_grid.shape))
        return triple
    monkeypatch.setattr(malthus, "eigentriple", recorded)
    assert main(argv + ["--config", write_config(tmp_path / "cfg.json", config),
                        "--out", str(tmp_path / "out")]) == EXIT_OK
    grid = (config.nx, agrid.n_cells + 1)
    assert shapes == [(agrid.n_cells, agrid.n_cells, grid, grid)]


def test_spectral_sweep_csv(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["spectral", "--config", small_cfg, "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "rho_curve.csv"), "rb").read()
    assert b"\r" not in lines        # LF endings only
    header, first = lines.decode().splitlines()[:2]
    assert header == "lambda,rho_direct,rho_dual,rbar,gap,regime"
    assert first.startswith("0.0,")


def test_rerun_byte_identical(small_cfg, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["stationary", "--config", small_cfg, "--out", out]) == EXIT_OK
    manifest = json.load(open(os.path.join(out1, "summary.json")))["manifest"]
    assert manifest == ["x.npy", "a.npy", "nbar.npy"]
    for name in manifest + ["summary.json"]:
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2


def test_summaries_record_the_blas_thread_environment(small_cfg, tmp_path, monkeypatch):
    # reruns are byte-identical only at a fixed BLAS thread count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for command in ("spectral", "malthus"):
        out = str(tmp_path / command)
        assert main([command, "--config", small_cfg, "--out", out]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["blas_threads_env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}


def test_scenario_constant_verify(tmp_path):
    out = str(tmp_path / "out")
    assert main(["scenario", "constant", "--verify", "--nx", "16",
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["verify"]["all_green"]
    assert summary["scenario"] == "constant"


def test_scenario_singular_refuses_convergence(tmp_path):
    out = str(tmp_path / "out")
    assert main(["scenario", "singular", "--verify", "--nx", "100",
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["regime"] == "PossiblySingular"
    assert "refused" in summary["convergence_report"]
    assert list(summary["warnings"]) == ["near_singular_spectrum"]
    assert summary["perron"]["direct"]["path"] == "warm"
    assert summary["perron"]["dual"]["path"] == "warm"
    assert summary["perron"]["dual"]["iterations"] == 0
    assert summary["lambda_search"]["perron_iterations"] >= 1
    rows = open(os.path.join(out, "refinement.csv")).read().splitlines()
    assert rows[0] == "nx,lambda_star_h,gap,mass_in_band"
    assert len(rows) == 4


@pytest.mark.parametrize("nx, swept", [(2, [2]), (3, [3]), (10, [5, 8, 10]),
                                       (16, [8, 16])])
def test_verify_refines_up_to_the_solved_grid(tmp_path, nx, swept):
    path = write_config(tmp_path / "sing.json", dataclasses.replace(
        singular_scenario(nx=nx), p=0.001))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK
    rows = open(os.path.join(out, "refinement.csv")).read().splitlines()
    assert [int(row.split(",")[0]) for row in rows[1:]] == swept


@pytest.fixture
def no_competition_cfg(tmp_path):
    cfg = dataclasses.replace(constant_scenario(nx=8, tol=1e-8), c=0.0)
    return write_config(tmp_path / "c0.json", cfg)


@pytest.mark.parametrize("command", ["stationary", "pde"])
def test_stationary_commands_refuse_no_competition_before_solving(
        no_competition_cfg, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "_solve", lambda config: pytest.fail("solved"))
    out = str(tmp_path / "out")
    assert main([command, "--config", no_competition_cfg, "--out", out]) == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)
    assert err["kind"] == "config" and "competition" in err["message"]
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_ibm_refuses_an_unbounded_death_rate_before_solving(tmp_path, capsys, monkeypatch):
    # thinning needs a finite sup of the death rate; an aging death has none
    cfg = dataclasses.replace(constant_scenario(nx=8, tol=1e-8), death={
        "family": "affine", "params": {"base": 1.0, "slope_a": 0.5}})
    path = write_config(tmp_path / "aging.json", cfg)
    monkeypatch.setattr(cli, "_solve", lambda *args, **kwargs: pytest.fail("solved"))
    out = str(tmp_path / "out")
    assert main(["ibm", "--config", path, "--out", out]) == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)
    assert err["kind"] == "config" and "bounded death rate" in err["message"]
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_verify_without_competition_skips_the_stationary_checks(no_competition_cfg,
                                                                tmp_path):
    out = str(tmp_path / "out")
    assert main(["verify", "--config", no_competition_cfg, "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["regime"] == "Regular" and "convergence_report" not in summary
    assert summary["manifest"] == [] and summary["all_green"]
    assert "stationary_residual" not in summary["checks"]
    assert not os.path.exists(os.path.join(out, "refinement.csv"))


def test_summaries_report_the_theorem_residuals(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", constant_scenario(nx=16, tol=1e-8))
    sing = write_config(tmp_path / "sing.json", singular_scenario(nx=100))
    summaries = {}
    for name, argv in (("malthus", ["malthus", "--config", cfg]),
                       ("singular", ["malthus", "--config", sing]),
                       ("pde", ["pde", "--config", cfg, "--tmax", "3"]),
                       ("verify", ["verify", "--config", cfg]),
                       ("scenario", ["scenario", "constant", "--verify", "--nx", "16"])):
        out = str(tmp_path / name)
        assert main(argv + ["--out", out]) == EXIT_OK
        summaries[name] = json.load(open(os.path.join(out, "summary.json")))
    # the continuous density of the Regular regime, and none where it is refused
    assert 0.0 <= summaries["malthus"]["density_residual"] <= 1e-6
    assert summaries["singular"]["density_residual"] is None
    assert 0.0 < summaries["pde"]["pde"]["mass_ode_residual"] < 0.05
    # phi = 1 on the constant preset: G[phi^2] + D phi^2 = B + D = 3
    assert abs(summaries["verify"]["square_integrability_constant"] - 3.0) <= 1e-3
    verify = summaries["scenario"]["verify"]
    assert abs(verify["square_integrability_constant"] - 3.0) <= 1e-3
    assert verify["all_green"]


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_summaries_are_strict_json(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", constant_scenario(nx=16, tol=1e-8))
    # births stop after age 1.01, so phi and G[phi^2] + D phi^2 both vanish there
    tab = write_config(tmp_path / "tab.json", dataclasses.replace(
        constant_scenario(nx=16, tol=1e-8), birth={"family": "tabulated", "params": {
            "x_nodes": [0.0, 1.0], "a_nodes": [0.0, 1.0, 1.01],
            "values": [[3.0, 3.0, 0.0], [3.0, 3.0, 0.0]]}}))
    summaries = {}
    for name, argv in (("pde", ["pde", "--config", cfg, "--tmax", "0.01"]),
                       ("verify", ["verify", "--config", tab])):
        out = str(tmp_path / name)
        assert main(argv + ["--out", out]) == EXIT_OK
        with open(os.path.join(out, "summary.json")) as f:
            summaries[name] = json.loads(f.read(), parse_constant=_refuse)
    assert summaries["pde"]["pde"]["steps"] == 1
    assert summaries["pde"]["pde"]["mass_ode_residual"] is None   # two records
    c_hat = summaries["verify"]["square_integrability_constant"]
    assert isinstance(c_hat, float) and math.isfinite(c_hat) and c_hat > 0.0


def test_non_finite_summary_value_exits_1_without_a_summary(small_cfg, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_spectral", lambda config, out: {"rho": math.inf})
    out = tmp_path / "out"
    assert main(["spectral", "--config", small_cfg, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["kind"] == "ValueError"
    assert not os.path.exists(out / "summary.json")


def unreached_traits_config():
    # births vanish below x = 0.5 and gaussian(0.01) underflows to 0 beyond
    # about 0.39 from every parent, so mu is exactly 0 below x = 0.11
    return dataclasses.replace(constant_scenario(nx=64), kernel={
        "family": "gaussian", "params": {"width": 0.01}}, birth={
        "family": "tabulated", "params": {"x_nodes": [0.0, 0.5, 1.0], "a_nodes": [0.0, 1.0],
                                          "values": [[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]]}})


def test_malthus_solves_where_no_newborn_reaches_some_traits(tmp_path):
    # mu has exact zeros: no warm start may be taken from it
    path = write_config(tmp_path / "cfg.json", unreached_traits_config())
    out = tmp_path / "out"
    assert main(["malthus", "--config", path, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["regime"] == "Regular" and summary["density_residual"] < 1e-9
    assert np.any(np.load(out / "N.npy") == 0.0)


@pytest.mark.parametrize("preset, nx, regime", [("constant", 16, "Regular"),
                                                 ("singular", 128, "PossiblySingular")])
def test_malthus_summaries_record_the_gap_their_label_read(tmp_path, preset, nx, regime):
    config = PRESETS[preset](nx=nx)
    cfg = write_config(tmp_path / "cfg.json", config)
    model = build_model(config)
    problem = malthus.MalthusProblem(model, *build_grids(config, model))
    ck, pd = problem.direct_pair(problem.find_lambda_star(cli._tol_lam(config)))
    rbar = float(((1.0 - model.mutation_prob) * ck.sB).max())
    for name, argv in (("malthus", ["malthus", "--config", cfg]),
                       ("scenario", ["scenario", preset, "--nx", str(nx)])):
        out = str(tmp_path / name)
        assert main(argv + ["--out", out]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["gap"] == pd.rho - rbar
        assert summary["regime"] == regime == spectral.regime(pd.rho, rbar)


def test_collatz_wielandt_brackets_are_narrow_where_profiles_have_zeros():
    # the entries next to the profiles' exact zeros are tiny, and their
    # ratios carry no digit: taken over every positive entry, the direct
    # bracket read [0.99992739, 1 + 9e-15]
    cfg = unreached_traits_config()
    model = build_model(cfg)
    problem = malthus.MalthusProblem(model, *build_grids(cfg, model))
    _, pd, pq = problem.eigendata(problem.find_lambda_star())
    for pair in (pd, pq):
        lb, ub = pair.cw_bracket
        assert np.any(pair.profile == 0.0)
        assert lb <= pair.rho <= ub and ub - lb < 1e-9 * pair.rho


def test_malthus_summaries_report_the_tail_bound(tmp_path):
    config = constant_scenario(nx=16)
    cfg = write_config(tmp_path / "cfg.json", config)
    model = build_model(config)
    _, agrid = build_grids(config, model)
    for name, argv in (("malthus", ["malthus", "--config", cfg]),
                       ("scenario", ["scenario", "constant", "--nx", "16"])):
        out = str(tmp_path / name)
        assert main(argv + ["--out", out]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        # at the end of the written lattice, which is shorter than agrid
        a_end = float(np.load(os.path.join(out, "a.npy"))[-1])
        assert a_end < agrid.a_max
        decay = model.death_floor + summary["lambda_star"]
        closed = model.birth.sup * math.exp(-decay * a_end) / decay
        assert summary["tail_bound"] == pytest.approx(closed, rel=1e-12)
        assert 0.0 < summary["tail_bound"] <= config.tol
        # the preset's rates do not read age: no collapse sums a cell, each is
        # its closed-form tail from age 0
        search = summary["lambda_search"]
        assert search["age_flat_from"] == 0.0
        assert search["prefix_cells"] == search["age_cells"] == 0 < search["evaluations"]


def recording_age_factor_builds(monkeypatch):
    """Wrap kernel.age_factors; returns a list of (C.shape, weak reference) per build."""
    built = []
    build = kernel.age_factors

    def wrapped(*args):
        factors = build(*args)
        built.append((factors.C.shape, weakref.ref(factors)))
        return factors
    monkeypatch.setattr(kernel, "age_factors", wrapped)
    return built


@pytest.mark.parametrize("preset, nxs", [("singular", [100, 25, 50]), ("constant", [16])])
def test_verify_builds_the_age_factors_once_per_problem(tmp_path, monkeypatch, preset, nxs):
    # verify's rho samples after the solve read the factors the search built;
    # the refinement sweep builds them once for each coarser grid. The
    # presets' rates do not read age, so the factors hold no age cell.
    built = recording_age_factor_builds(monkeypatch)
    assert main(["scenario", preset, "--nx", str(nxs[0]), "--verify",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [shape for shape, _ in built] == [(nx, 0) for nx in nxs]


def test_scenario_singular_forms_no_age_cell(tmp_path, monkeypatch):
    # the benchmark's spectral run: the search's collapses and the profiles
    # are their closed-form tails, with no cell of the age lattice formed
    built = recording_age_factor_builds(monkeypatch)
    cells = []
    formula = kernel.cell_integrals
    monkeypatch.setattr(kernel, "cell_integrals", lambda *a: cells.append(1) or formula(*a))
    out = tmp_path / "out"
    assert main(["scenario", "singular", "--nx", "800", "--out", str(out)]) == EXIT_OK
    assert [shape for shape, _ in built] == [(800, 0)] and cells == []
    search = json.loads((out / "summary.json").read_text())["lambda_search"]
    assert search["age_cells"] == search["prefix_cells"] == 0


# Rates that read age at every age (age_flat_from = inf) take the cell path
# alone, as before the closed-form tails: digests of their outputs, recorded at
# the commit before each (the PDE's at the commit before its history sums and
# records took the tail). The summary is taken without the keys that name the
# run's config path and thread environment, or the tail's own counts.
AGE_READING = {
    "logistic_age_birth": dataclasses.replace(
        singular_scenario(nx=16), birth={"family": "logistic_age", "params": {
            "low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.4}},
        kernel={"family": "gaussian", "params": {"width": 0.15}}),
    "aging_death": dataclasses.replace(constant_scenario(nx=16), death={
        "family": "affine", "params": {"base": 1.0, "slope_x": 0.5, "slope_a": 0.5}}),
}
AGE_READING_DIGESTS = {
    ("logistic_age_birth", "malthus"):
        "63d25b871fbc80982fbe534916689dff7cd62f002ef1007fb3a0b7313fb668b5",
    ("logistic_age_birth", "stationary"):
        "ffffd0656fd0267188b6d6938bc2a9096095ee035dc078757fa3c4731f74ae93",
    ("aging_death", "malthus"):
        "3303a7c1279d1cdbd9f685a7f93f421d73fa7905cccca500a777165e179e74a1",
    ("aging_death", "stationary"):
        "899426a62045756da43e4c939fad6837c186c9c10f0ecd92dbf535cfc776d235",
    ("logistic_age_birth", "pde"):
        "ba9d60111e5af4ffdca06d4a36fc05dfd972d5f2860f4544ed045d5faba8ac8d",
    ("aging_death", "pde"):
        "11bf3c0ad8fecc63f9667fe268745dabaaf0752e96621686f1cde6a198b0485c",
}
COMMAND_ARGS = {"pde": ["--tmax", "3"]}


def output_digest(out):
    """sha256 of a run's summary, less its run-specific keys, and its manifest's bytes."""
    summary = json.loads((out / "summary.json").read_text())
    for key in ("scenario", "blas_threads_env"):
        del summary[key]
    for key in ("age_flat_from", "prefix_cells"):
        summary.get("lambda_search", {}).pop(key, None)
        summary.get("pde", {}).pop(key, None)
    summary.get("pde", {}).get("history", {}).pop("closed_form_blocks", None)
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    for name in summary["manifest"]:
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case, command", sorted(AGE_READING_DIGESTS))
def test_rates_that_read_age_at_every_age_keep_their_bytes(tmp_path, case, command):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path / "cfg.json", AGE_READING[case]),
                 "--out", str(out), *COMMAND_ARGS.get(command, [])]) == EXIT_OK
    assert output_digest(out) == AGE_READING_DIGESTS[case, command]
    if command in ("malthus", "pde"):
        summary = json.loads((out / "summary.json").read_text())
        search = summary["lambda_search" if command == "malthus" else "pde"]
        _, agrid = build_grids(AGE_READING[case], build_model(AGE_READING[case]))
        assert search["age_flat_from"] is None and search["prefix_cells"] == agrid.n_cells
    if command == "pde":
        assert summary["pde"]["history"]["closed_form_blocks"] == 0


@pytest.mark.parametrize("argv, module, name", [
    (["pde", "--tmax", "0.5"], pde, "run"),
    (["ibm", "--tmax", "0.5", "--replicates", "2"], ibm, "run_replicates"),
    (["stationary"], pde, "stationary_residual"),
    (["stationary"], malthus, "stationary_state")],
    ids=["pde", "ibm", "stationary", "stationary_nbar"])
def test_dynamics_run_without_age_factors(small_cfg, tmp_path, monkeypatch, argv, module, name):
    built = recording_age_factor_builds(monkeypatch)
    step = getattr(module, name)
    held = []

    def wrapped(*args, **kwargs):
        gc.collect()
        held.append(sum(ref() is not None for _, ref in built))
        return step(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapped)
    assert main(argv + ["--config", small_cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(built) == 1 and held == [0]


def test_config_with_unknown_key_rejected(tmp_path, capsys):
    data = constant_scenario(nx=8).to_dict()
    data["mystery"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["malthus", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE


def test_unbounded_birth_rate_is_config_error(tmp_path, capsys):
    cfg = dataclasses.replace(
        constant_scenario(nx=8, tol=1e-8),
        birth={"family": "affine", "params": {"base": 2.0, "slope_a": 0.1}})
    path = write_config(tmp_path / "unbounded.json", cfg)
    code = main(["malthus", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)
    assert err["kind"] == "config" and "bounded above" in err["message"]


def test_unbounded_death_rate_still_accepted(tmp_path):
    cfg = dataclasses.replace(
        constant_scenario(nx=8, tol=1e-8),
        death={"family": "affine", "params": {"base": 1.0, "slope_a": 0.1}})
    path = write_config(tmp_path / "aging.json", cfg)
    assert main(["malthus", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_verify_gaussian_kernel_assumptions(tmp_path):
    cfg = dataclasses.replace(
        constant_scenario(nx=16, tol=1e-8),
        kernel={"family": "gaussian", "params": {"width": 0.15}}, p=0.4)
    path = write_config(tmp_path / "gauss.json", cfg)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    for name in ("kernel_normalized", "support_overlap_sampled"):
        assert summary["checks"][name] is True
    assert "death_floor" not in summary["checks"]   # no config can turn it false
    assert summary["checks"]["adjoint_defect"] is True


def verify_summary(cfg_path, out):
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    return json.loads((out / "summary.json").read_text())


def test_verify_rho_identity_fails_on_a_scaled_dual(small_cfg, tmp_path, monkeypatch):
    # the dual operator is the direct one's transpose, MixForm.T
    transpose = kernel.MixForm.T.fget
    monkeypatch.setattr(kernel.MixForm, "T", property(lambda M: transpose(M).scaled(
        np.full(M.shape[0], 1.0 + 1e-6))))
    summary = verify_summary(small_cfg, tmp_path / "out")
    assert summary["checks"]["rho_identity"] is False and not summary["all_green"]


def test_verify_rho_decreasing_fails_on_a_flat_rho(small_cfg, tmp_path, monkeypatch):
    # rho at the last sampled lambda reads as at the one before it; the lambda*
    # search on this config never reaches that lambda
    rho_of_lambda = malthus.MalthusProblem.rho_of_lambda
    *_, before, last = cli.LAMBDA_SAMPLE
    monkeypatch.setattr(malthus.MalthusProblem, "rho_of_lambda", lambda self, lam:
                        rho_of_lambda(self, before if lam == last else lam))
    summary = verify_summary(small_cfg, tmp_path / "out")
    assert summary["checks"]["rho_decreasing"] is False and not summary["all_green"]


def test_verify_stationary_residual_fails_on_a_scaled_state(tmp_path, monkeypatch):
    # 1.01 nbar moves the weak-form residual from 1.2e-8 to 1.0e-2 on the
    # constant preset at nx = 64, against the check's 1e-3
    stationary_state = malthus.stationary_state

    def scaled(problem, triple):
        lam, nbar, mass = stationary_state(problem, triple)
        return lam, 1.01 * nbar, 1.01 * mass
    monkeypatch.setattr(malthus, "stationary_state", scaled)
    path = write_config(tmp_path / "cfg.json", constant_scenario(nx=64))
    summary = verify_summary(path, tmp_path / "out")
    assert summary["checks"]["stationary_residual"] is False and not summary["all_green"]


def test_verify_names_the_assumption_a_scaled_kernel_fails(small_cfg, tmp_path, monkeypatch):
    # k scaled by 1 + 1e-3 leaves unit mass by 1e-3, far above the 1e-8 test;
    # the sampled support overlap still holds
    build_model = cli.build_model

    def scaled_kernel(config):
        model = build_model(config)
        k = model.mutation_kernel
        return dataclasses.replace(model, mutation_kernel=dataclasses.replace(
            k, fn=lambda x, y, fn=k.fn: 1.001 * fn(x, y)))
    monkeypatch.setattr(cli, "build_model", scaled_kernel)
    summary = verify_summary(small_cfg, tmp_path / "out")
    checks = summary["checks"]
    assert checks["kernel_normalized"] is False and not summary["all_green"]
    assert checks["support_overlap_sampled"] is True


def test_verify_norms_finite_fails_on_a_non_finite_norm(small_cfg, tmp_path, monkeypatch):
    solve = cli._solve

    def nan_norm(config):
        *rest, triple = solve(config)
        return (*rest, dataclasses.replace(triple, norms={**triple.norms, "intNphi": math.nan}))
    monkeypatch.setattr(cli, "_solve", nan_norm)
    summary = verify_summary(small_cfg, tmp_path / "out")
    assert summary["checks"]["norms_finite"] is False and not summary["all_green"]


def test_verify_adjoint_defect_fails_on_a_mix_that_reads_k_from_the_wrong_side(
        tmp_path, monkeypatch):
    # gaussian(0.15) renormalized on [0, 1] has k(x, y) != k(y, x) near the ends,
    # so a Mix built on k(x_i, x_j) in place of k(x_j, x_i) is not the dual's
    mix_matrix = kernel.mix_matrix
    monkeypatch.setattr(kernel, "mix_matrix", lambda model, tgrid: mix_matrix(model, tgrid).T)
    cfg = dataclasses.replace(
        constant_scenario(nx=16, tol=1e-8),
        kernel={"family": "gaussian", "params": {"width": 0.15}}, p=0.4)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", write_config(tmp_path / "gauss.json", cfg),
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["checks"]["adjoint_defect"] is False and not summary["all_green"]


@pytest.mark.parametrize("swap", [False, True], ids=["as_built", "factors_swapped"])
def test_verify_adjoint_defect_reads_which_side_a_factored_mix_takes_k_from(
        tmp_path, monkeypatch, swap):
    # at nx = 128, gaussian(0.15) is factored at rank 25; swapping its factors
    # reads k(x_i, x_j) in place of k(x_j, x_i), and verify compares with k itself
    mix_matrix = kernel.mix_matrix

    def mix(model, tgrid):
        built = mix_matrix(model, tgrid)
        assert (built.form, built.rank) == ("factored", 25)
        return dataclasses.replace(built, U=built.V, V=built.U) if swap else built
    monkeypatch.setattr(kernel, "mix_matrix", mix)
    cfg = dataclasses.replace(
        constant_scenario(nx=128, tol=1e-8),
        kernel={"family": "gaussian", "params": {"width": 0.15}}, p=0.4)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", write_config(tmp_path / "gauss.json", cfg),
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["checks"]["adjoint_defect"] is not swap


def test_spectral_summaries_record_how_mix_is_held(small_cfg, tmp_path):
    # the uniform kernel factors at rank 1; the dynamics' summaries leave it out
    record = {"form": "factored", "rank": 1, "rtol": kernel.MIX_RTOL}
    runs = {"malthus": ["malthus", "--config", small_cfg],
            "verify": ["verify", "--config", small_cfg],
            "scenario": ["scenario", "constant", "--nx", "8", "--verify"],
            "pde": ["pde", "--config", small_cfg, "--tmax", "0.5"],
            "ibm": ["ibm", "--config", small_cfg, "--tmax", "0.5", "--replicates", "2"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary.get("mix") == (record if name in ("malthus", "verify", "scenario")
                                      else None), name


def test_scenario_solves_where_the_survival_factor_underflows(tmp_path):
    # at tol = 1e-180 the lattice runs to age 415, where R_lambda* ~ e^-830 is 0
    out = str(tmp_path / "out")
    assert main(["scenario", "constant", "--tol", "1e-180", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.loads(f.read(), parse_constant=_refuse)
    assert summary["norms"]["intNphi"] == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.isfinite(np.load(os.path.join(out, "phi.npy"))))


def test_ibm_subcommand(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["ibm", "--config", small_cfg, "--out", out,
                 "--tmax", "1.0", "--replicates", "4"]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "ci" in summary
    header = open(os.path.join(out, "ibm_trace.csv")).readline().strip()
    assert header == "replicate,t,mass,V"
    rows = np.loadtxt(os.path.join(out, "ibm_trace.csv"), delimiter=",", skiprows=1)
    assert rows.shape[1] == 4 and np.all(np.isfinite(rows))


def test_ibm_default_horizon_finishes(small_cfg, tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["ibm", "--config", small_cfg, "--out", out,
                     "--replicates", "4"]) == EXIT_OK
        outputs.append([open(os.path.join(out, name), "rb").read()
                        for name in ("summary.json", "ibm_trace.csv")])
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0][0])
    rows = np.loadtxt(os.path.join(out, "ibm_trace.csv"), delimiter=",", skiprows=1)
    assert rows[:, 1].max() == 3.0
    counters = summary["ibm"]
    assert counters["events"] > 0
    assert counters["phantom_fraction"] == 0.0    # constant rates: no rejected marks
    assert counters["peak_population"] >= rows[:, 2].max() * 500
    # constant rates run compiled wherever the loop library builds
    assert counters["loop"] == ("c" if _loops.library()[0] is not None else "python")


def test_ibm_preflight_rejects_exploding_linear_run(small_cfg, tmp_path, capsys):
    # 500 e^{lambda* 10} ~ 1.1e7 particles on the constant preset, above the cap
    t0 = time.monotonic()
    assert main(["ibm", "--config", small_cfg, "--out", str(tmp_path / "out"),
                 "--tmax", "10"]) == EXIT_USAGE
    assert time.monotonic() - t0 < 10.0
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and "particle cap" in err["message"]


@pytest.mark.parametrize("argv", [
    ["ibm", "--replicates", "0"],
    ["ibm", "--replicates", "1"],    # its standard error would be NaN
    ["ibm", "--tmax", "-1"],
    ["ibm", "--tmax", "nan"],
    ["pde", "--tmax", "nan"],
    ["pde", "--tmax", "inf"],
    ["pde", "--tmax", "-1"],
    ["pde", "--tmax", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_replicates_or_tmax_is_usage_error(small_cfg, tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--config", small_cfg, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()     # rejected before any solve or output


@pytest.mark.parametrize("argv, change", [
    (["scenario", "constant", "--da", "0"], {}),
    (["scenario", "constant", "--tol", "-1"], {}),
    (["scenario", "constant", "--da", "nan"], {}),
    (["scenario", "constant", "--tol", "inf"], {}),
    # tol (D + lambda) is subnormal or 0: the tail age is not finite
    (["scenario", "constant", "--nx", "8", "--tol", "1e-320"], {}),
    (["scenario", "constant", "--nx", "8", "--tol", "5e-324"], {}),
    (["scenario", "constant", "--nx", "1"], {}),
    (["ibm", "--seed", "-1"], {}),
    (["malthus"], {"c": math.nan}),
    (["stationary"], {"c": math.inf}),
    (["malthus"], {"trait_domain": [0.0, math.inf]}),
    (["malthus"], {"grids": {"nx": math.nan, "da": 0.01, "tol": 1e-8}}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else json.dumps(v))
def test_invalid_scenario_values_are_config_errors_before_solving(
        tmp_path, monkeypatch, capsys, argv, change):
    # command-line overrides, presets and config files all pass one check
    solves = []
    monkeypatch.setattr(malthus.MalthusProblem, "find_lambda_star",
                        lambda *a, **k: solves.append(a))
    if argv[0] != "scenario":
        data = {**constant_scenario(nx=8, tol=1e-8).to_dict(), **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))    # NaN and Infinity as Python's json writes them
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().out)["kind"] == "config"
    assert solves == [] and not (out / "summary.json").exists()


def test_pde_subcommand(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["pde", "--config", small_cfg, "--out", out,
                 "--tmax", "2.0"]) == EXIT_OK
    header = open(os.path.join(out, "pde_trace.csv")).readline().strip()
    assert header == "t,mass,tv_to_stationary,phi_dist,D_t,truncation_loss"
    summary = json.load(open(os.path.join(out, "summary.json")))
    rows = np.loadtxt(os.path.join(out, "pde_trace.csv"), delimiter=",", skiprows=1)
    assert summary["pde"]["steps"] == 200
    assert summary["pde"]["truncation_loss"] == rows[-1, -1] >= 0.0
    assert summary["pde"]["record"] == ("c" if _loops.library()[0] is not None else "numpy")


def test_pde_trace_is_the_same_bits_at_one_and_two_blas_threads(tmp_path):
    # neither record sums through BLAS; the NumPy one runs with the loader disabled
    cfg = write_config(tmp_path / "cfg.json", constant_scenario(nx=16))
    code = ("import sys\n"
            "from structpop import _loops, cli\n"
            "for record in ('c', 'numpy'):\n"
            "    if record == 'numpy':\n"
            "        _loops.library = lambda: (None, 'disabled')\n"
            "    assert cli.main(['pde', '--config', sys.argv[1], '--tmax', '1',\n"
            "                     '--out', sys.argv[2] + '-' + record]) == 0\n")
    src = os.path.dirname(os.path.dirname(pde.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, **{k: threads for k in cli.BLAS_THREAD_VARS})
        subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / threads)], env=env,
                       check=True, capture_output=True, timeout=120)
    compiled = _loops.library()[0] is not None
    for record in ("c", "numpy"):
        outs = [tmp_path / f"{threads}-{record}" for threads in ("1", "2")]
        for out in outs:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["pde"]["record"] == (record if compiled else "numpy")
        assert (outs[0] / "pde_trace.csv").read_bytes() == (outs[1] / "pde_trace.csv").read_bytes()


def test_pde_summary_counts_history_blocks(tmp_path):
    # the constant preset's history sums are in closed form from age 0; its
    # cell-path twin's are by FFT over the whole lattice
    cfg = constant_scenario(nx=8, tol=1e-8)
    _, agrid = build_grids(cfg, build_model(cfg))
    for name, config in (("preset", cfg), ("twin", cell_path(cfg))):
        out = str(tmp_path / name)
        assert main(["pde", "--config", write_config(tmp_path / f"{name}.json", config),
                     "--out", out, "--tmax", "12"]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))["pde"]
        fft, direct, closed = (summary["history"][key] for key in (
            "fft_blocks", "direct_blocks", "closed_form_blocks"))
        if name == "preset":
            assert closed >= 2 and fft == direct == 0
            assert summary["age_flat_from"] == 0.0 and summary["prefix_cells"] == 0
        else:
            assert fft >= 2 and direct == closed == 0
            assert summary["age_flat_from"] is None
            assert summary["prefix_cells"] == agrid.n_cells


def test_tmax_rejected_where_not_read(small_cfg, tmp_path):
    assert main(["malthus", "--config", small_cfg, "--out", str(tmp_path / "out"),
                 "--tmax", "5"]) == EXIT_USAGE


def test_config_rejected_where_not_read(small_cfg, tmp_path):
    # scenario runs its preset's config, and would ignore another
    out = tmp_path / "out"
    assert main(["scenario", "constant", "--config", small_cfg, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def modules_loaded_by(argv, cwd):
    """sys.modules after importing structpop.cli and, unless argv is None,
    `cli.main(argv)`, in a fresh interpreter."""
    code = ("import json, sys\n"
            "from structpop import cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "assert argv is None or cli.main(argv) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(ibm.__file__))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_of(modules):
    """The scipy modules among a list of module names."""
    return [m for m in modules if m.split(".")[0] == "scipy"]


# Only the build of the compiled loops needs these; start-up must not pay for them.
BUILD_ONLY_MODULES = {"hashlib", "subprocess"}
# The dynamics and their compiled loops; neither start-up nor a spectral solve needs them.
DYNAMICS_MODULES = {"structpop.pde", "structpop.ibm", "structpop._loops"}


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test dependency only: no command may load it
    cfg = write_config(tmp_path / "cfg.json", constant_scenario(nx=16))
    _loops.library()        # built here, so the pde run below at most loads it
    pde_run = modules_loaded_by(["pde", "--tmax", "0.2", "--config", cfg, "--out", "out"],
                                tmp_path)
    assert scipy_of(pde_run) == []
    assert scipy_of(modules_loaded_by(["ibm", "--tmax", "0.5", "--replicates", "2",
                                       "--config", cfg, "--out", "out"], tmp_path)) == []
    # numpy.fft is loaded by the first block of PDE steps, never at start-up
    start_up = modules_loaded_by(None, tmp_path)
    assert "numpy.fft" not in start_up
    assert "numpy.fft" not in modules_loaded_by(["stationary", "--config", cfg,
                                                 "--out", "st"], tmp_path)
    # the lambda = 0 solve of this run leaves power iteration for shift-inverse
    scenario = modules_loaded_by(["scenario", "singular", "--nx", "64", "--out", "sing"],
                                 tmp_path)
    assert scipy_of(scenario) == []
    for modules in (start_up, pde_run, scenario):
        assert BUILD_ONLY_MODULES.isdisjoint(modules)
    # only the commands that step dynamics or verify load the PDE and IBM modules
    for modules in (start_up, scenario):
        assert DYNAMICS_MODULES.isdisjoint(modules)


# Public names that no CLI path reaches, kept for what the tests check with them.
REACHABILITY_EXEMPT = {
    "transform_check": "criterion 12 checks the competition transform with it",
    "dirac_state": "criterion 06's initial state",
    "solve_eigentriple": "the library's one-call solve on the whole age lattice, "
                         "which the IBM benchmark workload reads",
}


def test_every_public_name_is_referenced():
    package = os.path.dirname(ibm.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                trees[name] = ast.parse(f.read())

    def references(tree, attributes_only=False):
        """Counter of names loaded (or read as attributes) anywhere in tree."""
        found = collections.Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.Name) and not attributes_only:
                found[node.id] += 1
        return found

    everywhere = sum((references(t) for t in trees.values()), collections.Counter())
    by_attribute = sum((references(t, True) for t in trees.values()),
                       collections.Counter())
    definitions = (ast.FunctionDef, ast.ClassDef)
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, definitions) or node.name.startswith("_"):
                continue
            if everywhere[node.name] - references(node)[node.name] == 0:
                unreferenced.append(f"{module}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and by_attribute[item.name]
                            - references(item, True)[item.name] == 0):
                        unreferenced.append(f"{module}: {node.name}.{item.name}")
    unreferenced = [u for u in unreferenced if u.split(": ")[1] not in REACHABILITY_EXEMPT]
    assert unreferenced == [], "\n".join(unreferenced)


# Optional parameters that no call in the package or the benchmark passes,
# kept for what the tests set with them.
OPTIONAL_EXEMPT = {
    "simulate(particle_cap)": "the particle-cap tests abort a run at a small cap",
    "simulate(record_events)": "the reference-stream tests compare each event",
    "dirac_state(a)": "criterion 06 and the record tests start spikes at an age",
    "dirac_state(mass)": "the tests' initial spikes of a given mass",
    "uniform_state(a_scale)": "the tests' states with density out to the horizon",
    "uniform_state(mass)": "the tests' states near the float limit",
    **{f"{preset}({name})": "a preset on the tests' own grids and seeds"
       for preset in ("constant_scenario", "singular_scenario")
       for name in ("nx", "da", "tol", "seed")},
}


def test_every_optional_parameter_is_passed_outside_the_tests():
    # a keyword that only the tests set is a mode no config can reach
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def parse(directory):
        return [ast.parse(open(os.path.join(directory, name)).read())
                for name in sorted(os.listdir(directory)) if name.endswith(".py")]

    package = parse(os.path.dirname(ibm.__file__))
    calls = [node for tree in package + parse(os.path.join(root, "perfbench"))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passes(call, index, name):
        """Whether call sets the parameter at position index (None: keyword only)."""
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        return (any(k.arg == name for k in call.keywords)
                or (index is not None and index < len(positional)))

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    functions = []          # (name it is called by, FunctionDef, leading self or cls)
    for tree in package:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        functions.append((name, item, 0 if static else 1))
        methods = {id(fn) for _, fn, _ in functions}
        functions += [(node.name, node, 0) for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and id(node) not in methods]
    unpassed, checked = [], 0
    for name, fn, skip in functions:
        args = fn.args.posonlyargs + fn.args.args
        optional = [(i - skip, a.arg) for i, a in enumerate(args)
                    if i >= len(args) - len(fn.args.defaults)]
        optional += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None]
        for index, param in optional:
            checked += 1
            if not any(callee(c) == name and passes(c, index, param) for c in calls):
                unpassed.append(f"{name}({param})")
    assert checked >= len(OPTIONAL_EXEMPT) + 10
    assert set(OPTIONAL_EXEMPT) <= set(unpassed), "an exempt parameter is now passed"
    unpassed = [u for u in unpassed if u not in OPTIONAL_EXEMPT]
    assert unpassed == [], "\n".join(unpassed)


def test_only_the_mix_builder_evaluates_the_mutation_kernel_on_the_grid():
    # the (1 - p)/p birth-mutation law is spelled once, in kernel.mix_matrix,
    # which reads k on the grid for its dense form and, through its factor
    # builder kernel._kernel_factor, one row at a time; the IBM's mutant CDF
    # rows read k on the nodes too, and verify's adjoint_defect builds the
    # dual's rows from k itself to check Mix against it
    package = os.path.dirname(ibm.__file__)
    callers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "matrix"
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "mutation_kernel"):
                    callers.append(f"{name[:-3]}.{fn.name}")
    assert sorted(callers) == ["cli._dual_rows_from_k", "ibm._mutant_cdf_rows",
                               "kernel._kernel_factor", "kernel.mix_matrix"]


def test_only_the_clonal_law_and_its_checks_read_the_mutation_probability():
    # the birth-mutation law's (1 - p) is stated once, in kernel.mix_matrix:
    # every operator is mix.scaled(sB), whose diagonal is r. verify's dual from
    # k restates it as the independent check it is, the contraction bound reads
    # p, and the IBM and the model's own validation read it for themselves
    package = os.path.dirname(ibm.__file__)
    readers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for top in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr == "mutation_prob"
                   for node in ast.walk(top)):
                readers.add(f"{name[:-3]}.{getattr(top, 'name', '<body>')}")
    assert sorted(r for r in readers if r.split(".")[0] not in ("ibm", "model")) == [
        "cli._dual_rows_from_k", "kernel.mix_matrix", "malthus.eta_lower_bound"]


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks `import *`
    import structpop
    assert [n for n in structpop.__all__ if not hasattr(structpop, n)] == []
    assert len(set(structpop.__all__)) == len(structpop.__all__)


def test_every_traced_structpop_target_resolves():
    # perfbench/tracer.py wraps these paths from outside the program; one that
    # no longer resolves turns its per-layer metric into "absent" and 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    checked = 0
    for name, module_name, path, _ in tracer.TARGETS:
        if not module_name.startswith("structpop"):
            continue
        owner_path, _, attr = path.rpartition(".")
        owner = importlib.import_module(module_name)
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        if "*" in attr:
            found = [a for a in vars(owner) if fnmatch.fnmatch(a, attr)
                     and inspect.isfunction(inspect.getattr_static(owner, a))]
        else:
            found = [attr] if inspect.isfunction(inspect.getattr_static(owner, attr, None)) else []
        assert found, f"{name}: {module_name}.{path} does not resolve"
        checked += 1
    assert checked >= 10


def test_only_mass_weights_and_the_transport_solver_read_the_age_weights():
    # dx qa_j is formed in model.mass_weights, which model.grid_integral
    # broadcasts over blocks of trait rows; the solver also reads qa alone
    package = os.path.dirname(ibm.__file__)

    def calls(node):
        return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "quad_weights" for n in ast.walk(node))

    callers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for top in tree.body:       # module-level statements, and methods by class
            inner = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in inner:
                where = [top, node] if node is not top else [top]
                qualified = ".".join(getattr(n, "name", "<body>") for n in where)
                callers += [f"{name[:-3]}.{qualified}"] * calls(node)
    assert sorted(callers) == ["model.mass_weights", "pde.TransportSolver.__init__"]


def test_no_module_reads_a_trait_weight_vector():
    # every trait grid is uniform: TraitGrid holds its step dx, and no code
    # reads a per-node `weights` attribute
    package = os.path.dirname(ibm.__file__)
    readers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        readers += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "weights"]
    assert readers == []
