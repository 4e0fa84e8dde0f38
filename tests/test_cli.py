import dataclasses
import json
import os
import time

import numpy as np
import pytest

from structpop.cli import (EXIT_OK, EXIT_SUBCRITICAL, EXIT_USAGE, main)
from structpop.model import build_grids, build_model, constant_scenario


def write_config(path, cfg):
    with open(path, "w") as f:
        f.write(cfg.to_json())
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
    assert search["bracket"][0] <= summary["lambda_star"] <= search["bracket"][1]

    cfg = constant_scenario(nx=8, tol=1e-8)
    tgrid, agrid = build_grids(cfg, build_model(cfg))
    grids = {name: np.load(os.path.join(out, name + ".npy"), allow_pickle=False)
             for name in ("x", "a", "N", "phi")}
    assert grids["x"].shape == (tgrid.n,)
    assert grids["a"].shape == (agrid.n_cells + 1,)
    assert grids["N"].shape == grids["phi"].shape == (tgrid.n, agrid.n_cells + 1)
    np.testing.assert_array_equal(grids["x"], tgrid.nodes)
    np.testing.assert_array_equal(grids["a"], agrid.nodes)
    mass = float(tgrid.weights @ grids["N"] @ agrid.quad_weights())
    assert mass == pytest.approx(1.0, abs=1e-8)


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


def test_scenario_constant_verify(tmp_path):
    out = str(tmp_path / "out")
    assert main(["scenario", "constant", "--verify", "--nx", "16",
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["verify"]["all_green"]
    assert summary["scenario"] == "constant"


@pytest.mark.filterwarnings("ignore:near-singular")
def test_scenario_singular_refuses_convergence(tmp_path):
    out = str(tmp_path / "out")
    assert main(["scenario", "singular", "--verify", "--nx", "100",
                 "--out", out]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["regime"] == "PossiblySingular"
    assert "refused" in summary["convergence_report"]
    rows = open(os.path.join(out, "refinement.csv")).read().splitlines()
    assert rows[0] == "nx,lambda_star_h,gap,mass_in_band"
    assert len(rows) == 4


def test_config_with_unknown_key_rejected(tmp_path, capsys):
    data = json.loads(constant_scenario(nx=8).to_json())
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
    assert summary["checks"]["assumptions"] is True


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


def test_ibm_preflight_rejects_exploding_linear_run(small_cfg, tmp_path, capsys):
    # 500 e^{lambda* 10} ~ 1.1e7 particles on the constant preset, above the cap
    t0 = time.monotonic()
    assert main(["ibm", "--config", small_cfg, "--out", str(tmp_path / "out"),
                 "--tmax", "10"]) == EXIT_USAGE
    assert time.monotonic() - t0 < 10.0
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["kind"] == "config" and "particle cap" in err["message"]


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


def test_tmax_rejected_where_not_read(small_cfg, tmp_path):
    assert main(["malthus", "--config", small_cfg, "--out", str(tmp_path / "out"),
                 "--tmax", "5"]) == EXIT_USAGE
