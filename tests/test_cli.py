import dataclasses
import json
import os

import pytest

from structpop.cli import (EXIT_OK, EXIT_SUBCRITICAL, EXIT_USAGE, main)
from structpop.model import constant_scenario


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
    with open(os.path.join(out, "eigen_triple.csv")) as f:
        assert f.readline().strip() == "x,a,N,phi"
        assert f.readline()     # non-empty body


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
    for name in ("stationary.csv", "summary.json"):
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


def test_ibm_subcommand(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["ibm", "--config", small_cfg, "--out", out,
                 "--tmax", "1.0", "--replicates", "4"]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "ci" in summary
    header = open(os.path.join(out, "ibm_trace.csv")).readline().strip()
    assert header == "replicate,t,mass,V"


def test_pde_subcommand(small_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["pde", "--config", small_cfg, "--out", out,
                 "--tmax", "2.0"]) == EXIT_OK
    header = open(os.path.join(out, "pde_trace.csv")).readline().strip()
    assert header == "t,mass,tv_to_stationary,phi_dist,D_t,truncation_loss"


def test_tmax_rejected_where_not_read(small_cfg, tmp_path):
    assert main(["malthus", "--config", small_cfg, "--out", str(tmp_path / "out"),
                 "--tmax", "5"]) == EXIT_USAGE
