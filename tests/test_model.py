import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structpop.model import (AgeGrid, ConfigError, build_grids, build_model,
                             constant_scenario, eval_kernel, eval_rates,
                             midpoint_grid, parse_config, singular_scenario,
                             validate_assumptions)


def test_midpoint_grid_example():
    g = midpoint_grid((0.0, 1.0), 4)
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.weights, 0.25)


def test_midpoint_grid_rejects_degenerate():
    with pytest.raises(ConfigError):
        midpoint_grid((0.0, 1.0), 1)


@given(nx=st.integers(2, 500), hi=st.floats(0.5, 10.0))
def test_midpoint_weights_sum_to_length(nx, hi):
    g = midpoint_grid((0.0, hi), nx)
    assert math.isclose(float(g.weights.sum()), hi, rel_tol=1e-13)
    assert np.all(np.diff(g.nodes) > 0)


def test_midpoint_second_order_on_x_squared():
    # int_0^1 x^2 = 1/3; midpoint error should shrink like n^-2
    errs = []
    for nx in (10, 20, 40):
        g = midpoint_grid((0.0, 1.0), nx)
        errs.append(abs(float(np.sum(g.nodes ** 2 * g.weights)) - 1.0 / 3.0))
    assert errs[1] < 0.30 * errs[0]
    assert errs[2] < 0.30 * errs[1]


def test_build_grids_age_horizon_constant_model():
    cfg = constant_scenario()
    _, agrid = build_grids(cfg)
    # ||B|| e^{-D A}/D < 1e-10 solves to A = ln(2e10) = 23.719...
    assert agrid.a_max == pytest.approx(23.72, abs=0.011)
    assert agrid.n_cells % 2 == 0


def test_config_round_trip():
    cfg = constant_scenario()
    assert parse_config(cfg.to_json()) == cfg
    cfg2 = singular_scenario(nx=17, da=0.02)
    assert parse_config(json.loads(cfg2.to_json())) == cfg2


def test_config_rejects_unknown_keys():
    data = json.loads(constant_scenario().to_json())
    data["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(data)
    data = json.loads(constant_scenario().to_json())
    data["grids"]["typo"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)


def test_config_rejects_bad_grid_values():
    data = json.loads(constant_scenario().to_json())
    data["grids"]["nx"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)
    data["grids"]["nx"] = 8
    data["grids"]["tol"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(data)


def test_eval_rates_constant():
    model = build_model(constant_scenario())
    assert eval_rates(model, 0.3, 5.0) == (2.0, 1.0)
    assert eval_kernel(model, 0.3, 0.9) == 1.0


def test_eval_rates_sqrt_gap():
    model = build_model(singular_scenario())
    b, d = eval_rates(model, 0.25, 1.0)
    assert b == pytest.approx(3.5)
    assert d == 1.0


def test_eval_rates_rejects_out_of_domain():
    model = build_model(constant_scenario())
    with pytest.raises(ValueError):
        eval_rates(model, 1.5, 0.0)
    with pytest.raises(ValueError):
        eval_rates(model, 0.5, -0.1)
    with pytest.raises(ValueError):
        eval_kernel(model, 0.5, -2.0)


def test_rate_family_rejects_unknown_params():
    cfg = dataclasses.replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 2.0, "oops": 1}})
    with pytest.raises(ConfigError):
        build_model(cfg)


def test_gaussian_kernel_normalized():
    cfg = dataclasses.replace(
        constant_scenario(),
        kernel={"family": "gaussian", "params": {"width": 0.15}})
    model = build_model(cfg)
    y = np.linspace(0, 1, 20001)
    for x in (0.0, 0.37, 1.0):
        mass = np.trapezoid(model.mutation_kernel(x, y), y)
        assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("width", [0.05, 0.15, 1.0])
def test_gaussian_kernel_bounds_hold(width):
    cfg = dataclasses.replace(
        constant_scenario(),
        kernel={"family": "gaussian", "params": {"width": width}})
    k = build_model(cfg).mutation_kernel
    grid = np.linspace(0.0, 1.0, 1601)          # includes the four corners
    vals = k(grid[:, None], grid[None, :])
    assert 0.0 < k.inf <= vals.min()
    assert k.inf <= float(k(0.0, 1.0)) and k.inf <= float(k(1.0, 0.0))
    assert vals.max() <= k.sup * (1.0 + 1e-12)


@settings(max_examples=25)
@given(x=st.floats(0.0, 1.0), a=st.floats(0.0, 50.0))
def test_rates_nonnegative_on_domain(x, a):
    model = build_model(singular_scenario())
    b, d = eval_rates(model, x, a)
    assert b >= 0 and d >= model.death_floor


def test_validate_assumptions_constant(constant_setup):
    s = constant_setup
    rep = validate_assumptions(s.model, s.tgrid, s.agrid)
    assert rep.all_ok


def test_validate_assumptions_singular(singular_setup):
    s = singular_setup
    rep = validate_assumptions(s.model, s.tgrid, s.agrid)
    assert rep.all_ok


def test_validate_assumptions_flags_zero_birth():
    cfg = dataclasses.replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 0.0}})
    model = build_model(cfg)
    tg = midpoint_grid(model.trait_domain, 8)
    rep = validate_assumptions(model, tg, AgeGrid(da=0.01, n_cells=100))
    assert not rep.checks["support_overlap_sampled"]
    assert not rep.all_ok


def test_kernel_normalized_gaussian_and_scaled():
    cfg = dataclasses.replace(
        constant_scenario(nx=32),
        kernel={"family": "gaussian", "params": {"width": 0.15}}, p=0.4)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    rep = validate_assumptions(model, tg, ag)
    assert rep.checks["kernel_normalized"]
    assert rep.details["kernel_normalized"]["max_defect"] < 1e-12

    k = model.mutation_kernel
    scaled = dataclasses.replace(k, fn=lambda x, y, fn=k.fn: 1.001 * fn(x, y))
    rep = validate_assumptions(dataclasses.replace(model, mutation_kernel=scaled), tg, ag)
    assert not rep.checks["kernel_normalized"]
    assert rep.details["kernel_normalized"]["max_defect"] == pytest.approx(1e-3, rel=1e-6)


def test_model_rejects_bad_parameters():
    cfg = constant_scenario()
    with pytest.raises(ConfigError):
        build_model(dataclasses.replace(cfg, p=0.0))
    with pytest.raises(ConfigError):
        build_model(dataclasses.replace(cfg, p=1.0))
    with pytest.raises(ConfigError):
        build_model(dataclasses.replace(cfg, c=-1.0))
    with pytest.raises(ConfigError):
        build_model(dataclasses.replace(
            cfg, death={"family": "constant", "params": {"value": 0.0}}))


def test_tabulated_rate_bilinear():
    cfg = dataclasses.replace(
        constant_scenario(),
        birth={"family": "tabulated",
               "params": {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 10.0],
                          "values": [[1.0, 1.0], [3.0, 3.0]]}})
    model = build_model(cfg)
    assert eval_rates(model, 0.5, 2.0)[0] == pytest.approx(2.0)
    assert model.birth.sup == 3.0 and model.birth.inf == 1.0
