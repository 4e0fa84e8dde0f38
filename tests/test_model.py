import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structpop.malthus import MalthusProblem, solve_eigentriple
from structpop.model import (AgeGrid, ConfigError, _make_rate, build_grids, build_model,
                             constant_scenario, grid_integral, mass_weights, midpoint_grid,
                             parse_config, replace, singular_scenario,
                             validate_assumptions)


def test_midpoint_grid_example():
    g = midpoint_grid((0.0, 1.0), 4)
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])
    assert g.dx == 0.25


@pytest.mark.parametrize("nx", [5, 16, 37])
def test_grid_integral_is_the_mass_weighted_sum(nx):
    rng = np.random.default_rng(nx)
    tg, ag = midpoint_grid((0.0, 1.0), nx), AgeGrid(da=0.01, n_cells=300)
    f, g = rng.random((2, nx, ag.n_cells + 1))
    mw = mass_weights(tg, ag)
    assert grid_integral(tg, ag, f) == pytest.approx(np.sum(f * mw), rel=1e-15)
    assert grid_integral(tg, ag, f, g) == pytest.approx(np.sum(f * g * mw), rel=1e-15)


def test_midpoint_grid_rejects_degenerate():
    with pytest.raises(ConfigError):
        midpoint_grid((0.0, 1.0), 1)


@given(nx=st.integers(2, 500), hi=st.floats(0.5, 10.0))
def test_midpoint_weights_sum_to_length(nx, hi):
    g = midpoint_grid((0.0, hi), nx)
    assert math.isclose(g.dx * g.n, hi, rel_tol=1e-13)
    assert math.isclose(g.nodes[-1] + 0.5 * g.dx, hi, rel_tol=1e-13)
    assert np.all(np.diff(g.nodes) > 0)


def test_midpoint_second_order_on_x_squared():
    # int_0^1 x^2 = 1/3; midpoint error should shrink like n^-2
    errs = []
    for nx in (10, 20, 40):
        g = midpoint_grid((0.0, 1.0), nx)
        errs.append(abs(float(np.sum(g.nodes ** 2 * g.dx)) - 1.0 / 3.0))
    assert errs[1] < 0.30 * errs[0]
    assert errs[2] < 0.30 * errs[1]


def test_build_grids_age_horizon_constant_model():
    cfg = constant_scenario()
    _, agrid = build_grids(cfg, build_model(cfg))
    # ||B|| e^{-D A}/D < 1e-10 solves to A = ln(2e10) = 23.719...
    assert agrid.a_max == pytest.approx(23.72, abs=0.011)
    assert agrid.n_cells % 2 == 0


@pytest.mark.parametrize("n_cells", [0, 1, 3])
def test_age_grid_needs_an_even_cell_count_for_simpson(n_cells):
    with pytest.raises(ConfigError, match="even cell count"):
        AgeGrid(da=0.01, n_cells=n_cells)


def test_age_grid_of_two_cells_is_one_simpson_panel():
    np.testing.assert_allclose(AgeGrid(da=0.3, n_cells=2).quad_weights(),
                               [0.1, 0.4, 0.1], rtol=1e-15)


def test_config_round_trip():
    cfg = constant_scenario()
    assert parse_config(json.dumps(cfg.to_dict())) == cfg
    cfg2 = singular_scenario(nx=17, da=0.02)
    assert parse_config(json.loads(json.dumps(cfg2.to_dict()))) == cfg2


SMALL = constant_scenario(nx=8, tol=1e-8)


@pytest.mark.parametrize("record, changes, message", [
    (SMALL, {"nx": 1}, "grids.nx"),
    (SMALL, {"da": 0.0}, "grids.da"),
    (SMALL, {"seed": -1}, "seed"),
    (build_model(SMALL), {"mutation_prob": 1.5}, "mutation probability"),
    (build_model(SMALL), {"competition": -1.0}, "competition rate"),
    (AgeGrid(da=0.01, n_cells=100), {"n_cells": 101}, "even cell count"),
], ids=["config_nx_1", "config_da_0", "config_seed_-1", "model_mutation_prob_1.5",
        "model_competition_-1", "age_grid_odd_cells"])
def test_a_replaced_record_passes_its_class_checks(record, changes, message):
    # replace builds the copy through the constructor, as presets, parse_config
    # and the command line's overrides do
    with pytest.raises(ConfigError, match=message):
        replace(record, **changes)
    assert replace(record) == record


def every_record():
    """One instance of each record class: configs, models, grids and solve results."""
    model = build_model(SMALL)
    tgrid, agrid = build_grids(SMALL, model)
    problem = MalthusProblem(model, tgrid, agrid)
    triple = solve_eigentriple(problem)
    ck, pd = problem.direct_pair(triple.lambda_star)
    return [SMALL, model, model.birth, model.mutation_kernel, tgrid, agrid,
            problem.factors, problem.mix, ck, pd, triple]


def test_records_are_immutable():
    records = every_record()
    assert sorted(type(r).__name__ for r in records) == [
        "AgeFactors", "AgeGrid", "CollapsedKernel", "EigenTriple", "KernelFamily",
        "MixForm", "PerronPair", "RateFamily", "RateModel", "ScenarioConfig", "TraitGrid"]
    for record in records:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError, match="immutable"):
            record.added = 1
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)


def test_records_are_built_by_position_or_name():
    grid = AgeGrid(0.01, n_cells=100)
    assert grid == AgeGrid(da=0.01, n_cells=100) != AgeGrid(da=0.02, n_cells=100)
    assert repr(grid) == "AgeGrid(da=0.01, n_cells=100)"
    assert replace(SMALL, nx=9).nx == 9 and SMALL.nx == 8
    assert replace(SMALL, seed=5).to_dict() == {**SMALL.to_dict(), "seed": 5}
    for args, kwargs in [((0.01,), {}), ((0.01, 100, 2), {}), ((0.01, 100), {"da": 0.01}),
                         ((0.01, 100), {"extra": 1})]:
        with pytest.raises(TypeError):
            AgeGrid(*args, **kwargs)


def test_config_rejects_unknown_keys():
    data = constant_scenario().to_dict()
    data["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(data)
    data = constant_scenario().to_dict()
    data["grids"]["typo"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)


def test_config_rejects_bad_grid_values():
    data = constant_scenario().to_dict()
    data["grids"]["nx"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)
    data["grids"]["nx"] = 8
    data["grids"]["tol"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(data)


def test_eval_rates_constant():
    model = build_model(constant_scenario())
    assert float(model.birth(0.3, 5.0)) == 2.0
    assert float(model.death(0.3, 5.0)) == 1.0
    assert float(model.mutation_kernel(0.3, 0.9)) == 1.0


def test_eval_rates_sqrt_gap():
    model = build_model(singular_scenario())
    assert float(model.birth(0.25, 1.0)) == pytest.approx(3.5)
    assert float(model.death(0.25, 1.0)) == 1.0


def test_rate_family_rejects_unknown_params():
    cfg = replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 2.0, "oops": 1}})
    with pytest.raises(ConfigError):
        build_model(cfg)


def test_gaussian_kernel_normalized():
    cfg = replace(
        constant_scenario(),
        kernel={"family": "gaussian", "params": {"width": 0.15}})
    model = build_model(cfg)
    y = np.linspace(0, 1, 20001)
    for x in (0.0, 0.37, 1.0):
        mass = np.trapezoid(model.mutation_kernel(x, y), y)
        assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("width", [0.05, 0.15, 1.0])
def test_gaussian_kernel_bounds_hold(width):
    cfg = replace(
        constant_scenario(),
        kernel={"family": "gaussian", "params": {"width": width}})
    k = build_model(cfg).mutation_kernel
    grid = np.linspace(0.0, 1.0, 1601)          # includes the four corners
    vals = k(grid[:, None], grid[None, :])
    assert 0.0 < k.inf <= vals.min()
    assert k.inf <= float(k(0.0, 1.0)) and k.inf <= float(k(1.0, 0.0))


@settings(max_examples=25)
@given(x=st.floats(0.0, 1.0), a=st.floats(0.0, 50.0))
def test_rates_nonnegative_on_domain(x, a):
    model = build_model(singular_scenario())
    b, d = float(model.birth(x, a)), float(model.death(x, a))
    assert b >= 0 and d >= model.death_floor


def test_validate_assumptions_constant(constant_setup):
    s = constant_setup
    rep = validate_assumptions(s.model, s.tgrid, s.agrid)
    assert all(rep.checks.values())


def test_validate_assumptions_singular(singular_setup):
    s = singular_setup
    rep = validate_assumptions(s.model, s.tgrid, s.agrid)
    assert all(rep.checks.values())


def test_validate_assumptions_flags_zero_birth():
    cfg = replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 0.0}})
    model = build_model(cfg)
    tg = midpoint_grid(model.trait_domain, 8)
    rep = validate_assumptions(model, tg, AgeGrid(da=0.01, n_cells=100))
    assert not rep.checks["support_overlap_sampled"]
    assert not all(rep.checks.values())


def test_kernel_normalized_gaussian_and_scaled():
    cfg = replace(
        constant_scenario(nx=32),
        kernel={"family": "gaussian", "params": {"width": 0.15}}, p=0.4)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    rep = validate_assumptions(model, tg, ag)
    assert rep.checks["kernel_normalized"]
    assert rep.details["kernel_normalized"]["max_defect"] < 1e-12

    k = model.mutation_kernel
    scaled = replace(k, fn=lambda x, y, fn=k.fn: 1.001 * fn(x, y))
    rep = validate_assumptions(replace(model, mutation_kernel=scaled), tg, ag)
    assert not rep.checks["kernel_normalized"]
    assert rep.details["kernel_normalized"]["max_defect"] == pytest.approx(1e-3, rel=1e-6)


def test_model_rejects_bad_parameters():
    cfg = constant_scenario()
    with pytest.raises(ConfigError):
        build_model(replace(cfg, p=0.0))
    with pytest.raises(ConfigError):
        build_model(replace(cfg, p=1.0))
    with pytest.raises(ConfigError):
        build_model(replace(cfg, c=-1.0))
    with pytest.raises(ConfigError):
        build_model(replace(
            cfg, death={"family": "constant", "params": {"value": 0.0}}))


def test_logistic_age_rate_is_its_floor_where_exp_overflows():
    fam = _make_rate("logistic_age",
                     {"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.001}, (0.0, 1.0))
    ages = np.array([0.0, 0.2, 0.29])     # -(a - a0) / scale = 1000, 800, 710: past 709
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fam.fn(0.5, ages)
    assert got.tolist() == [0.5, 0.5, 0.5]
    assert [fam.scalar(0.5, float(a)) for a in ages] == [0.5, 0.5, 0.5]


def test_tabulated_rate_bilinear():
    cfg = replace(
        constant_scenario(),
        birth={"family": "tabulated",
               "params": {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 10.0],
                          "values": [[1.0, 1.0], [3.0, 3.0]]}})
    model = build_model(cfg)
    assert float(model.birth(0.5, 2.0)) == pytest.approx(2.0)
    assert model.birth.sup == 3.0 and model.birth.inf == 1.0


AGE_FAMILIES = {
    "constant": ({"value": 2.0}, 0.0),
    "affine": ({"base": 1.0, "slope_x": 0.5}, 0.0),
    "affine_slope_a": ({"base": 1.0, "slope_a": 0.5}, math.inf),
    "sqrt_gap": ({"bbar": 4.0}, 0.0),
    "gaussian_bump": ({"base": 1.0, "amp": 2.0, "center": 0.3, "width": 0.1}, 0.0),
    "logistic_age": ({"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.4}, math.inf),
    "tabulated": ({"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 0.3, 1.5],
                   "values": [[0.0, 3.0, 2.0], [1.0, 2.0, 2.5]]}, 1.5),
}


@pytest.mark.parametrize("case", sorted(AGE_FAMILIES))
def test_each_rate_family_states_the_age_past_which_it_is_flat(case):
    # fn reads no age past age_flat_from, and reads age everywhere when it is inf
    params, flat = AGE_FAMILIES[case]
    rate = _make_rate(case.replace("_slope_a", ""), params, (0.0, 1.0))
    assert rate.age_flat_from == flat
    x = np.linspace(0.0, 1.0, 5)[:, None]
    ages = (0.0 if math.isinf(flat) else flat) + np.array([0.0, 0.01, 0.7, 30.0])[None, :]
    values = rate(x, ages)
    if math.isinf(flat):
        assert np.all(np.diff(values, axis=1) != 0.0)
    else:
        np.testing.assert_array_equal(values, np.repeat(values[:, :1], ages.size, axis=1))
    if case == "tabulated":     # and reads it just before
        assert np.any(rate(x, flat - 0.01) != values[:, 0])


# (where, family, params, what the message names): one case per guard of the
# families, the kernels and the config reader
FAMILY_GUARDS = [
    ("birth", "constant", {"value": -1.0}, "nonnegative"),
    ("death", "affine", {"base": 1.0, "slope_a": -0.5}, "slope_a < 0"),
    ("death", "affine", {"base": 0.5, "slope_x": -1.0}, "negative on the trait domain"),
    ("birth", "sqrt_gap", {"bbar": 0.5}, "right edge"),
    ("birth", "gaussian_bump", {"base": 1.0, "amp": 1.0, "center": 0.5, "width": 0.0},
     "width > 0"),
    ("birth", "logistic_age", {"low": 2.0, "high": 1.0, "midpoint": 0.0, "scale": 1.0},
     "low <= high"),
    ("birth", "tabulated", {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 1.0],
                            "values": [[1.0, 1.0]]}, "shape"),
    ("birth", "tabulated", {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 1.0],
                            "values": [[1.0, -1.0], [1.0, 1.0]]}, "nonnegative"),
    ("birth", "logistic", {}, "unknown rate family 'logistic'"),
    ("kernel", "gaussian", {"width": 0.0}, "width > 0"),
    ("kernel", "laplace", {}, "unknown kernel family 'laplace'"),
    ("kernel", "gaussian", {"width": 0.1, "oops": 1.0}, "unknown keys in params of "
                                                       "family 'gaussian': ['oops']"),
    ("kernel", "uniform", {"width": 0.1}, "unknown keys in params of family 'uniform'"),
]


@pytest.mark.parametrize("where, family, params, named", FAMILY_GUARDS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_each_family_guard_is_a_config_error(where, family, params, named):
    spec = {"family": family, "params": params}
    cfg = replace(constant_scenario(), **{where: spec})
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    assert named in str(err.value)


# every parameter is read by one rule: a JSON object of exactly the family's
# keys, each a finite number (a finite array for `tabulated`)
TABLE = {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 1.0], "values": [[1.0, 2.0], [3.0, 4.0]]}
MALFORMED_PARAMS = [
    ("birth", "constant", {}, "missing keys in params of family 'constant': ['value']"),
    ("death", "gaussian_bump", {"base": 1.0, "amp": 1.0, "center": 0.5},
     "missing keys in params of family 'gaussian_bump': ['width']"),
    ("kernel", "gaussian", {}, "missing keys in params of family 'gaussian': ['width']"),
    ("birth", "constant", {"value": "two"}, "'constant': value must be a finite number"),
    ("birth", "constant", {"value": None}, "'constant': value must be a finite number"),
    ("birth", "constant", {"value": [2.0]}, "'constant': value must be a finite number"),
    ("birth", "constant", None, "params of family 'constant' must be a JSON object"),
    ("kernel", "uniform", [], "params of family 'uniform' must be a JSON object"),
    ("birth", "constant", {"value": math.nan}, "'constant': value"),
    ("death", "constant", {"value": math.nan}, "'constant': value"),
    ("death", "constant", {"value": math.inf}, "'constant': value"),
    ("death", "affine", {"base": 1.0, "slope_x": -math.inf}, "'affine': slope_x"),
    ("kernel", "gaussian", {"width": math.nan}, "'gaussian': width"),
    ("kernel", "gaussian", {"width": math.inf}, "'gaussian': width"),
    ("birth", "logistic_age", {"low": math.nan, "high": 3.0, "midpoint": 1.0, "scale": 0.5},
     "'logistic_age': low"),
    ("birth", "logistic_age", {"low": 1.0, "high": 3.0, "midpoint": 1.0, "scale": math.inf},
     "'logistic_age': scale"),
    ("birth", "sqrt_gap", {"bbar": -math.inf}, "'sqrt_gap': bbar"),
    ("birth", "tabulated", {**TABLE, "values": [[1.0, math.nan], [3.0, 4.0]]},
     "'tabulated': values must be finite numbers"),
    ("birth", "tabulated", {**TABLE, "x_nodes": [0.0, [1.0]]}, "'tabulated': x_nodes"),
    ("birth", "tabulated", {**TABLE, "x_nodes": [1.0, 0.0]}, "x_nodes must be a strictly"),
    ("birth", "tabulated", {**TABLE, "a_nodes": [0.0, 0.0]}, "a_nodes must be a strictly"),
    ("birth", "tabulated", {**TABLE, "x_nodes": [0.5], "values": [[1.0, 2.0]]},
     "x_nodes must be a strictly increasing list of at least two nodes"),
    ("birth", "tabulated", {**TABLE, "a_nodes": [[0.0, 1.0]]}, "a_nodes must be a strictly"),
]


@pytest.mark.parametrize("where, family, params, named", MALFORMED_PARAMS)
def test_malformed_family_parameters_are_config_errors(where, family, params, named):
    cfg = replace(constant_scenario(), **{where: {"family": family,
                                                              "params": params}})
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    assert named in str(err.value)


def test_family_parameters_convert_as_float_does():
    # a numeric string and an integer are read as float() reads them, and
    # affine's slopes default to 0
    cfg = replace(constant_scenario(), birth={
        "family": "affine", "params": {"base": "2", "slope_x": 1}})
    birth = build_model(cfg).birth
    assert birth.params == {"base": 2.0, "slope_x": 1.0, "slope_a": 0.0}
    assert all(type(v) is float for v in birth.params.values())


@pytest.mark.parametrize("data, named", [
    ({"trait_domain": [0.0, 1.0]}, "missing keys in config"),
    ([1, 2], "config must be a JSON object"),
    ({**constant_scenario().to_dict(), "trait_domain": [0.0]}, "trait_domain must be [lo, hi]"),
    ({**constant_scenario().to_dict(), "trait_domain": 1.0}, "trait_domain must be [lo, hi]"),
], ids=["missing_keys", "not_an_object", "domain_of_one", "domain_scalar"])
def test_config_reader_guards(data, named):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(data))
    assert named in str(err.value)
