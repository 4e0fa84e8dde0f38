import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import cell_path, lattice_collapse
from structpop import kernel
from structpop.kernel import (TAIL_RTOL, age_factors, cell_integrals,
                              choose_age_truncation, collapse, horizon, mix_matrix,
                              prefix_cells, profiles, row_blocks, survival_matrix,
                              tail_bound)
from structpop.model import (AgeGrid, ConfigError, build_grids, build_model,
                             constant_scenario, midpoint_grid, singular_scenario)


@pytest.fixture(scope="module")
def const_model():
    return build_model(constant_scenario())


def clonal_rate(model, tgrid, agrid, lam):
    """r = Mix.d sB at lam, the direct operator's diagonal."""
    return mix_matrix(model, tgrid).scaled(lattice_collapse(model, tgrid, agrid, lam).sB).d


def survival_at(model, x, a, lam):
    """R_lambda(x, a) from `survival_matrix` on the lattice of step 0.01 ending at a."""
    ages = 0.01 * np.arange(round(a / 0.01) + 1)
    assert ages[-1] == a
    return survival_matrix(model, np.array([x]), ages, lam)[0, -1]


def test_survival_at_zero_age(const_model):
    assert survival_at(const_model, 0.5, 0.0, 0.7) == 1.0


def test_survival_closed_form(const_model):
    # constant D=1: R = e^{-(D+lam) a}
    assert survival_at(const_model, 0.5, 1.0, 1.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12)
    assert survival_at(const_model, 0.1, 12.0, 0.0) == pytest.approx(
        math.exp(-12.0), rel=1e-12)


def test_survival_decreasing_in_age(const_model):
    ages = 0.01 * np.arange(300)
    R = survival_matrix(const_model, np.array([0.5]), ages, 0.3)[0]
    assert R[0] == 1.0
    assert np.all(np.diff(R) < 0)


def test_survival_rejects_divergent_lambda(const_model):
    with pytest.raises(ValueError):
        survival_at(const_model, 0.5, 1.0, -1.0)


def test_age_truncation_oracles(const_model):
    # ln(||B|| / (tol (D+lam))) / (D+lam), rounded up to the lattice
    a0 = choose_age_truncation(const_model, 0.0, 1e-10, 0.01)
    assert a0 == pytest.approx(23.72, abs=0.011)
    a1 = choose_age_truncation(const_model, 1.0, 1e-10, 0.01)
    assert a1 == pytest.approx(11.52, abs=0.011)
    assert tail_bound(const_model, 0.0, a0) < 1e-10


def test_age_truncation_degenerate_tolerance(const_model):
    # tol above the whole integral: still at least one lattice step
    assert choose_age_truncation(const_model, 0.0, 10.0, 0.01) == 0.01


def test_collapse_closed_forms(const_model):
    tg = midpoint_grid((0.0, 1.0), 16)
    ag = AgeGrid(da=0.01, n_cells=2372)
    ck0 = lattice_collapse(const_model, tg, ag, 0.0)
    # (1-p) B/(lam+D) = 1.4 and p B k/(lam+D) = 0.6
    assert np.abs(clonal_rate(const_model, tg, ag, 0.0) - 1.4).max() < 1e-8
    p = const_model.mutation_prob                     # K = p sB k with k = 1
    assert np.abs(p * ck0.sB - 0.6).max() < 1e-8
    ck1 = lattice_collapse(const_model, tg, ag, 1.0)
    assert np.abs(clonal_rate(const_model, tg, ag, 1.0) - 0.7).max() < 1e-8
    assert np.abs(p * ck1.sB - 0.3).max() < 1e-8


def test_collapse_zero_birth():
    cfg = dataclasses.replace(
        constant_scenario(),
        birth={"family": "constant", "params": {"value": 0.0}})
    model = build_model(cfg)
    tg = midpoint_grid((0.0, 1.0), 8)
    ck = lattice_collapse(model, tg, AgeGrid(da=0.01, n_cells=100), 0.5)
    assert np.all(ck.sB == 0.0)


def test_collapse_monotone_in_lambda(const_model):
    tg = midpoint_grid((0.0, 1.0), 8)
    ag = AgeGrid(da=0.01, n_cells=2372)
    prev, clonal = None, 1 - const_model.mutation_prob
    for lam in (0.0, 0.5, 1.0, 2.0):
        ck = lattice_collapse(const_model, tg, ag, lam)
        if prev is not None:
            assert np.all(clonal * prev.sB > clonal * ck.sB + 1e-6)    # r = (1 - p) sB
            assert np.all(prev.sB >= ck.sB)
        prev = ck


def test_collapse_lipschitz_in_lambda(const_model):
    tg = midpoint_grid((0.0, 1.0), 8)
    ag = AgeGrid(da=0.01, n_cells=2372)
    lam0, h = 0.5, 1e-3
    r0 = clonal_rate(const_model, tg, ag, lam0)
    r1 = clonal_rate(const_model, tg, ag, lam0 + h)
    # |dr/dlam| <= (1-p) ||B|| / (D+lam)^2 here; allow slack
    L = const_model.birth.sup / (const_model.death_floor + lam0) ** 2
    assert np.abs(r1 - r0).max() <= 1.1 * L * h


def test_collapse_sqrt_gap_positive():
    from structpop.model import singular_scenario
    model = build_model(singular_scenario())
    tg = midpoint_grid((0.0, 1.0), 32)
    ag = AgeGrid(da=0.01, n_cells=2472)
    ck = lattice_collapse(model, tg, ag, 0.0)
    r = clonal_rate(model, tg, ag, 0.0)
    assert np.all(r > 0)
    assert np.all(ck.sB >= 0)
    # r follows (1-p) B(x)/D: decreasing in x
    assert np.all(np.diff(r) < 0)
    assert r[0] == pytest.approx(0.95 * (4 - math.sqrt(tg.nodes[0])), rel=1e-6)


def reference_cell_integrals(model, xs, ages, lam):
    """The per-cell product quadrature evaluated cell by cell at one lambda.

    On [a_j, a_{j+1}]: (average endpoint B) R_lambda(a_j) (1 - e^{-z}) / rate,
    with rate read off the survival ratio of the cell and z = rate h, and
    h (1 - z / 2) for the exponential factor as z -> 0.
    """
    R = survival_matrix(model, xs, ages, lam)
    bvals = model.birth(xs[:, None], ages[None, :])
    cells = np.empty((xs.size, ages.size - 1))
    for i in range(xs.size):
        for j in range(ages.size - 1):
            h = ages[j + 1] - ages[j]
            ratio = max(R[i, j + 1] / max(R[i, j], 1e-300), 1e-300)
            rate = -math.log(ratio) / h
            z = rate * h
            factor = h * (1.0 - 0.5 * z) if abs(z) < 1e-8 else -math.expm1(-z) / rate
            cells[i, j] = 0.5 * (bvals[i, j] + bvals[i, j + 1]) * R[i, j] * factor
    return cells


REFERENCE_CASES = {
    "constant": constant_scenario(nx=6),
    "singular": singular_scenario(nx=6),
    "affine_death_in_age": dataclasses.replace(
        constant_scenario(nx=6),
        death={"family": "affine", "params": {"base": 1.0, "slope_x": 0.5,
                                              "slope_a": 0.3}}),
    "logistic_age_birth": dataclasses.replace(
        constant_scenario(nx=6),
        birth={"family": "logistic_age",
               "params": {"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.4}}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_factored_collapse_matches_reference_quadrature(case):
    # The presets' rates stop reading age at 0: their collapse is the closed-form
    # tail, the integral to infinity, which the reference summed over the
    # extended lattice gives to below roundoff. Rates that read age at every
    # age are summed over the lattice, as the reference is.
    model = build_model(REFERENCE_CASES[case])
    tg, ag = build_grids(REFERENCE_CASES[case], model)
    ages = 0.01 * np.arange(2 * ag.n_cells + 1)      # the extended lattice
    factors = age_factors(model, tg.nodes, ages)
    flat = model.age_flat_from == 0.0
    assert factors.n_cells == (0 if flat else ages.size - 1)
    p = model.mutation_prob
    for lam in (0.0, 1.0, 2.78, 4.0):
        ref = reference_cell_integrals(model, tg.nodes, ages if flat else ag.nodes, lam)
        sB = ref.sum(axis=1)
        for ck in (lattice_collapse(model, tg, ag, lam),
                   collapse(model, tg, ag, lam, factors=factors)):
            assert np.abs(ck.sB - sB).max() <= 1e-13 * sB.max()
            r = mix_matrix(model, tg).scaled(ck.sB).d
            assert np.abs(r - (1 - p) * sB).max() <= 1e-13 * sB.max()
        if not flat:
            cells = cell_integrals(age_factors(model, tg.nodes, ag.nodes), lam)
            assert np.abs(cells - ref).max() <= 1e-13 * ref.max()


def test_small_rate_branch_matches_reference():
    # lambda just above -D: the cell rate d + lambda is ~1e-12, so z < 1e-8
    const_model = build_model(cell_path(constant_scenario()))
    tg = midpoint_grid((0.0, 1.0), 3)
    ages = 0.01 * np.arange(201)
    lam = -1.0 + 1e-12
    ref = reference_cell_integrals(const_model, tg.nodes, ages, lam)
    cells = cell_integrals(age_factors(const_model, tg.nodes, ages), lam)
    assert np.abs(cells - ref).max() <= 1e-13 * ref.max()
    assert cells.sum(axis=1) == pytest.approx(np.full(3, 2.0 * 2.0), rel=1e-9)
    # at d + lambda = 0 exactly, (1 - e^{-z}) / z is 0/0: the branch gives its limit
    factors = age_factors(const_model, tg.nodes, ages)
    limit = cell_integrals(factors, -1.0)
    np.testing.assert_allclose(limit, factors.C * np.diff(ages) * np.exp(ages[:-1]),
                               rtol=1e-14)


def test_collapse_and_cell_integrals_share_one_formula():
    model = build_model(cell_path(singular_scenario()))
    tg = midpoint_grid((0.0, 1.0), 16)
    ag = AgeGrid(da=0.01, n_cells=500)
    extended = age_factors(model, tg.nodes, 0.01 * np.arange(1001))
    for lam in (0.0, 2.5):
        cells = cell_integrals(age_factors(model, tg.nodes, ag.nodes), lam)
        # bit for bit: the lattice factors are a prefix of the extended ones
        np.testing.assert_array_equal(lattice_collapse(model, tg, ag, lam).sB, cells.sum(axis=1))
        np.testing.assert_array_equal(
            collapse(model, tg, ag, lam, factors=extended).sB, cells.sum(axis=1))


# the presets' rates through the cell path, and rates that read age at every age
HORIZON_CASES = {
    "constant": cell_path(constant_scenario(nx=16)),
    "singular": cell_path(singular_scenario(nx=16)),
    "affine_death_in_age": REFERENCE_CASES["affine_death_in_age"],
    "logistic_age_birth": dataclasses.replace(REFERENCE_CASES["logistic_age_birth"], nx=16),
}


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_collapse_to_the_horizon_matches_the_whole_lattice(case):
    model = build_model(HORIZON_CASES[case])
    tg, ag = build_grids(HORIZON_CASES[case], model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    for lam in (0.0, 1.0, 2.78, 4.0):
        ck = collapse(model, tg, ag, lam, factors=factors)
        whole = cell_integrals(factors, lam).sum(axis=1)
        assert np.all(np.abs(ck.sB - whole) <= 4 * np.spacing(whole))
        # a sum that stops early leaves out less than TAIL_RTOL of every row
        first = cell_integrals(factors, lam, 1)[:, 0]
        if ck.age_cells < ag.n_cells:
            assert tail_bound(model, lam, ag.nodes[ck.age_cells]) <= TAIL_RTOL * first.min()
        else:
            assert lam < 2.0


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_horizon_is_non_increasing_in_lambda(case):
    model = build_model(HORIZON_CASES[case])
    tg, ag = build_grids(HORIZON_CASES[case], model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    lams = np.linspace(-0.9 * model.death_floor, 10.0, 60)
    cells = [collapse(model, tg, ag, lam, factors=factors).age_cells for lam in lams]
    assert cells[0] == ag.n_cells and cells[-1] < ag.n_cells // 4
    assert all(a >= b for a, b in zip(cells, cells[1:]))


def test_horizon_is_the_first_node_under_the_bound(const_model):
    ages = 0.01 * np.arange(3001)
    first = np.array([0.02, 0.03])
    n = horizon(const_model, 1.0, first, ages)
    limit = TAIL_RTOL * 0.02
    assert tail_bound(const_model, 1.0, ages[n]) <= limit < tail_bound(
        const_model, 1.0, ages[n - 1])
    # a zero first cell, or a bound no node meets: the whole lattice
    assert horizon(const_model, 1.0, np.array([0.0, 0.03]), ages) == 3000
    assert horizon(const_model, 1.0, first, ages[:n]) == n - 1


def scanned_horizon(model, lam, first, ages):
    """horizon by brute force: the first node a_j, j >= 1, with tail_bound <=
    TAIL_RTOL min(first), or the whole lattice for a zero first cell or none."""
    n_cells = ages.size - 1
    limit = TAIL_RTOL * first.min()
    if not limit > 0:
        return n_cells
    return next((j for j in range(1, n_cells + 1)
                 if tail_bound(model, lam, ages[j]) <= limit), n_cells)


LATE_BIRTHS = dataclasses.replace(constant_scenario(nx=8), birth={
    "family": "tabulated", "params": {"x_nodes": [0.0, 1.0],
                                      "a_nodes": [0.0, 0.01, 0.02, 1.0],
                                      "values": [[0.0, 0.0, 2.0, 2.0]] * 2}})
SCAN_CASES = {**HORIZON_CASES, "late_births": LATE_BIRTHS}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
@pytest.mark.parametrize("da, tol", [(0.01, 1e-10), (0.005, 1e-10), (0.02, 1e-6)])
def test_horizon_is_the_scanned_first_node(case, da, tol):
    cfg = dataclasses.replace(SCAN_CASES[case], nx=8, da=da, tol=tol)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    x, past = tg.nodes[:, None], ag.a_max + ag.nodes[:2]    # the continuation's first cell
    b = (model.birth(x, past[0]) + model.birth(x, past[1])) / 2
    d = (model.death(x, past[0]) + model.death(x, past[1])) / 2
    for lam in np.linspace(-0.9 * model.death_floor, 20.0, 24):
        first = cell_integrals(factors, lam, 1)[:, 0]
        z = (d + lam) * ag.da
        after = (b * ag.da * -np.expm1(-z) / z)[:, 0]    # over R(A_max): relative to its start
        for f in (first, after):
            assert horizon(model, lam, f, ag.nodes) == scanned_horizon(model, lam, f, ag.nodes)


@pytest.mark.parametrize("case", ["constant", "singular"])
def test_horizon_scan_on_a_long_lattice_for_tiny_and_large_first_cells(case):
    model = build_model(SCAN_CASES[case])
    ages = 0.01 * np.arange(3001)
    for lam in np.linspace(-0.9 * model.death_floor, 20.0, 24):
        for f in (0.0, 1e-310, 1e-300, 1e-200, 1e-20, 0.02, 1.0, 5.0, 1e30):
            first = np.array([f, 1.5 * f])
            assert horizon(model, lam, first, ages) == scanned_horizon(model, lam, first, ages)


def test_collapse_falls_back_to_the_whole_lattice_where_births_start_late():
    # B = 0 on the first age cell: the first column bounds no row sum from
    # below, so the sum runs over every cell the factors hold: the whole
    # lattice through the cell path, and the prefix to a_f = 1 with its tail
    whole, prefix = (build_model(cfg) for cfg in (cell_path(LATE_BIRTHS), LATE_BIRTHS))
    tg, ag = build_grids(LATE_BIRTHS, prefix)
    factors = age_factors(whole, tg.nodes, ag.nodes)
    assert np.all(factors.C[:, 0] == 0.0) and np.all(factors.C[:, 1] > 0.0)
    ck = collapse(whole, tg, ag, 4.0, factors=factors)
    assert ck.age_cells == ag.n_cells
    np.testing.assert_array_equal(ck.sB, cell_integrals(factors, 4.0).sum(axis=1))
    short = collapse(prefix, tg, ag, 4.0, factors=age_factors(prefix, tg.nodes, ag.nodes))
    assert short.age_cells == prefix_cells(prefix, ag.nodes) == 100
    assert np.all(np.abs(short.sB - ck.sB) <= 4 * np.spacing(ck.sB))


def whole_grid_age_factors(model, xs, ages):
    """C and d formed on the whole (nx, n_cells) grid at once, by the formula
    `age_factors` follows row by row."""
    def cell_means(rate):
        vals = rate(xs[:, None], ages[None, :])
        return 0.5 * (vals[:, :-1] + vals[:, 1:])
    d = cell_means(model.death)
    cum = np.cumsum(np.hstack([np.zeros((xs.size, 1)), d * np.diff(ages)]), axis=1)
    return cell_means(model.birth) * np.exp(-cum)[:, :-1], d


BLOCKED_CASES = {"singular": cell_path(singular_scenario(nx=256)),
                 "affine_death_in_age": dataclasses.replace(
                     REFERENCE_CASES["affine_death_in_age"], nx=256)}


@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_row_blocks_keep_the_bits_of_the_whole_grid(case):
    # each row's sums run in the same order whichever block holds the row
    model = build_model(BLOCKED_CASES[case])
    tg, ag = build_grids(BLOCKED_CASES[case], model)
    assert len(list(row_blocks(tg.n, ag.n_cells + 1))) > 1
    factors = age_factors(model, tg.nodes, ag.nodes)
    C, d = whole_grid_age_factors(model, tg.nodes, ag.nodes)
    np.testing.assert_array_equal(factors.C, C)
    np.testing.assert_array_equal(factors.d, d)
    for lam in (0.0, 1.0, 2.78):
        ck = collapse(model, tg, ag, lam, factors=factors)
        assert len(list(row_blocks(tg.n, ck.age_cells))) > 1
        np.testing.assert_array_equal(
            ck.sB, cell_integrals(factors, lam, ck.age_cells).sum(axis=1))


# a_f = 1.5: the birth stops reading age at 1, the death at 1.5
TABULATED = dataclasses.replace(constant_scenario(nx=16), birth={
    "family": "tabulated", "params": {"x_nodes": [0.0, 0.5, 1.0], "a_nodes": [0.0, 0.3, 1.0],
                                      "values": [[0.0, 3.0, 2.0], [0.5, 2.5, 1.5],
                                                 [1.0, 2.0, 2.5]]}},
    death={"family": "tabulated", "params": {"x_nodes": [0.0, 1.0], "a_nodes": [0.0, 0.5, 1.5],
                                             "values": [[1.0, 1.5, 1.2], [0.8, 1.0, 2.0]]}})
TAIL_CASES = {"constant": (constant_scenario(nx=16), 0),
              "singular": (singular_scenario(nx=16), 0),
              "tabulated": (TABULATED, 150)}


def whole_lattice_sums(model, tg, ag, lam):
    """sB and q of the product quadrature summed cell by cell over the lattice
    extended to 2 A_max, whose remainder lies below roundoff at lambda >= 0.5."""
    ext = ag.da * np.arange(2 * ag.n_cells + 1)
    cells = cell_integrals(kernel.AgeFactors(
        ext, *whole_grid_age_factors(model, tg.nodes, ext), None, None), lam)
    tails = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1][:, :ag.n_cells + 1]
    return cells.sum(axis=1), tails / survival_matrix(model, tg.nodes, ag.nodes, lam)


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_prefix_and_tail_match_the_whole_lattice_sum(case):
    # The factors stop at the first node at or past a_f, and the cells past it
    # are summed in closed form: sB to a few ulps of the whole lattice's sum (6
    # at most, measured), R and q to the rounding of the cell path's running
    # sums (R 2.5e-12 and q 9e-14 with the tabulated aging death, below 2e-14
    # on the presets). A tail taken from the node after a_f's misses one cell,
    # 1-2 % of each sum.
    config, n_cells = TAIL_CASES[case]
    model = build_model(config)
    tg, ag = build_grids(config, model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    assert factors.n_cells == prefix_cells(model, ag.nodes) == n_cells
    assert factors.C.shape == factors.d.shape == (tg.n, n_cells)
    for lam in (0.5, 1.0, 2.78, 4.0):
        ck = collapse(model, tg, ag, lam, factors)
        sB, q_ref = whole_lattice_sums(model, tg, ag, lam)
        assert ck.age_cells == n_cells
        assert np.all(np.abs(ck.sB - sB) <= 16 * np.spacing(sB))
        R, q = profiles(model, tg.nodes, factors, ag, lam)
        R_ref = survival_matrix(model, tg.nodes, ag.nodes, lam)
        assert np.abs(R - R_ref).max() <= 1e-11 * R_ref.max()
        assert np.all(np.abs(R - R_ref) <= 1e-11 * R_ref)
        assert np.all(np.abs(q - q_ref) <= 2e-13 * q_ref)
        if n_cells == 0:        # the continuum's closed forms, to the rounding of one division
            B, D = model.birth(tg.nodes, 0.0), model.death(tg.nodes, 0.0)
            np.testing.assert_array_equal(ck.sB, B / (D + lam))
            np.testing.assert_array_equal(q, np.repeat((B / (D + lam))[:, None], q.shape[1], 1))
            np.testing.assert_array_equal(R, np.exp(-np.multiply.outer(D + lam, ag.nodes)))


def test_collapse_at_lambda_zero_adds_what_the_lattice_end_leaves_out():
    # at lambda = 0 the sum over the lattice stops at A_max, where the tail
    # bound is tol = 1e-10: the closed form adds that remainder
    config = constant_scenario(nx=4)
    model = build_model(config)
    tg, ag = build_grids(config, model)
    ck = collapse(model, tg, ag, 0.0, age_factors(model, tg.nodes, ag.nodes))
    np.testing.assert_array_equal(ck.sB, np.full(tg.n, 2.0))
    cut = lattice_collapse(build_model(cell_path(config)), tg, ag, 0.0)
    assert np.all(0.0 < ck.sB - cut.sB) and np.all(ck.sB - cut.sB <= config.tol)


def traced_peak(call):
    """The peak of what call() allocates, by tracemalloc, and call's value."""
    tracemalloc.start()
    try:
        value = call()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


# In units of one (nx, n_cells) grid, 2442 cells with the singular preset's
# rates at nx = 256, through the cell path. A row block is
# kernel.BLOCK_BYTES // (8 (n_cells + 1)) = 26 trait rows (10 blocks), 0.10
# grid per (rows, n_cells) temporary.
MEMORY_CASE = cell_path(singular_scenario(nx=256))


def test_age_factors_form_no_whole_grid_temporary():
    # C and d are 2 grids. Beside them each block holds the running death
    # integral and one rate's endpoint values, 0.20 grid: 2.24 grids read,
    # where the whole-grid formula (d, the death integral, the birth values
    # and C) reads 4.03. The bound leaves a quarter grid over.
    model = build_model(MEMORY_CASE)
    tg, ag = build_grids(MEMORY_CASE, model)
    peak, _ = traced_peak(lambda: age_factors(model, tg.nodes, ag.nodes))
    assert peak <= 2.5 * (8 * tg.n * ag.n_cells)


def test_collapse_sums_its_cells_by_row_blocks():
    # At lambda = 0 the sum runs to the whole lattice. Each block holds
    # cell_integrals' -z and cells at once: 0.20 grid read, where summing the
    # whole grid at once reads 2.00. The bound leaves a tenth of a grid over.
    model = build_model(MEMORY_CASE)
    tg, ag = build_grids(MEMORY_CASE, model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    peak, ck = traced_peak(lambda: collapse(model, tg, ag, 0.0, factors=factors))
    assert ck.age_cells == ag.n_cells
    assert peak <= 0.3 * (8 * tg.n * ag.n_cells)


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_profiles_form_R_as_survival_matrix_does(case):
    # bit for bit, so that N = mu R is the same grid either way
    model = build_model(HORIZON_CASES[case])
    tg, ag = build_grids(HORIZON_CASES[case], model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    for lam in (0.5, 2.78):
        R, q = profiles(model, tg.nodes, factors, ag, lam)
        np.testing.assert_array_equal(R, survival_matrix(model, tg.nodes, ag.nodes, lam))
        assert np.all(np.isfinite(q)) and np.all(q > 0)


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_profiles_agree_across_age_blocks(case, monkeypatch):
    # SPAN = 5 cuts [0, A_max + L] into blocks, some of them past A_max, each
    # with its own prefix sum from its start: q is the one-block q to rounding,
    # which the ulps of the one block's exponents set (1e-14 with aging deaths)
    model = build_model(HORIZON_CASES[case])
    tg, ag = build_grids(HORIZON_CASES[case], model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    R, q = profiles(model, tg.nodes, factors, ag, 1.0)
    monkeypatch.setattr(kernel, "SPAN", 5.0)
    R5, q5 = profiles(model, tg.nodes, factors, ag, 1.0)
    np.testing.assert_array_equal(R5, R)
    assert np.abs(q5 - q).max() <= 2e-14 * q.max()


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_profile_lattice_is_the_shortest_even_prefix_under_the_whole_bound(case):
    model = build_model(SCAN_CASES[case])
    _, ag = build_grids(SCAN_CASES[case], model)
    bound = tail_bound(model, 0.0, ag.a_max)
    assert kernel.profile_lattice(model, 0.0, ag) == ag
    for lam in (0.05, 0.5, 1.0, 2.78, 10.0, 1e3):
        short = kernel.profile_lattice(model, lam, ag)
        assert short.da == ag.da and 2 <= short.n_cells < ag.n_cells
        assert short.n_cells % 2 == 0
        assert tail_bound(model, lam, short.a_max) <= bound
        if short.n_cells > 2:
            assert tail_bound(model, lam, (short.n_cells - 2) * ag.da) > bound


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_profiles_on_a_prefix_are_the_whole_lattices(case):
    # the continuation past the prefix's end runs as far as the tail rule
    # asks, past the prefix's own length: R is the same bits, q the same to
    # rounding; a continuation cut at the prefix's length moved q by 3.7e-11
    # to 1.8e-10 of its maximum
    model = build_model(HORIZON_CASES[case])
    tg, ag = build_grids(HORIZON_CASES[case], model)
    factors = age_factors(model, tg.nodes, ag.nodes)
    for lam in (0.5, 2.78):
        R, q = profiles(model, tg.nodes, factors, ag, lam)
        short = kernel.profile_lattice(model, lam, ag)
        n = short.n_cells
        Rp, qp = profiles(model, tg.nodes, factors, short, lam)
        np.testing.assert_array_equal(Rp, R[:, :n + 1])
        assert np.abs(qp - q[:, :n + 1]).max() <= 4e-15 * q.max()


KERNELS = {"uniform": {"family": "uniform", "params": {}},
           "gaussian_0.15": {"family": "gaussian", "params": {"width": 0.15}},
           "gaussian_0.01": {"family": "gaussian", "params": {"width": 0.01}}}


@pytest.mark.parametrize("name, nx, form, rank", [
    ("uniform", 64, "factored", 1),
    ("uniform", 800, "factored", 1),
    ("gaussian_0.15", 800, "factored", 24),
    # its certified floor is 0: k underflows to exact zeros, held dense
    ("gaussian_0.01", 64, "dense", 64),
])
def test_mix_is_held_in_the_form_its_rule_gives(name, nx, form, rank):
    config = dataclasses.replace(singular_scenario(nx=nx), kernel=KERNELS[name])
    model = build_model(config)
    mix = kernel.mix_matrix(model, build_grids(config, model)[0])
    assert mix.summary() == {"form": form, "rank": rank, "rtol": kernel.MIX_RTOL}


def test_mix_is_dense_where_the_factor_would_pass_a_quarter_of_nx():
    # gaussian(0.15) needs rank 24-25 at every nx; at nx = 64 that passes 16
    config = dataclasses.replace(singular_scenario(nx=64), kernel=KERNELS["gaussian_0.15"])
    model = build_model(config)
    tgrid = build_grids(config, model)[0]
    mix = kernel.mix_matrix(model, tgrid)
    assert (mix.form, mix.rank) == ("dense", 64)
    k = model.mutation_kernel.matrix(tgrid.nodes)
    p = model.mutation_prob
    expected = p * tgrid.dx * k.T + (1.0 - p) * np.eye(64)
    np.testing.assert_allclose(mix.toarray(), expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("tol", [1e-320, 5e-324])
def test_a_tol_whose_tail_age_is_not_finite_is_a_config_error(const_model, tol):
    with pytest.raises(ConfigError, match="tail bound"):
        choose_age_truncation(const_model, 0.0, tol, 0.01)
