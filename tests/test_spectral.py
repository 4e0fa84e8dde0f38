
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import lattice_collapse
from structpop import spectral
from structpop.kernel import MIX_RTOL, MixForm, mix_matrix
from structpop.malthus import MalthusProblem
from structpop.model import (AgeGrid, build_grids, build_model, constant_scenario,
                             midpoint_grid, replace, singular_scenario)
from structpop.spectral import (PerronConvergenceError, _evaluate, adjoint_residual,
                                density_from_profile, perron, regime)


def mutation_free(n):
    """Mix = I: the clonal diagonal alone, a factor of rank 0."""
    return MixForm(np.ones(n), np.zeros((n, 0)), np.zeros((n, 0)))


def diagonal(r):
    """The operator of a mutation-free model whose sB is r: Mix = I, so diag(r)."""
    return mutation_free(len(r)).scaled(np.asarray(r, float))


def dense(M):
    """A square matrix held whole, as MixForm's dense form with a zero diagonal."""
    return MixForm(np.zeros(len(M)), M)


def direct_operator(model, tg, ag, lam):
    """Mix diag(sB) at lam, the direct operator, with its trait step."""
    return mix_matrix(model, tg).scaled(lattice_collapse(model, tg, ag, lam).sB), tg.dx


@pytest.fixture(scope="module")
def const_pair():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 2)
    ag = AgeGrid(da=0.01, n_cells=2372)
    return lattice_collapse(model, tg, ag, 0.0), mix_matrix(model, tg), tg


def test_operator_hand_example(const_pair):
    ck, mix, tg = const_pair
    M = mix.scaled(ck.sB)
    expected = np.array([[1.7, 0.3], [0.3, 1.7]])
    assert np.abs(M.toarray() - expected).max() < 1e-8
    assert np.array_equal(M.T.toarray(), M.toarray().T)
    assert np.array_equal(M.d, 0.7 * ck.sB)           # the clonal rate (1 - p) sB


def test_operator_diagonal_when_no_mutation():
    r = np.linspace(0.5, 1.5, 5)
    assert np.array_equal(diagonal(r).toarray(), np.diag(r))


def test_operator_rejects_size_mismatch(const_pair):
    ck, mix, _ = const_pair
    with pytest.raises(ValueError):
        mix.scaled(np.ones(3))
    with pytest.raises(ValueError):
        mix_matrix(build_model(constant_scenario()), midpoint_grid((0.0, 1.0), 3)).scaled(ck.sB)


def test_assembly_under_an_asymmetric_kernel_is_the_transpose():
    # the gaussian kernel is renormalised per row, so k(x, y) != k(y, x): the
    # direct operator reads k(x_j, x_i) and its dual k(x_i, x_j)
    model = build_model(replace(
        constant_scenario(), kernel={"family": "gaussian", "params": {"width": 0.15}}))
    tg = midpoint_grid((0.0, 1.0), 6)
    ck = lattice_collapse(model, tg, AgeGrid(da=0.01, n_cells=500), 0.4)
    p, sB, dx = model.mutation_prob, ck.sB, tg.dx
    r = (1 - p) * sB
    k = model.mutation_kernel(tg.nodes[:, None], tg.nodes[None, :])   # k[i, j] = k(x_i, x_j)
    assert not np.allclose(k, k.T)
    M = mix_matrix(model, tg).scaled(sB)
    expected = np.diag(r) + p * sB[None, :] * k.T * dx
    np.testing.assert_allclose(M.toarray(), expected, rtol=1e-15, atol=0.0)
    expected = np.diag(r) + p * sB[:, None] * k * dx
    np.testing.assert_allclose(M.T.toarray(), expected, rtol=1e-15, atol=0.0)
    assert np.array_equal(M.T.toarray(), M.toarray().T)


def test_adjoint_defect_machine_zero(const_pair):
    ck, mix, tg = const_pair
    M = mix.scaled(ck.sB)
    assert adjoint_residual(M, tg.dx, M.T.rows) <= 1e-14


def test_adjoint_defect_detects_perturbation(const_pair):
    ck, mix, tg = const_pair
    M = mix.scaled(ck.sB)
    Mt = M.T.toarray()
    Mt[0, 1] += 1e-3
    # defect scales with the perturbation times the quadrature weight
    assert adjoint_residual(M, tg.dx, lambda rows: Mt[rows]) == pytest.approx(
        1e-3 * tg.dx, rel=1e-9)


def test_perron_constant_model():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 32)
    ag = AgeGrid(da=0.01, n_cells=2372)
    pair0 = perron(*direct_operator(model, tg, ag, 0.0))
    assert pair0.rho == pytest.approx(2.0, abs=1e-6)
    assert np.abs(pair0.profile - 1.0).max() < 1e-8     # constant eigenfunction
    pair1 = perron(*direct_operator(model, tg, ag, 1.0))
    assert pair1.rho == pytest.approx(1.0, abs=1e-6)


def test_perron_diagonal_picks_max():
    tg = midpoint_grid((0.0, 1.0), 40)
    r = 1.0 + 0.3 * np.sin(3 * tg.nodes)
    pair = perron(diagonal(r), tg.dx)
    assert pair.rho == pytest.approx(float(r.max()), abs=1e-12)
    assert regime(pair.rho, float(r.max())) == "PossiblySingular"


def test_perron_matches_dense_eigensolver():
    # independent oracle on a small grid: full dense spectrum
    cfg = replace(
        constant_scenario(), nx=40,
        birth={"family": "gaussian_bump",
               "params": {"base": 1.5, "amp": 1.0, "center": 0.4, "width": 0.2}})
    model = build_model(cfg)
    tg = midpoint_grid((0.0, 1.0), 40)
    ag = AgeGrid(da=0.01, n_cells=2500)
    for lam in (0.0, 0.8):
        M, dx = direct_operator(model, tg, ag, lam)
        pair = perron(M, dx)
        eigs = np.linalg.eigvals(M.toarray())
        dominant = eigs[np.argmax(np.abs(eigs))]
        assert abs(dominant.imag) < 1e-10
        assert pair.rho == pytest.approx(float(dominant.real), abs=1e-8)
        # simple dominant eigenvalue: a clear gap to the rest
        rest = np.sort(np.abs(eigs))[-2]
        assert rest < pair.rho - 1e-6


def test_rho_identity_direct_dual():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 24)
    ag = AgeGrid(da=0.01, n_cells=2372)
    for lam in (0.0, 0.5, 2.0):
        M, dx = direct_operator(model, tg, ag, lam)
        rd = perron(M, dx).rho
        rq = perron(M.T, dx).rho
        assert abs(rd - rq) <= 1e-10 * rd


def test_rho_at_least_rbar():
    tg = midpoint_grid((0.0, 1.0), 16)
    rng = np.random.default_rng(7)
    r = 0.5 + rng.random(16)
    K = rng.random((16, 16))
    pair = perron(dense(np.diag(r) + K.T * tg.dx), tg.dx)
    assert pair.rho >= r.max() - 1e-10


def test_primitivity_small_grid(const_pair):
    ck, mix, tg = const_pair
    M = mix.scaled(ck.sB).toarray()
    P = np.linalg.matrix_power(M, tg.n)
    assert np.all(P > 0)


def test_regime_classification_constant():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 32)
    ag = AgeGrid(da=0.01, n_cells=2372)
    M, dx = direct_operator(model, tg, ag, 1.0)
    pair = perron(M, dx)
    assert regime(pair.rho, M.d.max()) == "Regular"
    assert pair.rho - M.d.max() == pytest.approx(0.3, abs=1e-6)


def test_density_from_profile_constant():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 32)
    ag = AgeGrid(da=0.01, n_cells=2372)
    M, dx = direct_operator(model, tg, ag, 1.0)
    u, res = density_from_profile(perron(M, dx), M, dx)
    assert np.abs(u - 1.0).max() < 1e-6
    assert res < 1e-6


def test_density_from_profile_takes_no_difference_of_the_clonal_rate():
    # at small p the mutant flux is a small part of M mu; forming it as
    # M mu - r mu loses about eps / p relative (4e-13 here)
    p = 2e-3
    model = build_model(replace(
        constant_scenario(), p=p, kernel={"family": "gaussian", "params": {"width": 0.15}}))
    tg = midpoint_grid((0.0, 1.0), 200)
    sB = lattice_collapse(model, tg, AgeGrid(da=0.01, n_cells=2000), 1.0).sB
    M = mix_matrix(model, tg).scaled(sB)
    pair = perron(M, tg.dx)
    k = model.mutation_kernel(tg.nodes[:, None], tg.nodes[None, :])    # k[i, j] = k(x_i, x_j)
    ref = (p * sB * k.T * tg.dx) @ pair.profile / (pair.rho - (1 - p) * sB)
    u, _ = density_from_profile(pair, M, tg.dx)
    np.testing.assert_allclose(u, ref / np.sum(ref * tg.dx), rtol=1e-14, atol=0.0)


def test_density_from_profile_rejects_singular():
    tg = midpoint_grid((0.0, 1.0), 10)
    M = diagonal(np.ones(10))
    with pytest.raises(ValueError):
        density_from_profile(perron(M, tg.dx), M, tg.dx)



def test_density_from_profile_tests_the_gap_not_the_label():
    # a pair carries no label: the direct solve alone, with no dual solve,
    # is refused on the singular preset at nx = 128, where its gap is closed
    config = singular_scenario(nx=128)
    model = build_model(config)
    tg, ag = build_grids(config, model)
    problem = MalthusProblem(model, tg, ag)
    lam = problem.find_lambda_star()
    ck, pd = problem.direct_pair(lam)
    assert regime(pd.rho, problem.clonal_rate(lam).max()) == "PossiblySingular"
    with pytest.raises(ValueError):
        density_from_profile(pd, problem.mix.scaled(ck.sB), tg.dx)

@settings(max_examples=20, deadline=None)
@given(M=arrays(np.float64, (6, 6), elements=st.floats(0.01, 2.0)))
def test_perron_random_nonnegative_matrices(M):
    # strictly positive entries make the matrix primitive; defective
    # nonnegative matrices would cap any residual-based estimate at sqrt(tol)
    M = M + 0.1 * np.eye(6)
    tg = midpoint_grid((0.0, 1.0), 6)
    pair = perron(dense(M), tg.dx)
    truth = float(np.abs(np.linalg.eigvals(M)).max())
    assert pair.rho == pytest.approx(truth, rel=1e-6, abs=1e-8)
    assert np.all(pair.profile >= 0)
    assert pair.profile.max() > 0


@pytest.fixture(scope="module")
def singular_ops():
    """Direct operators at two nearby lambdas: the singular preset at nx=400
    with a trait-dependent death rate, so the eigenvector moves with lambda."""
    cfg = replace(singular_scenario(nx=400), death={
        "family": "affine", "params": {"base": 1.0, "slope_x": 0.5}})
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    return [direct_operator(model, tg, ag, lam) for lam in (2.7, 2.75)]


def test_cold_perron_leaves_slow_power_iteration_early(singular_ops):
    pair = perron(*singular_ops[1])
    assert pair.path == "shift-invert"
    assert pair.iterations < 100          # the fixed rule spent 200 power steps
    lb, ub = pair.cw_bracket
    assert lb <= pair.rho <= ub and ub - lb <= 1e-11 * pair.rho


def test_cold_shift_invert_matches_dense_eigenvalues(singular_ops):
    M, dx = singular_ops[1]
    pair = perron(M, dx)
    assert pair.path == "shift-invert"
    eig = np.linalg.eigvals(M.toarray())
    truth = float(eig[np.abs(eig.imag) <= 1e-12 * np.abs(eig).max()].real.max())
    assert abs(pair.rho - truth) <= 1e-10 * truth


def test_perron_raises_with_the_last_iterate_when_both_phases_run_out(monkeypatch):
    # with nothing acceptable the residual reaches its floor, and FLOOR
    # iterations without a new least residual end the solve
    cfg = singular_scenario(nx=64)
    model = build_model(cfg)
    tg, ag = build_grids(cfg, model)
    op = direct_operator(model, tg, ag, 0.0)
    accepted = perron(*op)
    monkeypatch.setattr(spectral, "TOL", 0.0)
    monkeypatch.setattr(spectral, "ROUNDING", 0.0)
    with pytest.raises(PerronConvergenceError) as info:
        perron(*op)
    err = info.value
    assert accepted.iterations + spectral.FLOOR <= err.iterations
    assert err.iterations < accepted.iterations + 2 * spectral.FLOOR
    assert np.isfinite(err.rho) and err.rho == pytest.approx(accepted.rho, rel=1e-12)
    assert np.all(np.isfinite(err.profile))
    assert float(err.profile.sum() * tg.dx) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < err.residual < 1e-12 * err.rho        # at the floor, below the usual test


@pytest.mark.parametrize("start", [None, np.ones(3)])
def test_perron_raises_on_a_non_finite_residual(start):
    tg = midpoint_grid((0.0, 1.0), 3)
    M = np.ones((3, 3))
    M[1, 2] = np.nan
    with pytest.raises(PerronConvergenceError) as info:
        perron(dense(M), tg.dx, start=start)
    assert info.value.iterations <= 1


def test_warm_perron_matches_cold(singular_ops):
    start = perron(*singular_ops[0]).profile
    M, dx = singular_ops[1]
    cold = perron(M, dx)
    warm = perron(M, dx, start=start)
    assert warm.path == "warm" and 1 <= warm.iterations < cold.iterations
    assert abs(warm.rho - cold.rho) <= 1e-12 * cold.rho
    assert np.abs(warm.profile - cold.profile).max() <= 1e-9 * cold.profile.max()
    # the shift is the start's Collatz-Wielandt upper bound, above rho
    sigma = _evaluate(M, start)[2] * (1.0 + 1e-8)
    assert sigma > cold.rho


def test_warm_perron_returns_an_eigenvector_start_unchanged():
    model = build_model(constant_scenario())
    tg = midpoint_grid((0.0, 1.0), 32)
    ag = AgeGrid(da=0.01, n_cells=2372)
    M, dx = direct_operator(model, tg, ag, 0.5)
    pair = perron(M, dx, start=np.full(32, 3.0))
    assert (pair.path, pair.iterations) == ("warm", 0)
    assert pair.rho == pytest.approx(2.0 / 1.5, abs=1e-6)
    assert perron(M, dx).path == "power"


@pytest.mark.parametrize("bad", [np.r_[1.0, 0.0, 1.0], np.r_[1.0, -1.0, 1.0],
                                 np.r_[1.0, np.nan, 1.0], np.ones(4)])
def test_warm_perron_refuses_bad_start(bad):
    tg = midpoint_grid((0.0, 1.0), 3)
    with pytest.raises(ValueError, match="start vector"):
        perron(dense(np.ones((3, 3))), tg.dx, start=bad)


@pytest.mark.parametrize("family", [
    {"family": "uniform", "params": {}},
    {"family": "gaussian", "params": {"width": 0.15}},
    {"family": "gaussian", "params": {"width": 0.05}},
], ids=["uniform", "gaussian_0.15", "gaussian_0.05"])
def test_factored_operator_matches_dense_references_from_k(family):
    # The factor leaves |G - L L^T| <= MIX_RTOL in every entry, G[i, j] =
    # k(x_i, x_j) / k(x_i, x_i), so each entry M[i, j] = r_i delta_ij + p sB_j
    # k(x_j, x_i) dx moves by at most MIX_RTOL w_j, w = p dx k(x, x) sB. The
    # bounds add the dense references' own rounding, n eps |M| |v| (a length-n
    # dot product's), and for a solve of A = sigma I - M (A^{-1} >= 0) carry
    # both through ||A^{-1}||_inf = max(A^{-1} 1).
    eps = np.finfo(float).eps
    config = replace(singular_scenario(nx=400), kernel=family)
    model = build_model(config)
    tg, ag = build_grids(config, model)
    n, p, x = tg.n, model.mutation_prob, tg.nodes
    mix = mix_matrix(model, tg)
    assert mix.form == "factored"
    sB = lattice_collapse(model, tg, ag, 2.7).sB
    op = mix.scaled(sB)
    M = np.diag((1 - p) * sB) + p * sB[None, :] * model.mutation_kernel.matrix(x).T * tg.dx
    w = p * tg.dx * model.mutation_kernel(x, x) * sB
    v = np.random.default_rng(25).random(n)
    bound = MIX_RTOL * (w @ v) + n * eps * (M @ v)
    assert np.all(np.abs(op @ v - M @ v) <= bound)
    bound = MIX_RTOL * w * v.sum() + n * eps * (M.T @ v)
    assert np.all(np.abs(op.T @ v - M.T @ v) <= bound)
    rho = perron(op, tg.dx).rho
    for sigma in (rho * (1.0 + 1e-8), 1.5 * rho):     # the Perron shift, and a far one
        A = sigma * np.eye(n) - M
        solved = op.shift_inverse(sigma)(v)
        norm_inv = np.linalg.solve(A, np.ones(n)).max()
        bound = norm_inv * (MIX_RTOL * (w @ np.abs(solved))
                            + n * eps * (np.abs(A) @ np.abs(solved)))
        assert np.all(np.abs(solved - np.linalg.solve(A, v)) <= bound)


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (4, 3)])
def test_adjoint_residual_refuses_a_dual_of_another_shape(shape):
    # (1, n) and (n, 1) would broadcast against the direct rows without the check
    M = MixForm(np.ones(4), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="matching direct/dual pair"):
        adjoint_residual(M, 0.25, lambda rows: np.zeros(shape))
