import numpy as np
import pytest

from structpop import build_grids, build_model, constant_scenario, kernel, singular_scenario
from structpop.malthus import MalthusProblem, solve_eigentriple, stationary_state
from structpop.model import replace
from structpop.pde import TransportSolver


class Setup:
    """Bundle of everything the constant-model tests keep reaching for."""

    def __init__(self, config):
        self.config = config
        self.model = build_model(config)
        self.tgrid, self.agrid = build_grids(config, self.model)
        self.problem = MalthusProblem(self.model, self.tgrid, self.agrid)
        self._triple = None
        self._solver = None
        self._linear_solver = None

    @property
    def triple(self):
        if self._triple is None:
            self._triple = solve_eigentriple(self.problem)
        return self._triple

    @property
    def solver(self):
        if self._solver is None:
            self._solver = TransportSolver(self.model, self.tgrid, self.agrid, self.problem.mix)
        return self._solver

    @property
    def linear_solver(self):
        """The solver of the c = 0 twin: the linear flow."""
        if self._linear_solver is None:
            self._linear_solver = TransportSolver(replace(self.model, competition=0.0),
                                                  self.tgrid, self.agrid, self.problem.mix)
        return self._linear_solver

    def stationary(self):
        return stationary_state(self.problem, self.triple)


def renewal_flux(solver, values):
    """F[n](x): clonal plus mutant birth flux at age zero, per trait node, from
    the solver's Mix, B and age weights."""
    return solver.mix @ np.sum(solver.B * values * solver.qa[None, :], axis=1)


def cell_path(config):
    """config with its constant death rate taken by a `logistic_age` family flat
    at the same value: the same rates, bit for bit, but of a family that reads
    age (age_flat_from = inf), so that every age sum runs cell by cell over the
    whole lattice, as it does where the rates depend on age."""
    value = config.death["params"]["value"]
    return replace(config, death={"family": "logistic_age", "params": {
        "low": value, "high": value, "midpoint": 0.0, "scale": 1.0}})


def lattice_collapse(model, tgrid, agrid, lam):
    """`kernel.collapse` at lam, with the age factors of agrid's own lattice."""
    factors = kernel.age_factors(model, tgrid.nodes, agrid.nodes)
    return kernel.collapse(model, lam, factors)


def factor_cells(factors, lam, n=None):
    """`kernel.cell_integrals` at lam on the first n cells of an `AgeFactors`'
    lattice, all of them by default."""
    n = factors.n_cells if n is None else n
    return kernel.cell_integrals(factors.ages[:n + 1], factors.C[:, :n], factors.d[:, :n], lam)


# PASS/FAIL lines recorded by the acceptance tests; replayed after the run
# so the report survives output capture.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance report")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def constant_setup():
    return Setup(constant_scenario())


@pytest.fixture(scope="session")
def singular_setup():
    return Setup(singular_scenario(nx=100))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
