"""Malthusian parameter, principal eigen-elements, and the stationary state.

The growth rate lambda* is the unique root of rho(lambda) = 1, located by
Brent's method inside a doubling bracket (rho is continuous and strictly
decreasing); the search solves the direct operator only, and the dual is
solved once, at the root. The direct eigenvector
mu and dual eigenvector eta of the collapsed trait operators are lifted back
to age-structured profiles: N(x,a) = mu(x) R(x,a) and phi from the tail
integral representation, normalized to int N = int N phi = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import kernel as kern
from . import spectral
from .model import AgeGrid, RateModel, TraitGrid


class SubcriticalError(RuntimeError):
    """rho(0) <= 1: no positive growth rate, no nontrivial stationary state."""


@dataclass(frozen=True)
class EigenTriple:
    lambda_star: float
    N_grid: np.ndarray          # (nx, na+1), int N = 1
    phi_grid: np.ndarray        # (nx, na+1), int N phi = 1
    mu_profile: np.ndarray
    eta_profile: np.ndarray
    eta_lower: float            # grid value of the contraction constant
    eta_lower_proof: float      # conservative proof-style bound
    norms: dict
    regime: str
    diagnostics: dict = field(default_factory=dict)


class MalthusProblem:
    """Caches rho(lambda) along a lambda sweep and full eigendata where asked."""

    def __init__(self, model: RateModel, tgrid: TraitGrid, agrid: AgeGrid,
                 perron_tol: float = 1e-12, max_iter: int = 20000):
        self.model = model
        self.tgrid = tgrid
        self.agrid = agrid
        self.perron_tol = perron_tol
        self.max_iter = max_iter
        self._cache: dict[float, tuple] = {}
        self._rho: dict[float, tuple[float, float]] = {}
        self.lambda_search: dict = {}   # evaluations and bracket of the last search

    def _direct(self, lam: float):
        ck = kern.collapse(self.model, self.tgrid, self.agrid, lam)
        direct = spectral.assemble(ck, self.tgrid, "direct")
        pd = spectral.perron(direct, tol=self.perron_tol, max_iter=self.max_iter)
        self._rho[lam] = (pd.rho, ck.rbar)
        return ck, pd

    def eigendata(self, lam: float):
        """(CollapsedKernel, direct PerronPair, dual PerronPair) at lambda."""
        if lam not in self._cache:
            ck, pd = self._direct(lam)
            dual = spectral.assemble(ck, self.tgrid, "dual")
            pq = spectral.perron(dual, tol=self.perron_tol, max_iter=self.max_iter)
            pd = spectral.regime_classify(pd, ck, self.tgrid)
            self._cache[lam] = (ck, pd, pq)
        return self._cache[lam]

    def rho_of_lambda(self, lam: float) -> tuple[float, float]:
        """(rho, rbar) at lambda from the direct operator alone."""
        if lam not in self._rho:
            self._direct(lam)
        return self._rho[lam]

    def find_lambda_star(self, tol_lam: float = 1e-6,
                         max_doublings: int = 60) -> float:
        """Root of rho(lambda) = 1 to within tol_lam; records lambda_search."""
        solved_before = len(self._rho)
        rho0, _ = self.rho_of_lambda(0.0)
        if rho0 <= 1.0:
            raise SubcriticalError(
                f"rho(0) = {rho0:.6g} <= 1: the model is subcritical")
        lo, hi = 0.0, 1.0
        for _ in range(max_doublings):
            if self.rho_of_lambda(hi)[0] < 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise RuntimeError("doubling cap reached while bracketing lambda*")
        lam = brentq(lambda l: self.rho_of_lambda(l)[0] - 1.0, lo, hi, xtol=tol_lam)
        self.lambda_search = {"evaluations": len(self._rho) - solved_before,
                              "bracket": [lo, hi]}
        return float(lam)


# ---------------------------------------------------------------------------
# eigen profiles on the (x, a) grid
# ---------------------------------------------------------------------------

def _mass_weights(tgrid: TraitGrid, agrid: AgeGrid) -> np.ndarray:
    return tgrid.weights[:, None] * agrid.quad_weights()[None, :]


def _extended_ages(agrid: AgeGrid) -> np.ndarray:
    """Nodes of the extended lattice [0, 2 A_max]; the lattice is its prefix,
    so R on it restricts to R on the lattice bit for bit."""
    return agrid.da * np.arange(2 * agrid.n_cells + 1)


def direct_profile(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid,
                   lam_star: float, mu: np.ndarray, R: np.ndarray) -> np.ndarray:
    """N(x,a) = mu(x) R_{lambda*}(x,a), normalized to unit total mass.

    R is R_{lambda*} on the extended lattice (`_extended_ages`).
    """
    N = mu[:, None] * R[:, :agrid.n_cells + 1]
    mass = float(np.sum(N * _mass_weights(tgrid, agrid)))
    return N / mass


def dual_profile(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid,
                 lam_star: float, eta: np.ndarray, R: np.ndarray,
                 N_grid: np.ndarray | None = None) -> np.ndarray:
    """phi(x,a) from the tail-integral representation of the dual problem.

    phi(x,a) = R(x,a)^{-1} [ (1-p) eta(x) int_a^inf B R da'
                             + p sum_j eta_j w_j k(x, x_j) int_a^inf B R da' ].

    Tail integrals run over an extended lattice [0, 2 A_max] so that phi keeps
    its continuum value at the horizon instead of collapsing to zero there.
    R is R_{lambda*} on that lattice. If N_grid is given, phi is rescaled so
    that int N phi = 1.
    """
    ages = _extended_ages(agrid)
    xs = tgrid.nodes
    cells = kern.bR_cell_integrals(model, xs, ages, lam_star, R)   # (nx, n_ext)
    # reverse cumulative sums: tails[:, j] = int_{a_j}^{2 A_max} B R
    tails = np.flip(np.cumsum(np.flip(cells, axis=1), axis=1), axis=1)
    tails = np.concatenate([tails, np.zeros((tgrid.n, 1))], axis=1)

    p = model.mutation_prob
    na = agrid.n_cells + 1
    kmat = model.mutation_kernel.matrix(xs)
    mut = tails[:, :na] * (kmat @ (eta * tgrid.weights))[:, None]

    phi = ((1.0 - p) * eta[:, None] * tails[:, :na] + p * mut) / R[:, :na]
    if N_grid is not None:
        pairing = float(np.sum(N_grid * phi * _mass_weights(tgrid, agrid)))
        phi = phi / pairing
    return phi


def eta_lower_bound(phi_grid: np.ndarray, model: RateModel,
                    lam_star: float) -> tuple[float, float, list]:
    """Contraction constant: grid value and the conservative proof-style bound.

    Grid value: p B_inf k_inf min(phi) / max(phi). Proof bound replaces
    min(phi) by (1-p) min_x phi(x,0) B_inf / (lambda* + sup D).
    """
    warn: list = []
    b_lo = model.birth.inf
    k_lo = model.mutation_kernel.inf
    if b_lo <= 0 or k_lo <= 0:
        warn.append("birth rate or mutation kernel not bounded below by a "
                    "positive constant; contraction bound degenerates to 0")
        return 0.0, 0.0, warn
    p = model.mutation_prob
    phi_max = float(phi_grid.max())
    grid_val = p * b_lo * k_lo * float(phi_grid.min()) / phi_max
    d_sup = model.death.sup
    if not np.isfinite(d_sup):
        warn.append("death rate unbounded above; proof-style bound unavailable")
        proof_val = 0.0
    else:
        phi_floor = (1.0 - p) * float(phi_grid[:, 0].min()) * b_lo / (lam_star + d_sup)
        proof_val = p * b_lo * k_lo * phi_floor / phi_max
    return grid_val, proof_val, warn


def solve_eigentriple(problem: MalthusProblem, tol_lam: float = 1e-6) -> EigenTriple:
    """lambda*, N, phi, eta bounds and normalization flags in one shot."""
    lam_star = problem.find_lambda_star(tol_lam)
    ck, pd, pq = problem.eigendata(lam_star)
    model, tgrid, agrid = problem.model, problem.tgrid, problem.agrid
    if pd.regime != "Regular":
        warnings.warn("near-singular spectrum: grid eigen-elements returned, "
                      "but their continuum meaning is not certified")
    mu = pd.profile
    eta = pq.profile
    R = kern.survival_matrix(model, tgrid.nodes, _extended_ages(agrid), lam_star)
    N = direct_profile(model, tgrid, agrid, lam_star, mu, R)
    phi = dual_profile(model, tgrid, agrid, lam_star, eta, R, N_grid=N)
    mw = _mass_weights(tgrid, agrid)
    norms = {
        "intN": float(np.sum(N * mw)),
        "intNphi": float(np.sum(N * phi * mw)),
        "rho_at_star": pd.rho,
    }
    grid_eta, proof_eta, warn = eta_lower_bound(phi, model, lam_star)
    diagnostics = dict(pd.diagnostics)
    diagnostics["warnings"] = warn
    return EigenTriple(lambda_star=lam_star, N_grid=N, phi_grid=phi,
                       mu_profile=mu, eta_profile=eta,
                       eta_lower=grid_eta, eta_lower_proof=proof_eta,
                       norms=norms, regime=pd.regime, diagnostics=diagnostics)


def stationary_state(problem: MalthusProblem, triple: EigenTriple | None = None,
                     tol_lam: float = 1e-6) -> tuple[float, np.ndarray, float]:
    """Stationary density nbar = (lambda*/c) N, so that c * mass = lambda*."""
    if triple is None:
        triple = solve_eigentriple(problem, tol_lam)
    if problem.model.competition <= 0:
        raise ValueError("stationary state needs a positive competition rate")
    scale = triple.lambda_star / problem.model.competition
    nbar = scale * triple.N_grid
    return triple.lambda_star, nbar, scale * triple.norms["intN"]


def refinement_sweep(make_problem, nx_list, tol_lam: float = 1e-6) -> list[dict]:
    """lambda*_h, spectral gap and mass-in-band across trait refinements.

    make_problem: nx -> MalthusProblem. This sweep is the authoritative
    regular/singular classifier: a gap collapsing under refinement with mass
    accumulating on the argmax band is the singular signature.
    """
    rows = []
    for nx in nx_list:
        prob = make_problem(nx)
        lam = prob.find_lambda_star(tol_lam)
        ck, pd, _ = prob.eigendata(lam)
        d = pd.diagnostics
        rows.append({"nx": nx, "lambda_star_h": lam, "gap": d["gap"],
                     "rbar": d["rbar"], "mass_in_band": d["mass_in_band"],
                     "regime": pd.regime})
    return rows
