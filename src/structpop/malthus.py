"""Malthusian parameter, principal eigen-elements, and the stationary state.

The growth rate lambda* is the unique root of rho(lambda) = 1, located by
regula falsi on 1/rho - 1 inside a doubling bracket (rho is continuous and
strictly decreasing; 1/rho is affine in lambda when the age collapse is
B/(D + lambda), so the first false-position step lands on the root there).
The search solves the direct operator only, and the dual is solved once, at
the root. The regime is read from the direct solve alone (`spectral.regime`).
The direct eigenvector
mu and dual eigenvector eta of the collapsed trait operators are lifted back
to age-structured profiles (`eigentriple`): N(x,a) = mu(x) R(x,a) and
phi(x,a) = (Mix^T eta)(x) q(x,a) by a backward recursion in age, in closed
form past the age where the rates stop reading age, normalized to
int N = int N phi = 1 on the age lattice they are formed on. That lattice is
a prefix of the problem's: the whole of it for the dynamics, which step on it,
or the ages the profiles need at lambda* (`kernel.profile_lattice`) for the
commands that write them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel as kern
from . import spectral
from .model import AgeGrid, RateModel, TraitGrid, grid_integral


class SubcriticalError(RuntimeError):
    """rho(0) <= 1: no positive growth rate, no nontrivial stationary state."""


@dataclass(frozen=True)
class EigenTriple:
    """lambda* and the profiles N and phi on the age lattice `agrid`, a prefix
    of the problem's, on which they are normalized; readers of the grids
    read that lattice."""

    lambda_star: float
    agrid: AgeGrid              # the profiles' age lattice, na = agrid.n_cells
    N_grid: np.ndarray          # (nx, na+1), int N = 1
    phi_grid: np.ndarray        # (nx, na+1), int N phi = 1
    eta_lower: float            # grid value of the contraction constant
    eta_lower_proof: float      # conservative proof-style bound
    norms: dict
    regime: str
    diagnostics: dict = field(default_factory=dict)


class MalthusProblem:
    """rho(lambda) along a lambda sweep, and full eigendata where asked.

    The lambda-free parts of the age collapse (`kern.AgeFactors` on the age
    lattice's prefix) and the birth-mutation matrix `mix` (a `kern.MixForm`)
    are built once; each collapse sums the prefix its lambda needs, and the
    operator at lambda is mix diag(sB), in mix's form: where the kernel has a
    factor of small rank, a lambda forms no nx x nx array. The factors are kept
    until `release_factors`, so every lambda asked of the problem reads the
    same ones. Per lambda solved, the collapsed kernel (sB) and the direct
    Perron pair are kept (2 nx floats), and per lambda `eigendata` is asked,
    the dual Perron pair (nx floats): a solved lambda is never collapsed or
    solved again.

    Both solves start warm where `_warm` lets them (a finite, strictly
    positive start, which `spectral.perron` then tests): the direct solve
    from the last direct profile, the dual from sB mu k(x, x). Every registry
    kernel is k(x, y) = g(x, y) / Z(x) with g symmetric and g(x, x) = g0, so
    k(x, x) = g0 / Z(x) and k(x_i, x_j) / Z_j = k(x_j, x_i) / Z_i. If M mu =
    rho mu, eta = sB mu / Z is the dual eigenvector:

        (M^T eta)_i = sB_i [(1-p) eta_i + p sum_j k(x_i, x_j) dx eta_j]
                    = (sB_i / Z_i) [(1-p) sB_i mu_i + p sum_j k(x_j, x_i) dx sB_j mu_j]
                    = (sB_i / Z_i) (M mu)_i = rho eta_i.
    """

    def __init__(self, model: RateModel, tgrid: TraitGrid, agrid: AgeGrid):
        self.model = model
        self.tgrid = tgrid
        self.agrid = agrid
        self.mix = kern.mix_matrix(model, tgrid)
        self._factors: kern.AgeFactors | None = None
        self._start: np.ndarray | None = None    # last direct profile
        self._direct: dict[float, tuple[kern.CollapsedKernel, spectral.PerronPair]] = {}
        self._dual: dict[float, spectral.PerronPair] = {}
        self.lambda_search: dict = {}   # evaluations and bracket of the last search

    @property
    def factors(self) -> kern.AgeFactors:
        """Age factors on the age lattice's prefix, built on first use."""
        if self._factors is None:
            self._factors = kern.age_factors(self.model, self.tgrid.nodes,
                                             self.agrid.nodes)
        return self._factors

    def release_factors(self) -> None:
        """Drop the age factors (rebuilt on next use) to free their memory."""
        self._factors = None

    def direct_pair(self, lam: float) -> tuple[kern.CollapsedKernel, spectral.PerronPair]:
        """(CollapsedKernel, direct PerronPair) at lambda, solved once per lambda."""
        if lam not in self._direct:
            ck = kern.collapse(self.model, self.tgrid, self.agrid, lam,
                               factors=self.factors)
            pd = spectral.perron(self.mix.scaled(ck.sB), self.tgrid.dx,
                                 start=_warm(self._start))
            self._start = pd.profile
            self._direct[lam] = (ck, pd)
        return self._direct[lam]

    def eigendata(self, lam: float):
        """(CollapsedKernel, direct PerronPair, dual PerronPair) at lambda."""
        ck, pd = self.direct_pair(lam)
        if lam not in self._dual:
            kdiag = self.model.mutation_kernel(self.tgrid.nodes, self.tgrid.nodes)
            self._dual[lam] = spectral.perron(self.mix.scaled(ck.sB).T, self.tgrid.dx,
                                              start=_warm(ck.sB * pd.profile * kdiag))
        return ck, pd, self._dual[lam]

    def clonal_rate(self, lam: float) -> np.ndarray:
        """r = Mix.d sB at lambda, the direct operator's diagonal, read without
        forming the operator; its max is rbar."""
        return self.mix.d * self.direct_pair(lam)[0].sB

    def rho_of_lambda(self, lam: float) -> float:
        """rho at lambda from the direct operator alone."""
        return self.direct_pair(lam)[1].rho

    def find_lambda_star(self, tol_lam: float = 1e-6) -> float:
        """Root of rho(lambda) = 1, by `_falsi` on 1/rho - 1 with bracket width
        tol_lam; records lambda_search.

        The bracket [0, 1] doubles until rho(hi) <= 1, at most 60 times, to
        2^60: an end where rho is 1 exactly is the root, which `_falsi`
        returns with no further solve. lambda_search
        holds the lambdas solved, their bracket, the Perron iterations and
        shifts, the age cells their collapses summed, and the age factors'
        cells and age_flat_from (None for inf).
        """
        solved_before = set(self._direct)
        rho0 = self.rho_of_lambda(0.0)
        if rho0 <= 1.0:
            raise SubcriticalError(
                f"rho(0) = {rho0:.6g} <= 1: the model is subcritical")
        lo, hi = 0.0, 1.0
        for _ in range(60):
            if self.rho_of_lambda(hi) <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise RuntimeError("doubling cap reached while bracketing lambda*")
        lam = _falsi(lambda l: 1.0 / self.rho_of_lambda(l) - 1.0, lo, hi, tol_lam)
        solved = [pair for l, pair in self._direct.items() if l not in solved_before]
        a_f = self.model.age_flat_from
        self.lambda_search = {"evaluations": len(solved), "bracket": [lo, hi],
                              "perron_iterations": sum(pd.iterations for _, pd in solved),
                              "perron_shifts": sum(pd.shifts for _, pd in solved),
                              "age_cells": sum(ck.age_cells for ck, _ in solved),
                              "age_flat_from": None if math.isinf(a_f) else a_f,
                              "prefix_cells": kern.prefix_cells(self.model, self.agrid.nodes)}
        return lam


def _warm(start: np.ndarray | None) -> np.ndarray | None:
    """A Perron start if it is finite and strictly positive, else None (cold)."""
    return start if start is not None and np.all(np.isfinite(start) & (start > 0)) else None


_ACCEPT = 4 * math.ulp(1.0)     # |g| this small is a root: 4 machine epsilons


def _falsi(g, lo: float, hi: float, tol: float) -> float:
    """Root of an increasing g with g(lo) <= 0 <= g(hi), by Illinois regula falsi
    (Dowell & Jarratt 1971, BIT 11:168-174).

    A point with |g| <= 4 eps is the root, the bracket's ends included;
    otherwise the bracket narrows to tol and the end with the smaller |g| is
    returned. Each false-position step replaces one end; the other end's
    value is halved each time it is kept twice running. Raises ValueError for
    a non-finite g and RuntimeError after 100 steps.
    """
    def value(x):
        gx = float(g(x))
        if not math.isfinite(gx):
            raise ValueError(f"g({x!r}) = {gx}: the root search cannot continue")
        return gx

    glo, ghi = value(lo), value(hi)
    wlo = whi = 1.0         # the ends' Illinois factors
    side = 0                # the end replaced last: -1 lo, 1 hi
    for _ in range(100):
        best, gbest = (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)
        if abs(gbest) <= _ACCEPT or hi - lo <= tol:
            return best
        x = lo - wlo * glo * (hi - lo) / (whi * ghi - wlo * glo)
        gx = value(x)
        if gx > 0:
            if side == 1:
                wlo /= 2
            hi, ghi, whi, side = x, gx, 1.0, 1
        else:
            if side == -1:
                whi /= 2
            lo, glo, wlo, side = x, gx, 1.0, -1
    raise RuntimeError("regula falsi did not converge in 100 steps")


# ---------------------------------------------------------------------------
# eigen profiles on the (x, a) grid
# ---------------------------------------------------------------------------

def direct_profile(tgrid: TraitGrid, agrid: AgeGrid, mu: np.ndarray,
                   R: np.ndarray) -> np.ndarray:
    """N(x,a) = mu(x) R_{lambda*}(x,a), normalized to unit total mass, in R's place."""
    N = np.multiply(R, mu[:, None], out=R)
    N /= grid_integral(tgrid, agrid, N)
    return N


def dual_profile(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid, lam_star: float,
                 eta: np.ndarray, factors: kern.AgeFactors,
                 mix: kern.MixForm) -> tuple[np.ndarray, np.ndarray]:
    """R_{lambda*} and phi(x,a) = (Mix^T eta)(x) q(x,a), up to its scale, on the
    age lattice agrid: Mix^T eta = (1-p) eta(x) + p dx sum_j eta_j k(x, x_j)
    is the dual of mix, its transpose on the uniform trait grid (the factors
    swapped), applied to eta, and q = int_a^inf B R da' / R(a) comes from
    `kern.profiles`, which forms R in the same pass."""
    R, phi = kern.profiles(model, tgrid.nodes, factors, agrid, lam_star)
    phi *= (mix.T @ eta)[:, None]
    return R, phi


def eta_lower_bound(phi_grid: np.ndarray, model: RateModel,
                    lam_star: float) -> tuple[float, float, dict]:
    """Contraction constant: grid value and the conservative proof-style bound.

    Grid value: p B_inf k_inf min(phi) / max(phi). Proof bound replaces
    min(phi) by (1-p) min_x phi(x,0) B_inf / (lambda* + sup D). The third
    item maps a stable key to a message for each bound that degenerates.
    """
    warn: dict = {}
    b_lo = model.birth.inf
    k_lo = model.mutation_kernel.inf
    if b_lo <= 0 or k_lo <= 0:
        warn["contraction_bound_degenerate"] = (
            "birth rate or mutation kernel not bounded below by a positive "
            "constant; contraction bound degenerates to 0")
        return 0.0, 0.0, warn
    p = model.mutation_prob
    phi_max = float(phi_grid.max())
    grid_val = p * b_lo * k_lo * float(phi_grid.min()) / phi_max
    d_sup = model.death.sup
    if not np.isfinite(d_sup):
        warn["proof_bound_unavailable"] = (
            "death rate unbounded above; proof-style bound unavailable")
        proof_val = 0.0
    else:
        phi_floor = (1.0 - p) * float(phi_grid[:, 0].min()) * b_lo / (lam_star + d_sup)
        proof_val = p * b_lo * k_lo * phi_floor / phi_max
    return grid_val, proof_val, warn


def solve_eigentriple(problem: MalthusProblem, tol_lam: float = 1e-6) -> EigenTriple:
    """lambda* by `find_lambda_star`, and its `eigentriple` on the problem's
    whole age lattice: N_grid and phi_grid are (nx, problem.agrid.n_cells + 1)."""
    return eigentriple(problem, problem.find_lambda_star(tol_lam), problem.agrid)


def eigentriple(problem: MalthusProblem, lam_star: float, agrid: AgeGrid) -> EigenTriple:
    """N, phi, eta bounds and normalization flags at the solved lambda*, on the
    age lattice agrid, a prefix of the problem's.

    diagnostics carries the Perron solves at lambda* ("perron": direct and
    dual path, iterations and bracket) and "warnings", a map from stable
    keys to messages. The problem keeps its age factors for later lambdas;
    a caller about to step the dynamics drops them with `release_factors`.
    N_grid is read-only (its flag `writeable` is False).
    """
    if agrid.da != problem.agrid.da:
        raise ValueError(f"age step {agrid.da} is not the problem's {problem.agrid.da}")
    pd, pq = problem.eigendata(lam_star)[1:]
    model, tgrid = problem.model, problem.tgrid
    R, phi = dual_profile(model, tgrid, agrid, lam_star, pq.profile, problem.factors,
                          problem.mix)
    N = direct_profile(tgrid, agrid, pd.profile, R)     # in R's place
    phi /= grid_integral(tgrid, agrid, N, phi)          # int N phi = 1
    norms = {
        "intN": grid_integral(tgrid, agrid, N),
        "intNphi": grid_integral(tgrid, agrid, N, phi),
        "rho_at_star": pd.rho,
    }
    grid_eta, proof_eta, warn = eta_lower_bound(phi, model, lam_star)
    regime = spectral.regime(pd.rho, float(problem.clonal_rate(lam_star).max()))
    if regime != "Regular":
        warn["near_singular_spectrum"] = (
            "near-singular spectrum: grid eigen-elements returned, but their "
            "continuum meaning is not certified")
    diagnostics = {"perron": {"direct": pd.summary(), "dual": pq.summary()},
                   "warnings": warn}
    N.flags.writeable = False   # read-only, so the IBM sampler may keep its CDF
    return EigenTriple(lambda_star=lam_star, agrid=agrid, N_grid=N, phi_grid=phi,
                       eta_lower=grid_eta, eta_lower_proof=proof_eta,
                       norms=norms, regime=regime, diagnostics=diagnostics)


def stationary_state(problem: MalthusProblem,
                     triple: EigenTriple) -> tuple[float, np.ndarray, float]:
    """Stationary density nbar = (lambda*/c) N on triple.agrid, so that
    c * mass = lambda*."""
    if problem.model.competition <= 0:
        raise ValueError("stationary state needs a positive competition rate")
    scale = triple.lambda_star / problem.model.competition
    nbar = scale * triple.N_grid
    return triple.lambda_star, nbar, scale * triple.norms["intN"]


def refinement_sweep(make_problem, nx_list, tol_lam: float = 1e-6) -> list[dict]:
    """lambda*_h, spectral gap, mass in the band and regime across trait refinements.

    make_problem: nx -> MalthusProblem. Each row reads the direct solve at
    lambda*_h alone; a grid whose lambda* is already solved is not solved
    again. The band is the traits whose clonal rate r is within GAP_RTOL rho
    of rbar. The rows only record the trend: a gap that collapses under
    refinement while mass accumulates in the band is the singular signature.
    """
    rows = []
    for nx in nx_list:
        prob = make_problem(nx)
        lam = prob.find_lambda_star(tol_lam)
        pd, r = prob.direct_pair(lam)[1], prob.clonal_rate(lam)
        rbar = float(r.max())
        band = r >= rbar - spectral.GAP_RTOL * pd.rho
        rows.append({"nx": nx, "lambda_star_h": lam, "gap": pd.rho - rbar,
                     "mass_in_band": float(np.sum(pd.profile[band] * prob.tgrid.dx)),
                     "regime": spectral.regime(pd.rho, rbar)})
    return rows
