"""Grid dynamics: nonlinear and linear structured-population equations.

Transport in age is exact along characteristics (the lattice shifts one cell
per step, dt = da locked), death is integrated exponentially per cell, and
the renewal boundary is semi-implicit: the newborn generation solves a small
linear system so eigen-identities hold to first order without a step lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .kernel import survival_matrix
from .model import AgeGrid, RateModel, TraitGrid


@dataclass
class DensityState:
    t: float
    values: np.ndarray          # (nx, na+1), nonnegative

    def copy(self) -> "DensityState":
        return DensityState(t=self.t, values=self.values.copy())


@dataclass
class TraceRecord:
    t: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    tv_to_target: list = field(default_factory=list)
    phi_weighted_dist: list = field(default_factory=list)
    invariant_value: list = field(default_factory=list)
    D_t: list = field(default_factory=list)
    truncation_loss: list = field(default_factory=list)


class TransportSolver:
    """Precomputed machinery for stepping one scenario on fixed grids."""

    def __init__(self, model: RateModel, tgrid: TraitGrid, agrid: AgeGrid):
        self.model = model
        self.tgrid = tgrid
        self.agrid = agrid
        self.dt = agrid.da       # transport step locked to the age step
        xs = tgrid.nodes
        ages = agrid.nodes
        self.qa = agrid.quad_weights()
        self.mass_w = tgrid.weights[:, None] * self.qa[None, :]

        R0 = survival_matrix(model, xs, ages, 0.0)
        # exact per-cell survival exp(-int_{a_j}^{a_{j+1}} D(x, .))
        self.cell_survival = R0[:, 1:] / np.maximum(R0[:, :-1], 1e-300)
        self.B = np.asarray(model.birth(xs[:, None], ages[None, :]), float)
        self.D = np.asarray(model.death(xs[:, None], ages[None, :]), float)

        self.kmat = model.mutation_kernel.matrix(xs)   # kmat[l, i] = k(x_l, x_i)

        # boundary system (I - A) n0 = flux-from-older-ages
        p = model.mutation_prob
        b0 = self.B[:, 0]
        A = np.diag((1.0 - p) * b0 * self.qa[0])
        A += p * self.qa[0] * (self.kmat * (b0 * tgrid.weights)[:, None]).T
        self._boundary_lu = lu_factor(np.eye(tgrid.n) - A)

    # -- quadratures -------------------------------------------------------

    def mass(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.mass_w))

    def renewal_flux(self, values: np.ndarray) -> np.ndarray:
        """F[n](x): clonal plus mutant birth flux at age zero, per trait node."""
        p = self.model.mutation_prob
        per_trait = np.sum(self.B * values * self.qa[None, :], axis=1)   # int B n da
        clonal = (1.0 - p) * per_trait
        mutant = p * self.kmat.T @ (per_trait * self.tgrid.weights)
        return clonal + mutant

    # -- stepping ----------------------------------------------------------

    def _step(self, state: DensityState, competition_mass: float) -> float:
        """Advance one dt in place; returns the truncation loss this step."""
        n = state.values
        loss = float(np.sum(n[:, -1] * self.cell_survival[:, -1]
                            * self.tgrid.weights) * self.qa[-1])
        decay = self.cell_survival * math.exp(-self.model.competition
                                              * competition_mass * self.dt) \
            if competition_mass else self.cell_survival
        shifted = np.empty_like(n)
        shifted[:, 1:] = n[:, :-1] * decay
        shifted[:, 0] = 0.0
        # newborns: n0 = F[shifted + n0 at age 0] -> solve the implicit system
        g = self.renewal_flux(shifted)
        n0 = lu_solve(self._boundary_lu, g)
        shifted[:, 0] = np.maximum(n0, 0.0)
        if not np.all(shifted >= 0.0):
            raise ValueError("transport step produced a negative or NaN density")
        state.values = shifted
        state.t += self.dt
        return loss

    def step_nonlinear(self, state: DensityState) -> float:
        """One step of the full dynamics; competition uses start-of-step mass."""
        return self._step(state, self.mass(state.values))

    def step_linear(self, state: DensityState) -> float:
        return self._step(state, 0.0)

    # -- distances and diagnostics ----------------------------------------

    def distances(self, values: np.ndarray, target: np.ndarray,
                  phi: np.ndarray | None = None) -> tuple[float, float]:
        if values.shape != target.shape:
            raise ValueError("state and target shapes differ")
        diff = np.abs(values - target) * self.mass_w
        tv = float(diff.sum())
        pw = float(np.sum(diff * phi)) if phi is not None else math.nan
        return tv, pw

    def growth_diag(self, values: np.ndarray, lam_star: float) -> float:
        """D(t): mass-weighted mean net growth rate (B - D) minus lambda*."""
        m = self.mass(values)
        if m <= 0:
            return math.nan
        mean_net = float(np.sum((self.B - self.D) * values * self.mass_w)) / m
        return mean_net - lam_star


def run(solver: TransportSolver, state: DensityState, T: float,
        mode: str = "nonlinear", target: np.ndarray | None = None,
        phi: np.ndarray | None = None, lam_star: float | None = None,
        record_every: int = 1) -> tuple[DensityState, TraceRecord]:
    """Step to time T, tracing mass, distances, and the conserved pairing.

    For linear runs with (phi, lam_star, target) supplied, the trace records
    the invariant sum(e^{-lam* t} v phi) and the phi-weighted distance of
    e^{-lam* t} v_t to the target (the expected limit m0 * N).
    """
    if mode not in ("nonlinear", "linear"):
        raise ValueError(f"unknown mode {mode!r}")
    step = solver.step_nonlinear if mode == "nonlinear" else solver.step_linear
    n_steps = int(round((T - state.t) / solver.dt))
    trace = TraceRecord()
    cum_loss = 0.0

    def record():
        trace.t.append(state.t)
        trace.mass.append(solver.mass(state.values))
        scale = math.exp(-lam_star * state.t) if (
            mode == "linear" and lam_star is not None) else 1.0
        if target is not None:
            tv, pw = solver.distances(scale * state.values, target, phi)
            trace.tv_to_target.append(tv)
            trace.phi_weighted_dist.append(pw)
        if phi is not None and lam_star is not None:
            inv = math.exp(-lam_star * state.t) * float(
                np.sum(state.values * phi * solver.mass_w))
            trace.invariant_value.append(inv)
        if lam_star is not None:
            trace.D_t.append(solver.growth_diag(state.values, lam_star))
        trace.truncation_loss.append(cum_loss)

    record()
    for i in range(n_steps):
        cum_loss += step(state)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            record()
    return state, trace


def transform_check(solver: TransportSolver, state0: DensityState, T: float) -> float:
    """Max TV gap between exp(c int rho) n_t (nonlinear) and v_t (linear).

    The two runs share the initial state; the mass integral uses trapezoid in
    time with the start-of-step masses, matching the scheme's own lag.
    """
    nl = state0.copy()
    lin = state0.copy()
    n_steps = int(round((T - state0.t) / solver.dt))
    c = solver.model.competition
    masses = [solver.mass(nl.values)]
    worst = 0.0
    int_rho = 0.0
    for _ in range(n_steps):
        solver.step_nonlinear(nl)
        solver.step_linear(lin)
        masses.append(solver.mass(nl.values))
        int_rho += 0.5 * solver.dt * (masses[-2] + masses[-1])
        scaled = math.exp(c * int_rho) * nl.values
        worst = max(worst, float(np.sum(np.abs(scaled - lin.values) * solver.mass_w)))
    return worst


# ---------------------------------------------------------------------------
# stationarity in weak form
# ---------------------------------------------------------------------------

def default_test_basket(tgrid: TraitGrid, agrid: AgeGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Smooth (f, df/da) pairs: polynomials and trig in x times decaying age."""
    X = tgrid.nodes[:, None]
    A = agrid.nodes[None, :]
    ea = np.exp(-A)
    basket = []
    for g in (np.ones_like(X), X, X ** 2, np.sin(np.pi * X), np.cos(np.pi * X)):
        ones = g * np.ones_like(A)
        basket.append((ones, np.zeros_like(ones)))
        basket.append((g * ea, -g * ea))
        basket.append((g * A * ea, g * (1.0 - A) * ea))
    return basket


def stationary_residual(solver: TransportSolver, nbar: np.ndarray,
                        basket: list | None = None) -> float:
    """Max weak-form defect |int (df/da - (D + c mass) f + G[f]) nbar|."""
    if basket is None:
        basket = default_test_basket(solver.tgrid, solver.agrid)
    model = solver.model
    p = model.mutation_prob
    mass = solver.mass(nbar)
    worst = 0.0
    for f, dfda in basket:
        f0 = f[:, 0]
        mut0 = solver.kmat @ (f0 * solver.tgrid.weights)
        G = solver.B * ((1.0 - p) * f0[:, None] + p * mut0[:, None])
        integrand = dfda - (solver.D + model.competition * mass) * f + G
        worst = max(worst, abs(float(np.sum(integrand * nbar * solver.mass_w))))
    return worst


def mass_ode_residual(trace: TraceRecord, lam_star: float, c: float) -> float:
    """Max defect of d rho/dt = rho (D(t) + lam*) - c rho^2 by central differences."""
    t = np.asarray(trace.t)
    m = np.asarray(trace.mass)
    Dt = np.asarray(trace.D_t)
    if t.size < 3:
        return math.nan
    dm = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
    rhs = m[1:-1] * (Dt[1:-1] + lam_star) - c * m[1:-1] ** 2
    return float(np.abs(dm - rhs).max())


def dirac_state(tgrid: TraitGrid, agrid: AgeGrid, x: float, a: float = 0.0,
                mass: float = 1.0) -> DensityState:
    """Single-cell spike carrying the given quadrature mass at (x, a)."""
    i = int(np.argmin(np.abs(tgrid.nodes - x)))
    j = int(round(a / agrid.da))
    qa = agrid.quad_weights()
    values = np.zeros((tgrid.n, agrid.n_cells + 1))
    values[i, j] = mass / (tgrid.weights[i] * qa[j])
    return DensityState(t=0.0, values=values)


def uniform_state(tgrid: TraitGrid, agrid: AgeGrid, a_scale: float = 1.0,
                  mass: float = 1.0) -> DensityState:
    """Trait-uniform density with an exponential age profile, given mass."""
    prof = np.exp(-agrid.nodes / a_scale)
    values = np.ones((tgrid.n, 1)) * prof[None, :]
    st = DensityState(t=0.0, values=values)
    qa = agrid.quad_weights()
    total = float(np.sum(values * tgrid.weights[:, None] * qa[None, :]))
    st.values *= mass / total
    return st
