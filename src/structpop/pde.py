"""Grid dynamics: nonlinear and linear structured-population equations.

Transport in age is exact along characteristics (the lattice shifts one cell
per step, dt = da locked), death is exact through the survival matrix, and
the renewal boundary is semi-implicit: the newborn generation solves a small
linear system so eigen-identities hold to first order without a step lag.
Stepping holds n = s R_0 u (see `TransportSolver._advance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .kernel import survival_matrix
from .model import AgeGrid, RateModel, TraitGrid

_S_FLOOR = 1e-100   # s only shrinks (c >= 0); below this it is folded into u


class DensityState:
    """Nonnegative (nx, na+1) density at time t; `values` materialises a stepped state."""

    def __init__(self, t: float, values: np.ndarray):
        self.t = t
        self._values = values
        self._cohort = None         # (solver, u, head, s, msum); mass = s * msum

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values, self._cohort = self._cohort[0].density(self), None
        return self._values

    @values.setter
    def values(self, values: np.ndarray) -> None:
        self._values, self._cohort = values, None

    def copy(self) -> "DensityState":
        return DensityState(self.t, self.values.copy())


@dataclass
class TraceRecord:
    t: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    tv_to_target: list = field(default_factory=list)
    phi_weighted_dist: list = field(default_factory=list)
    invariant_value: list = field(default_factory=list)
    D_t: list = field(default_factory=list)
    truncation_loss: list = field(default_factory=list)
    steps: int = 0


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
        self.B = np.asarray(model.birth(xs[:, None], ages[None, :]), float)
        self.D = np.asarray(model.death(xs[:, None], ages[None, :]), float)
        self.kmat = model.mutation_kernel.matrix(xs)   # kmat[l, i] = k(x_l, x_i)

        self.R = R = survival_matrix(model, xs, ages, 0.0)
        R[R < 1e-300] = 0.0     # keeps u = n / R finite
        # birth and mass weights, doubled in age: a slice is the ring read from its head
        self._W2 = W2 = np.empty((tgrid.n, 2, 2 * ages.size))
        np.multiply(self.B * self.qa, R, out=W2[:, 0, :ages.size])
        np.multiply(self.mass_w, R, out=W2[:, 1, :ages.size])
        W2[:, :, ages.size:] = W2[:, :, :ages.size]
        # the horizon column's mass one cell on, per unit of u; divided first
        # so that R^2 cannot underflow where R does not
        self._loss_w = (R[:, -1] / np.maximum(R[:, -2], 1e-300) * R[:, -1]
                        * tgrid.weights * self.qa[-1])

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
        return self._mix(np.sum(self.B * values * self.qa[None, :], axis=1))

    def _mix(self, per_trait: np.ndarray) -> np.ndarray:   # per_trait = int B n da
        p = self.model.mutation_prob
        return (1.0 - p) * per_trait + p * self.kmat.T @ (per_trait * self.tgrid.weights)

    # -- stepping ----------------------------------------------------------

    def density(self, state: DensityState) -> np.ndarray:
        """The state's values; a cohort-form state is materialised, not converted."""
        if state._values is not None:
            return state._values
        _, u, head, s, _ = state._cohort
        values, k = np.empty_like(u), u.shape[1] - head    # unroll the ring while applying R
        np.multiply(u[:, head:], self.R[:, :k], out=values[:, :k])
        np.multiply(u[:, :head], self.R[:, k:], out=values[:, k:])
        values *= s
        return values

    def _advance(self, state: DensityState, c: float) -> float:
        """One dt of n <- exp(-c m dt) L n, L linear; returns the truncation loss.

        n = s R u: column (head + j) mod (na+1) of the ring u is the cohort at
        age a_j, so transport moves the head, death is in R, competition
        scales s, and the newborns (R = 1 at age 0) are the one column written.
        """
        if state._cohort is None or state._cohort[0] is not self:
            v = state.values
            if not (np.isfinite(v).all() and (v >= 0.0).all()):
                raise ValueError("density state has a negative, NaN or infinite entry")
            u = np.divide(v, self.R, out=np.zeros_like(v), where=self.R > 0.0)
            state._cohort = (self, u, 0, 1.0, self.mass(v))
        _, u, head, s, msum = state._cohort
        L = u.shape[1]
        loss = s * float(self._loss_w @ u[:, head - 1])
        s *= math.exp(-c * s * msum * self.dt)
        head = (head - 1) % L
        u[:, head] = 0.0
        # per trait: births and mass of the transported cohorts, in one sum
        sums = np.matmul(self._W2[:, :, L - head:2 * L - head], u[:, :, None])[:, :, 0]
        n0 = lu_solve(self._boundary_lu, self._mix(s * sums[:, 0]))
        u[:, head] = np.maximum(n0, 0.0) / s if s > 0.0 else math.nan
        if not np.isfinite(u[:, head]).all():
            raise ValueError("transport step produced a negative, NaN or infinite density")
        msum = float(sums[:, 1].sum() + self.mass_w[:, 0] @ u[:, head])
        if s < _S_FLOOR:
            u *= s
            s, msum = 1.0, msum * s
        state._values, state._cohort = None, (self, u, head, s, msum)
        state.t += self.dt
        return loss

    def step_nonlinear(self, state: DensityState) -> float:
        """One step of the full dynamics; competition uses start-of-step mass."""
        return self._advance(state, self.model.competition)

    def step_linear(self, state: DensityState) -> float:
        return self._advance(state, 0.0)

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
    linear = mode == "linear"
    step = solver.step_linear if linear else solver.step_nonlinear
    n_steps = int(round((T - state.t) / solver.dt))
    trace = TraceRecord(steps=n_steps)
    cum_loss = 0.0

    def record():
        values = solver.density(state)
        trace.t.append(state.t)
        trace.mass.append(solver.mass(values))
        scale = math.exp(-lam_star * state.t) if linear and lam_star is not None else 1.0
        if target is not None:
            tv, pw = solver.distances(scale * values if linear else values, target, phi)
            trace.tv_to_target.append(tv)
            trace.phi_weighted_dist.append(pw)
        if linear and phi is not None and lam_star is not None:
            trace.invariant_value.append(scale * float(np.sum(values * phi * solver.mass_w)))
        if lam_star is not None:
            trace.D_t.append(solver.growth_diag(values, lam_star))
        trace.truncation_loss.append(cum_loss)

    record()
    for i in range(n_steps):
        cum_loss += step(state)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            record()
    return state, trace


def transform_check(solver: TransportSolver, state0: DensityState, T: float) -> float:
    """Max TV gap between exp(c int rho) n_t (nonlinear) and v_t (linear).

    The two runs start from copies of state0 and are stepped apart; the mass
    integral uses trapezoid in time with the start-of-step masses, matching
    the scheme's own lag.
    """
    nl, lin = state0.copy(), state0.copy()
    n_steps = int(round((T - state0.t) / solver.dt))
    c = solver.model.competition
    mass = solver.mass(nl.values)
    worst = int_rho = 0.0
    for _ in range(n_steps):
        solver.step_nonlinear(nl)
        solver.step_linear(lin)
        gap = solver.density(nl)
        previous, mass = mass, float(np.vdot(gap, solver.mass_w))
        int_rho += 0.5 * solver.dt * (previous + mass)
        gap *= math.exp(c * int_rho)
        gap -= solver.density(lin)
        worst = max(worst, float(np.vdot(np.abs(gap, out=gap), solver.mass_w)))
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
