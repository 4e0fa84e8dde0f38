"""Grid dynamics of the structured-population equation with competition c * mass.

Transport in age is exact along characteristics (the lattice shifts one cell
per step, dt = da locked), death is exact through the survival matrix, and
the renewal boundary is semi-implicit: the newborn generation solves a small
linear system so eigen-identities hold to first order without a step lag. That
system, built from the dense form of the birth-mutation matrix Mix
(`kernel.MixForm.toarray`), is solved once, in advance: each step applies one
precomposed (nx, nx) matrix. The dynamics keep that dense array by rule: their
state is (nx, na) and na is in the thousands, so an nx^2 array is small beside
it, while the spectral stack holds Mix in its factored form.
Stepping holds n = s R_0 u, a renewal equation in u (see
`TransportSolver.step_nonlinear`, the one step). The flow is the model's: the
linear flow is the flow of the model with c = 0, and since u's recursion is
free of c, `transform_check` reads the linear flow off the nonlinear ring.
Where the compiled library (_loops.c) loads, the steps of a block run in one
call (`pde_steps`) and a trace record of `run` takes its sums in one pass that
reads the ring in place (`pde_record`); `run` advances each record interval
with one call of `step_nonlinear`. Without the library the steps run one by
one in NumPy and a record sums by NumPy over the materialised density.

Past the age a_f where the rates stop reading age (`RateModel.age_flat_from`),
from the lattice's first node at or past it (`kernel.prefix_cells`, as the
age collapse cuts it; no such node where a_f is inf), B, D and R's decay
rate are constant along each trait row. There a block's history sums over
the ring's ages are two parity running sums per row, in closed form, and
only the ages before it go through the FFT; the compiled record reads
B - D - lambda* and phi once per row (phi where `run` finds it flat there).
Where no node is past a_f, both are as they were cell by cell, to the bit."""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import _loops
from .kernel import MixForm, prefix_cells, survival_matrix
from .model import AgeGrid, RateModel, TraitGrid, grid_integral, mass_weights

_S_FLOOR = 1e-100   # s only shrinks (c >= 0); below this it is folded into u
_BLOCK = 512        # most steps in a block, whose history sums one FFT gives
_CHUNK = 8          # traits per FFT, to bound its temporaries
_NONFINITE = "transport step produced a negative, NaN or infinite density"


class DensityState:
    """Nonnegative (nx, na+1) density at time t; `values` materialises a stepped state."""

    def __init__(self, t: float, values: np.ndarray):
        self.t = t
        self._values = values
        self._cohort = None         # (solver, u, head, s, msum, block); mass = s * msum

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values, self._cohort = self._cohort[0].density(self), None
        return self._values

    def copy(self) -> "DensityState":
        return DensityState(self.t, self.values.copy())


class TraceRecord:
    def __init__(self, steps: int, record: str):
        self.t, self.mass, self.tv_to_target, self.phi_weighted_dist = [], [], [], []
        self.invariant_value, self.D_t, self.truncation_loss = [], [], []
        self.steps = steps
        self.record = record    # which loops stepped and took the sums: "c" or "numpy"

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class TransportSolver:
    """Precomputed machinery for stepping one scenario on fixed grids, given its Mix."""

    def __init__(self, model: RateModel, tgrid: TraitGrid, agrid: AgeGrid, mix: MixForm):
        self.model, self.tgrid, self.agrid, self.mix = model, tgrid, agrid, mix
        self.dt = agrid.da       # transport step locked to the age step
        xs, ages = tgrid.nodes, agrid.nodes
        self.qa = agrid.quad_weights()
        self.mass_w = mass_weights(tgrid, agrid)
        self.B = np.asarray(model.birth(xs[:, None], ages[None, :]), float)
        D = np.asarray(model.death(xs[:, None], ages[None, :]), float)
        self._net = self.B - D

        self.R = R = survival_matrix(model, xs, ages, 0.0)
        R[R < 1e-300] = 0.0     # keeps u = n / R finite
        # the tail: the ages from the first node at or past a_f, where neither rate
        # reads age (`kernel.prefix_cells`); none where no node is that old
        self.prefix_cells = p = prefix_cells(model, ages)
        self._tail = t = p if ages[p] >= model.age_flat_from else ages.size
        K = min(_BLOCK, ages.size)
        n = t + K                           # and the FFT length is the next 5-smooth
        self._nfft = next(m for m in range(n, 2 * n) if 30 ** 64 % m == 0)
        # birth and mass weights per unit u, on the ages the prefix's sums and a step read
        k = min(n, ages.size)
        self._W = W = np.empty((tgrid.n, 2, k))
        np.multiply(self.B[:, :k] * self.qa[:k], R[:, :k], out=W[:, 0])
        np.multiply(self.mass_w[:k], R[:, :k], out=W[:, 1])
        self._W_norm = np.sqrt(np.einsum("xrj,xrj->xr", W, W))
        if t < ages.size:
            # on the tail (j >= t), W[x, r, j + m] = w[x, r] qa_{j+m} R[x, j] e^{-D_x a_m}
            # with w = (B(x, a_t), dx); here w qa_0 e^{-D a_m} by block step m, as
            # Simpson's weights are qa_0 (1, 4, 2, ..., 4, 1)
            decay = np.exp(np.multiply.outer(-D[:, t], agrid.da * np.arange(1, K + 1)))
            self._tail_w = np.stack([self.B[:, t, None] * decay, tgrid.dx * decay], axis=1)
            self._tail_w *= self.qa[0]
        self.history = {"fft_blocks": 0, "direct_blocks": 0, "closed_form_blocks": 0}
        # the horizon column's mass one cell on, per unit of u; divided first
        # so that R^2 cannot underflow where R does not
        self._loss_w = (R[:, -1] / np.maximum(R[:, -2], 1e-300) * R[:, -1]
                        * tgrid.dx * self.qa[-1])

        # newborns: n0 = Mix (f + qa_0 B(., 0) n0), with f the births of the
        # older ages; so n0 = G f, G = (I - qa_0 Mix diag(B(., 0)))^{-1} Mix
        dense = mix.toarray()
        self._newborn = np.ascontiguousarray(np.linalg.solve(
            np.eye(tgrid.n) - self.qa[0] * dense * self.B[:, 0], dense))
        # the host's compiled loops, or None: the solver then steps by NumPy
        self._lib = _loops.library()[0]

    # -- quadratures -------------------------------------------------------

    def mass(self, values: np.ndarray) -> float:
        return float(np.sum(values @ self.mass_w))

    # -- stepping ----------------------------------------------------------

    def density(self, state: DensityState, out: np.ndarray | None = None) -> np.ndarray:
        """The state's values; a cohort-form state is materialised (into `out` if given)."""
        if state._values is not None:
            return state._values
        _, u, head, s = state._cohort[:4]
        values, k = np.empty_like(u) if out is None else out, u.shape[1] - head
        np.multiply(u[:, head:], self.R[:, :k], out=values[:, :k])   # unroll the ring
        np.multiply(u[:, :head], self.R[:, k:], out=values[:, k:])
        values *= s
        return values

    def _history(self, u: np.ndarray, head: int, hist: np.ndarray) -> None:
        """hist[:, :, m-1] = sum_j W[:, :, j+m] c_j, c_j the ring's column at age a_j:
        its births and mass over the next K steps.

        The terms of the prefix's ages (j before the tail) are by FFT if K > 1, the
        sums are finite and the bound max_x |W_x| |c_x| is within 100 times the
        largest, and else direct. Those of the tail's ages are w e^{-D a_m} sum_j
        qa_{j+m} R_j c_j (see `__init__`), in closed form: Simpson's qa_{j+m} is 4
        or 2 times qa_0 by the parity of j + m, and qa_0 at the last node, so the
        sum is two running sums of R c from the tail start, one for each parity of
        j, read at L - 1 - m. The FFT with its guard, the direct sums and the closed
        form all run by _CHUNK trait rows, so none forms a temporary of the ring's
        size. No path warns: a sum that overflows is left for the step to raise."""
        (nx, L), K, t = u.shape, hist.shape[2], self._tail
        with np.errstate(over="ignore", invalid="ignore"):
            if t == 0:
                hist[...] = 0.0
            elif K == 1 or not self._prefix_fft(u, head, hist):
                for i in range(0, nx, _CHUNK):
                    rows = slice(i, i + _CHUNK)
                    c = np.roll(u[rows], -head, axis=1)
                    for m in range(1, K + 1):
                        j = min(t, L - m)
                        hist[rows, :, m - 1] = np.matmul(self._W[rows, :, m:m + j],
                                                         c[:, :j, None])[:, :, 0]
            if t == L:
                return
            self.history["closed_form_blocks"] += 1
            M = min(K, L - 1 - t)                   # the steps m that a tail age reaches
            # sum_{t <= i <= j} of R_i c_i over the i of j's parity, at column j - t + 2
            sums = np.zeros((min(_CHUNK, nx), L - t + 2))
            top = np.arange(L - t, L - t - M, -1)   # j = L - 1 - m
            for i in range(0, nx, _CHUNK):
                rows = slice(i, i + _CHUNK)
                c = np.roll(u[rows], -head, axis=1)[:, t:]
                g = sums[:c.shape[0]]
                np.multiply(c, self.R[rows, t:], out=g[:, 2:])
                last = g[:, top]                    # the last node's term, qa_0 R c
                np.cumsum(g[:, 0::2], axis=1, out=g[:, 0::2])
                np.cumsum(g[:, 1::2], axis=1, out=g[:, 1::2])
                # in qa_0: 2 for the i of j's parity (m's, as L - 1 is even), 4 for
                # the others, and 1, not 2, at j itself, the last node
                part = 2.0 * g[:, top] + 4.0 * g[:, top - 1] - last
                hist[rows, :, :M] += self._tail_w[rows, :, :M] * part[:, None]

    def _prefix_fft(self, u: np.ndarray, head: int, hist: np.ndarray) -> bool:
        """The prefix's history sums by FFT into hist; whether they pass the accuracy
        guard, which the history counters record."""
        (nx, _), K, t, n = u.shape, hist.shape[2], self._tail, self._nfft
        norm, largest, finite = np.empty(nx), np.zeros(2), True
        for i in range(0, nx, _CHUNK):
            rows = slice(i, i + _CHUNK)
            c = np.roll(u[rows], -head, axis=1)[:, :t]
            norm[rows] = np.sqrt(np.einsum("ij,ij->i", c, c))
            ring = np.fft.rfft(c, n).conj()[:, None]
            spectra = np.fft.rfft(self._W[rows], n) * ring
            hist[rows] = np.fft.irfft(spectra, n)[:, :, 1:K + 1]
            finite = finite and bool(np.isfinite(hist[rows]).all())
            np.maximum(largest, abs(hist[rows]).max((0, 2)), out=largest)
        bound = (self._W_norm * norm[:, None]).max(0)
        ok = finite and bool(np.all(bound <= 100 * largest))
        self.history["fft_blocks" if ok else "direct_blocks"] += 1
        return ok

    def step_nonlinear(self, state: DensityState, n: int = 1) -> float:
        """n steps of dt, each n <- exp(-c m dt) L n, L linear, c the model's
        competition rate and m the start-of-step mass; returns their summed
        truncation loss.

        n = s R u: column (head + j) mod (na+1) of the ring u is the cohort at
        age a_j, so transport moves the head, death is in R, competition
        scales s, and the newborns (R = 1 at age 0) are the one column written.
        As u's recursion is free of s, a block takes its history sums at its start
        and reads its newborns off the ring, which it does not wrap. With c = 0
        s stays 1: this is then the linear step.

        The steps of a block run in one call of `pde_steps` in _loops.c where
        the library loaded when the solver was built, and otherwise one by one
        in NumPy (`_numpy_step`); the two agree to roundoff.
        """
        if state._cohort is None or state._cohort[0] is not self:
            v = state.values
            if not (np.isfinite(v).all() and (v >= 0.0).all()):
                raise ValueError("density state has a negative, NaN or infinite entry")
            # the ring is float64 in C order whatever v is: the C loops read it so
            u = np.divide(v, self.R, out=np.zeros(v.shape), where=self.R > 0.0)
            # the ring holds the state from here: v would otherwise live through the steps
            state._values, state._cohort = None, (self, u, 0, 1.0, self.mass(v), None)
            del v
        _, u, head, s, msum, block = state._cohort
        hist, m, K = block or (np.empty((u.shape[0], 2, _BLOCK)), 0, 0)
        loss = 0.0
        while n > 0:
            if m == K:
                m, K = 0, 1 if K == 0 else min(_BLOCK, head or u.shape[1])
                self._history(u, head, hist[:, :, :K])
            k = min(n, K - m)
            if self._lib is None:
                for _ in range(k):
                    step_loss, head, s, msum = self._numpy_step(u, head, s, msum, hist, m)
                    loss, m, state.t = loss + step_loss, m + 1, state.t + self.dt
            else:
                ring = _loops.PdeRing(*u.shape, u.ctypes.data, head, s, msum, state.t,
                                      hist.ctypes.data, hist.shape[2], m, self._W.ctypes.data,
                                      self._W.shape[2], self._newborn.ctypes.data,
                                      self._loss_w.ctypes.data, self.mass_w[0],
                                      self.model.competition, self.dt, _S_FLOOR, loss)
                if self._lib.pde_steps(ring, k):
                    raise ValueError(_NONFINITE)
                head, s, msum, m, state.t, loss = (ring.head, ring.s, ring.msum, ring.m,
                                                   ring.t, ring.loss)
            n -= k
        state._values, state._cohort = None, (self, u, head, s, msum, (hist, m, K))
        return loss

    def _numpy_step(self, u, head, s, msum, hist, m):
        """Step m of a block on the ring: (truncation loss, head, s, msum) after it."""
        loss = s * float(self._loss_w @ u[:, head - 1])
        s *= math.exp(-self.model.competition * s * msum * self.dt)
        head = (head - 1) % u.shape[1]
        # per trait: births and mass of the history and of the block's newborns
        young = np.matmul(self._W[:, :, 1:m + 1], u[:, head + 1:head + m + 1, None])
        sums = hist[:, :, m] + young[:, :, 0]
        u[:, head] = np.maximum(self._newborn @ sums[:, 0], 0.0) if s > 0.0 else math.nan
        if not np.isfinite(u[:, head]).all():
            raise ValueError(_NONFINITE)
        msum = float(sums[:, 1].sum() + self.mass_w[0] * u[:, head].sum())
        if s < _S_FLOOR:
            u *= s
            hist *= s
            s, msum = 1.0, msum * s
        return loss, head, s, msum

    # -- distances and diagnostics ----------------------------------------

    def distances(self, values: np.ndarray, target: np.ndarray, phi: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[float, float]:
        """Plain and phi-weighted L1 distances, formed in `out` if given."""
        diff = np.abs(np.subtract(values, target, out=out), out=out)
        diff *= self.mass_w
        tv = float(diff.sum())
        return tv, float(np.multiply(diff, phi, out=diff).sum())

    def growth_diag(self, values: np.ndarray, excess: np.ndarray, mass: float) -> float:
        """D(t): mass-weighted mean of B - D - lambda*, given values' mass and the
        weights (B - D - lambda*) mass_w, by one pass (NumPy's own loop, not BLAS)."""
        return float(np.einsum("ij,ij->", values, excess)) / mass if mass > 0 else math.nan


def _n_steps(solver: TransportSolver, state: DensityState, T: float) -> int:
    """Steps from state.t to the first step time at or after T, to 1e-9 dt."""
    if not (math.isfinite(T) and T >= state.t):
        raise ValueError(f"horizon T = {T!r} must be finite and at least the "
                         f"state's time {state.t!r}")
    return math.ceil((T - state.t) / solver.dt - 1e-9)


def run(solver: TransportSolver, state: DensityState, T: float,
        target: np.ndarray | None = None, phi: np.ndarray | None = None,
        lam_star: float | None = None,
        record_every: int = 1) -> tuple[DensityState, TraceRecord]:
    """Step to the first step time at or after T, tracing mass, distances, and
    the conserved pairing. T must be finite and not before state.t, else
    ValueError; so is a state, target or phi whose shape is not the solver's.

    The flow is the solver's model's: a run is linear exactly when its
    competition rate is 0 (the linear flow of a model is the flow of
    `structpop.model.replace(model, competition=0.0)`). A linear run with
    lam_star supplied scales the state by e^{-lam* t} before its distances, so
    the trace holds the distances of e^{-lam* t} v_t to the target (the
    expected limit m0 * N), and with phi also the invariant sum(e^{-lam* t} v phi).

    The steps between two records are one call of `step_nonlinear`, so
    record_every below 1 raises ValueError. Every record takes the same five
    sums (mass, D(t)'s numerator, the invariant, tv and pw), reading a
    stand-in grid for an absent target, phi or lam_star, and keeps those of
    the grids it was given (pw is NaN without phi). It takes them in one pass
    over the cohort ring, or over the state's values where it holds them, by
    `pde_record` in _loops.c when the library builds and loads, and otherwise
    by NumPy over the materialised density; `trace.record` says which, and
    the solver steps on the same path (the host's library, loaded when the
    solver was built). The two agree to roundoff. On the solver's tail the
    compiled record reads B - D - lambda* and phi once per trait row, phi
    only where it equals its tail-start value on every later age of each
    row, and otherwise at every age. No record sums by a BLAS dot product,
    whose order of summation moves with the BLAS thread count, nor does a
    compiled step.
    """
    if record_every < 1:
        raise ValueError(f"record_every = {record_every!r} must be at least 1")
    linear = solver.model.competition == 0
    n_steps = _n_steps(solver, state, T)
    shape = solver.R.shape
    if state._values is None and state._cohort[0] is not solver:
        state.values        # a ring another solver stepped, read through that solver
    for name, grid in (("state", state._values), ("target", target), ("phi", phi)):
        if grid is not None and np.shape(grid) != shape:
            raise ValueError(f"{name} shape {np.shape(grid)} differs from the "
                             f"solver's {shape}")
    lib = _loops.library()[0]
    trace = TraceRecord(steps=n_steps, record="numpy" if lib is None else "c")
    cum_loss = 0.0
    invariant = linear and phi is not None and lam_star is not None
    # the C reads these through raw pointers: float64, C order, held until run
    # returns; solver.R, already so, stands in for an absent grid
    growth = solver.R if lam_star is None else solver._net - lam_star
    phi_g, target_g = (solver.R if g is None else np.ascontiguousarray(g, dtype=float)
                       for g in (phi, target))

    if lib is None:
        buf = np.empty(shape)
        excess, phi_w = growth * solver.mass_w, phi_g * solver.mass_w
        del growth      # the NumPy record reads (B - D - lambda*) mw alone

        def sums(scale):    # one materialisation into buf, which the distances overwrite
            values = solver.density(state, out=buf)
            mass = solver.mass(values)
            d_t = solver.growth_diag(values, excess, mass)
            inv = float(np.einsum("ij,ij->", values, phi_w))
            tv, pw = solver.distances(np.multiply(values, scale, out=buf), target_g, phi_g,
                                      out=buf)
            return mass, d_t, inv, tv, pw
    else:
        R, mw, gr, ph, tg = (g.ctypes.data for g in (solver.R, solver.mass_w, growth, phi_g,
                                                     target_g))
        # the record's tail: growth is flat along each row past the solver's
        # tail start, and phi must be too for a row to read it once
        tail = solver._tail
        if phi is not None and not all((phi_g[i:i + _CHUNK, tail:]
                                        == phi_g[i:i + _CHUNK, tail:tail + 1]).all()
                                       for i in range(0, shape[0], _CHUNK)):
            tail = shape[1]
        out = np.empty(5)

        def sums(scale):    # over the ring v = s u R, or over a materialised state's values
            if state._values is not None:
                u = np.ascontiguousarray(state._values, dtype=float)
                head, s, ring_R = 0, 1.0, None
            else:
                (_, u, head, s), ring_R = state._cohort[:4], R
            lib.pde_record(shape[0], shape[1], u.ctypes.data, head, s, ring_R, mw, gr,
                           ph, tg, scale, tail, out.ctypes.data)
            mass, num, inv, tv, pw = out.tolist()
            return mass, num / mass if mass > 0 else math.nan, inv, tv, pw

    def record():
        scale = math.exp(-lam_star * state.t) if linear and lam_star is not None else 1.0
        mass, growth, inv, tv, pw = sums(scale)
        trace.t.append(state.t)
        trace.mass.append(mass)
        if invariant:
            trace.invariant_value.append(scale * inv)
        if lam_star is not None:
            trace.D_t.append(growth)
        if target is not None:
            trace.tv_to_target.append(tv)
            trace.phi_weighted_dist.append(pw if phi is not None else math.nan)
        trace.truncation_loss.append(cum_loss)

    record()
    for done in range(0, n_steps, record_every):     # one call per record interval
        cum_loss += solver.step_nonlinear(state, min(record_every, n_steps - done))
        record()
    return state, trace


def transform_check(solver: TransportSolver, state0: DensityState, T: float) -> float:
    """Max TV gap between exp(c int rho) n_t (nonlinear) and v_t (linear, c = 0).

    One copy of state0 is stepped. The ring recursion in u is free of s, so
    n_t = S_t v_t with the scalar S_t = prod_k exp(-c m_k dt), m_k the
    start-of-step mass, and the gap is |exp(c int rho) S_t - 1| m_t / S_t.
    The mass integral uses trapezoid in time with the start-of-step masses,
    matching the scheme's own lag. T must be finite and not before state0.t.
    """
    n_steps = _n_steps(solver, state0, T)
    state, c, dt = state0.copy(), solver.model.competition, solver.dt
    mass = solver.mass(state.values)
    S, worst, int_rho = 1.0, 0.0, 0.0
    for _ in range(n_steps):
        solver.step_nonlinear(state)
        S *= math.exp(-c * mass * dt)
        s, msum = state._cohort[3:5]
        previous, mass = mass, s * msum
        int_rho += 0.5 * dt * (previous + mass)
        worst = max(worst, abs(math.exp(c * int_rho) * S - 1.0) * mass / S)
    return worst


# ---------------------------------------------------------------------------
# stationarity in weak form
# ---------------------------------------------------------------------------

def default_test_basket(tgrid: TraitGrid,
                        agrid: AgeGrid) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Smooth (f, df/da) pairs: polynomials and trig in x times decaying age,
    each pair of (nx, na+1) grids formed as it is asked for."""
    X = tgrid.nodes[:, None]
    A = agrid.nodes[None, :]
    ea = np.exp(-A)
    for g in (np.ones_like(X), X, X ** 2, np.sin(np.pi * X), np.cos(np.pi * X)):
        ones = g * np.ones_like(A)
        yield ones, np.zeros_like(ones)
        del ones        # the caller may drop it: holding it costs a grid
        yield g * ea, -g * ea
        yield g * A * ea, g * (1.0 - A) * ea


def stationary_residual(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid,
                        mix: MixForm, nbar: np.ndarray) -> float:
    """Max weak-form defect |int (df/da - (D + c mass) f + G[f]) nbar| over
    the functions f of `default_test_basket`, for the birth-mutation matrix mix.

    Each term is its own `grid_integral`, and int G[f] nbar is (Mix^T f(., 0))
    . b with b_i = int B nbar dx da on trait row i, so besides the pair being
    tested only (D + c mass) nbar is a grid."""
    X, A = tgrid.nodes[:, None], agrid.nodes[None, :]
    mass = grid_integral(tgrid, agrid, nbar)
    b = np.multiply(model.birth(X, A), nbar) @ mass_weights(tgrid, agrid)
    loss = np.asarray(model.death(X, A), float) + model.competition * mass
    loss *= nbar
    worst = 0.0
    for f, dfda in default_test_basket(tgrid, agrid):
        defect = (grid_integral(tgrid, agrid, dfda, nbar) - grid_integral(tgrid, agrid, f, loss)
                  + float((mix.T @ f[:, 0]) @ b))
        worst = max(worst, abs(defect))
        del f, dfda     # before the basket forms the next pair
    return worst


def mass_ode_residual(trace: TraceRecord, lam_star: float, c: float) -> float | None:
    """Max defect of d rho/dt = rho (D(t) + lam*) - c rho^2 by central differences;
    None for fewer than three records."""
    t = np.asarray(trace.t)
    m = np.asarray(trace.mass)
    Dt = np.asarray(trace.D_t)
    if t.size < 3:
        return None
    dm = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
    rhs = m[1:-1] * (Dt[1:-1] + lam_star) - c * m[1:-1] ** 2
    return float(np.abs(dm - rhs).max())


def dirac_state(tgrid: TraitGrid, agrid: AgeGrid, x: float, a: float = 0.0,
                mass: float = 1.0) -> DensityState:
    """Single-cell spike carrying the given quadrature mass at (x, a)."""
    i = int(np.argmin(np.abs(tgrid.nodes - x)))
    j = int(round(a / agrid.da))
    values = np.zeros((tgrid.n, agrid.n_cells + 1))
    values[i, j] = mass / mass_weights(tgrid, agrid)[j]
    return DensityState(t=0.0, values=values)


def uniform_state(tgrid: TraitGrid, agrid: AgeGrid, a_scale: float = 1.0,
                  mass: float = 1.0) -> DensityState:
    """Trait-uniform density with an exponential age profile, given mass."""
    prof = np.exp(-agrid.nodes / a_scale)
    values = np.ones((tgrid.n, 1)) * prof[None, :]
    values *= mass / float(np.sum(values * mass_weights(tgrid, agrid)))
    return DensityState(t=0.0, values=values)
