"""Individual-based stochastic process at scale K, simulated by exact thinning.

Every particle carries (trait, birth time); ages advance deterministically,
so the only events are births and deaths. Proposals come from a global rate
bound refreshed after each event; rejected marks are phantoms. The simulator
is deterministic given (seed, K, model) and replicates use independent
streams spawned from one root seed.
"""

from __future__ import annotations

import ctypes
import math
import random
import weakref
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import _loops
from .kernel import MixForm
from .model import AgeGrid, RateModel, TraitGrid, mass_weights

PARTICLE_CAP = 5_000_000    # live particles per replicate before ExplosionError


class ExplosionError(RuntimeError):
    """Particle count cap hit; carries the partial event log."""

    def __init__(self, msg, log):
        super().__init__(msg)
        self.log = log


@dataclass
class EventLog:
    sample_times: np.ndarray
    masses: np.ndarray
    snapshots: list             # per sample time: (traits array, ages array) or None
    replicate: int = 0
    K: int = 1
    n_events: int = 0
    n_deaths: int = 0
    peak: int = 0               # largest live count
    aborted: bool = False
    events: list | None = None  # optional (t, kind) records
    loop: str = "python"        # which event loop ran: "c" or "python"


# _loops.c's family codes and the order of its four rate parameters; its
# `rate` evaluates the same bodies as these families' `scalar`
_C_RATES = {"constant": (0, ("value",)),
            "affine": (1, ("base", "slope_x", "slope_a")),
            "sqrt_gap": (2, ("bbar",)),
            "gaussian_bump": (3, ("base", "amp", "center", "width")),
            "logistic_age": (4, ("low", "high", "midpoint", "scale"))}


def _c_rate(fam) -> tuple[int, list[float]]:
    """(C family code, four parameters) of a rate whose family is in _C_RATES."""
    code, names = _C_RATES[fam.name]
    return code, [fam.params[k] for k in names] + [0.0] * (4 - len(names))


def _mutant_cdf_rows(model: RateModel, tgrid: TraitGrid) -> np.ndarray:
    """Inverse-CDF rows of the mutant trait law k(x_i, .) on the trait grid, (nx, nx).

    Piecewise-constant density over trait cells: documented O(dx) bias shared
    with the grid discretization. Row i is the normalised cumulative sum over
    the cells for source node i, built once from the kernel's trait matrix, so
    a draw is one bisection (the index that `np.searchsorted(row, u)` gives).
    The rows stay dense, (nx, nx), by the dynamics' rule: a draw reads one
    row's cumulative sum, which a factor of Mix does not give, and the
    dynamics run on grids whose nx^2 array is small beside their (nx, na) state.
    """
    cdf = np.cumsum(model.mutation_kernel.matrix(tgrid.nodes) * tgrid.dx, axis=1)
    return cdf / cdf[:, -1:]


def _sample(xs: list, bt: list, K: int, s: float, store_snapshots: bool):
    """Mass and (traits, ages) snapshot, or None, of the population at time s."""
    if not store_snapshots:
        return len(xs) / K, None
    ages = s - np.asarray(bt)   # before the traits: one temporary array alive at a time
    return len(xs) / K, (np.array(xs, float), ages)   # a copy, never a live buffer


# -- the compiled event loop (ibm_run in _loops.c), an optional speed-up ----

_DONE, _EXTINCT, _SAMPLE, _ABORTED, _FULL, _DOMAIN = range(6)


def _grown(buf: np.ndarray, used: int) -> np.ndarray:
    out = np.empty(2 * buf.size, buf.dtype)
    out[:used] = buf[:used]
    return out


def _c_events(lib, rng, traits, births, model, K, T, c, bd, rates, cdf, nodes, dx,
              particle_cap, samples, masses, snapshots, store_snapshots,
              record_events):
    """The Python loop's events, run by the compiled loop on rng's stream, from
    the initial traits and birth times (arrays), for the birth and death rates'
    (code, parameters) and the mutant CDF array.

    Fills masses and snapshots up to the last crossed sample time and returns
    (traits, birth times, t, n_events, n_deaths, peak, aborted, events, si).
    """
    st = _loops.IbmState()
    words = rng.getstate()[1]
    st.mt[:] = words[:624]
    st.mti = words[624]
    n = traits.size
    xa = np.empty(max(2 * n, 1024))
    ba = np.empty_like(xa)
    xa[:n], ba[:n] = traits, births
    ev_t = np.empty(1024 if record_events else 0)
    ev_k = np.empty(ev_t.size, np.uint8)
    nodes = np.ascontiguousarray(nodes, dtype=float)
    lo = model.trait_domain[0]
    st.n, st.t, st.T, st.s_next = n, 0.0, T, samples[0]
    st.peak, st.particle_cap = n, particle_cap
    (st.bfam, st.bpar[:]), (st.dfam, st.dpar[:]) = rates
    st.bd, st.c, st.K, st.p, st.lo, st.dx = bd, c, K, model.mutation_prob, lo, dx
    st.cdf, st.nodes, st.nx = cdf.ctypes.data, nodes.ctypes.data, nodes.size
    si = 0
    while True:
        st.xs, st.bt, st.cap = xa.ctypes.data, ba.ctypes.data, xa.size
        st.ev_t, st.ev_kind, st.ev_cap = ev_t.ctypes.data, ev_k.ctypes.data, ev_t.size
        status = lib.ibm_run(ctypes.byref(st))
        n = st.n
        if status == _SAMPLE:
            masses[si], snapshots[si] = _sample(xa[:n], ba[:n], K, st.s_next,
                                                store_snapshots)
            si += 1
            st.s_next = samples[si]
        elif status == _FULL:
            if n >= xa.size:
                xa, ba = _grown(xa, n), _grown(ba, n)
            if record_events and st.n_ev >= ev_t.size:
                ev_t, ev_k = _grown(ev_t, st.n_ev), _grown(ev_k, st.n_ev)
        elif status == _DOMAIN:
            raise ValueError("math domain error")
        else:
            break
    events = None
    if record_events:
        m = st.n_ev
        events = [(t, "birth" if k else "death")
                  for t, k in zip(ev_t[:m].tolist(), ev_k[:m].tolist())]
    return (xa[:n], ba[:n], st.t, st.n_events, st.n_deaths, st.peak,
            status == _ABORTED, events, si)


def simulate(model: RateModel, tgrid: TraitGrid, K: int, T: float,
             sample_times, seed: int, init=None, linear: bool = False,
             particle_cap: int = PARTICLE_CAP, store_snapshots: bool = True,
             replicate: int = 0, record_events: bool = False) -> EventLog:
    """Exact simulation of the birth/mutation/death process up to time T.

    init: the population at t=0 as a pair (traits, ages) of 1-D arrays of one
    length, as `sample_from_density` returns it; ValueError otherwise, before
    any draw. Defaults to K individuals at age 0 with traits uniform over the
    trait domain. Every sample time must lie in [0, T].

    The random stream is fixed by this loop: per event, one `random()` for the
    waiting time -log(1 - U)/(n * bound), `getrandbits(n.bit_length())` until
    the draw is below n for the particle, one `random()` for the mark, and on
    a birth one `random()` for mutation and one more for the mutant trait.

    Rates of the families in _C_RATES run this loop compiled (`ibm_run` in
    _loops.c) when the library builds and loads; other rate families, and any host
    without it, run it in Python on the families' `scalar` forms. Both read the
    stream identically, and the log's `loop` field says which one ran.
    """
    if K < 1:
        raise ValueError("scale K must be >= 1")
    if not (math.isfinite(T) and T > 0.0):   # the loop stops only at t >= T
        raise ValueError(f"horizon T must be finite and positive, got {T!r}")
    sample_times = np.asarray(sorted(sample_times), float)
    if not np.all((sample_times >= 0.0) & (sample_times <= T)):
        raise ValueError(f"sample times must lie in [0, T={T:g}]")
    if init is not None:
        traits, ages = (np.asarray(v, dtype=float) for v in init)
        if traits.ndim != 1 or traits.shape != ages.shape:
            raise ValueError("init must be (traits, ages), two 1-D arrays of one length; "
                             f"got shapes {traits.shape} and {ages.shape}")
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    ln = math.log
    lo, hi = model.trait_domain
    if init is None:
        traits, ages = np.array([lo + (hi - lo) * random_() for _ in range(K)]), np.zeros(K)
    births = np.negative(ages)     # birth times; age 0 is born at -0.0

    dsup = model.death.sup
    if not math.isfinite(dsup):
        raise ValueError("thinning needs a bounded death rate")
    bd = model.birth.sup + dsup
    B, D = model.birth.scalar, model.death.scalar
    c = 0.0 if linear else model.competition    # comp = c * n / K is then 0.0
    p = model.mutation_prob
    cdf = _mutant_cdf_rows(model, tgrid)
    dx = tgrid.dx

    masses = np.zeros(sample_times.size)
    snapshots: list = [None] * sample_times.size
    samples = sample_times.tolist() + [math.inf]
    si = 0
    s_next = samples[0]

    n = traits.size
    lib = None
    if (model.birth.name in _C_RATES and model.death.name in _C_RATES
            and max(n, particle_cap + 1) < 2**32):   # getrandbits(k) reads one word
        lib, _ = _loops.library()
    if lib is not None:
        rates = _c_rate(model.birth), _c_rate(model.death)
        xs, bt, t, n_events, n_deaths, peak, aborted, events, si = _c_events(
            lib, rng, traits, births, model, K, T, c, bd, rates, cdf, tgrid.nodes, dx,
            particle_cap, samples, masses, snapshots, store_snapshots, record_events)
    else:
        xs, bt = traits.tolist(), births.tolist()
        cdf_rows, nodes, last = cdf.tolist(), tgrid.nodes.tolist(), tgrid.n - 1
        peak = n
        n_events = n_deaths = 0
        t = 0.0
        aborted = False
        events: list | None = [] if record_events else None
        while n:
            comp = c * n / K
            bound = bd + comp
            t -= ln(1.0 - random_()) / (n * bound)
            if t >= T:
                t = T
                break
            while s_next <= t + 1e-12:
                masses[si], snapshots[si] = _sample(xs, bt, K, s_next, store_snapshots)
                si += 1
                s_next = samples[si]
            n_events += 1
            k = n.bit_length()
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            x = xs[i]
            a = t - bt[i]
            u = random_() * bound
            b = B(x, a)
            if u < b:
                if random_() < p:
                    row = cdf_rows[min(max(int((x - lo) / dx), 0), last)]
                    x = nodes[min(bisect_left(row, random_()), last)]
                xs.append(x)
                bt.append(t)
                n += 1
                if events is not None:
                    events.append((t, "birth"))
                if n > peak:
                    peak = n
                if n > particle_cap:
                    aborted = True
                    break
            elif u < b + D(x, a) + comp:
                xs[i] = xs[-1]
                bt[i] = bt[-1]
                xs.pop()
                bt.pop()
                n -= 1
                n_deaths += 1
                if events is not None:
                    events.append((t, "death"))
            # else: phantom mark, nothing happens

    for si in range(si, sample_times.size):
        masses[si], snapshots[si] = _sample(xs, bt, K, samples[si], store_snapshots)
    log = EventLog(sample_times=sample_times, masses=masses, snapshots=snapshots,
                   replicate=replicate, K=K, n_events=n_events, n_deaths=n_deaths,
                   peak=peak, aborted=aborted, events=events,
                   loop="python" if lib is None else "c")
    if aborted:
        raise ExplosionError(f"particle cap {particle_cap} exceeded at t={t:.4g}", log)
    return log


def run_replicates(model: RateModel, tgrid: TraitGrid, K: int, T: float,
                   sample_times, seed: int, M: int, init_sampler=None,
                   linear: bool = False, store_snapshots: bool = True) -> list[EventLog]:
    """M independent replicates with deterministically derived streams."""
    children = np.random.SeedSequence(seed).spawn(M)
    logs = []
    for m, child in enumerate(children):
        rep_seed = int(child.generate_state(1)[0])
        init = init_sampler(rep_seed) if init_sampler is not None else None
        logs.append(simulate(model, tgrid, K, T, sample_times, rep_seed,
                             init=init, linear=linear,
                             store_snapshots=store_snapshots, replicate=m))
    return logs


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

# One slot: (weakref to a frozen N_grid, tgrid, agrid, the grid's cell CDF), or None.
# An entry is one tuple, read and replaced whole, so a reader never mixes two.
_cdf_memo: list = [None]


def _forget(ref) -> None:
    """Drop the memo's CDF when its grid is freed."""
    entry = _cdf_memo[0]
    if entry is not None and entry[0] is ref:
        _cdf_memo[0] = None


def _frozen(arr: np.ndarray) -> bool:
    """True if neither arr nor any array it views is writeable."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _cell_cdf(N_grid: np.ndarray, tgrid: TraitGrid, agrid: AgeGrid) -> np.ndarray:
    """The CDF over the (x, a) cells that `Generator.choice` forms from the cell
    probabilities N w_i qa_j, with choice's checks on them. A frozen grid's CDF
    is kept until another is asked for or the grid is freed."""
    entry = _cdf_memo[0]
    if (entry is not None and entry[0]() is N_grid and entry[1] is tgrid
            and entry[2] is agrid):
        return entry[3]
    probs = np.maximum((N_grid * mass_weights(tgrid, agrid)).ravel(), 0.0)
    probs /= probs.sum()
    # choice's own test: NaN (a NaN grid, or no positive mass) or a sum off 1
    if not abs(probs.sum() - 1.0) <= math.sqrt(np.finfo(float).eps):
        raise ValueError("probabilities contain NaN or do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if _frozen(N_grid):
        _cdf_memo[0] = (weakref.ref(N_grid, _forget), tgrid, agrid, cdf)
    return cdf


def _bisect_sorted(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right"), as choice bisects, with u taken in
    sorted order, so the CDF is read in cache order, and scattered back."""
    order = u.argsort()
    idx = np.empty(u.size, np.intp)
    idx[order] = cdf.searchsorted(u[order], side="right")
    return idx


def sample_from_density(N_grid: np.ndarray, tgrid: TraitGrid, agrid: AgeGrid,
                        count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """count i.i.d. draws from a grid density (cellwise uniform), as the pair
    (traits, ages) of float arrays that `simulate` takes as its init.

    The draws are those of `default_rng(seed).choice(cells, count, p=probs)`
    over the cell probabilities, then one uniform offset per draw in x and one
    in a: the cells come from choice's algorithm, one inverse-CDF bisection per
    draw, made in the uniforms' sorted order (`_bisect_sorted`). A read-only
    grid (as `solve_eigentriple` returns N) keeps its CDF between calls; a
    writeable grid is read afresh on every call. A grid with a NaN, or with
    no positive mass, raises ValueError.
    """
    rng = np.random.default_rng(seed)
    idx = _bisect_sorted(_cell_cdf(N_grid, tgrid, agrid), rng.random(count))
    ii, jj = np.unravel_index(idx, N_grid.shape)
    dx = tgrid.dx
    x = tgrid.nodes[ii] + dx * (rng.random(count) - 0.5)
    a = np.maximum(agrid.nodes[jj] + agrid.da * (rng.random(count) - 0.5), 0.0)
    lo, hi = tgrid.nodes[0] - 0.5 * dx, tgrid.nodes[-1] + 0.5 * dx
    x = np.clip(x, lo + 1e-12, hi - 1e-12)
    return x, a


INTERP_BLOCK = 8192     # particles per block of interp_phi


def interp_phi(phi_grid: np.ndarray, tgrid: TraitGrid, agrid: AgeGrid,
               x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid function, clamped at the edges.

    phi_grid must be (tgrid.n, agrid.n_cells + 1), else ValueError before any
    read. Every value has the bits of the 2-D-indexed formula
    phi[i0, j0] (1 - tx)(1 - ta) + phi[i0 + 1, j0] tx (1 - ta)
    + phi[i0, j0 + 1] (1 - tx) ta + phi[i0 + 1, j0 + 1] tx ta.
    Where the compiled library loads, `phi_interp` in _loops.c evaluates each
    point with this body's operations in their order; otherwise this body
    takes the points by blocks of INTERP_BLOCK, each corner read by one flat
    index, so no temporary outgrows a block.
    """
    shape = (tgrid.n, agrid.n_cells + 1)
    if np.shape(phi_grid) != shape:
        raise ValueError(f"phi shape {np.shape(phi_grid)} differs from the lattice's {shape}")
    x, a = np.broadcast_arrays(np.asarray(x, float), np.asarray(a, float))
    out = np.empty(x.shape)
    flat = np.ascontiguousarray(phi_grid, dtype=float).reshape(-1)
    ncol = shape[1]
    x0, dx = tgrid.nodes[0], tgrid.dx
    lib = _loops.library()[0]
    if lib is not None:
        xs, as_ = np.ascontiguousarray(x), np.ascontiguousarray(a)
        lib.phi_interp(out.size, xs.ctypes.data, as_.ctypes.data, flat.ctypes.data,
                       tgrid.n, ncol, x0, dx, agrid.da, out.ctypes.data)
        return out
    xs, as_, flat_out = x.reshape(-1), a.reshape(-1), out.reshape(-1)
    for s in range(0, xs.size, INTERP_BLOCK):
        xi = xs[s:s + INTERP_BLOCK] - x0
        xi /= dx
        np.clip(xi, 0.0, tgrid.n - 1.0, out=xi)
        aj = as_[s:s + INTERP_BLOCK] / agrid.da
        np.clip(aj, 0.0, agrid.n_cells - 0.0, out=aj)
        # the lower corner (i0, j0), as floats: xi and aj are clipped to [0, n - 1],
        # so floor and the upper clip give the integers the formula's clips give.
        # The upper clip is phi_interp's v < hi ? v : hi, where a NaN and a tie of
        # zeros take hi (np.fmin signs a tie by the entry's place in its SIMD loop)
        i0, j0 = np.floor(xi), np.floor(aj)
        i0[~(i0 < tgrid.n - 2.0)] = tgrid.n - 2.0
        j0[~(j0 < agrid.n_cells - 1.0)] = agrid.n_cells - 1.0
        xi -= i0                      # tx
        aj -= j0                      # ta
        i0 *= ncol
        i0 += j0
        k = i0.astype(np.intp)        # the flat index of (i0, j0)
        sx, sa = 1 - xi, 1 - aj
        v = flat_out[s:s + INTERP_BLOCK]
        flat.take(k, out=v)
        v *= sx
        v *= sa
        for corner, wx, wa in ((ncol, xi, sa), (1, sx, aj), (ncol + 1, xi, aj)):
            term = flat.take(k + corner)    # (i0 + 1, j0), (i0, j0 + 1), (i0 + 1, j0 + 1)
            term *= wx
            term *= wa
            v += term
    return out


def martingale_series(logs: list[EventLog], phi_grid: np.ndarray,
                      lam_star: float, tgrid: TraitGrid, agrid: AgeGrid) -> dict:
    """V_t = e^{-lam* t} K^{-1} sum phi(x_i, a_i) per replicate and sample time.

    Returns the series plus the flatness statistic mean(V_T - V_0) with its
    standard error across replicates. Every log must carry its snapshots
    (store_snapshots=True); a missing one raises ValueError.
    """
    times = logs[0].sample_times
    V = np.zeros((len(logs), times.size))
    for m, log in enumerate(logs):
        for s, snap in enumerate(log.snapshots):
            if snap is None:
                raise ValueError(f"replicate {log.replicate} has no snapshot at "
                                 f"t={times[s]:g}; simulate with store_snapshots=True")
            x, a = snap
            if x.size:
                vals = interp_phi(phi_grid, tgrid, agrid, x, a)
                V[m, s] = math.exp(-lam_star * times[s]) * float(vals.sum()) / log.K
    drift = V[:, -1] - V[:, 0]
    se = float(drift.std(ddof=1) / math.sqrt(len(logs))) if len(logs) > 1 else math.nan
    return {"times": times, "V": V, "mean_drift": float(drift.mean()), "se": se}


def square_integrability_constant(model: RateModel, phi_grid: np.ndarray, tgrid: TraitGrid,
                                  agrid: AgeGrid, mix: MixForm) -> float | None:
    """Grid estimate of the least C with G[phi^2] + D phi^2 <= C phi (G from Mix),
    over the cells where phi or the left side is nonzero; None if no finite C."""
    X = tgrid.nodes[:, None]
    A = agrid.nodes[None, :]
    B = np.asarray(model.birth(X, A), float)
    D = np.asarray(model.death(X, A), float)
    lhs = B * (mix.T @ phi_grid[:, 0] ** 2)[:, None] + D * phi_grid ** 2
    cells = (phi_grid != 0) | (lhs != 0)
    if np.any(phi_grid[cells] <= 0):
        return None
    return float((lhs[cells] / phi_grid[cells]).max(initial=0.0))
