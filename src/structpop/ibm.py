"""Individual-based stochastic process at scale K, simulated by exact thinning.

Every particle carries (trait, birth time); ages advance deterministically,
so the only events are births and deaths. Proposals come from a global rate
bound refreshed after each event; rejected marks are phantoms. The simulator
is deterministic given (seed, K, model) and replicates use independent
streams spawned from one root seed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .model import AgeGrid, RateModel, TraitGrid
from .pde import DensityState

PARTICLE_CAP = 5_000_000    # live particles per replicate before ExplosionError


class ExplosionError(RuntimeError):
    """Particle count cap hit; carries the partial event log."""

    def __init__(self, msg, log):
        super().__init__(msg)
        self.log = log


@dataclass
class Population:
    xs: list                    # traits
    birth_times: list           # birth times (age = t - birth_time)
    K: int
    t: float = 0.0

    @property
    def size(self) -> int:
        return len(self.xs)

    @property
    def mass(self) -> float:
        return self.size / self.K


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


# -- fast scalar rate evaluation (the event loop is pure Python) -------------

def _scalar_rate(fam, domain):
    lo, _ = domain
    if fam.name == "constant":
        v = fam.params["value"]
        return lambda x, a: v
    if fam.name == "affine":
        base, sx, sa = fam.params["base"], fam.params["slope_x"], fam.params["slope_a"]
        return lambda x, a: base + sx * x + sa * a
    if fam.name == "sqrt_gap":
        bbar = fam.params["bbar"]
        return lambda x, a: bbar - math.sqrt(x - lo)
    return lambda x, a: float(fam.fn(x, a))


def _mutant_cdf_rows(model: RateModel, tgrid: TraitGrid) -> list[list[float]]:
    """Inverse-CDF rows of the mutant trait law k(x_i, .) on the trait grid.

    Piecewise-constant density over trait cells: documented O(dx) bias shared
    with the grid discretization. Row i is the normalised cumulative sum over
    the cells for source node i, built once from the kernel's trait matrix as
    plain lists, so a draw is one `bisect_left` (the index that
    `np.searchsorted(row, u)` gives).
    """
    cdf = np.cumsum(model.mutation_kernel.matrix(tgrid.nodes) * tgrid.weights, axis=1)
    return (cdf / cdf[:, -1:]).tolist()


def _sample(xs: list, bt: list, K: int, s: float, store_snapshots: bool):
    """Mass and (traits, ages) snapshot, or None, of the population at time s."""
    if not store_snapshots:
        return len(xs) / K, None
    ages = s - np.asarray(bt)   # before the traits: one temporary array alive at a time
    return len(xs) / K, (np.asarray(xs, float), ages)


def simulate(model: RateModel, tgrid: TraitGrid, K: int, T: float,
             sample_times, seed: int, init=None, linear: bool = False,
             particle_cap: int = PARTICLE_CAP, store_snapshots: bool = True,
             replicate: int = 0, record_events: bool = False) -> EventLog:
    """Exact simulation of the birth/mutation/death process up to time T.

    init: iterable of (trait, age) pairs at t=0; defaults to K individuals at
    age 0 with traits uniform over the trait domain. Every sample time must lie
    in [0, T].

    The random stream is fixed by this loop: per event, one `random()` for the
    waiting time -log(1 - U)/(n * bound), `getrandbits(n.bit_length())` until
    the draw is below n for the particle, one `random()` for the mark, and on
    a birth one `random()` for mutation and one more for the mutant trait.
    """
    if K < 1:
        raise ValueError("scale K must be >= 1")
    sample_times = np.asarray(sorted(sample_times), float)
    if not np.all((sample_times >= 0.0) & (sample_times <= T)):
        raise ValueError(f"sample times must lie in [0, T={T:g}]")
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    ln = math.log
    lo, hi = model.trait_domain
    if init is None:
        init = [(lo + (hi - lo) * random_(), 0.0) for _ in range(K)]
    xs = [float(x) for x, _ in init]
    bt = [-float(a) for _, a in init]

    dsup = model.death.sup
    if not math.isfinite(dsup):
        raise ValueError("thinning needs a bounded death rate")
    bd = model.birth.sup + dsup
    B = _scalar_rate(model.birth, model.trait_domain)
    D = _scalar_rate(model.death, model.trait_domain)
    c = 0.0 if linear else model.competition    # comp = c * n / K is then 0.0
    p = model.mutation_prob
    cdf_rows = _mutant_cdf_rows(model, tgrid)
    nodes = tgrid.nodes.tolist()
    last = len(nodes) - 1
    dx = float(tgrid.weights[0])

    masses = np.zeros(sample_times.size)
    snapshots: list = [None] * sample_times.size
    samples = sample_times.tolist() + [math.inf]
    si = 0
    s_next = samples[0]

    n = len(xs)
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
                   peak=peak, aborted=aborted, events=events)
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

def sample_from_density(N_grid: np.ndarray, tgrid: TraitGrid, agrid: AgeGrid,
                        count: int, seed: int) -> list[tuple[float, float]]:
    """count i.i.d. (trait, age) draws from a grid density (cellwise uniform)."""
    rng = np.random.default_rng(seed)
    probs = (N_grid * tgrid.weights[:, None] * agrid.quad_weights()[None, :]).ravel()
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    idx = rng.choice(probs.size, size=count, p=probs)
    ii, jj = np.unravel_index(idx, N_grid.shape)
    dx = float(tgrid.weights[0])
    x = tgrid.nodes[ii] + dx * (rng.random(count) - 0.5)
    a = np.maximum(agrid.nodes[jj] + agrid.da * (rng.random(count) - 0.5), 0.0)
    lo, hi = tgrid.nodes[0] - 0.5 * dx, tgrid.nodes[-1] + 0.5 * dx
    x = np.clip(x, lo + 1e-12, hi - 1e-12)
    return list(zip(x.tolist(), a.tolist()))


def interp_phi(phi_grid: np.ndarray, tgrid: TraitGrid, agrid: AgeGrid,
               x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid function, clamped at the edges."""
    x = np.asarray(x, float)
    a = np.asarray(a, float)
    xi = np.clip((x - tgrid.nodes[0]) / float(tgrid.weights[0]), 0.0, tgrid.n - 1.0)
    aj = np.clip(a / agrid.da, 0.0, agrid.n_cells - 0.0)
    i0 = np.clip(xi.astype(int), 0, tgrid.n - 2)
    j0 = np.clip(aj.astype(int), 0, agrid.n_cells - 1)
    tx = xi - i0
    ta = aj - j0
    return (phi_grid[i0, j0] * (1 - tx) * (1 - ta)
            + phi_grid[i0 + 1, j0] * tx * (1 - ta)
            + phi_grid[i0, j0 + 1] * (1 - tx) * ta
            + phi_grid[i0 + 1, j0 + 1] * tx * ta)


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


def square_integrability_constant(model: RateModel, phi_grid: np.ndarray,
                                  tgrid: TraitGrid, agrid: AgeGrid) -> float:
    """Grid estimate of C with G[phi^2] + D phi^2 <= C phi (inf if phi ~ 0)."""
    X = tgrid.nodes[:, None]
    A = agrid.nodes[None, :]
    B = np.asarray(model.birth(X, A), float)
    D = np.asarray(model.death(X, A), float)
    p = model.mutation_prob
    phi0_sq = phi_grid[:, 0] ** 2
    kmat = model.mutation_kernel.matrix(tgrid.nodes)
    mut = (kmat @ (phi0_sq * tgrid.weights))[:, None]
    lhs = B * ((1.0 - p) * phi0_sq[:, None] + p * mut) + D * phi_grid ** 2
    if np.any(phi_grid <= 0):
        return math.inf
    return float((lhs / phi_grid).max())


def empirical_to_grid(snapshot: tuple[np.ndarray, np.ndarray], K: int,
                      tgrid: TraitGrid, agrid: AgeGrid) -> tuple[DensityState, int]:
    """Histogram deposit of particle masses into (trait, age) cells.

    Deposited values use plain cell volumes w * da, so the deposit's own mass
    is exactly (particle count)/K. Particles older than the horizon fold into
    the last cell; their count is returned alongside.
    """
    x, a = snapshot
    dx = float(tgrid.weights[0])
    ii = np.clip(((x - (tgrid.nodes[0] - 0.5 * dx)) / dx).astype(int), 0, tgrid.n - 1)
    jj = (a / agrid.da).astype(int)
    overflow = int(np.sum(a > agrid.a_max))
    jj = np.clip(jj, 0, agrid.n_cells)
    values = np.zeros((tgrid.n, agrid.n_cells + 1))
    np.add.at(values, (ii, jj), 1.0)
    values /= K * dx * agrid.da
    return DensityState(t=math.nan, values=values), overflow
