"""Age collapse: survival factor R_lambda, the birth integral sB_lambda, and
the birth-mutation matrix Mix.

The age integrals use a per-cell product quadrature: within each lattice cell
the survival factor is treated as an exact exponential (its local decay rate
the cell's trapezoid death rate plus lambda) and the birth rate as the
average of the endpoint values. This is exact for age-constant rates and
second-order otherwise, which is what the closed-form oracles require at
da = 0.01. The quadrature is factored in lambda (`AgeFactors`): a lambda
sweep builds the lambda-free factors once, and `cell_integrals` is the one
evaluation of the formula, which `collapse` sums and the dual profile's
backward recursion in age (`profiles`) reads. That recursion divides by R
on its first age block and by R relative to each later block's start, and
every such divisor is at least e^{-SPAN}, so no quotient is 0/0.

Past the age a_f where the rates stop reading age (`age_flat_from`) the
cells are a geometric series, summed in closed form, so the factors cover the
lattice only to its first node at or past a_f (`prefix_cells`): none of it
for age-independent rates (both presets), all of it where a_f is inf.

One tail rule sizes every age sum. `tail_bound` at lambda bounds what every
age integral leaves out past a, and falls with a in closed form, so the age
where it meets a tolerance is a logarithm (`_tail_age`). The age lattice
[0, A_max] is that age at lambda = 0 and `tol`, rounded up to the lattice
(`choose_age_truncation`, `age_lattice`). The eigen-profiles at lambda* decay
like e^{-(D + lambda*) a}, so they need only the prefix whose tail bound at
lambda* is no larger than the lattice's at 0 (`profile_lattice`). Each sum
of cells stops at the first lattice node at or past that age at its own
lambda and TAIL_RTOL of the sum's first cell (`horizon`), with no search.
Since every cell is nonnegative, the first cell is a lower bound on each row
sum, so the cells left out weigh less than an ulp of every sum. The integrand
decays like e^{-(D + lambda) a}, so the horizon shrinks as lambda grows.

Every pass over (trait rows, ages) goes by blocks of trait rows
(`row_blocks`), each temporary at most BLOCK_BYTES: `age_factors` fills C and
d a block at a time, `collapse` sums its cells by blocks, and `profiles` runs
its recursion by blocks. A row's sums run in the same order in any block, so
the blocks change memory, not bits.

A newborn keeps its parent's trait with probability 1 - p and otherwise
draws it from k(x, .). On the trait grid that law is one matrix,
Mix = (1 - p) I + p dx K^T, built once per model and grid by `mix_matrix`
and held as its clonal diagonal plus its mutant part (`MixForm`): a factor
U V^T of small rank, from a pivoted Cholesky factor of the kernel, or the
dense part where no small factor exists. The direct renewal operator at
lambda is Mix diag(sB_lambda), `mix.scaled(sB)` in the same form, its
diagonal the clonal rate r = (1 - p) sB; on the uniform midpoint grid its
dual is the transpose `.T`, the factors swapped.
The PDE's newborns and the dual profiles are formed from the same Mix.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import AgeGrid, ConfigError, RateModel, TraitGrid

TAIL_RTOL = 2.0 ** -60      # what an age sum leaves out, relative to its first cell
BLOCK_BYTES = 2 ** 19       # one (trait rows, width) temporary of a pass by row blocks


def row_blocks(n_rows: int, width: int) -> Iterator[slice]:
    """Slices covering range(n_rows) in order, each of as many rows (at least
    one) as fit a float (rows, width) temporary in BLOCK_BYTES; width > 0."""
    step = max(1, BLOCK_BYTES // (8 * width))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def _check_lambda(model: RateModel, lam: float) -> None:
    if lam <= -model.death_floor:
        raise ValueError(
            f"lambda = {lam} must exceed -death floor = {-model.death_floor} "
            "(age integrals diverge otherwise)")


def tail_bound(model: RateModel, lam: float, a_max: float) -> float:
    """Upper bound on the neglected tail of every age integral beyond a_max."""
    decay = model.death_floor + lam
    return model.birth.sup * math.exp(-decay * a_max) / decay


def _tail_age(model: RateModel, lam: float, tol: float) -> float:
    """The age a where tail_bound(model, lam, a) = tol; inf where tol underflows
    or the age overflows."""
    decay = model.death_floor + lam
    scale = float(tol * decay)       # a Python float: its quotient overflows to inf
    return math.log(model.birth.sup / scale) / decay if scale > 0 else math.inf


def choose_age_truncation(model: RateModel, lam: float, tol: float,
                          da: float) -> float:
    """Smallest lattice-aligned horizon with tail bound below tol."""
    _check_lambda(model, lam)
    if tol <= 0 or da <= 0:
        raise ValueError("tol and da must be positive")
    decay = model.death_floor + lam
    if model.birth.sup == 0 or tol >= model.birth.sup / decay:
        return da   # degenerate: never less than one lattice step
    age = _tail_age(model, lam, tol)
    if math.isinf(age):
        raise ConfigError(f"tol = {tol!r} is too small: the age where the tail bound "
                          "meets it is not finite")
    return max(da, math.ceil(age / da - 1e-12) * da)


def age_lattice(model: RateModel, lam: float, tol: float, da: float) -> AgeGrid:
    """The age lattice of step da to `choose_age_truncation`'s horizon, its cell
    count rounded up to even (Simpson's rule needs it)."""
    n_cells = int(round(choose_age_truncation(model, lam, tol, da) / da))
    return AgeGrid(da=da, n_cells=n_cells + n_cells % 2)


def profile_lattice(model: RateModel, lam: float, agrid: AgeGrid) -> AgeGrid:
    """The shortest prefix of agrid, of an even cell count, whose tail bound at
    lambda is no larger than agrid's own at lambda = 0: the ages the eigen-
    profiles at lambda = lambda* need, at the accuracy agrid was sized for."""
    short = age_lattice(model, lam, tail_bound(model, 0.0, agrid.a_max), agrid.da)
    return short if short.n_cells < agrid.n_cells else agrid


def horizon(model: RateModel, lam: float, first: np.ndarray, ages: np.ndarray) -> int:
    """Cells of the lattice `ages` that an age sum at lambda needs.

    first holds each row's first cell, a lower bound on its row sum (every
    cell is nonnegative). The sum stops at the first node a_n at or past the
    age where tail_bound(model, lam, .) meets TAIL_RTOL * min(first), so the
    cells it leaves out weigh less than TAIL_RTOL of every row; n is at least
    1. It covers the whole lattice when first has a zero or no node is that old.
    """
    a = _horizon_age(model, lam, first)
    return min(max(int(np.searchsorted(ages, a)), 1), ages.size - 1)


def _horizon_age(model: RateModel, lam: float, first: np.ndarray) -> float:
    """The age where tail_bound(model, lam, .) meets TAIL_RTOL * min(first);
    inf where first has a zero."""
    floor = float(first.min())
    return _tail_age(model, lam, TAIL_RTOL * floor) if floor > 0 else math.inf


# ---------------------------------------------------------------------------
# survival factor and product quadrature, factored in lambda
# ---------------------------------------------------------------------------

def _cell_means(rate, xs: np.ndarray, ages: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Each age cell's mean of a rate's endpoint values, shape (nx, n_cells)
    (into `out` if given)."""
    vals = rate(xs[:, None], ages[None, :])
    cells = np.add(vals[:, :-1], vals[:, 1:], out=out)
    cells *= 0.5
    return cells


def _death_integral(d: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """int_{a_0}^{a_j} D by the trapezoid rule from the cell rates d, (nx, na);
    one running sum, so that R is exactly consistent with the collapse quadrature."""
    cum = np.empty((d.shape[0], ages.size))
    cum[:, 0] = 0.0
    np.multiply(d, np.diff(ages), out=cum[:, 1:])
    return np.cumsum(cum, axis=1, out=cum)


def survival_matrix(model: RateModel, xs: np.ndarray, ages: np.ndarray,
                    lam: float) -> np.ndarray:
    """R_lambda(x_i, a_j) / R_lambda(x_i, a_0), shape (nx, na): R_lambda itself
    on a lattice from age 0."""
    _check_lambda(model, lam)
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    cum = _death_integral(_cell_means(model.death, xs, ages), ages)
    cum += lam * (ages - ages[0])   # in place, so that R is the one grid formed here
    return np.exp(np.negative(cum, out=cum), out=cum)


@dataclass(frozen=True)
class AgeFactors:
    """The lambda-free parts of the per-cell product quadrature on an age lattice.

    On cell [a_j, a_{j+1}] of width h_j the integrand B R_lambda is modeled as
    the average endpoint B times an exact exponential whose rate matches the
    cell's death integral plus lambda. With R_lambda = R_0 e^{-lambda a}, the
    cell integral over R_lambda(a_0) is

        C_ij e^{-lambda (a_j - a_0)} h_j (1 - e^{-z_ij}) / z_ij,  z_ij = (d_ij + lambda) h_j,

    where C = (average endpoint B) R_0(., a_j) / R_0(., a_0) and d_ij is the cell
    death rate. Neither depends on lambda, so a lambda search builds them once.
    Where the rates stop reading age at the last node a_n, the cells past it
    sum to C_end e^{-lambda (a_n - a_0)} / (d_end + lambda) (`collapse`), with
    C_end and d_end the C and D of a_n; else both are None.
    """

    ages: np.ndarray            # (n_cells + 1,) lattice nodes
    C: np.ndarray               # (nx, n_cells)
    d: np.ndarray               # (nx, n_cells)
    C_end: np.ndarray | None    # (nx,), or None
    d_end: np.ndarray | None    # (nx,), or None

    @property
    def n_cells(self) -> int:
        return self.d.shape[1]


def prefix_cells(model: RateModel, ages: np.ndarray) -> int:
    """Cells of the lattice `ages` up to its first node at or past the model's
    age_flat_from; all of them where no node is that old."""
    return min(int(np.searchsorted(ages, model.age_flat_from)), ages.size - 1)


def age_factors(model: RateModel, xs: np.ndarray, ages: np.ndarray) -> AgeFactors:
    """C and d of the product quadrature at trait nodes xs on the prefix of the
    age lattice that `prefix_cells` counts, and C_end and d_end past it.

    C and d are filled a row block at a time (`row_blocks`), so no temporary of
    the whole (nx, n_cells) grid sits beside them; a row's values do not
    depend on the block that holds it.
    """
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    ages = ages[:prefix_cells(model, ages) + 1]
    C, d = np.empty((xs.size, ages.size - 1)), np.empty((xs.size, ages.size - 1))
    R_end = np.empty(xs.size)                   # R_0 at the last node
    for rows in row_blocks(xs.size, ages.size):
        cum = _death_integral(_cell_means(model.death, xs[rows], ages, out=d[rows]), ages)
        Cb = _cell_means(model.birth, xs[rows], ages, out=C[rows])
        Cb *= np.exp(np.negative(cum, out=cum), out=cum)[:, :-1]
        R_end[rows] = cum[:, -1]
    if ages[-1] < model.age_flat_from:
        return AgeFactors(ages, C, d, None, None)
    return AgeFactors(ages, C, d, R_end * model.birth(xs, ages[-1]), model.death(xs, ages[-1]))


def cell_integrals(factors: AgeFactors, lam: float,
                   n_cells: int | None = None) -> np.ndarray:
    """The first n_cells cells' integrals of B R_lambda / R_lambda(a_0), (nx, n_cells).

    With z = (d + lambda) h, the exponential factor (1 - e^{-z}) / z is
    evaluated by expm1, and as 1 - z / 2 where |z| < 1e-8.
    """
    n = factors.n_cells if n_cells is None else n_cells
    if not 0 < n <= factors.n_cells:
        raise ValueError(f"{n} cells asked of a lattice of {factors.n_cells}")
    ages = factors.ages[:n + 1]
    mz = factors.d[:, :n] + lam
    mz *= -np.diff(ages)                              # -z
    cells = np.expm1(mz)                              # e^{-z} - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        cells /= mz                                   # (1 - e^{-z}) / z
    if mz.max() > -1e-8:                              # z >= 1e-8 is the rule
        small = np.abs(mz) < 1e-8
        cells[small] = 1.0 + 0.5 * mz[small]
    del mz
    cells *= factors.C[:, :n]
    cells *= np.diff(ages) * np.exp(-lam * (ages[:-1] - ages[0]))
    return cells


SPAN = 512.0            # the most E rises over an age block of `profiles`


def profiles(model: RateModel, xs: np.ndarray, factors: AgeFactors, agrid: AgeGrid,
             lam: float) -> tuple[np.ndarray, np.ndarray]:
    """R_lambda and q = int_a^inf B R_lambda da' / R_lambda(a), each (nx, na + 1),
    on the age lattice agrid: a prefix of the factors' lattice, or longer where
    their rates stop reading age at its end.

    q solves q_j = b_j h_j (1 - e^{-z_j}) / z_j + e^{-z_j} q_{j+1} (b_j the cell's
    average endpoint B) on the factors' cells, continued past them on the
    lattice's step as far as the tail rule asks, however short agrid is, and
    no further than the first node at or past a_f. At that last node q is
    B / (D + lambda) if it is past a_f, else 0 (the horizon). So q on a prefix
    of a lattice is q on the whole to rounding, and R the same bits: the
    profiles at lambda* take the prefix that `profile_lattice` sizes. Past the
    cells q stays B / (D + lambda) and R falls at D + lambda. The recursion
    runs by age blocks on which E = int_0^a (D + lambda) rises by at most SPAN:
    on [j0, j1], q_j = (sum_{j <= k < j1} W_k g_k + W_j1 q_j1) / W_j with cells g
    and factors W = e^{-(E - E_j0)} >= e^{-SPAN}, so no quotient is 0/0. The
    first block's W is R, formed as `survival_matrix` forms it, and its cells
    `cell_integrals`'; at the default tol it is the only block. Later blocks
    read their factors from their own start.
    """
    _check_lambda(model, lam)
    xs = np.atleast_1d(np.asarray(xs, float))
    a_f, n = model.age_flat_from, min(factors.n_cells, agrid.n_cells)
    ages = factors.ages[:n + 1]
    if ages[-1] < a_f:      # continue past the factors' end
        past = ages[-1] + ages[:2]              # the first cell past it, over R there
        first = cell_integrals(AgeFactors(past, _cell_means(model.birth, xs, past),
                                          _cell_means(model.death, xs, past), None, None),
                               lam)[:, 0]
        # the step continued as far as the tail rule from the end asks, or the
        # lattice's own length where the rule gives no age, and at most to a_f
        a = _horizon_age(model, lam, first)
        steps = ages[1] * np.arange(n + 1 if math.isinf(a) else math.ceil(a / ages[1]) + 2)
        more = ages[-1] + steps
        more = more[1:min(horizon(model, lam, first, steps), int(np.searchsorted(more, a_f))) + 1]
        ages = np.concatenate([ages, more])
    flat = ages[-1] >= a_f      # the recursion starts from B / (D + lambda)
    R, q = np.empty((xs.size, agrid.n_cells + 1)), np.empty((xs.size, agrid.n_cells + 1))
    for rows in row_blocks(xs.size, ages.size):
        x, Rb, qb = xs[rows], R[rows], q[rows]
        d = np.hstack([factors.d[rows, :n], _cell_means(model.death, x, ages[n:])])
        E = _death_integral(d, ages)            # int_0^a D: one prefix sum
        joined = AgeFactors(ages, np.hstack([factors.C[rows, :n], _cell_means(
            model.birth, x, ages[n:]) * np.exp(-E[:, n:-1])]), d, None, None)
        E += lam * ages
        np.exp(np.negative(E[:, :n + 1], out=Rb[:, :n + 1]), out=Rb[:, :n + 1])
        end = np.zeros(x.size)
        if flat:                                # B and D from the last node on
            rate = model.death(x, ages[-1]) + lam
            end = model.birth(x, ages[-1]) / rate
            qb[:, ages.size - 1:] = end[:, None]
            tail = Rb[:, ages.size:]            # R(a_K) e^{-(D + lambda)(a - a_K)}
            np.multiply.outer(rate, agrid.nodes[ages.size:] - ages[-1], out=tail)
            tail += E[:, -1, None]
            np.exp(np.negative(tail, out=tail), out=tail)
        top, bounds = E.max(axis=0), [0]        # E rises along each row
        while bounds[-1] < ages.size - 1:
            j = int(np.searchsorted(top, E[:, bounds[-1]].min() + SPAN, side="right")) - 1
            bounds.append(min(max(j, bounds[-1] + 1), ages.size - 1))
        w_first = np.exp(-E[:, bounds[1]]) if len(bounds) > 1 else None  # first block's end
        del E
        for j0, j1 in zip(bounds[-2::-1], bounds[:0:-1]):
            if j0 == 0:
                cells, W, w_end = cell_integrals(joined, lam, j1), Rb, w_first
            else:
                f = age_factors(model, x, ages[j0:j1 + 1])
                cells, W = cell_integrals(f, lam), survival_matrix(model, x, f.ages, lam)
                w_end = W[:, -1]
            m = min(max(n, j0), j1) - j0        # the block's cells on the lattice
            end = cells[:, m:].sum(axis=1) + w_end * end    # the suffix sum at j0 + m
            if m:                               # q on the block's lattice nodes
                cells[:, m - 1] += end
                block = qb[:, j0:j0 + m + 1]
                block[:, -1] = end
                np.cumsum(cells[:, m - 1::-1], axis=1, out=block[:, -2::-1])
                block /= W[:, :m + 1]
                end = block[:, 0]               # else past A, where W_j0 = 1
        joined = cells = None                   # before the next rows form theirs
    return R, q


# ---------------------------------------------------------------------------
# the birth-mutation law and the collapsed kernel
# ---------------------------------------------------------------------------

MIX_RTOL = 1e-14     # the kernel factor's stop, relative to the kernel's diagonal


@dataclass(frozen=True)
class MixForm:
    """diag(d) + U V^T: Mix, and every operator formed from it, held as its
    clonal diagonal d and its mutant part U V^T, so the diagonal is never
    recovered by a difference.

    Factored, U and V are (n, r) and a product costs O(n r); dense, V is None
    and U is the (n, n) mutant part itself. The transpose swaps U and V.
    """

    d: np.ndarray                   # (n,)
    U: np.ndarray                   # (n, r), or the (n, n) mutant part
    V: np.ndarray | None = None     # (n, r), or None for the dense form

    @property
    def shape(self) -> tuple[int, int]:
        return self.d.size, self.d.size

    @property
    def form(self) -> str:
        return "dense" if self.V is None else "factored"

    @property
    def rank(self) -> int:
        """r of the factored form; n, the part's own size, of the dense one."""
        return self.U.shape[1]

    @property
    def T(self) -> "MixForm":
        return MixForm(self.d, self.U.T) if self.V is None else MixForm(self.d, self.V, self.U)

    def mutant(self, v: np.ndarray) -> np.ndarray:
        """U V^T v, the mutant part applied to a vector."""
        return self.U @ v if self.V is None else self.U @ (self.V.T @ v)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.d * v + self.mutant(v)

    def scaled(self, s: np.ndarray) -> "MixForm":
        """self diag(s), in the same form."""
        if self.V is None:
            return MixForm(self.d * s, self.U * s)
        return MixForm(self.d * s, self.U, self.V * s[:, None])

    def rows(self, rows: slice) -> np.ndarray:
        """The rows `rows` of the matrix, dense: (len, n)."""
        block = np.array(self.U[rows]) if self.V is None else self.U[rows] @ self.V.T
        index = np.arange(self.d.size)[rows]
        block[np.arange(index.size), index] += self.d[index]
        return block

    def toarray(self) -> np.ndarray:
        """The whole (n, n) matrix, for the dynamics' one-off solves."""
        return self.rows(slice(None))

    def shift_inverse(self, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
        """v -> (sigma I - self)^{-1} v, for sigma above every d_i.

        Dense, the inverse is formed once and each solve is one product.
        Factored, with D = sigma - d > 0 and w = D^{-1} v, Woodbury's identity

            (D - U V^T)^{-1} v = w + D^{-1} U C^{-1} V^T w,   C = I - V^T D^{-1} U,

        takes one r x r inverse and O(n r) per solve.
        """
        D = sigma - self.d
        if self.V is None:
            A = np.negative(self.U)
            A[np.diag_indices_from(A)] += D
            inv = np.linalg.inv(A)
            return lambda v: inv @ v
        DU = self.U / D[:, None]
        W = np.linalg.inv(np.eye(self.rank) - self.V.T @ DU) @ self.V.T    # C^{-1} V^T

        def solve(v: np.ndarray) -> np.ndarray:
            w = v / D
            return w + DU @ (W @ w)
        return solve

    def summary(self) -> dict:
        """The form held, its rank and the factor's tolerance, JSON-ready."""
        return {"form": self.form, "rank": self.rank, "rtol": MIX_RTOL}


def _kernel_factor(model: RateModel, x: np.ndarray, cap: int) -> np.ndarray | None:
    """L (n, r) with L L^T = G to MIX_RTOL in every entry, where G[i, j] =
    k(x_i, x_j) / k(x_i, x_i) for the model's mutation kernel k; None where r
    would pass cap.

    Every registry kernel is k(x, y) = g(x, y) / Z(x) with g symmetric positive
    semidefinite and g(x, x) = g0, so G = g / g0 is too, with a unit diagonal.
    Pivoted Cholesky (Harbrecht, Peters & Schneider 2012, Appl. Numer. Math.
    62) takes the row of G at the largest remaining diagonal entry, one
    k(x_i, .) at a time, and stops when that entry is at most MIX_RTOL: the
    remainder G - L L^T is positive semidefinite too, so no entry of it is
    larger than its largest diagonal entry.
    """
    rest, Lt = np.ones(x.size), np.empty((cap, x.size))     # Lt: L's columns as rows
    for r in range(cap):
        i = int(np.argmax(rest))
        if rest[i] <= MIX_RTOL:
            return Lt[:r].T
        row = model.mutation_kernel.matrix(x[i:i + 1], x)[0]
        row /= row[i]
        row -= Lt[:r, i] @ Lt[:r]
        row /= math.sqrt(rest[i])
        Lt[r] = row
        rest -= row * row
    return Lt.T if rest.max() <= MIX_RTOL else None


def mix_matrix(model: RateModel, tgrid: TraitGrid) -> MixForm:
    """Mix[i, j] = (1 - p) delta_ij + p k(x_j, x_i) dx: the newborns at x_i per
    unit of births from trait-x_j parents, as a `MixForm`.

    With kd = k(x, x), K^T = G diag(kd) for the G that `_kernel_factor`
    factors as L L^T, so Mix = (1 - p) I + (p dx L)(kd L)^T. One rule keeps the
    dense form, U = p dx K^T: where the factor's rank would pass nx / 4, or
    where the kernel's certified floor `inf` is 0, so that k underflows to
    exact zeros a truncated factor would blur.
    """
    p, x = model.mutation_prob, tgrid.nodes
    clonal = np.full(tgrid.n, 1.0 - p)
    L = _kernel_factor(model, x, tgrid.n // 4) if model.mutation_kernel.inf > 0 else None
    if L is None:
        mutant = np.ascontiguousarray(model.mutation_kernel.matrix(x).T)
        mutant *= p * tgrid.dx
        return MixForm(clonal, mutant)
    kd = np.asarray(model.mutation_kernel(x, x), float)
    return MixForm(clonal, L * (p * tgrid.dx), L * kd[:, None])


@dataclass(frozen=True)
class CollapsedKernel:
    """The birth integral sB = int B R_lambda da at a fixed lambda, per trait
    node: the renewal operator is Mix diag(sB), `mix.scaled(sB)`."""

    sB: np.ndarray              # (nx,)
    age_cells: int              # age cells summed for sB


def collapse(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid, lam: float,
             factors: AgeFactors) -> CollapsedKernel:
    """sB on the trait grid: the age factors' cells summed to the horizon
    at lambda, and their closed-form tail where the sum reaches its node.

    factors are `age_factors` at the trait nodes, on the age lattice or on any
    lattice it is a prefix of, so that a lambda sweep builds them once. The
    cells are formed and summed by `row_blocks`, so no (nx, n) temporary is.
    """
    _check_lambda(model, lam)
    n = min(factors.n_cells, agrid.n_cells)
    sB = np.zeros(tgrid.n)                              # int B R da
    if n:
        n = horizon(model, lam, cell_integrals(factors, lam, 1)[:, 0], factors.ages[:n + 1])
        for rows in row_blocks(tgrid.n, n):
            block = AgeFactors(factors.ages, factors.C[rows], factors.d[rows], None, None)
            sB[rows] = cell_integrals(block, lam, n).sum(axis=1)
    if n == factors.n_cells and factors.C_end is not None:     # the lattice is from age 0
        sB += factors.C_end * math.exp(-lam * factors.ages[-1]) / (factors.d_end + lam)
    return CollapsedKernel(sB=sB, age_cells=n)
