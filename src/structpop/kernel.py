"""Age collapse: survival factor R_lambda, the birth integral sB_lambda, and
the birth-mutation matrix Mix.

The age integrals use a per-cell product quadrature: within each lattice cell
the survival factor is treated as an exact exponential (its local decay rate
the cell's trapezoid death rate plus lambda) and the birth rate as the
average of the endpoint values. This is exact for age-constant rates and
second-order otherwise, which is what the closed-form oracles require at
da = 0.01. The quadrature is factored in lambda (`AgeFactors`): a lambda
sweep builds the lambda-free factors once, and `cell_integrals` is the one
evaluation of the formula, which `collapse` and the dual profile's tail
integrals share.

One tail rule sizes every age sum. `tail_bound` at lambda bounds what every
age integral leaves out past a, and falls with a in closed form, so the age
where it meets a tolerance is a logarithm (`_tail_age`). The age lattice
[0, A_max] is that age at lambda = 0 and `tol`, rounded up to the lattice
(`choose_age_truncation`). Each age sum stops at the first lattice node at or
past that age at its own lambda and TAIL_RTOL of the sum's first cell
(`horizon`), with no search. Since every cell is nonnegative, the first cell
is a lower bound on each row sum, so the cells left out weigh less than an
ulp of every sum. The integrand decays like e^{-(D + lambda) a}, so the
horizon shrinks as lambda grows.

A newborn keeps its parent's trait with probability 1 - p and otherwise
draws it from k(x, .). On the trait grid that law is one matrix, `mix_matrix`,
built once per model and grid: the direct renewal operator at lambda is
Mix diag(sB_lambda), its dual the w-adjoint (`w_adjoint`), and the PDE's
newborns and the dual profiles are formed from the same Mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AgeGrid, RateModel, TraitGrid

TAIL_RTOL = 2.0 ** -60      # what an age sum leaves out, relative to its first cell


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
    return max(da, math.ceil(_tail_age(model, lam, tol) / da - 1e-12) * da)


def horizon(model: RateModel, lam: float, first: np.ndarray, ages: np.ndarray) -> int:
    """Cells of the lattice `ages` that an age sum at lambda needs.

    first holds each row's first cell, a lower bound on its row sum (every
    cell is nonnegative). The sum stops at the first node a_n at or past the
    age where tail_bound(model, lam, .) meets TAIL_RTOL * min(first), so the
    cells it leaves out weigh less than TAIL_RTOL of every row; n is at least
    1. It covers the whole lattice when first has a zero or no node is that old.
    """
    n_cells = ages.size - 1
    floor = float(first.min())
    if not floor > 0:
        return n_cells
    a = _tail_age(model, lam, TAIL_RTOL * floor)
    return min(max(int(np.searchsorted(ages, a)), 1), n_cells)


# ---------------------------------------------------------------------------
# survival factor on the lattice
# ---------------------------------------------------------------------------

def _cell_death_rates(model: RateModel, xs: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """d_ij: the trapezoid average of D(x_i, .) over age cell j, shape (nx, n_cells)."""
    dvals = model.death(xs[:, None], ages[None, :])
    d = dvals[:, :-1] + dvals[:, 1:]
    d /= 2.0
    return d


def _death_integral(d: np.ndarray, ages: np.ndarray, start) -> np.ndarray:
    """int_0^{a_j} D by the trapezoid rule from the cell rates d, shape (nx, na),
    given its value `start` at ages[0]; one running sum, so a lattice continued
    from its last node gets the same values as the whole lattice."""
    cum = np.empty((d.shape[0], ages.size))
    cum[:, 0] = start
    np.multiply(d, np.diff(ages), out=cum[:, 1:])
    return np.cumsum(cum, axis=1, out=cum)


def survival_matrix(model: RateModel, xs: np.ndarray, ages: np.ndarray,
                    lam: float) -> np.ndarray:
    """R_lambda(x_i, a_j) = exp(-int_0^a D(x_i, .) - lambda a_j), shape (nx, na).

    The death integral is accumulated by trapezoid along the (uniform or not)
    age lattice, so R is exactly consistent with the collapse quadrature.
    """
    _check_lambda(model, lam)
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    cum = _death_integral(_cell_death_rates(model, xs, ages), ages, 0.0)
    cum += lam * ages       # in place, so that R is the one grid formed here
    return np.exp(np.negative(cum, out=cum), out=cum)


# ---------------------------------------------------------------------------
# product quadrature, factored in lambda
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgeFactors:
    """The lambda-free parts of the per-cell product quadrature on an age lattice.

    On cell [a_j, a_{j+1}] of width h_j the integrand B R_lambda is modeled as
    the average endpoint B times an exact exponential whose rate matches the
    cell's death integral plus lambda. With R_lambda = R_0 e^{-lambda a} the
    cell integral is

        C_ij e^{-lambda a_j} (1 - e^{-(d_ij + lambda) h_j}) / (d_ij + lambda),

    where C = (average endpoint B) R_0(., a_j) and d_ij is the cell death rate
    (the trapezoid average of D over the cell). Neither depends on lambda, so a
    lambda search builds them once and pays per lambda only for the last
    factor. Any prefix of the lattice reads its factors as column prefixes,
    and `continued_factors` extends R_0 past the last node from death_end.
    """

    ages: np.ndarray            # (n_cells + 1,) lattice nodes
    C: np.ndarray               # (nx, n_cells)
    d: np.ndarray               # (nx, n_cells)
    death_end: np.ndarray       # (nx,) int_0^{ages[-1]} D

    @property
    def n_cells(self) -> int:
        return self.d.shape[1]


def _factors(model: RateModel, xs: np.ndarray, ages: np.ndarray, start) -> AgeFactors:
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    d = _cell_death_rates(model, xs, ages)
    cum = _death_integral(d, ages, start)
    death_end = cum[:, -1].copy()
    R0 = np.exp(np.negative(cum, out=cum), out=cum)
    bvals = model.birth(xs[:, None], ages[None, :])
    C = bvals[:, :-1] + bvals[:, 1:]
    del bvals
    C *= 0.5
    C *= R0[:, :-1]
    return AgeFactors(ages=ages, C=C, d=d, death_end=death_end)


def age_factors(model: RateModel, xs: np.ndarray, ages: np.ndarray) -> AgeFactors:
    """C and d of the product quadrature at trait nodes xs on the age lattice."""
    return _factors(model, xs, ages, 0.0)


def continued_factors(model: RateModel, xs: np.ndarray, factors: AgeFactors,
                      ages: np.ndarray) -> AgeFactors:
    """Age factors at trait nodes xs on a lattice `ages` that starts at the last
    node of `factors`' lattice; the same numbers as factors built on the joined
    lattice, bit for bit."""
    if ages[0] != factors.ages[-1]:
        raise ValueError(f"the continuation starts at {ages[0]}, "
                         f"not at the lattice end {factors.ages[-1]}")
    return _factors(model, xs, ages, factors.death_end)


def cell_integrals(factors: AgeFactors, lam: float,
                   n_cells: int | None = None) -> np.ndarray:
    """Per-cell integrals of B R_lambda over the first n_cells cells, (nx, n_cells).

    With z = (d + lambda) h, the exponential factor (1 - e^{-z}) / (d + lambda)
    is evaluated as h (1 - e^{-z}) / z by expm1, and as h (1 - z / 2) where
    |z| < 1e-8.
    """
    n = factors.n_cells if n_cells is None else n_cells
    if not 0 < n <= factors.n_cells:
        raise ValueError(f"{n} cells asked of a lattice of {factors.n_cells}")
    h = np.diff(factors.ages[:n + 1])
    mz = factors.d[:, :n] + lam
    mz *= -h                                          # -z
    cells = np.expm1(mz)                              # e^{-z} - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        cells /= mz                                   # (1 - e^{-z}) / z
    if mz.max() > -1e-8:                              # z >= 1e-8 is the rule
        small = np.abs(mz) < 1e-8
        cells[small] = 1.0 + 0.5 * mz[small]
    del mz
    cells *= factors.C[:, :n]
    cells *= h * np.exp(-lam * factors.ages[:n])
    return cells


# ---------------------------------------------------------------------------
# the birth-mutation law and the collapsed kernel
# ---------------------------------------------------------------------------

def mix_matrix(model: RateModel, tgrid: TraitGrid) -> np.ndarray:
    """Mix[i, j] = (1 - p) delta_ij + p k(x_j, x_i) w_j: the newborns at x_i per
    unit of births from trait-x_j parents."""
    p = model.mutation_prob
    mix = np.ascontiguousarray(model.mutation_kernel.matrix(tgrid.nodes).T)
    mix *= p * tgrid.weights
    mix[np.diag_indices_from(mix)] += 1.0 - p
    return mix


def mutant_diagonal(model: RateModel, tgrid: TraitGrid) -> np.ndarray:
    """p k(x_i, x_i) w_i from k itself: Mix[i, i] - (1 - p) would cancel."""
    x = tgrid.nodes
    return np.asarray(model.mutation_kernel(x, x), float) * (model.mutation_prob * tgrid.weights)


def w_adjoint(A: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """diag(w)^{-1} A^T diag(w), so that <A f, g>_w = <f, A* g>_w; an exact
    transpose when the weights are uniform."""
    return A.T * (weights / weights[:, None])


@dataclass(frozen=True)
class CollapsedKernel:
    """Trait-space data of the renewal operator at a fixed lambda: the birth
    integral sB = int B R_lambda da and the clonal rate r = (1 - p) sB per node."""

    lam: float
    r_values: np.ndarray        # (nx,)
    sB: np.ndarray              # (nx,)
    age_cells: int              # age cells summed for sB

    @property
    def rbar(self) -> float:
        return float(self.r_values.max())


def collapse(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid, lam: float,
             factors: AgeFactors | None = None) -> CollapsedKernel:
    """sB and r on the trait grid by age quadrature, summed to the horizon at lambda.

    factors (`age_factors` at the trait nodes, on the age lattice or on any
    lattice it is a prefix of) are built here when not given; a lambda sweep
    passes them in.
    """
    _check_lambda(model, lam)
    if factors is None:
        factors = age_factors(model, tgrid.nodes, agrid.nodes)
    n = horizon(model, lam, cell_integrals(factors, lam, 1)[:, 0],
                factors.ages[:agrid.n_cells + 1])
    sB = cell_integrals(factors, lam, n).sum(axis=1)   # int B R da
    return CollapsedKernel(lam=lam, r_values=(1.0 - model.mutation_prob) * sB, sB=sB,
                           age_cells=n)
