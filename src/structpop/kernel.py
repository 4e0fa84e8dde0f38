"""Age collapse: survival factor R_lambda and the trait-space kernels r, K.

The age integrals use a per-cell product quadrature: within each lattice cell
the survival factor is treated as an exact exponential (its local decay rate
read off the cumulative death integral) and the birth rate as the average of
the endpoint values. This is exact for age-constant rates and second-order
otherwise, which is what the closed-form oracles require at da = 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .model import AgeGrid, RateModel, TraitGrid


class TailBoundError(ValueError):
    """Raised when the age horizon cannot meet the requested tail tolerance."""


def _check_lambda(model: RateModel, lam: float) -> None:
    if lam <= -model.death_floor:
        raise ValueError(
            f"lambda = {lam} must exceed -death floor = {-model.death_floor} "
            "(age integrals diverge otherwise)")


def tail_bound(model: RateModel, lam: float, a_max: float) -> float:
    """Upper bound on the neglected tail of every age integral beyond a_max."""
    decay = model.death_floor + lam
    return model.birth.sup * math.exp(-decay * a_max) / decay


def choose_age_truncation(model: RateModel, lam: float, tol: float,
                          da: float) -> float:
    """Smallest lattice-aligned horizon with tail bound below tol."""
    _check_lambda(model, lam)
    if tol <= 0 or da <= 0:
        raise ValueError("tol and da must be positive")
    decay = model.death_floor + lam
    if model.birth.sup == 0 or tol >= model.birth.sup / decay:
        return da   # degenerate: never less than one lattice step
    a = math.log(model.birth.sup / (tol * decay)) / decay
    return max(da, math.ceil(a / da - 1e-12) * da)


# ---------------------------------------------------------------------------
# survival factor on the lattice
# ---------------------------------------------------------------------------

def survival_matrix(model: RateModel, xs: np.ndarray, ages: np.ndarray,
                    lam: float) -> np.ndarray:
    """R_lambda(x_i, a_j) = exp(-int_0^a D(x_i, .) - lambda a_j), shape (nx, na).

    The death integral is accumulated by trapezoid along the (uniform or not)
    age lattice, so R is exactly consistent with the collapse quadrature.
    """
    _check_lambda(model, lam)
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    dvals = model.death(xs[:, None], ages[None, :])
    cum = cumulative_trapezoid(dvals, ages, axis=1, initial=0.0)
    return np.exp(-cum - lam * ages[None, :])


def survival_factor(model: RateModel, x: float, a: float, lam: float,
                    da: float = 0.01) -> float:
    """Pointwise R_lambda(x, a) with a rounded onto a lattice of step da."""
    if a < 0:
        raise ValueError("age must be nonnegative")
    n = int(round(a / da))
    ages = da * np.arange(n + 1)
    if ages.size == 1 or ages[-1] != a:
        ages = np.linspace(0.0, a, max(n, 1) + 1)
    return float(survival_matrix(model, np.array([x]), ages, lam)[0, -1])


def bR_cell_integrals(model: RateModel, xs: np.ndarray, ages: np.ndarray,
                      lam: float) -> np.ndarray:
    """Per-cell integrals of B(x,.)R_lambda(x,.), shape (nx, n_cells).

    Product quadrature: on cell [a_j, a_{j+1}] the integrand is modeled as
    (average endpoint B) times an exact exponential whose rate matches the
    cell's death integral plus lambda.
    """
    xs = np.atleast_1d(np.asarray(xs, float))
    ages = np.asarray(ages, float)
    da = np.diff(ages)
    R = survival_matrix(model, xs, ages, lam)
    bvals = model.birth(xs[:, None], ages[None, :])
    # local decay rate per cell from the survival ratio itself
    with np.errstate(divide="ignore"):
        rate = -np.log(np.maximum(R[:, 1:] / np.maximum(R[:, :-1], 1e-300), 1e-300)) / da
    z = rate * da
    # (1 - e^{-z}) / rate, stable as z -> 0
    small = np.abs(z) < 1e-8
    factor = np.where(small, da * (1.0 - 0.5 * z), -np.expm1(-z) / np.where(rate == 0, 1.0, rate))
    pref = 0.5 * (bvals[:, :-1] + bvals[:, 1:])
    return pref * R[:, :-1] * factor


# ---------------------------------------------------------------------------
# collapsed kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapsedKernel:
    """Trait-space data of the renewal operator at a fixed lambda.

    K_values[i, j] = K_lambda(x_i, x_j): rate of mutant offspring with trait
    near x_j born from a trait-x_i lineage (density in the second slot).
    """

    lam: float
    r_values: np.ndarray        # (nx,)
    K_values: np.ndarray        # (nx, nx)
    da: float
    a_max: float
    tail: float

    @property
    def rbar(self) -> float:
        return float(self.r_values.max())


def collapse(model: RateModel, tgrid: TraitGrid, agrid: AgeGrid, lam: float,
             tol: float | None = None) -> CollapsedKernel:
    """Compute r_lambda and K_lambda on the trait grid by age quadrature.

    With sB(x) = int B R_lambda da: r = (1 - p) sB and K(x, y) = p sB(x) k(x, y).
    """
    _check_lambda(model, lam)
    tb = tail_bound(model, lam, agrid.a_max)
    if tol is not None and tb > tol:
        raise TailBoundError(
            f"age horizon {agrid.a_max} leaves tail bound {tb:.3e} > tol {tol:.3e}")

    cells = bR_cell_integrals(model, tgrid.nodes, agrid.nodes, lam)   # (nx, n_cells)
    sB = cells.sum(axis=1)                                            # int B R da
    r = (1.0 - model.mutation_prob) * sB
    K = model.mutation_prob * sB[:, None] * model.mutation_kernel.matrix(tgrid.nodes)
    return CollapsedKernel(lam=lam, r_values=r, K_values=K,
                           da=agrid.da, a_max=agrid.a_max, tail=tb)
