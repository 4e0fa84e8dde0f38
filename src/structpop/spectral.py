"""The renewal operator's Perron eigen-elements.

The direct operator M = Mix diag(sB_lambda) acts on trait densities: births
sB_j at x_j are spread over the newborns' traits by the birth-mutation matrix
Mix (`kernel.mix_matrix`). M is `mix.scaled(sB)`, a `kernel.MixForm`: its
diagonal is the clonal rate r = (1 - p) sB, and its mutant part a factor of
small rank where the kernel has one, so a product with M, and a
shift-inverse solve by Woodbury's identity, cost O(nx r) and the lambda
search forms no nx x nx array. The dual operator, acting on test functions,
is its adjoint for the pairing <f, g> = dx sum_i f_i g_i of the midpoint
grid, whose every node weighs the same dx: the transpose `M.T`, the factors
swapped. So the spectral-radius identity and the adjoint pairing hold to
machine precision by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import MixForm, row_blocks
from .model import Record


class PerronConvergenceError(RuntimeError):
    """The residual stalled above the acceptance rule; carries the last iterate."""

    def __init__(self, msg, rho, profile, iterations, residual):
        super().__init__(msg)
        self.rho, self.profile, self.iterations, self.residual = rho, profile, iterations, residual


class PerronPair(Record):
    rho: float
    profile: np.ndarray         # nonnegative, dx sum(profile) = 1
    iterations: int
    residual: float
    shifts: int                 # shifts sigma, each with its (sigma I - M)^{-1}
    path: str                   # "power" | "shift-invert" | "warm"
    cw_bracket: tuple[float, float]     # Collatz-Wielandt, last iterate

    def summary(self) -> dict:
        """The solve's path, iteration and shift counts and final bracket, JSON-ready."""
        return {"path": self.path, "iterations": self.iterations, "shifts": self.shifts,
                "cw_bracket": list(self.cw_bracket)}


def adjoint_residual(M: MixForm, dx: float, dual_rows) -> float:
    """Max defect of the discrete duality pairing <M f, g> = <f, M_dual g> of
    the direct operator M, each entry weighed by dx: max |M[j, i] - M_dual[i, j]| dx.

    dual_rows(rows) gives the rows `rows` (a slice) of the dual's matrix,
    dense; both sides are formed by `kernel.row_blocks`, so no (nx, nx)
    array is.
    """
    Mt, n = M.T, M.shape[0]
    worst = 0.0
    for rows in row_blocks(n, n):
        theirs = dual_rows(rows)
        if theirs.shape != (rows.stop - rows.start, n):
            raise ValueError("operators are not a matching direct/dual pair")
        worst = max(worst, float(np.abs(Mt.rows(rows) - theirs).max()))
    return worst * dx


# ---------------------------------------------------------------------------
# Perron iteration
# ---------------------------------------------------------------------------

SLOW_CHECK = 10         # iterations per look at the residual's contraction
SLOW_HORIZON = 200     # iterations the residual may still need before a fresh shift
TOL = 1e-12                             # accepted residual, per unit of rho
ROUNDING = 16 * np.finfo(float).eps     # rounding's floor, per unit of rho * ||v||_inf
FLOOR = 50              # iterations without a new least residual before giving up


def _normalize(v: np.ndarray, dx: float) -> np.ndarray:
    return v / (float(v.sum()) * dx)


def _evaluate(M: np.ndarray, v: np.ndarray):
    """(M v, CW lower, CW upper, rho, ||M v - rho v||_inf) of an iterate.

    The Collatz-Wielandt bracket for the spectral radius takes the ratios of
    a nonnegative iterate over its entries above ROUNDING ||v||_inf: an entry
    below that floor carries no digit of its ratio. rho is the Rayleigh
    quotient, which converges even when the Collatz-Wielandt bounds stall
    (e.g. diagonal-dominant operators with a flat iterate tail). It is a
    weighted mean of the ratios that bound the bracket, so it is kept inside
    the bracket against rounding."""
    y = M @ v
    mask = v > ROUNDING * v.max()
    ratios = y[mask] / v[mask]
    lb, ub = float(ratios.min()), float(ratios.max())
    rho = min(max(float(v @ y / (v @ v)), lb), ub)
    return y, lb, ub, rho, float(np.abs(y - rho * v).max())


def perron(M: MixForm, dx: float, start: np.ndarray | None = None) -> PerronPair:
    """Dominant eigenpair of a nonnegative matrix M on a trait grid of step dx,
    deterministic start.

    One loop evaluates the iterate v (dx sum(v) = 1) and accepts it when
    ||M v - rho v||_inf <= max(TOL, ROUNDING * ||v||_inf) * rho. The second
    term is the floor rounding leaves: a sharp v, as the singular regime's
    fine grids give, cannot reach TOL * rho. A residual that sets no new
    least value for FLOOR iterations, or is not finite, is at its floor
    above the test: PerronConvergenceError carries the last iterate.

    Power steps start from the uniform vector; a strictly positive start
    vector (a nearby eigenvector) is returned as it is if it passes the test,
    and otherwise shift-inverse steps start from it. One rule takes every
    shift: every SLOW_CHECK iterations, the least residual's contraction
    over the last SLOW_CHECK projects the iterations left until the test (or
    one ulp of rho ||v||_inf); past SLOW_HORIZON a fresh shift is taken. The
    horizon prices a shift in iterations: a shift-inverse step converges in
    tens of iterations where power steps would need thousands, but a fresh
    shift spends its first window setting a new baseline, and in the dense
    form it costs an nx^3 inverse, about 180 products at 800^2. A window with
    no new least residual projects no end: power steps switch, shift-inverse
    waits for FLOOR. `path` is "power", "shift-invert" or "warm",
    `iterations` the iterates evaluated less the one shift-inverse starts
    from, `shifts` the shifts taken, `cw_bracket` the Collatz-Wielandt
    bracket of the result.

    Shift-inverse uses sigma = (CW upper bound of the iterate) * (1 + 1e-8),
    which is at least rho for any vector with no entry at or below ROUNDING
    ||v||_inf, so (sigma I - M)^{-1} >= 0. M's form solves with it
    (`MixForm.shift_inverse`): factored, by Woodbury's identity with one
    r x r inverse per shift and O(nx r) per step; dense, by the inverse
    formed once per shift, each step one product.
    """
    n = M.shape[0]
    if start is None:
        path, v = "power", np.ones(n)
    else:
        path, v = "warm", np.asarray(start, float)
        if v.shape != (n,) or not np.all(np.isfinite(v) & (v > 0)):
            raise ValueError("start vector must be finite and strictly positive, "
                             f"of length {n}")
    v = _normalize(v, dx)
    evaluated, best, stale, window = 0, math.inf, 0, math.inf   # window: best a check ago
    solve, shifts = None, 0
    while True:
        y, lb, ub, rho, res = _evaluate(M, v)
        evaluated += 1
        it = evaluated - (path != "power")
        accept = max(TOL, ROUNDING * v.max()) * max(rho, 1e-300)
        if res <= accept:
            return PerronPair(rho=rho, profile=_normalize(v, dx) if it else v, iterations=it,
                              residual=res, shifts=shifts, path=path, cw_bracket=(lb, ub))
        stale = 0 if res < best else stale + 1
        best = min(best, res)
        if stale == FLOOR or not math.isfinite(res):
            raise PerronConvergenceError(
                f"residual {res:.3e} at its floor after {it} iterations; "
                "dominant eigenvalue may be nearly non-simple",
                rho=rho, profile=_normalize(v, dx), iterations=it, residual=res)
        if evaluated % SLOW_CHECK == 0:
            # iterations the least residual needs at its last window's contraction
            fell = best < window
            need = (SLOW_CHECK * math.log(best / max(accept, math.ulp(rho * v.max())))
                    / math.log(window / best) if fell else math.inf)
            window = best
            if need > SLOW_HORIZON and (fell or path == "power"):
                # a fresh shift; its first window only sets the next baseline
                path, solve, window = ("shift-invert" if path == "power" else path), None, math.inf
        if path == "power":
            v = _normalize(y, dx)
            continue
        if solve is None:
            # sigma > ub >= rho keeps (sigma I - M)^{-1} >= 0
            solve = M.shift_inverse(ub * (1.0 + 1e-8) + 1e-300)
            shifts += 1
        v = _normalize(np.maximum(solve(v), 0.0), dx)   # clip roundoff negatives


# ---------------------------------------------------------------------------
# regime
# ---------------------------------------------------------------------------

GAP_RTOL = 1e-3     # the gap rho - rbar counts as open above GAP_RTOL rho


def regime(rho: float, rbar: float) -> str:
    """"Regular" if the gap rho - rbar of a direct solve is open, above
    GAP_RTOL rho, else "PossiblySingular": the one place the regime is decided.

    A single-grid label is evidence only, since finite grids always show a
    positive gap; `malthus.refinement_sweep` records how the gap moves as the
    trait grid is refined.
    """
    return "Regular" if rho - rbar > GAP_RTOL * rho else "PossiblySingular"


def density_from_profile(pair: PerronPair, M: MixForm,
                         dx: float) -> tuple[np.ndarray, float]:
    """Continuous-density representative u = (M - diag(r)) mu / (rho - r), unit
    mass, of the direct pair of M, whose diagonal is the clonal rate r.

    M - diag(r) is M's mutant part (`MixForm.mutant`), applied with no
    difference taken. Only valid in the Regular regime (`regime`): the
    fixed-point division degenerates as rho approaches rbar = max r. There
    rho - r > GAP_RTOL rho, so u >= 0, and u = 0 exactly where mu = 0: at
    traits no newborn reaches, where a narrow k underflows.
    """
    if regime(pair.rho, float(M.d.max())) != "Regular":
        raise ValueError("density representation requires the Regular regime "
                         f"(rho - rbar > {GAP_RTOL:g} rho)")
    mu = pair.profile
    u = _normalize(M.mutant(mu) / (pair.rho - M.d), dx)
    return u, float(np.abs(u - mu).max())
