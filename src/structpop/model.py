"""Problem definition: trait domain, demographic rates, mutation law, grids.

Rates are supplied through a registry of named parametric families so that
every scenario is fully described by a JSON config (no code-as-config).
Each rate family is built once, in `_make_rate`: its `fn` is vectorized over
numpy arrays, and its `scalar` evaluates the same rate on two Python floats.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed scenario configurations."""


class Record:
    """An immutable record of the fields its class annotates, in order, each
    defaulting to the class's value where it gives one. Records are built by
    position or name and are equal field by field; `replace` copies one
    through its class's constructor, so its `_check` holds on every copy."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)])
                or values.keys() != set(fields)):
            raise TypeError(f"{type(self).__name__} takes each of the fields {fields} "
                            f"once, got {len(args)} by position and {sorted(kwargs)}")
        self.__dict__.update(values)
        self._check()

    def _check(self) -> None:
        """Raises ConfigError where the fields break the record's rules."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def replace(record: Record, **changes) -> Record:
    """record with the fields `changes` changed, built by its class's constructor."""
    return type(record)(**{**record.__dict__, **changes})


# ---------------------------------------------------------------------------
# rate families
# ---------------------------------------------------------------------------

class RateFamily(Record):
    """A nonnegative rate map (x, a) -> value with known global bounds."""

    name: str
    params: dict
    fn: Callable       # vectorized over numpy arrays
    scalar: Callable   # (float, float) -> float, within 4 ulp of fn
    sup: float         # sup over S x R+
    inf: float         # inf over S x R+
    age_flat_from: float    # fn(x, a) = fn(x, a') for all a, a' at or past it (else inf)

    def __call__(self, x, a):
        return self.fn(x, a)


def _params(family: str, params, names: tuple[str, ...], arrays: bool = False,
            **defaults: float) -> list:
    """A family's parameters `names`, in order, by the one rule every family and
    kernel reads them with: params is a JSON object of exactly these keys (less
    those given a default), each a finite float, or with `arrays` a finite float
    array. ConfigError, naming the family and the key, otherwise."""
    where = f"params of family {family!r}"
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be a JSON object, got {params!r}")
    params = {**defaults, **params}
    _expect_keys(params, set(names), where)
    values = []
    for key in names:
        try:
            v = np.asarray(params[key], float) if arrays else float(params[key])
        except (TypeError, ValueError):
            v = math.nan
        if not np.all(np.isfinite(v)):
            what = "finite numbers" if arrays else "a finite number"
            raise ConfigError(f"{where}: {key} must be {what}, got {params[key]!r}")
        values.append(v)
    return values


def _make_rate(name: str, params: dict, domain: tuple[float, float]) -> RateFamily:
    lo, hi = domain

    if name == "constant":
        v, = _params(name, params, ("value",))
        if v < 0:
            raise ConfigError("constant rate must be nonnegative")
        fam = RateFamily(name, {"value": v}, lambda x, a: np.full_like(
            np.broadcast_arrays(np.asarray(x, float), np.asarray(a, float))[0], v),
            lambda x, a: v, v, v, 0.0)
    elif name == "affine":
        base, sx, sa = _params(name, params, ("base", "slope_x", "slope_a"),
                               slope_x=0.0, slope_a=0.0)
        if sa < 0:
            raise ConfigError("affine rate with slope_a < 0 is unbounded below in age")

        def fn(x, a):
            return base + sx * np.asarray(x, float) + sa * np.asarray(a, float)

        corner = [base + sx * lo, base + sx * hi]
        inf_v = min(corner)
        if inf_v < 0:
            raise ConfigError("affine rate is negative on the trait domain")
        sup_v, flat = (max(corner), 0.0) if sa == 0 else (math.inf, math.inf)
        fam = RateFamily(name, {"base": base, "slope_x": sx, "slope_a": sa}, fn,
                         lambda x, a: base + sx * x + sa * a, sup_v, inf_v, flat)
    elif name == "sqrt_gap":
        # B(x) = bbar - sqrt(x - lo); the gap to the maximum closes like sqrt
        bbar, = _params(name, params, ("bbar",))
        if bbar - math.sqrt(hi - lo) < 0:
            raise ConfigError("sqrt_gap rate is negative at the right edge")

        def fn(x, a):
            x = np.asarray(x, float)
            return bbar - np.sqrt(x - lo) + 0.0 * np.asarray(a, float)

        fam = RateFamily(name, {"bbar": bbar}, fn, lambda x, a: bbar - math.sqrt(x - lo),
                         bbar, bbar - math.sqrt(hi - lo), 0.0)
    elif name == "gaussian_bump":
        base, amp, center, width = _params(name, params, ("base", "amp", "center", "width"))
        if base < 0 or amp < 0 or width <= 0:
            raise ConfigError("gaussian_bump needs base, amp >= 0 and width > 0")

        def fn(x, a):
            x = np.asarray(x, float)
            return base + amp * np.exp(-0.5 * ((x - center) / width) ** 2) \
                + 0.0 * np.asarray(a, float)

        def scalar(x, a):
            z = (x - center) / width
            return base + amp * math.exp(-0.5 * (z * z))

        edge = min(fn(lo, 0.0), fn(hi, 0.0))
        fam = RateFamily(name, {"base": base, "amp": amp, "center": center, "width": width},
                         fn, scalar, base + amp, float(edge), 0.0)
    elif name == "logistic_age":
        low, high, a0, scale = _params(name, params, ("low", "high", "midpoint", "scale"))
        if low < 0 or high < low or scale <= 0:
            raise ConfigError("logistic_age needs 0 <= low <= high and scale > 0")

        def fn(x, a):
            with np.errstate(over="ignore"):    # exp's inf gives low, as in scalar
                e = np.exp(-(np.asarray(a, float) - a0) / scale)
            return low + (high - low) / (1.0 + e) + 0.0 * np.asarray(x, float)

        def scalar(x, a):
            try:
                return low + (high - low) / (1.0 + math.exp(-(a - a0) / scale))
            except OverflowError:   # np.exp gives inf there, and the rate its floor
                return low

        fam = RateFamily(name, {"low": low, "high": high, "midpoint": a0, "scale": scale},
                         fn, scalar, high, low, math.inf)
    elif name == "tabulated":
        xs, as_, vals = _params(name, params, ("x_nodes", "a_nodes", "values"), arrays=True)
        for axis, nodes in (("x_nodes", xs), ("a_nodes", as_)):
            if nodes.ndim != 1 or nodes.size < 2 or not np.all(np.diff(nodes) > 0):
                raise ConfigError(f"params of family {name!r}: {axis} must be a strictly "
                                  "increasing list of at least two nodes")
        if vals.shape != (xs.size, as_.size):
            raise ConfigError("tabulated values must have shape (len(x_nodes), len(a_nodes))")
        if np.any(vals < 0):
            raise ConfigError("tabulated rate values must be nonnegative")

        def fn(x, a):
            x = np.clip(np.asarray(x, float), xs[0], xs[-1])
            a = np.clip(np.asarray(a, float), as_[0], as_[-1])
            x, a = np.broadcast_arrays(x, a)
            ix = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
            ia = np.clip(np.searchsorted(as_, a) - 1, 0, as_.size - 2)
            tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
            ta = (a - as_[ia]) / (as_[ia + 1] - as_[ia])
            v00 = vals[ix, ia]
            v10 = vals[ix + 1, ia]
            v01 = vals[ix, ia + 1]
            v11 = vals[ix + 1, ia + 1]
            return (v00 * (1 - tx) * (1 - ta) + v10 * tx * (1 - ta)
                    + v01 * (1 - tx) * ta + v11 * tx * ta)

        fam = RateFamily(name, {"x_nodes": xs.tolist(), "a_nodes": as_.tolist(),
                                "values": vals.tolist()},
                         fn, lambda x, a: float(fn(x, a)),
                         float(vals.max()), float(vals.min()), float(as_[-1]))
    else:
        raise ConfigError(f"unknown rate family {name!r}")
    return fam


class KernelFamily(Record):
    """Mutation density k(x, y), a probability density in y over S."""

    fn: Callable                 # (x, y) -> density
    inf: float

    def __call__(self, x, y):
        return self.fn(x, y)

    def matrix(self, xs: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """kmat[i, j] = k(x_i, y_j) on the trait nodes xs and ys (ys = xs if not given)."""
        ys = xs if ys is None else ys
        return np.asarray(self.fn(xs[:, None], ys[None, :]), float)


def _make_kernel(name: str, params: dict, domain: tuple[float, float]) -> KernelFamily:
    lo, hi = domain
    leb = hi - lo

    if name == "uniform":
        _params(name, params, ())
        val = 1.0 / leb

        def fn(x, y):
            shape = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))[0]
            return np.full_like(shape, val)

        return KernelFamily(fn, val)
    if name == "gaussian":
        # gaussian in (y - x), truncated to S and renormalized with erf
        width, = _params(name, params, ("width",))
        if width <= 0:
            raise ConfigError("gaussian kernel needs width > 0")
        rt2 = math.sqrt(2.0)

        def norm_const(x):
            x = np.asarray(x, float)
            erf = np.vectorize(math.erf)
            return 0.5 * (erf((hi - x) / (width * rt2)) - erf((lo - x) / (width * rt2)))

        def fn(x, y):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            z = np.exp(-0.5 * ((y - x) / width) ** 2) / (width * math.sqrt(2 * math.pi))
            return z / norm_const(x)

        # certified floor: the normaliser is at most 1 and |y - x| <= |S|
        floor = math.exp(-0.5 * (leb / width) ** 2) / (width * math.sqrt(2 * math.pi))
        return KernelFamily(fn, floor)
    raise ConfigError(f"unknown kernel family {name!r}")


# ---------------------------------------------------------------------------
# model and grids
# ---------------------------------------------------------------------------

class RateModel(Record):
    birth: RateFamily
    death: RateFamily
    mutation_kernel: KernelFamily
    mutation_prob: float
    competition: float
    trait_domain: tuple[float, float]

    def _check(self):
        if not 0.0 < self.mutation_prob < 1.0:
            raise ConfigError("mutation probability must lie in (0, 1)")
        if not (math.isfinite(self.competition) and self.competition >= 0):
            raise ConfigError(f"competition rate must be finite and nonnegative, "
                              f"got {self.competition!r}")
        if self.death.inf <= 0:
            raise ConfigError("death rate must be bounded below by a positive constant")
        if not math.isfinite(self.birth.sup):
            raise ConfigError("birth rate must be bounded above (age truncation "
                              "and thinning need a finite sup)")
        lo, hi = self.trait_domain
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ConfigError("trait domain must be a finite nondegenerate interval")

    @property
    def death_floor(self) -> float:
        return self.death.inf

    @property
    def age_flat_from(self) -> float:
        """The age past which neither rate reads age."""
        return max(self.birth.age_flat_from, self.death.age_flat_from)


class TraitGrid(Record):
    """Midpoint nodes of a uniform trait grid and its step dx, every node's weight."""

    nodes: np.ndarray
    dx: float

    @property
    def n(self) -> int:
        return self.nodes.size


class AgeGrid(Record):
    """The age lattice a_j = j da, j = 0 .. n_cells, which every (x, a) grid and
    age integral shares; n_cells is even and at least 2, as Simpson's rule needs."""

    da: float
    n_cells: int

    def _check(self):
        if self.n_cells < 2 or self.n_cells % 2:
            raise ConfigError(f"age lattice needs an even cell count >= 2, got {self.n_cells}")

    @property
    def a_max(self) -> float:
        return self.n_cells * self.da

    @property
    def nodes(self) -> np.ndarray:
        return self.da * np.arange(self.n_cells + 1)

    def quad_weights(self) -> np.ndarray:
        """Composite Simpson weights on the age lattice."""
        w = np.ones(self.n_cells + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (self.da / 3.0)


def mass_weights(tgrid: TraitGrid, agrid: AgeGrid) -> np.ndarray:
    """dx qa_j, shape (na+1,): the quadrature weights of int f dx da on every
    trait row of the (x, a) nodes, for the age lattice's Simpson weights qa."""
    return tgrid.dx * agrid.quad_weights()


def grid_integral(tgrid: TraitGrid, agrid: AgeGrid, *fs: np.ndarray) -> float:
    """int f_1 ... f_k dx da for (nx, na+1) grids f: sum(f_1 mass_weights f_2 ... f_k),
    the weights broadcast over blocks of 16 trait rows, each block formed in one
    reused buffer and summed pairwise, so that each grid is read once and no
    grid-sized array is formed."""
    mw, total = mass_weights(tgrid, agrid), 0.0
    buf = np.empty((min(16, tgrid.n), mw.size))
    for i in range(0, tgrid.n, 16):
        rows = slice(i, i + 16)
        block = np.multiply(fs[0][rows], mw, out=buf[:fs[0][rows].shape[0]])
        for f in fs[1:]:
            block *= f[rows]
        total += float(np.sum(block))
    return total


def midpoint_grid(domain: tuple[float, float], nx: int) -> TraitGrid:
    if nx < 2:
        raise ConfigError("trait grid needs at least 2 nodes")
    lo, hi = domain
    dx = (hi - lo) / nx
    nodes = lo + dx * (np.arange(nx) + 0.5)
    return TraitGrid(nodes=nodes, dx=dx)


# ---------------------------------------------------------------------------
# scenario configuration (JSON round-trip)
# ---------------------------------------------------------------------------

class ScenarioConfig(Record):
    trait_domain: tuple[float, float]
    birth: dict          # {"family": ..., "params": {...}}
    death: dict
    kernel: dict
    p: float
    c: float
    nx: int
    da: float
    tol: float
    seed: int = 0

    def _check(self):
        """Checks the grid and seed fields, however the config was made: a preset,
        `parse_config` or a `replace` of command-line overrides."""
        if not (isinstance(self.nx, int) and self.nx >= 2):
            raise ConfigError(f"grids.nx must be an integer >= 2, got {self.nx!r}")
        for name in ("da", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"grids.{name} must be finite and positive, got {value!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {
            "trait_domain": list(self.trait_domain),
            "rates": {"birth": self.birth, "death": self.death},
            "kernel": self.kernel,
            "p": self.p,
            "c": self.c,
            "grids": {"nx": self.nx, "da": self.da, "tol": self.tol},
            "seed": self.seed,
        }


def _expect_keys(d: dict, keys: set[str], where: str) -> None:
    unknown = set(d) - keys
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = keys - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def parse_config(data: dict | str) -> ScenarioConfig:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _expect_keys(data, {"trait_domain", "rates", "kernel", "p", "c", "grids", "seed"}, "config")
    dom = data["trait_domain"]
    if not (isinstance(dom, (list, tuple)) and len(dom) == 2):
        raise ConfigError("trait_domain must be [lo, hi]")
    rates = data["rates"]
    _expect_keys(rates, {"birth", "death"}, "rates")
    for key in ("birth", "death"):
        _expect_keys(rates[key], {"family", "params"}, f"rates.{key}")
    _expect_keys(data["kernel"], {"family", "params"}, "kernel")
    grids = data["grids"]
    _expect_keys(grids, {"nx", "da", "tol"}, "grids")
    return ScenarioConfig(
        trait_domain=(float(dom[0]), float(dom[1])),
        birth=rates["birth"], death=rates["death"], kernel=data["kernel"],
        p=float(data["p"]), c=float(data["c"]),
        nx=grids["nx"], da=float(grids["da"]), tol=float(grids["tol"]),
        seed=data["seed"],
    )


def build_model(config: ScenarioConfig) -> RateModel:
    dom = config.trait_domain
    return RateModel(
        birth=_make_rate(config.birth["family"], config.birth["params"], dom),
        death=_make_rate(config.death["family"], config.death["params"], dom),
        mutation_kernel=_make_kernel(config.kernel["family"], config.kernel["params"], dom),
        mutation_prob=config.p,
        competition=config.c,
        trait_domain=dom,
    )


def build_grids(config: ScenarioConfig, model: RateModel) -> tuple[TraitGrid, AgeGrid]:
    """Midpoint trait grid plus an age lattice truncated from the tail bound at
    lambda = 0, which bounds the tail at every lambda >= 0."""
    from .kernel import age_lattice

    tgrid = midpoint_grid(config.trait_domain, config.nx)
    return tgrid, age_lattice(model, 0.0, config.tol, config.da)


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------

class AssumptionReport:
    def __init__(self):
        self.checks: dict = {}      # name -> bool
        self.details: dict = {}


def validate_assumptions(model: RateModel, tgrid: TraitGrid,
                         agrid: AgeGrid) -> AssumptionReport:
    """Sampled checks of the standing assumptions; report-only, never raises.

    The positivity-of-support condition on (B, k) is an open-set property, so
    the sampled check can falsify it but never certify it.
    """
    rep = AssumptionReport()
    lo, hi = model.trait_domain

    # kernel normalization by composite Gauss-Legendre quadrature (16 panels of
    # 64 nodes), independent of the trait grid; its own error is at roundoff
    # for a gaussian of width 0.01, far below the 1e-8 threshold
    gx, gw = np.polynomial.legendre.leggauss(64)
    h = (hi - lo) / 16
    left = lo + h * np.arange(16)
    yq = (left[:, None] + 0.5 * h * (gx + 1.0)[None, :]).ravel()
    wq = np.tile(0.5 * h * gw, 16)
    xs = tgrid.nodes[:: max(1, tgrid.n // 8)]
    masses = model.mutation_kernel(xs[:, None], yq[None, :]) @ wq
    defect = float(np.abs(masses - 1.0).max())
    rep.checks["kernel_normalized"] = defect < 1e-8
    rep.details["kernel_normalized"] = {"max_defect": defect}

    # sampled (A4)-style check: B(x,.) > 0 somewhere in age and k(x, y) > 0
    # for neighboring trait nodes
    ages = agrid.nodes[:: max(1, agrid.n_cells // 32)]
    bvals = model.birth(*np.meshgrid(tgrid.nodes, ages, indexing="ij"))
    kxy = model.mutation_kernel(tgrid.nodes[:-1], tgrid.nodes[1:])
    a4 = bool(np.all(np.any(bvals[:-1] > 0, axis=1) & (kxy > 0)))
    rep.checks["support_overlap_sampled"] = a4
    return rep


# ---------------------------------------------------------------------------
# canonical scenarios
# ---------------------------------------------------------------------------

def constant_scenario(nx: int = 64, da: float = 0.01, tol: float = 1e-10,
                      seed: int = 20240901) -> ScenarioConfig:
    """Fully solvable regular case: B=2, D=1, uniform kernel on [0,1]."""
    return ScenarioConfig(
        trait_domain=(0.0, 1.0),
        birth={"family": "constant", "params": {"value": 2.0}},
        death={"family": "constant", "params": {"value": 1.0}},
        kernel={"family": "uniform", "params": {}},
        p=0.3, c=1.0, nx=nx, da=da, tol=tol, seed=seed,
    )


def singular_scenario(nx: int = 64, da: float = 0.01, tol: float = 1e-10,
                      seed: int = 20240902) -> ScenarioConfig:
    """Concentrating case: B(x) = 4 - sqrt(x), D=1, small mutation probability.

    With p < 1/8 the trait marginal of the stable distribution carries a
    singular part at the maximizing trait x = 0. Derivation: the age collapse
    gives sB_lam(x) = B(x) / (1 + lam) and r_lam = (1 - p) sB_lam, with
    rbar_lam = r_lam(0) = 1 at lam = 4 (1 - p) - 1. For the uniform kernel the
    direct eigenvector is mu = c / (rho - r), so a density at rho = 1 needs
    p int sB / (1 - r) dx >= 1 there. With sB = (4 - sqrt(x)) / (4 (1 - p))
    and 1 - r = sqrt(x) / 4 that integral is
    (p / (1 - p)) int_0^1 (4 - sqrt(x)) / sqrt(x) dx = 7p / (1 - p),
    which falls below one exactly when p < 1/8.
    """
    return ScenarioConfig(
        trait_domain=(0.0, 1.0),
        birth={"family": "sqrt_gap", "params": {"bbar": 4.0}},
        death={"family": "constant", "params": {"value": 1.0}},
        kernel={"family": "uniform", "params": {}},
        p=0.05, c=1.0, nx=nx, da=da, tol=tol, seed=seed,
    )


PRESETS = {"constant": constant_scenario, "singular": singular_scenario}
