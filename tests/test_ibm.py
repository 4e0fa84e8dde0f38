import ast
import collections
import dataclasses
import gc
import itertools
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import stats

from structpop import _loops, ibm, pde
from structpop.kernel import mix_matrix
from structpop.model import (AgeGrid, _make_rate, build_model, constant_scenario,
                             mass_weights, midpoint_grid)


def const_model(birth=2.0, c=1.0):
    cfg = dataclasses.replace(
        constant_scenario(), c=c,
        birth={"family": "constant", "params": {"value": birth}})
    return build_model(cfg)


def clones(trait, count):
    """`simulate`'s init of count particles of one trait, all at age 0."""
    return np.full(count, float(trait)), np.zeros(count)


@pytest.fixture(scope="module")
def tg():
    return midpoint_grid((0.0, 1.0), 32)


def reference_simulate(model, tgrid, K, T, sample_times, seed, init=None,
                       linear=False, particle_cap=ibm.PARTICLE_CAP,
                       rng_cls=random.Random):
    """The event loop in plain library calls: `randrange`, `expovariate`, rates
    through the vectorised families and mutant draws by `np.searchsorted`.

    Returns (log fields, aborted). `ibm.simulate` must reproduce it exactly.
    """
    rng = rng_cls(seed)
    lo, hi = model.trait_domain
    if init is None:
        init = [lo + (hi - lo) * rng.random() for _ in range(K)], [0.0] * K
    xs = [float(x) for x in init[0]]
    bt = [-float(a) for a in init[1]]
    cdf = np.cumsum(model.mutation_kernel.matrix(tgrid.nodes) * tgrid.dx, axis=1)
    cdf = cdf / cdf[:, -1:]
    nodes, dx = tgrid.nodes, tgrid.dx
    sample_times = np.asarray(sorted(sample_times), float)
    masses = np.zeros(sample_times.size)
    snapshots = [None] * sample_times.size
    si, t, n_events, n_deaths, peak = 0, 0.0, 0, 0, len(xs)
    events = []
    aborted = False

    def record_until(t_stop):
        nonlocal si
        while si < sample_times.size and sample_times[si] <= t_stop + 1e-12:
            masses[si] = len(xs) / K
            snapshots[si] = (np.asarray(xs, float), sample_times[si] - np.asarray(bt))
            si += 1

    while t < T:
        n = len(xs)
        if n == 0:
            break
        comp = 0.0 if linear else model.competition * n / K
        bound = model.birth.sup + model.death.sup + comp
        t_next = t + rng.expovariate(n * bound)
        record_until(min(t_next, T))
        if t_next >= T:
            t = T
            break
        t = t_next
        n_events += 1
        i = rng.randrange(n)
        x = xs[i]
        a = t - bt[i]
        u = rng.random() * bound
        b = float(model.birth(x, a))
        if u < b:
            if rng.random() < model.mutation_prob:
                row = min(max(int((x - lo) / dx), 0), nodes.size - 1)
                j = int(np.searchsorted(cdf[row], rng.random(), side="left"))
                x = float(nodes[min(j, nodes.size - 1)])
            xs.append(x)
            bt.append(t)
            events.append((t, "birth"))
            peak = max(peak, len(xs))
            if len(xs) > particle_cap:
                aborted = True
                break
        elif u < b + float(model.death(x, a)) + comp:
            xs[i] = xs[-1]
            bt[i] = bt[-1]
            xs.pop()
            bt.pop()
            n_deaths += 1
            events.append((t, "death"))
    record_until(T)
    return dict(events=events, masses=masses, snapshots=snapshots, n_events=n_events,
                n_deaths=n_deaths, peak=peak), aborted


def assert_same_log(log, ref):
    assert log.events == ref["events"]
    assert log.masses.tobytes() == ref["masses"].tobytes()
    assert (log.n_events, log.n_deaths, log.peak) == (
        ref["n_events"], ref["n_deaths"], ref["peak"])
    for got, want in zip(log.snapshots, ref["snapshots"]):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def model_from(**changes):
    return build_model(dataclasses.replace(constant_scenario(), **changes))


STREAM_CASES = {
    "constant": (const_model(), 200, 2.0),
    "sqrt_gap_gaussian": (model_from(
        p=0.9, birth={"family": "sqrt_gap", "params": {"bbar": 4.0}},
        kernel={"family": "gaussian", "params": {"width": 0.1}}), 100, 1.0),
    "logistic_age_affine": (model_from(
        birth={"family": "logistic_age",
               "params": {"low": 0.5, "high": 3.0, "midpoint": 0.3, "scale": 0.1}},
        death={"family": "affine", "params": {"base": 1.0, "slope_x": 0.5}}), 150, 1.5),
}


def python_loop_only(monkeypatch):
    """Route `ibm.simulate` to its Python loop (and `pde.run` to its NumPy record),
    as on a host without a compiler."""
    monkeypatch.setattr(_loops, "library", lambda: (None, "disabled for this test"))


def dispatched_loop(model):
    """The loop `ibm.simulate` should pick for this model on this host."""
    in_c = all(fam.name in ibm._C_RATES for fam in (model.birth, model.death))
    return "c" if in_c and _loops.library()[0] is not None else "python"


def check_stream_case(tg, case, linear, loop):
    model, K, T = STREAM_CASES[case]
    times = np.linspace(0.0, T, 5)
    ref, aborted = reference_simulate(model, tg, K, T, times, seed=17, linear=linear)
    assert not aborted and ref["n_events"] > 500
    log = ibm.simulate(model, tg, K, T, times, seed=17, linear=linear,
                       record_events=True)
    assert log.loop == loop
    assert_same_log(log, ref)
    quiet = ibm.simulate(model, tg, K, T, times, seed=17, linear=linear,
                         store_snapshots=False)
    assert quiet.events is None and quiet.masses.tobytes() == log.masses.tobytes()
    assert all(snap is None for snap in quiet.snapshots)


def check_extinction(tg, loop):
    model = const_model(birth=0.5)
    times = [0.0, 1.0, 50.0]
    ref, _ = reference_simulate(model, tg, 1, 50.0, times, seed=4)
    log = ibm.simulate(model, tg, 1, 50.0, times, seed=4, record_events=True)
    assert log.loop == loop
    assert log.masses[-1] == 0.0 and log.n_deaths > 0
    assert_same_log(log, ref)


def check_explosion(tg, loop):
    model = const_model()
    times = [0.0, 0.5, 50.0]
    init = clones(0.5, 10)
    ref, aborted = reference_simulate(model, tg, 10, 50.0, times, seed=1,
                                      init=init, linear=True, particle_cap=200)
    with pytest.raises(ibm.ExplosionError) as err:
        ibm.simulate(model, tg, 10, 50.0, times, seed=1, init=init, linear=True,
                     particle_cap=200, record_events=True)
    assert aborted and err.value.log.aborted and err.value.log.loop == loop
    assert_same_log(err.value.log, ref)


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_simulate_matches_reference_stream(tg, case, linear):
    check_stream_case(tg, case, linear, dispatched_loop(STREAM_CASES[case][0]))


def test_reference_stream_to_extinction(tg):
    check_extinction(tg, dispatched_loop(const_model()))


def test_reference_stream_through_explosion(tg):
    check_explosion(tg, dispatched_loop(const_model()))


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_python_loop_matches_reference_stream(tg, case, linear, monkeypatch):
    python_loop_only(monkeypatch)
    check_stream_case(tg, case, linear, "python")


def test_python_loop_reference_extinction_and_explosion(tg, monkeypatch):
    python_loop_only(monkeypatch)
    check_extinction(tg, "python")
    check_explosion(tg, "python")


# the compiled families without a stream case above; at this logistic_age's
# steep midpoint, exp overflows below age 0.29 (math.exp raises there) and
# not above it, so both branches of the rate run
C_ONLY_RATES = {
    "gaussian_bump": {"family": "gaussian_bump",
                      "params": {"base": 0.5, "amp": 2.0, "center": 0.3, "width": 0.15}},
    "logistic_age": {"family": "logistic_age",
                     "params": {"low": 0.5, "high": 3.0, "midpoint": 1.0, "scale": 0.001}},
}


@pytest.mark.parametrize("role", ["birth", "death"])
@pytest.mark.parametrize("family", sorted(C_ONLY_RATES))
def test_compiled_family_matches_the_python_loop_bit_for_bit(tg, family, role, monkeypatch):
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    model = model_from(p=0.5, **{role: C_ONLY_RATES[family]})
    times = np.linspace(0.0, 2.0, 5)
    logs = {}
    for loop in ("c", "python"):
        with monkeypatch.context() as m:
            if loop == "python":
                python_loop_only(m)
            logs[loop] = ibm.simulate(model, tg, 200, 2.0, times, seed=23, record_events=True)
        assert logs[loop].loop == loop
    c, py = logs["c"], logs["python"]
    assert c.n_events > 500 and c.n_deaths > 0
    assert c.events == py.events and c.masses.tobytes() == py.masses.tobytes()
    assert (c.n_events, c.n_deaths, c.peak) == (py.n_events, py.n_deaths, py.peak)
    for got, want in zip(c.snapshots, py.snapshots):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_compiled_loop_reenters_across_table_refills(tg, monkeypatch):
    # a sample time every few events: ibm_run returns about a thousand times,
    # three of them with the MT table spent (mti = 624), and each entry tempers
    # the raw table afresh
    lib = _loops.library()[0]
    if lib is None:
        pytest.skip("the compiled loops are unavailable on this host")
    mtis = []

    class Recorder:
        def ibm_run(self, ref):
            status = lib.ibm_run(ref)
            mtis.append(ref._obj.mti)
            return status

    times = np.linspace(0.0, 2.0, 1000)
    logs = {}
    for loop in ("c", "python"):
        with monkeypatch.context() as m:
            if loop == "c":
                m.setattr(_loops, "library", lambda: (Recorder(), None))
            else:
                python_loop_only(m)
            logs[loop] = ibm.simulate(const_model(), tg, 200, 2.0, times, seed=1,
                                      record_events=True)
    assert len(mtis) > 900 and mtis.count(624) >= 2
    assert_same_log(logs["c"], vars(logs["python"]))


def test_compiled_stream_matches_over_many_refills_near_a_power_of_two(tg, monkeypatch):
    # a nonlinear population that wanders across n = 2048 = 2^11: from 2048
    # on, the index draw takes 12 bits and rejects about half of them, below
    # it almost none. Mutation at p = 0.9 on a gaussian kernel draws a
    # mutant's cell from rows that differ from trait to trait, and an affine
    # birth rate makes the events depend on every mutant's cell. Each event
    # reads at least five words, so 6240 events regenerate the MT table at
    # least 50 times.
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    model = model_from(p=0.9, birth={"family": "affine", "params": {"base": 1.8, "slope_x": 0.4}},
                       kernel={"family": "gaussian", "params": {"width": 0.1}})
    K, times = 2100, np.linspace(0.0, 1.0, 5)
    logs = {}
    for loop in ("c", "python"):
        with monkeypatch.context() as m:
            if loop == "python":
                python_loop_only(m)
            logs[loop] = ibm.simulate(model, tg, K, 1.0, times, seed=6, record_events=True)
        assert logs[loop].loop == loop
    c = logs["c"]
    sizes = K + np.cumsum([1 if kind == "birth" else -1 for _, kind in c.events])
    assert c.n_events > 6240 and 0.2 < np.mean(sizes >= 2048) < 0.8
    assert_same_log(c, vars(logs["python"]))


class _DyadicStream(random.Random):
    """Uniforms cycling through dyadic values that land on mutant CDF entries.

    Overriding `getrandbits` as well keeps `randrange` on its getrandbits path.
    """

    def seed(self, a=None, version=2):
        super().seed(a, version)
        self._uniforms = itertools.cycle((0.5, 0.25, 0.5, 0.75, 0.5))

    def random(self):
        return next(self._uniforms)

    def getrandbits(self, k):
        return super().getrandbits(k)


def test_mutant_draw_ties_resolve_left(monkeypatch):
    # two trait cells: each CDF row is [0.5, 1.0], so U = 0.5 is a tie
    tg2 = midpoint_grid((0.0, 1.0), 2)
    model = model_from(p=0.9)
    times = [0.0, 0.5]
    ref, _ = reference_simulate(model, tg2, 20, 0.5, times, seed=3, linear=True,
                                rng_cls=_DyadicStream)
    python_loop_only(monkeypatch)   # the compiled loop reads MT19937, not random()
    monkeypatch.setattr(ibm, "random", types.SimpleNamespace(Random=_DyadicStream))
    log = ibm.simulate(model, tg2, 20, 0.5, times, seed=3, linear=True,
                       record_events=True)
    assert_same_log(log, ref)
    assert 0.0 < np.mean(log.snapshots[-1][0] == tg2.nodes[0]) < 1.0


def _untemper(y):
    """The MT19937 state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    w = y
    for _ in range(4):
        w = y ^ ((w << 7) & 0x9d2c5680)
    y = w & 0xffffffff
    w = y
    for _ in range(2):
        w = y ^ (w >> 11)
    return w


def preset_stream(words):
    """A stock `random.Random` whose next 32-bit outputs are `words`."""
    filler = random.Random(0)
    state = [_untemper(w) for w in words]
    state += [filler.getrandbits(32) for _ in range(624 - len(words))]
    rng = random.Random()
    rng.setstate((3, tuple(state) + (0,), None))
    return rng


def test_mutant_draw_tie_resolves_left_on_both_loops(monkeypatch):
    # two trait cells: each CDF row is [0.5, 1.0]. The outputs are: waiting
    # time U = 0.5, particle 0, birth mark U = 0, mutation U = 0, trait
    # U = (2^26 * 2^26 + 0) / 2^53 = 0.5 exactly (a tie), next wait U ~ 1.
    words = [2**31, 0, 0, 0, 0, 0, 0, 2**31, 0, 2**32 - 1, 2**32 - 1]
    probe = preset_stream(words)
    assert [probe.getrandbits(32) for _ in words] == words
    tg2 = midpoint_grid((0.0, 1.0), 2)
    model = model_from(p=0.9)
    loops = ["python"] + (["c"] if _loops.library()[0] is not None else [])
    for loop in loops:
        with monkeypatch.context() as m:
            rng = preset_stream(words)
            m.setattr(ibm, "random", types.SimpleNamespace(Random=lambda seed: rng))
            if loop == "python":
                python_loop_only(m)
            log = ibm.simulate(model, tg2, 1, 1.0, [0.0, 1.0], seed=0,
                               init=clones(tg2.nodes[1], 1), linear=True,
                               record_events=True)
        assert log.loop == loop
        assert log.events == [(0.0 - math.log(1.0 - 0.5) / 3.0, "birth")]
        assert log.snapshots[-1][0].tolist() == [tg2.nodes[1], tg2.nodes[0]]


def test_import_builds_and_loads_nothing():
    # a fresh interpreter: importing the CLI or the PDE module must not touch
    # the compiled loops
    src = os.path.dirname(os.path.dirname(ibm.__file__))
    for module in ("structpop.cli", "structpop.pde"):
        code = ("import os\n"
                f"import {module}\n"
                "from structpop import _loops\n"
                "assert _loops.library.cache_info().misses == 0\n"
                "maps = '/proc/self/maps'\n"
                "assert not os.path.exists(maps) or '_loops-' not in open(maps).read()\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))


@pytest.fixture
def fresh_loader():
    _loops.library.cache_clear()
    yield
    _loops.library.cache_clear()


@pytest.fixture
def loops_source(tmp_path, monkeypatch):
    """A copy of _loops.c in tmp_path, which the loader then builds from."""
    source = tmp_path / "_loops.c"
    shutil.copy(_loops.SOURCE, source)
    monkeypatch.setattr(_loops, "SOURCE", str(source))
    return source


def count_numpy_steps(monkeypatch):
    """The calls of the NumPy step from now on, one entry per step."""
    steps, step = [], pde.TransportSolver._numpy_step
    monkeypatch.setattr(pde.TransportSolver, "_numpy_step",
                        lambda self, *a: steps.append(1) or step(self, *a))
    return steps


def short_pde_run(tg):
    """The trace of a 20-step pde.run on the constant model, with a target and phi."""
    model = const_model()
    ag = AgeGrid(da=0.01, n_cells=100)
    solver = pde.TransportSolver(model, tg, ag, mix_matrix(model, tg))
    grid = np.ones((tg.n, ag.n_cells + 1))
    return pde.run(solver, pde.uniform_state(tg, ag), 0.2, target=grid, phi=grid,
                   lam_star=1.0, record_every=5)[1]


def test_loop_library_built_once_then_reused(tmp_path, monkeypatch, fresh_loader,
                                             loops_source, tg):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    compiles = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run",
                        lambda *a, **kw: compiles.append(a) or run(*a, **kw))
    model = const_model()
    first = ibm.simulate(model, tg, 50, 0.5, [0.5], seed=2, store_snapshots=False)
    assert first.loop == "c" and len(compiles) == 1
    numpy_steps = count_numpy_steps(monkeypatch)
    trace = short_pde_run(tg)        # the same library serves the PDE steps and record
    assert trace.record == "c" and numpy_steps == [] and len(compiles) == 1
    assert len(list((tmp_path / "__pycache__").glob("_loops-*.so"))) == 1
    _loops.library.cache_clear()     # as a new process would: only the cache on disk
    again = short_pde_run(tg)
    assert again.record == "c" and again.mass == trace.mass
    second = ibm.simulate(model, tg, 50, 0.5, [0.5], seed=2, store_snapshots=False)
    assert second.loop == "c" and len(compiles) == 1
    assert second.masses.tobytes() == first.masses.tobytes()


def test_a_build_removes_the_libraries_of_earlier_sources(tmp_path, fresh_loader,
                                                          loops_source):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = [cache / "_loops-0123456789abcdef.so", cache / "_ibm_loop-4be3483452.so"]
    kept = [cache / "_loops-notes.txt", cache / "other.so", cache / "kernel.cpython-311.pyc"]
    for path in stale + kept:
        path.write_bytes(b"")
    lib, why = _loops.library()
    assert lib is not None and why is None
    libraries = [p for p in cache.glob("*.so") if p.name.startswith(("_loops-", "_ibm_loop-"))]
    assert len(libraries) == 1 and libraries[0] not in stale
    assert all(path.exists() for path in kept) and not any(path.exists() for path in stale)


def test_no_compiler_falls_back_to_python(monkeypatch, fresh_loader, loops_source, tg):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.delitem(sys.modules, "subprocess")   # only a build may import it
    log = ibm.simulate(const_model(), tg, 50, 0.5, [0.5], seed=2)
    assert log.loop == "python"
    numpy_steps = count_numpy_steps(monkeypatch)
    assert short_pde_run(tg).record == "numpy" and len(numpy_steps) == 20
    assert _loops.library() == (None, "no C compiler (cc or gcc) on PATH")
    assert "subprocess" not in sys.modules


def test_loops_source_compiles_without_warnings(tmp_path):
    # at the loader's flags; -Wall also finds a static helper left unused, and
    # gcc's -Wvector-operation-performance a vector operation that the target
    # cannot do in one instruction and expands to scalar code (clang has no
    # such flag)
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    macros = subprocess.run([cc, "-dM", "-E", "-"], input="", capture_output=True,
                            text=True, timeout=60).stdout
    is_gcc = "__GNUC__" in macros and "__clang__" not in macros
    warn = ["-Wall", "-Wextra", "-Werror"] + ["-Wvector-operation-performance"] * is_gcc
    proc = subprocess.run([cc, *_loops.FLAGS, *warn,
                           "-o", str(tmp_path / "loops.so"), _loops.SOURCE, "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def exported_functions(source):
    """{name: parameter count} of the functions _loops.c defines without static:
    a definition is name(params) then its body's brace at file level, and its
    declaration specifiers are the text back to the previous ';' or '}'."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)
    found = {}
    for m in re.finditer(r"\b(\w+)\s*\(([^()]*)\)\s*\{", code):
        if code.count("{", 0, m.start()) != code.count("}", 0, m.start()):
            continue                    # inside a body: a loop or a branch
        start = max(code.rfind(";", 0, m.start()), code.rfind("}", 0, m.start()))
        if "static" in code[start + 1:m.start()].split():
            continue
        params = m.group(2).strip()
        found[m.group(1)] = 0 if params in ("", "void") else params.count(",") + 1
    return found


def test_every_exported_loop_has_argtypes_of_its_arity():
    # ctypes passes what argtypes says: a parameter missing from it is read as garbage
    lib, why = _loops.library()
    if lib is None:
        pytest.skip(why)
    with open(_loops.SOURCE) as f:
        exported = exported_functions(f.read())
    assert set(exported) == {"ibm_run", "phi_interp", "pde_record", "pde_steps"}
    for name, count in exported.items():
        argtypes = getattr(lib, name).argtypes
        assert argtypes is not None and len(argtypes) == count, name


def test_determinism_bit_for_bit(tg):
    model = const_model()
    times = np.linspace(0, 2, 5)
    init = clones(0.5, 50)
    a = ibm.simulate(model, tg, 50, 2.0, times, seed=99, init=init,
                     record_events=True)
    b = ibm.simulate(model, tg, 50, 2.0, times, seed=99, init=init,
                     record_events=True)
    assert np.array_equal(a.masses, b.masses)
    assert a.events == b.events
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa[0], sb[0]) and np.array_equal(sa[1], sb[1])


def test_replicates_reproducible(tg):
    model = const_model()
    times = np.array([0.0, 1.0])
    logs1 = ibm.run_replicates(model, tg, 100, 1.0, times, seed=5, M=4,
                               store_snapshots=False)
    logs2 = ibm.run_replicates(model, tg, 100, 1.0, times, seed=5, M=4,
                               store_snapshots=False)
    assert [tuple(l.masses) for l in logs1] == [tuple(l.masses) for l in logs2]


def test_single_particle_death_law(tg):
    # K=1, B=0: the lifetime is Exp(D + c/K) = Exp(2)
    model = const_model(birth=0.0, c=1.0)
    times = []
    for seed in range(10_000):
        log = ibm.simulate(model, tg, 1, 50.0, [], seed=seed,
                           init=clones(0.5, 1), record_events=True,
                           store_snapshots=False)
        assert len(log.events) == 1 and log.events[0][1] == "death"
        times.append(log.events[0][0])
    ks = stats.kstest(times, "expon", args=(0.0, 0.5))
    assert ks.pvalue > 0.01


def test_c_zero_equals_linear_run(tg):
    model = const_model(c=0.0)
    times = np.linspace(0, 2, 5)
    init = clones(0.3, 40)
    a = ibm.simulate(model, tg, 40, 2.0, times, seed=7, init=init,
                     linear=False, record_events=True)
    b = ibm.simulate(model, tg, 40, 2.0, times, seed=7, init=init,
                     linear=True, record_events=True)
    assert a.events == b.events
    assert np.array_equal(a.masses, b.masses)


def test_linear_mean_growth(tg):
    # E[mass(t)] = mass(0) e^{(B-D)t} for constant rates
    model = const_model()
    K, M, T = 200, 40, 2.0
    logs = ibm.run_replicates(model, tg, K, T, [0.0, T], seed=21, M=M,
                              init_sampler=lambda s: clones(0.5, K),
                              linear=True, store_snapshots=False)
    finals = np.array([l.masses[-1] for l in logs])
    se = finals.std(ddof=1) / math.sqrt(M)
    assert abs(finals.mean() - math.exp(T)) <= 4 * se


def test_pure_death_mean_survival(tg):
    model = const_model(birth=0.0, c=0.0)
    K, M, T = 500, 30, 1.0
    logs = ibm.run_replicates(model, tg, K, T, [0.0, T], seed=31, M=M,
                              init_sampler=lambda s: clones(0.5, K),
                              linear=True, store_snapshots=False)
    finals = np.array([l.masses[-1] for l in logs])
    se = finals.std(ddof=1) / math.sqrt(M)
    assert abs(finals.mean() - math.exp(-T)) <= 4 * se


def test_mass_integer_particles(tg):
    model = const_model()
    log = ibm.simulate(model, tg, 10, 3.0, np.linspace(0, 3, 13), seed=2,
                       init=clones(0.5, 10), store_snapshots=False)
    counts = log.masses * 10
    assert np.allclose(counts, np.round(counts))
    assert np.all(log.masses >= 0)


def test_mutants_stay_in_domain(tg):
    cfg = dataclasses.replace(
        constant_scenario(), p=0.9,
        kernel={"family": "gaussian", "params": {"width": 0.1}})
    model = build_model(cfg)
    log = ibm.simulate(model, tg, 100, 2.0, [2.0], seed=11,
                       init=clones(0.95, 100))
    x, a = log.snapshots[0]
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(a >= 0.0)


def test_explosion_guard(tg):
    model = const_model()
    with pytest.raises(ibm.ExplosionError) as err:
        ibm.simulate(model, tg, 10, 50.0, [], seed=1, init=clones(0.5, 10),
                     linear=True, particle_cap=200, store_snapshots=False)
    assert err.value.log.aborted


def _no_stream(seed):
    raise AssertionError("a random stream was made before init was checked")


@pytest.mark.parametrize("init", [
    [(0.5, 0.0)] * 10,                                  # the pairs, not the pair of arrays
    (np.full((2, 5), 0.5), np.zeros((2, 5))),
    (np.full(10, 0.5), np.zeros(9)),
    (0.5, 0.0),
], ids=["pairs", "two_d", "lengths_differ", "scalars"])
@pytest.mark.parametrize("loop", ["dispatched", "python"])
def test_malformed_init_rejected_before_any_draw(tg, init, loop, monkeypatch):
    if loop == "python":
        python_loop_only(monkeypatch)
    monkeypatch.setattr(ibm, "random", types.SimpleNamespace(Random=_no_stream))
    with pytest.raises(ValueError):
        ibm.simulate(const_model(), tg, 10, 1.0, [0.0, 1.0], seed=1, init=init)


def phantoms(log, initial):
    births = log.n_deaths + round(log.masses[-1] * log.K) - initial
    return log.n_events - births - log.n_deaths


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
def test_counters_constant_rates_have_no_phantoms(tg, linear):
    # the thinning bound is exactly B + D + comp, so every mark is an event
    log = ibm.simulate(const_model(), tg, 200, 2.0, [0.0, 2.0], seed=8,
                       linear=linear, store_snapshots=False)
    assert log.n_events > 0 and log.n_deaths > 0
    assert phantoms(log, 200) == 0
    assert log.peak >= max(200, round(log.masses[-1] * 200))


def test_counters_age_dependent_birth_has_phantoms(tg):
    model, K, T = STREAM_CASES["logistic_age_affine"]
    log = ibm.simulate(model, tg, K, T, [0.0, T], seed=8, store_snapshots=False)
    assert 0 < phantoms(log, K) < log.n_events


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("loop", ["dispatched", "python"])
def test_bad_horizon_rejected_before_any_draw(tg, T, loop, monkeypatch):
    # without the check a linear run from 10 particles ends at once anyway,
    # by explosion or extinction, so a missing check fails instead of hanging
    if loop == "python":
        python_loop_only(monkeypatch)
    with pytest.raises(ValueError, match="horizon T"):
        ibm.simulate(const_model(), tg, 10, T, [], seed=1, linear=True,
                     particle_cap=50, store_snapshots=False)


def test_sample_times_outside_horizon_rejected(tg):
    model = const_model()
    for times in ([0.0, 2.5], [-0.1, 1.0], [math.nan]):
        with pytest.raises(ValueError, match="sample times"):
            ibm.simulate(model, tg, 10, 2.0, times, seed=1)
    log = ibm.simulate(model, tg, 10, 2.0, [2.0, 0.0], seed=1)
    assert all(snap is not None for snap in log.snapshots)


def test_martingale_series_rejects_logs_without_snapshots(constant_setup):
    s = constant_setup
    tr = s.triple
    logs = ibm.run_replicates(s.model, s.tgrid, 50, 0.5, [0.0, 0.5], seed=3, M=2,
                              linear=True, store_snapshots=False)
    with pytest.raises(ValueError, match="no snapshot"):
        ibm.martingale_series(logs, tr.phi_grid, tr.lambda_star, s.tgrid, s.agrid)


def test_interp_phi_exact_at_nodes(tg):
    ag = AgeGrid(da=0.1, n_cells=20)
    phi = np.outer(1.0 + tg.nodes, np.exp(-ag.nodes))
    vals = ibm.interp_phi(phi, tg, ag, tg.nodes[5:9], ag.nodes[[0, 3, 7, 20]])
    assert np.allclose(vals, phi[[5, 6, 7, 8], [0, 3, 7, 20]])


def reference_interp_phi(phi_grid, tgrid, agrid, x, a):
    """The bilinear formula with 2-D corner indexing, over all points at once."""
    xi = np.clip((x - tgrid.nodes[0]) / tgrid.dx, 0.0, tgrid.n - 1.0)
    aj = np.clip(a / agrid.da, 0.0, agrid.n_cells - 0.0)
    i0 = np.clip(xi.astype(int), 0, tgrid.n - 2)
    j0 = np.clip(aj.astype(int), 0, agrid.n_cells - 1)
    tx = xi - i0
    ta = aj - j0
    return (phi_grid[i0, j0] * (1 - tx) * (1 - ta)
            + phi_grid[i0 + 1, j0] * tx * (1 - ta)
            + phi_grid[i0, j0 + 1] * (1 - tx) * ta
            + phi_grid[i0 + 1, j0 + 1] * tx * ta)


@pytest.fixture(params=["c", "numpy"])
def interp_path(request, monkeypatch):
    """`ibm.interp_phi` on one path: "c", `phi_interp` in _loops.c (skipped where
    the library is unavailable), or "numpy", with the library withheld."""
    if request.param == "c" and _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    if request.param == "numpy":
        python_loop_only(monkeypatch)
    return request.param


def test_interp_phi_has_the_bits_of_the_two_d_formula(tg, interp_path):
    # NaN, infinite, negative and past-the-end points: C's cast of NaN to an
    # integer is undefined, so the lower corner is floor, then fmin
    ag = AgeGrid(da=0.1, n_cells=20)
    rng = np.random.default_rng(5)
    phi = rng.random((tg.n, ag.n_cells + 1)) * np.exp(-ag.nodes)
    n = 2 * ibm.INTERP_BLOCK + 123
    x = rng.uniform(-0.2, 1.2, n)           # some traits outside the domain
    a = rng.uniform(-0.5, 1.5 * ag.a_max, n)    # negative ages and ages past the end
    x[:11] = [tg.nodes[0], tg.nodes[-1], 0.0, 1.0, -5.0, 7.0,
              math.nan, 0.3, math.nan, math.inf, -math.inf]
    a[:11] = [0.0, ag.a_max, -1.0, 100.0, ag.nodes[3], ag.a_max - 1e-12,
              0.5, math.nan, math.nan, 1.0, math.inf]
    assert (x < tg.nodes[0]).any() and (x > tg.nodes[-1]).any()
    assert (a < 0).any() and (a > ag.a_max).any()
    with np.errstate(invalid="ignore"):     # the reference casts NaN to an integer
        want = reference_interp_phi(phi, tg, ag, x, a)
        got = ibm.interp_phi(phi, tg, ag, x, a)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_interp_phi_paths_agree_on_zeros_and_infinities(monkeypatch):
    # phi with signed zeros and infinities, points on the nodes and off the
    # lattice, at the smallest trait grid: the compiled path's clamp, floor
    # and fmin keep the NumPy path's bits, the sign of a zero included
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    rng = np.random.default_rng(11)
    for tgrid, ag in ((midpoint_grid((-1.0, 0.0), 2), AgeGrid(da=0.05, n_cells=2)),
                      (midpoint_grid((-3.0, 5.0), 7), AgeGrid(da=0.3, n_cells=10))):
        phi = rng.choice([-0.0, 0.0, -1.5, 2.0, 1e-300, math.inf, -math.inf],
                         size=(tgrid.n, ag.n_cells + 1))
        phi[:, :2] = -0.0                   # cells whose four corners are all -0
        edge = [-0.0, 0.0, math.nan, math.inf, -math.inf]
        x = np.concatenate([rng.uniform(-4.0, 6.0, 5000), np.repeat(tgrid.nodes, 3),
                            edge * 5])
        a = np.concatenate([rng.uniform(-1.0, ag.a_max + 1.0, 5000),
                            np.tile(ag.nodes[:3], tgrid.n), edge[::-1] * 5])
        with np.errstate(invalid="ignore"):     # inf - inf and 0 inf in the terms
            got = ibm.interp_phi(phi, tgrid, ag, x, a)
            with monkeypatch.context() as m:
                python_loop_only(m)
                want = ibm.interp_phi(phi, tgrid, ag, x, a)
        assert np.isnan(got).any() and np.signbit(got[got == 0.0]).any()
        assert got.tobytes() == want.tobytes()
    # x = -0.0 on the node x0 = 0 of a two-node grid: the lower corner ties
    # -0.0 with the last lower corner +0.0, and np.fmin's SIMD loop and its
    # scalar tail (the ninth point) gave that tie opposite signs
    tgrid, ag = midpoint_grid((-0.25, 0.75), 2), AgeGrid(da=0.05, n_cells=2)
    phi = np.repeat([[-0.0], [2.0]], ag.n_cells + 1, axis=1)
    x, a = np.full(9, -0.0), np.zeros(9)
    got = ibm.interp_phi(phi, tgrid, ag, x, a)
    with monkeypatch.context() as m:
        python_loop_only(m)
        want = ibm.interp_phi(phi, tgrid, ag, x, a)
    assert np.all(np.signbit(got)) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(32, 20), (32, 22), (31, 21), (33, 21), (672,)])
def test_interp_phi_rejects_a_phi_of_another_shape(tg, interp_path, shape):
    # a phi one column short would read the next row's entries (and past the
    # buffer's end on the compiled path) at the last age
    ag = AgeGrid(da=0.1, n_cells=20)
    with pytest.raises(ValueError, match="phi shape"):
        ibm.interp_phi(np.ones(shape), tg, ag, tg.nodes[:3], np.full(3, ag.a_max))


@pytest.mark.parametrize("a_scalar", [False, True], ids=["arrays", "scalar_age"])
def test_compiled_interp_phi_forms_no_per_point_temporary(tg, a_scalar):
    # out, plus the contiguous copy of a broadcast age: 8 bytes a point each
    if _loops.library()[0] is None:
        pytest.skip("the compiled loops are unavailable on this host")
    ag = AgeGrid(da=0.1, n_cells=20)
    phi = np.outer(1.0 + tg.nodes, np.exp(-ag.nodes))
    n = 100_000
    x = np.linspace(0.0, 1.0, n)
    a = 0.7 if a_scalar else np.linspace(0.0, ag.a_max, n)
    ibm.interp_phi(phi, tg, ag, x[:5], 0.7)     # the library loaded before the count
    tracemalloc.start()
    try:
        ibm.interp_phi(phi, tg, ag, x, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (2 if a_scalar else 1) + 16_384


def test_martingale_initial_pairing(constant_setup):
    s = constant_setup
    tr = s.triple
    K = 400
    init = ibm.sample_from_density(tr.N_grid, s.tgrid, s.agrid, K, 9)
    log = ibm.simulate(s.model, s.tgrid, K, 0.5, [0.0, 0.5], seed=9,
                       init=init, linear=True)
    series = ibm.martingale_series([log], tr.phi_grid, tr.lambda_star,
                                   s.tgrid, s.agrid)
    # phi is constant 1: V_0 is exactly the initial mass
    assert series["V"][0, 0] == pytest.approx(log.masses[0], rel=1e-9)


def test_square_integrability_constant(constant_setup):
    s = constant_setup
    phi = s.triple.phi_grid
    c_hat = ibm.square_integrability_constant(s.model, phi, s.tgrid, s.agrid, s.problem.mix)
    # phi = 1: G[phi^2] + D phi^2 = B + D = 3
    assert c_hat == pytest.approx(3.0, rel=1e-6)
    # where phi and the left side both vanish any C holds; where only phi does, none
    assert ibm.square_integrability_constant(
        s.model, np.zeros_like(phi), s.tgrid, s.agrid, s.problem.mix) == 0.0
    holed = phi.copy()
    holed[3, 5] = 0.0
    assert ibm.square_integrability_constant(s.model, holed, s.tgrid, s.agrid,
                                            s.problem.mix) is None


# -- the sampler and the Python loop's rates ----------------------------------

def choice_draws(N_grid, tgrid, agrid, count, seed):
    """sample_from_density by `Generator.choice`, with the cell CDF built per call."""
    rng = np.random.default_rng(seed)
    probs = np.maximum((N_grid * mass_weights(tgrid, agrid)).ravel(), 0.0)
    probs /= probs.sum()
    idx = rng.choice(probs.size, size=count, p=probs)
    ii, jj = np.unravel_index(idx, N_grid.shape)
    dx = tgrid.dx
    x = tgrid.nodes[ii] + dx * (rng.random(count) - 0.5)
    a = np.maximum(agrid.nodes[jj] + agrid.da * (rng.random(count) - 0.5), 0.0)
    lo, hi = tgrid.nodes[0] - 0.5 * dx, tgrid.nodes[-1] + 0.5 * dx
    x = np.clip(x, lo + 1e-12, hi - 1e-12)
    return x, a


def same_draws(got, want):
    """Both (traits, ages) pairs hold float arrays of the same bits."""
    return all(g.dtype == float and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("preset", ["constant_setup", "singular_setup"])
def test_sampler_draws_are_choices_draws(preset, request):
    s = request.getfixturevalue(preset)
    N = s.triple.N_grid
    assert N.flags.writeable is False
    for seed in range(24):
        assert same_draws(ibm.sample_from_density(N, s.tgrid, s.agrid, 300, seed),
                          choice_draws(N, s.tgrid, s.agrid, 300, seed))


@pytest.mark.parametrize("count", [0, 1, 2000])
def test_sampler_draws_are_choices_draws_at_any_count(constant_setup, count):
    # on the eigentriple's frozen N, and on a writeable grid with runs of
    # zero-mass cells: whole trait rows, whole age columns and every other cell
    # of a row, where the CDF is flat and side="right" takes the cell past the run
    s = constant_setup
    holed = s.triple.N_grid.copy()
    holed[10:14] = 0.0
    holed[:, 40:90] = 0.0
    holed[20, ::2] = 0.0
    for grid in (s.triple.N_grid, holed):
        for seed in range(4):
            draws = ibm.sample_from_density(grid, s.tgrid, s.agrid, count, seed)
            assert draws[0].shape == (count,)
            assert same_draws(draws, choice_draws(grid, s.tgrid, s.agrid, count, seed))


def test_sorted_bisection_is_searchsorted_on_flat_runs_and_ties():
    # a CDF with flat runs, read at its own values (inside and at the ends of
    # the runs), at 0 and 1, and at repeated keys
    rng = np.random.default_rng(3)
    probs = rng.random(200)
    probs[[0, 1, 2, 50, 51, 52, 53, 120, 198, 199]] = 0.0
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([rng.random(3000), cdf, cdf[::7], [0.0, 1.0, 0.0, 1.0]])
    u = rng.permutation(np.repeat(u, 2))
    assert (np.diff(cdf) == 0.0).sum() >= 6
    got = ibm._bisect_sorted(cdf, u)
    assert got.dtype == np.intp
    assert np.array_equal(got, cdf.searchsorted(u, side="right"))


def test_sampler_reads_a_writeable_grid_afresh(constant_setup):
    s = constant_setup
    tg, ag = s.tgrid, s.agrid
    N = s.triple.N_grid.copy()
    view = N.view()
    view.flags.writeable = False            # read-only, but its base is not
    for grid in (N, view):
        N[:] = s.triple.N_grid
        assert same_draws(ibm.sample_from_density(grid, tg, ag, 200, 4),
                          choice_draws(grid, tg, ag, 200, 4))
        N[:] = 0.0
        N[5, 7] = 1.0                       # all the mass in one cell
        draws = ibm.sample_from_density(grid, tg, ag, 200, 4)
        assert same_draws(draws, choice_draws(grid, tg, ag, 200, 4))
        x, a = draws
        half = 0.5 * tg.dx
        assert np.all(np.abs(x - tg.nodes[5]) <= half)
        assert np.all(np.abs(a - ag.nodes[7]) <= 0.5 * ag.da)


def test_sampler_keeps_a_frozen_grids_cdf_only_while_it_lives(constant_setup):
    s = constant_setup
    grid = s.triple.N_grid * np.linspace(1.0, 2.0, s.tgrid.n)[:, None]
    grid.flags.writeable = False
    for _ in range(2):
        assert same_draws(ibm.sample_from_density(grid, s.tgrid, s.agrid, 200, 8),
                          choice_draws(grid, s.tgrid, s.agrid, 200, 8))
    assert ibm._cdf_memo[0][0]() is grid
    del grid
    gc.collect()
    assert ibm._cdf_memo[0] is None


@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "read_only"])
@pytest.mark.parametrize("case", ["nan", "no_positive_mass"])
def test_sampler_rejects_a_grid_without_a_law(constant_setup, case, frozen):
    s = constant_setup
    grid = s.triple.N_grid.copy()
    if case == "nan":
        grid[3, 5] = math.nan
    else:
        grid *= -1.0
    grid.flags.writeable = not frozen
    with np.errstate(invalid="ignore"):     # the division by a zero or NaN total
        with pytest.raises(ValueError):
            choice_draws(grid, s.tgrid, s.agrid, 10, 1)
        with pytest.raises(ValueError):
            ibm.sample_from_density(grid, s.tgrid, s.agrid, 10, 1)


def test_eigentriple_density_is_read_only(singular_setup):
    N = singular_setup.triple.N_grid
    assert N.flags.writeable is False
    with pytest.raises(ValueError):
        N[0, 0] = 1.0


def ulps(got, want):
    """|got - want| in units in the last place of want."""
    return abs(got - want) / np.spacing(abs(want))


@pytest.mark.parametrize("family,params", [
    ("gaussian_bump", {"base": 0.5, "amp": 2.0, "center": 0.5, "width": 0.2}),
    ("gaussian_bump", {"base": 0.0, "amp": 3.0, "center": 0.0, "width": 0.01}),
    ("gaussian_bump", {"base": 1.0, "amp": 0.0, "center": 1.0, "width": 5.0}),
    ("logistic_age", {"low": 0.5, "high": 3.0, "midpoint": 0.3, "scale": 0.1}),
    ("logistic_age", {"low": 0.0, "high": 2.0, "midpoint": 10.0, "scale": 0.01}),
    ("logistic_age", {"low": 1.0, "high": 1.0, "midpoint": 0.0, "scale": 1.0}),
    ("constant", {"value": 2.0}),
    ("affine", {"base": 1.0, "slope_x": 0.5, "slope_a": 0.1}),
    ("sqrt_gap", {"bbar": 4.0}),
    ("tabulated", {"x_nodes": [0.0, 0.5, 1.0], "a_nodes": [0.0, 1.0],
                   "values": [[0.0, 1.0], [2.0, 0.5], [3.0, 3.0]]}),
])
def test_scalar_rate_forms_match_the_family(family, params):
    lo, hi = 0.0, 1.0
    fam = _make_rate(family, params, (lo, hi))
    xs = np.concatenate([[lo, hi], np.linspace(lo, hi, 37)])
    ages = np.concatenate([[0.0, 1e-300, 50.0], np.linspace(0.0, 12.0, 41)])
    with warnings.catch_warnings():         # np.exp overflows where math.exp raises
        warnings.simplefilter("error", RuntimeWarning)
        for x, a in itertools.product(xs, ages):
            want = float(fam.fn(x, a))
            got = fam.scalar(float(x), float(a))
            assert type(got) is float
            assert got == want or ulps(got, want) <= 4, (x, a, got, want)
    if family == "sqrt_gap":                # as the C loop's DOMAIN status does
        with pytest.raises(ValueError):
            fam.scalar(lo - 1e-9, 0.0)


def test_only_the_c_table_names_rate_families_in_ibm():
    # each family is built once, in model._make_rate; ibm.py maps only the
    # compiled loop's families to _loops.c's codes
    families = {"constant", "affine", "sqrt_gap", "gaussian_bump", "logistic_age",
                "tabulated"}
    with open(ibm.__file__) as f:
        tree = ast.parse(f.read())
    named = collections.Counter(node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant)
                                and node.value in families)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_C_RATES"])
    keys = [key.value for key in table.keys]
    assert sorted(keys) == sorted(ibm._C_RATES) == ["affine", "constant", "gaussian_bump",
                                                    "logistic_age", "sqrt_gap"]
    assert named == collections.Counter(keys)
