"""The package's compiled loops, `_loops.c`: one library, built on first use.

It holds the event loop of `ibm.simulate` (`ibm_run`), the interpolation
of `ibm.interp_phi` (`phi_interp`), the steps of
`TransportSolver.step_nonlinear` (`pde_steps`) and the trace record of
`pde.run` (`pde_record`). Each caller asks `library()` for it and runs its
own Python code where the library is unavailable, so the library is an
optional speed-up, never a requirement.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import shutil
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loops.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")   # no FMA, no fast-math


class IbmState(ctypes.Structure):
    """Mirror of `ibm_state` in _loops.c."""
    _i, _d, _p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    _fields_ = [("mt", ctypes.c_uint32 * 624), ("mti", _i),
                ("xs", _p), ("bt", _p), ("n", _i), ("cap", _i),
                ("ev_t", _p), ("ev_kind", _p), ("n_ev", _i), ("ev_cap", _i),
                ("t", _d), ("T", _d), ("s_next", _d), ("pending", _i),
                ("n_events", _i), ("n_deaths", _i), ("peak", _i), ("particle_cap", _i),
                ("bfam", _i), ("dfam", _i), ("bpar", _d * 4), ("dpar", _d * 4),
                ("bd", _d), ("c", _d), ("K", _d), ("p", _d), ("lo", _d), ("dx", _d),
                ("cdf", _p), ("nodes", _p), ("nx", _i)]


class PdeRing(ctypes.Structure):
    """Mirror of `pde_ring` in _loops.c."""
    _i, _d, _p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    _fields_ = [("nx", _i), ("L", _i), ("u", _p), ("head", _i), ("s", _d), ("msum", _d),
                ("t", _d), ("hist", _p), ("stride", _i), ("m", _i), ("W", _p), ("width", _i),
                ("G", _p), ("loss_w", _p), ("mw0", _d), ("c", _d), ("dt", _d), ("floor", _d),
                ("loss", _d)]


@functools.cache
def library():
    """(library, None) for the compiled loops, or (None, why it is unavailable).

    Built on the first call with `cc` (or `gcc`) from PATH into the package's
    `__pycache__/`, named by the hash of the source and flags that keys a
    hash-based `.pyc` (`importlib.util.source_hash`), so later processes load
    the cached library without compiling. That hash, unlike hashlib's, maps
    no OpenSSL library into the process. Any failure to compile, write or
    load leaves the callers' Python code in charge.
    """
    try:
        with open(SOURCE, "rb") as f:
            source = f.read()
        digest = importlib.util.source_hash(source + " ".join(FLAGS).encode()).hex()
        path = os.path.join(os.path.dirname(SOURCE), "__pycache__", f"_loops-{digest}.so")
        if not os.path.exists(path):
            why = _build(path)
            if why is not None:
                return None, why
        lib = ctypes.CDLL(path)
        lib.ibm_run.argtypes = [ctypes.POINTER(IbmState)]
        lib.ibm_run.restype = ctypes.c_int
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        # n, x, a, phi, nx, ncol, x0, dx, da, out
        lib.phi_interp.argtypes = [i64, ptr, ptr, ptr, i64, i64, dbl, dbl, dbl, ptr]
        lib.phi_interp.restype = None
        # nx, L, u, head, s, R, mw, growth, phi, target, scale, tail, sums
        lib.pde_record.argtypes = [i64, i64, ptr, i64, dbl, ptr, ptr, ptr, ptr, ptr, dbl, i64,
                                   ptr]
        lib.pde_record.restype = None
        lib.pde_steps.argtypes = [ctypes.POINTER(PdeRing), i64]
        lib.pde_steps.restype = ctypes.c_int
        return lib, None
    except OSError as e:
        return None, f"{type(e).__name__}: {e}"


def _build(path: str) -> str | None:
    """Compile SOURCE into path, written whole or not at all; None, or why it failed.

    After a build, the libraries of earlier sources beside path (`_loops-*.so`)
    are removed, so the folder holds one. Unlinking a library that another
    process has mapped is safe on Linux: the process keeps its mapping of the
    file, which is freed when the last mapping goes.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return "no C compiler (cc or gcc) on PATH"
    import subprocess   # imported here: only a build needs it
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, "-lm"],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as e:
        return f"compiler failed: {e.stderr.decode(errors='replace').strip()}"
    except subprocess.SubprocessError as e:
        return f"{type(e).__name__}: {e}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    folder, built = os.path.split(path)
    for name in os.listdir(folder):
        if name != built and name.endswith(".so") and name.startswith("_loops-"):
            try:
                os.unlink(os.path.join(folder, name))
            except OSError:     # gone already, or not ours to remove: it stays
                pass
    return None
