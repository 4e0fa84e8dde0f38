"""Small child processes of the benchmark.

python probe.py env          print where structpop is imported from and the
                             versions of the numerical stack, as JSON
python probe.py setup CFG    import structpop.cli and run build_model +
                             build_grids for the config file CFG: the set-up
                             a fresh interpreter pays before any solve
"""

from __future__ import annotations

import json
import os
import platform
import sys


def env() -> dict:
    import numpy
    import scipy

    import structpop

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "structpop_file": os.path.realpath(structpop.__file__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup(config_path: str) -> None:
    import structpop.cli  # noqa: F401 - the import is part of what is timed
    from structpop import model

    with open(config_path) as f:
        config = model.parse_config(f.read())
    m = model.build_model(config)
    model.build_grids(config, m)


if __name__ == "__main__":
    if sys.argv[1] == "env":
        print(json.dumps(env()))
    else:
        setup(sys.argv[2])
