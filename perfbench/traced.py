"""Run one workload in-process with the layer tracer installed.

Usage: python traced.py SPANS_JSON PROGRAM_ARGS...

PROGRAM_ARGS are the arguments an untraced run passes to the interpreter:
`-m structpop.cli ...` runs `structpop.cli.main`, a path to
`ibm_workload.py` runs its `main`. The spans are written to SPANS_JSON when
the run ends, whether it succeeds or not.
"""

from __future__ import annotations

import sys

import ibm_workload   # found beside this script, which is sys.path[0]
import structpop.cli
from tracer import Tracer


def main() -> int:
    spans_path, program = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if program[:2] == ["-m", "structpop.cli"]:
            return structpop.cli.main(program[2:])
        return ibm_workload.main(program[1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
