"""structpop benchmark: time to solution per workload, plus a traced run.

Usage, from the root of a checkout (the directory holding `src/structpop`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the program is a fresh process with the checkout's `src/` as its
only PYTHONPATH entry; the benchmark refuses to start unless `structpop`
resolves there. Processes run one at a time. Every run's outputs are
checked (workloads.py); a run that fails a check counts in `failed`.

--trace 0 measures for about S seconds: five set-up probes, then runs of
the workload while the next one should end within half a run of the window
(at least one). It reports the medians of wall_s, setup_s, peak_rss_mb and
output_mb. Times are wall times scaled to a fixed host speed (speed.py):
the benchmark and the program share one CPU, on which a reference slice is
timed every 50 ms during each run; the raw wall times are in the report.
--trace 1 ignores S: it makes one run with the layer tracer (see tracer.py)
between two untraced runs and reports the per-layer metrics and the
tracing overhead, the traced wall time minus the untraced median.

The last line of stdout is the result object; the line before it is a
report with the environment, every run and every check that failed. The
report is also kept under .perfbench/results/. Exit code 2, with no result,
when the checkout has no structpop source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed
from tracer import layer_metrics
from workloads import WORKLOADS, write_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 5          # timed fresh-interpreter set-ups per run
# One BLAS/OpenMP thread in the program: with two, OpenBLAS spin-waits on
# both vCPUs of the VM, whose speeds drift independently, and scenario
# singular --nx 800 ran slower (33 s against 27 s) and less steadily.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0        # the whole invocation stays under 180 s


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


class Checkout:
    """Paths, child environment and the deadline of one invocation."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "structpop", "__init__.py")):
            raise BenchError(f"no structpop source under {self.src}: run from the "
                             "root of a structpop checkout")
        self.state = os.path.join(root, ".perfbench")
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = self.src
        self.env.update({name: "1" for name in THREAD_VARS})
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})   # the program inherits it
        self.deadline = time.monotonic() + DEADLINE_S

    def measure(self, argv: list[str], cwd: str) -> dict:
        """Run argv to completion, timing reference slices while it runs.

        Returns the exit code, the raw wall seconds, the wall seconds at the
        reference speed, the mean and median slice times and the peak RSS
        in MB.
        """
        deadline = time.monotonic() + max(1.0, self.deadline - time.monotonic())
        with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
                open(os.path.join(cwd, "stderr.txt"), "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            reaper = _Reaper(proc.pid)
            reaper.start()
            slices = []
            try:
                while True:
                    slices.append(speed.reference_slice())
                    if reaper.done.wait(speed.PERIOD_S) or time.monotonic() > deadline:
                        break
            finally:
                if not reaper.done.is_set():
                    proc.kill()
                reaper.join()
        wall = reaper.end - start
        return {"code": os.waitstatus_to_exitcode(reaper.status), "raw_wall_s": wall,
                "wall_s": speed.scale(wall, slices),
                "ref_slice_ms": statistics.fmean(slices) * 1e3,
                "ref_slice_ms_p50": statistics.median(slices) * 1e3,
                "peak_rss_mb": reaper.usage.ru_maxrss / 1024.0}

    def environment(self, scratch: str) -> dict:
        """Versions and the structpop location; fails unless it is this src/."""
        run = self.measure([os.path.join(BENCH_DIR, "probe.py"), "env"], scratch)
        out = _tail(scratch, "stdout.txt")
        if run["code"] != 0:
            raise BenchError(f"cannot import structpop from {self.src}: "
                             f"{_tail(scratch, 'stderr.txt')}")
        info = json.loads(out)
        src = os.path.realpath(self.src) + os.sep
        if not info["structpop_file"].startswith(src):
            raise BenchError(f"structpop resolves to {info['structpop_file']}, "
                             f"not under {src}")
        info["nproc"] = self.nproc
        info["pinned_cpu"] = self.cpu
        info["ref_nominal_ms"] = speed.REF_NOMINAL_S * 1e3
        info["commit"] = _git_commit(self.root)
        info["src_sha256"] = tree_digest(self.src)
        return info


class _Reaper(threading.Thread):
    """Waits for one child and notes when it ended and what it used."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.done = pid, threading.Event()

    def run(self):
        _, self.status, self.usage = os.wait4(self.pid, 0)
        self.end = time.perf_counter()
        self.done.set()


def _tail(cwd: str, name: str, limit: int = 2000) -> str:
    with open(os.path.join(cwd, name), errors="replace") as f:
        return f.read()[-limit:].strip()


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(top: str) -> str:
    """Digest of a source tree: identifies the commit in a checkout without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            h.update(_sha256(path).encode())
    return h.hexdigest()


class IdentityStore:
    """Hashes of the first run's outputs per (source tree, workload, inputs).

    A later run of the same code and inputs whose summary.json or manifest
    files differ by a byte fails. Timing files stay outside this contract.
    """

    def __init__(self, path: str, key: str):
        self.path, self.key = path, key

    def check(self, out_dir: str, summary: dict) -> list[str]:
        names = ["summary.json"] + [n for n in summary.get("manifest", [])
                                    if not os.path.basename(n).startswith("timings")]
        hashes, problems = {}, []
        for name in names:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                hashes[name] = _sha256(path)
            else:
                problems.append(f"manifest file {name} is missing")
        known = {}
        if os.path.isfile(self.path):
            with open(self.path) as f:
                known = json.load(f)
        first = known.get(self.key)
        if first is None:
            known[self.key] = hashes
            with open(self.path, "w") as f:
                json.dump(known, f, indent=1, sort_keys=True)
        elif first != hashes:
            differ = sorted(n for n in set(first) | set(hashes)
                            if first.get(n) != hashes.get(n))
            problems.append(f"not byte-identical to the first run: {differ}")
        return problems


def _dir_bytes(top: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(top) for f in files)


def run_once(co: Checkout, wl, config: dict, identity: IdentityStore, run_dir: str,
             spans_path: str | None = None) -> dict:
    """One fresh-process run of the workload, checked; its directory is removed."""
    os.makedirs(run_dir)
    write_config(run_dir, config)
    argv = wl.program_args(config["seed"])
    if spans_path is not None:
        argv = [os.path.join(BENCH_DIR, "traced.py"), spans_path] + argv
    try:
        run = co.measure(argv, run_dir)
        out_dir = os.path.join(run_dir, "out")
        problems = []
        if run["code"] != 0:
            problems.append(f"exit code {run['code']}: {_tail(run_dir, 'stdout.txt', 500)} "
                            f"{_tail(run_dir, 'stderr.txt', 500)}")
        else:
            try:
                with open(os.path.join(out_dir, "summary.json")) as f:
                    summary = json.load(f)
            except (OSError, ValueError) as e:
                problems.append(f"unreadable summary.json: {e}")
            else:
                problems += wl.check(summary, config)
                problems += identity.check(out_dir, summary)
        output_mb = _dir_bytes(out_dir) / 1e6 if os.path.isdir(out_dir) else 0.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    del run["code"]
    return {**run, "output_mb": output_mb, "problems": problems}


def setup_times(co: Checkout, config: dict, work: str) -> list[dict]:
    """Fresh interpreters doing import + build_model + build_grids, measured."""
    probe_dir = os.path.join(work, "setup")
    os.makedirs(probe_dir)
    write_config(probe_dir, config)
    argv = [os.path.join(BENCH_DIR, "probe.py"), "setup", "config.json"]
    times = []
    for _ in range(SETUP_PROBES):
        run = co.measure(argv, probe_dir)
        if run["code"] != 0:
            raise BenchError(f"set-up probe failed: {_tail(probe_dir, 'stderr.txt')}")
        times.append(run)
    return times


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def benchmark(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    co = Checkout(os.getcwd())
    work = os.path.join(co.state, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        info = co.environment(work)
        config = wl.config(args.seed % 2 ** 32)
        inputs = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
        identity = IdentityStore(os.path.join(co.state, "identity.json"),
                                 f"{info['src_sha256']}:{wl.name}:{inputs}")
        setup, runs, traced = [], [], None
        if args.trace:
            # untraced runs on both sides of the traced one: drift of the
            # machine's speed cancels to first order in the overhead
            runs.append(run_once(co, wl, config, identity, os.path.join(work, "run0")))
            spans_path = os.path.join(work, "spans.json")
            traced = run_once(co, wl, config, identity,
                              os.path.join(work, "traced"), spans_path)
            runs.append(run_once(co, wl, config, identity, os.path.join(work, "run1")))
            traced["overhead_s"] = traced["wall_s"] - statistics.median(
                r["wall_s"] for r in runs)
            spans = {"names": [], "spans": [], "absent": []}
            if os.path.isfile(spans_path):
                with open(spans_path) as f:
                    spans = json.load(f)
            traced["absent"] = spans["absent"]
            traced["layers"] = layer_metrics(spans)
        else:
            start = time.perf_counter()
            setup = setup_times(co, config, work)
            while True:     # another run while it should end near the window
                runs.append(run_once(co, wl, config, identity,
                                     os.path.join(work, f"run{len(runs)}")))
                elapsed = time.perf_counter() - start
                mean = statistics.mean(r["raw_wall_s"] for r in runs)
                if elapsed + 0.5 * mean >= args.seconds:
                    break
        walls = [r["wall_s"] for r in runs]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = runs + ([traced] if traced else [])
    failed = sum(1 for r in every if r["problems"])
    if traced:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["overhead_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(r["wall_s"] for r in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
            "output_mb": {"value": statistics.median(r["output_mb"] for r in runs),
                          "unit": "MB"},
        }
    report = {
        "workload": wl.name, "seed": args.seed, "config_seed": config["seed"],
        "seconds": args.seconds, "trace": args.trace, "environment": info,
        "runs": runs, "traced": traced,
        "wall_s_quartiles": quartiles(walls),
        "raw_wall_s_quartiles": quartiles([r["raw_wall_s"] for r in runs]),
        "setup_runs": setup,
        "failed_frac": failed / len(every),
    }
    result = {"correct": failed == 0, "attempted": len(every), "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = benchmark(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    results = os.path.join(os.getcwd(), ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
