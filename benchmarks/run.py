"""Benchmark entry point for sensefuse.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the workload is first set up
``SETUP_PROBES`` times in throwaway processes, then once more in the
process that runs the timed phase; ``setup_s`` is the median of those
set-up times, each taken from process start to READY.  With ``--trace 1``
one process runs a fixed number of operations with every public layer
function traced and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failure to run exits
non-zero without printing it.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("greedy_study", "large_k_solve", "monte_carlo")
SETUP_PROBES = 4
DEFAULT_SEED = 1
TIME_LIMIT_S = 170.0
# one BLAS thread, since on a 2-core box a second one mostly adds jitter;
# a fixed hash seed, so dict and set layouts repeat between runs
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _run_worker(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to READY, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, **CHILD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready_s = None
        lines = []
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchError(f"{mode} worker ran past the time limit")
                if not sel.select(timeout=remaining):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                if ready_s is None and line.strip() == "READY":
                    ready_s = time.perf_counter() - start
                else:
                    lines.append(line)
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        if code != 0 or ready_s is None:
            raise BenchError(f"{mode} worker exited with code {code}")
        if mode == "probe":
            return ready_s, None
        if not lines:
            raise BenchError(f"{mode} worker printed no result")
        return ready_s, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sensefuse" / "__init__.py").is_file():
        print(f"error: no sensefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            _, result = _run_worker(args, "trace", deadline)
        else:
            setups = [_run_worker(args, "probe", deadline)[0]
                      for _ in range(SETUP_PROBES)]
            ready_s, result = _run_worker(args, "measure", deadline)
            setups.append(ready_s)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
