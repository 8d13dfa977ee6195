"""One workload process: set up, signal READY, run, check, report.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``probe``   - set up and exit; the parent times the set-up only;
* ``measure`` - run operations for ``--seconds`` untraced;
* ``trace``   - run a fixed number of operations with every public layer
  function wrapped in spans, so counts repeat exactly between runs.

The last line on standard output is a JSON object for the parent.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACE_OPS = 40
DEEP_EVERY = 10  # deep checks on operations 0, 10, 20, ...
WARMUP_INDEX = 10 ** 6


def _import_program():
    sys.path.insert(0, str(SRC))
    import sensefuse

    if not Path(sensefuse.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sensefuse was imported from {sensefuse.__file__}, "
                         f"not from {SRC}")


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def _run_op(workload, inp):
    """Run one operation; an exception is its output, and fails its check."""
    try:
        return workload.run(inp)
    except Exception as exc:  # one failed operation must not end the run
        return exc


def _check_all(workload, inputs, outputs, log) -> int:
    """Check each operation's output; returns the number that failed."""
    failed = 0
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            try:
                problems = workload.check(inp, out, deep=i % DEEP_EVERY == 0)
            except Exception as exc:  # malformed output
                problems = [f"check raised {exc!r}"]
            if i == 0 and _run_op(workload, inp) != out:
                problems.append("re-running with the same seed changed the output")
        if problems:
            failed += 1
            print(f"operation {i} failed: {'; '.join(problems)}", file=log)
    return failed


def _layer_functions():
    from sensefuse import analytic, cli, experiments, model, optimize, simulate

    functions = {}
    for mod, names in ((model, ["validate"]),
                       (analytic, ["link_terms", "hybrid_distortion",
                                   "hybrid_noise_covariance", "blue_weights",
                                   "fading_coded_homo_distortion"]),
                       (optimize, ["global_search", "pure_greedy", "group_greedy",
                                   "sorted_greedy"]),
                       (simulate, ["generate_instance", "empirical_distortion",
                                   "fading_empirical_distortion"]),
                       (experiments, ["run_experiment", "derive_seed", "write_rows_csv"]),
                       (cli, ["cli_entry"])):
        short = mod.__name__.rsplit(".", 1)[1]
        for name in names:
            functions[f"{short}.{name}"] = getattr(mod, name)
    methods = [("model.SystemModel.from_snrs", model.SystemModel, "from_snrs")]
    return functions, methods


SEARCHES = ("optimize.global_search", "optimize.pure_greedy",
            "optimize.group_greedy", "optimize.sorted_greedy")
SAMPLERS = ("simulate.empirical_distortion", "simulate.fading_empirical_distortion")


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hooks(tracer, functions):
    """Counters taken where the work happens, from arguments and results."""

    def evaluations(args, kwargs, result):
        tracer.count("optimize.evaluations", result.evaluations)

    def trials(args, kwargs, result):
        k = _argument(functions["simulate.empirical_distortion"], args, kwargs,
                      "model").n_nodes
        tracer.count("simulate.samples", result.n_trials)
        # theta, then observation noise and route noise per node, float64
        tracer.count("simulate.draw_bytes", result.n_trials * (1 + 2 * k) * 8)

    def blocks(args, kwargs, result):
        fn = functions["simulate.fading_empirical_distortion"]
        width = 1 if _argument(fn, args, kwargs, "shared_gain") \
            else _argument(fn, args, kwargs, "model").n_nodes
        tracer.count("simulate.samples", result.n_trials)
        # one uniform gain draw per block, or one per node
        tracer.count("simulate.draw_bytes", result.n_trials * width * 8)

    def csv_bytes(args, kwargs, result):
        path = _argument(functions["experiments.write_rows_csv"], args, kwargs, "path")
        tracer.count("experiments.csv_bytes", os.path.getsize(path))

    hooks = {name: evaluations for name in SEARCHES}
    hooks["simulate.empirical_distortion"] = trials
    hooks["simulate.fading_empirical_distortion"] = blocks
    hooks["experiments.write_rows_csv"] = csv_bytes
    return hooks


def _layer_metrics(tracer, op_ms) -> dict:
    stats = tracer.stats()
    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": s["self_s"], "unit": "s"}

    def rate(counter, names):
        busy = sum(stats[n]["total_s"] for n in names)
        return tracer.counters.get(counter, 0) / busy if busy else 0.0

    for name, unit in (("optimize.evaluations", "count"), ("simulate.samples", "count"),
                       ("simulate.draw_bytes", "computed_bytes"),
                       ("experiments.csv_bytes", "bytes")):
        metrics[name] = {"value": tracer.counters.get(name, 0), "unit": unit}
    metrics["optimize.evals_per_s"] = {
        "value": rate("optimize.evaluations", SEARCHES), "unit": "1/s"}
    metrics["simulate.samples_per_s"] = {
        "value": rate("simulate.samples", SAMPLERS), "unit": "1/s"}
    metrics["trace.op_p50_ms"] = {"value": statistics.median(op_ms), "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        _run_op(workload, workload.inputs(WARMUP_INDEX))
        print("READY", flush=True)
        if args.mode == "probe":
            return 0

        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            functions, methods = _layer_functions()
            tracer.install(tracing.sensefuse_modules(), functions, methods,
                           _hooks(tracer, functions))
        inputs, outputs, op_s = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            inp = workload.inputs(len(inputs))
            start = time.perf_counter()
            out = _run_op(workload, inp)
            op_s.append(time.perf_counter() - start)
            inputs.append(inp)
            outputs.append(out)
            if tracer is not None:
                if len(inputs) == TRACE_OPS:
                    break
            elif time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

        failed = _check_all(workload, inputs, outputs, sys.stderr)
        op_ms = [1000.0 * s for s in op_s]
        result = {"attempted": len(inputs), "failed": failed}
        if tracer is not None:
            result["metrics"] = _layer_metrics(tracer, op_ms)
        else:
            result["metrics"] = {
                "units_per_s": {"value": workload.units * len(inputs) / sum(op_s),
                                "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
                "op_p90_ms": {"value": _percentile(op_ms, 90), "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
