"""One workload in its own process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Imports sunadalab, generates the workload's inputs from the seed, then
runs passes back to back until S seconds have gone (at least one pass).
With --trace 1 it runs one warm-up pass, untraced passes for S/2
seconds, then installs the tracer and runs traced passes for S/2
seconds; the difference of the two median pass times is the tracing
overhead.
The result is one JSON object on the last line of stdout.  With
--setup-only it prints "ready" once the inputs exist, and exits.
"""

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import sunadalab
from sunadalab import _kernels

import workloads
from tracing import Tracer

MAX_FAILURES_KEPT = 20
STARTUP_SAMPLES = 5


def run_passes(run_pass, inputs, seconds, tracer=None):
    walls, attempted, failures = [], 0, []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_id = len(walls)
        p = workloads.Pass(tracer)
        t0 = perf_counter()
        run_pass(p, inputs)
        walls.append(perf_counter() - t0)
        attempted += p.attempted
        failures += p.failures
    return walls, attempted, failures


def launch_seconds(code):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": _kernels.BACKEND,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = workloads.ROOT / "src"
    if not sunadalab.__file__.startswith(str(src)):
        sys.exit(f"sunadalab was imported from {sunadalab.__file__}, not from {src}")
    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return

    (workloads.ROOT / ".perfbench_out").mkdir(exist_ok=True)
    result = {"env": environment()}
    if not args.trace:
        walls, attempted, failures = run_passes(run_pass, inputs, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-bundled" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        # the first pass in a process pays one-off costs (allocator growth,
        # lazy imports), so a warm-up pass keeps them out of the overhead
        _, attempted, failures = run_passes(run_pass, inputs, 0)
        plain, more_attempted, more_failures = run_passes(run_pass, inputs, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        walls, traced_attempted, traced_failures = run_passes(run_pass, inputs, args.seconds / 2, tracer)
        attempted += more_attempted + traced_attempted
        failures += more_failures + traced_failures
        passes = len(walls)
        layers = tracer.layer_metrics(passes)
        layers["cli.startup_s"] = (
            launch_seconds("import sunadalab.cli") - launch_seconds("pass"),
            "s",
        )
        layers["cli.report_bytes"] = (tracer.sums.get("cli.report_bytes", 0) / passes, "bytes")
        layers["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
        result["layers"] = layers
        result["absent"] = tracer.absent
        result["untraced_walls"] = plain
        tracer.dump(workloads.ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json")
    result.update(
        walls=walls,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_FAILURES_KEPT],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
