"""Layered benchmark of sunadalab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``search-psl32``  Gassmann search for the order-24 pairs of PSL(3,2)
* ``lattice-s5``    every subgroup of S5 and every equal-order pair
* ``spectral-s6``   Cayley-graph spectra of S6 and the perturbed Perlis pair
* ``cli-bundled``   ``python -m sunadalab`` on bundled inputs

The workload runs in its own process (``worker.py``) as a closed loop
from one client.  Every output is checked; a failed check counts as a
failed operation and the run goes on.

With --trace 0 the metrics are end to end: ``wall_s`` (median time of
one pass), ``peak_rss_mb`` (peak resident memory of the workload
process, or of its largest child for cli-bundled) and ``setup_s``
(median over several fresh interpreters of the time to import
sunadalab and generate the inputs).  With --trace 1 they are the
per-layer metrics of ``tracing.py`` plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A record
with the environment, every pass time and the failures is written to
``.perfbench_out/``.

``refs/`` holds the CLI reports the cli-bundled checks compare against
byte for byte, recorded with ``python -m sunadalab`` at the first commit
that had this benchmark; ``BASELINE.json`` holds that commit's numbers.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("search-psl32", "lattice-s5", "spectral-s6", "cli-bundled")
# One BLAS thread keeps pass times steady on a small shared machine and
# is never above nproc.
BLAS_THREADS = 1
SETUP_SAMPLES = 9
DEADLINE_S = 175


def child_env():
    """Environment of the benchmark's own children: the checkout's
    sources first on the path, a fixed BLAS thread count, and no
    SUNADALAB_* defaults that would change the CLI's reports (the
    backend choice is left as the caller set it)."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("SUNADALAB_") or k == "SUNADALAB_BACKEND"
    }
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def worker_cmd(args):
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]


def setup_seconds(args, env):
    """Median time from launching an interpreter to the worker saying its
    inputs are ready."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(
            worker_cmd(args) + ["--setup-only"], cwd=ROOT, env=env, stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (ROOT / "src" / "sunadalab" / "__init__.py").is_file():
        sys.exit(f"no sunadalab sources under {ROOT / 'src'}")
    env = child_env()
    metrics = {}
    if not args.trace:
        try:
            metrics["setup_s"] = (setup_seconds(args, env), "s")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.exit(f"set-up failed: {exc}")
    cmd = worker_cmd(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own session, so that a timeout also ends the CLI children it runs
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=DEADLINE_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(f"workload {args.workload} ran past {DEADLINE_S} s")
    if proc.returncode != 0 or not stdout.strip():
        sys.exit(f"worker failed with exit code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        metrics.update((name, tuple(v)) for name, v in result["layers"].items())
    else:
        metrics["wall_s"] = (statistics.median(result["walls"]), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")

    env_record = {
        "python": platform.python_version(),
        **result["env"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **{k: result[k] for k in ("walls", "attempted", "failed", "failures")},
        **({"untraced_walls": result["untraced_walls"], "absent": result["absent"]} if args.trace else {}),
    }
    out = ROOT / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in env_record.items():
        print(f"env {key}: {value}")
    print(f"passes: {len(result['walls'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"op_fail_rate: {result['failed'] / result['attempted']} ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )


if __name__ == "__main__":
    main()
