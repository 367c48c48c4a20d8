"""Benchmark of cavlight: four closed-loop workloads, timed from outside.

One workload, from the repository root:

    python3 perfbench/run.py --workload map011-default --seed 1 --seconds 25 --trace 0

All four workloads, one after another, with a table of the end-to-end
metrics; exits non-zero when any correctness gate fails:

    python3 perfbench/run.py --all --seed 1 --seconds 25

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones.  The
line before it holds the run's context.  A record of the run, and with
--trace 1 its spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, RunContext

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
MAX_WORKERS = 2


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, reps: int) -> list[float]:
    """Seconds for a fresh interpreter to import cavlight.

    Each child reports where it found the package, so a run can never
    measure an installed copy in place of the checkout's source.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import cavlight; print(cavlight.__file__)"],
            env=env, capture_output=True, text=True,
        )
        times.append(time.perf_counter() - t0)
        found = Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None
        if found is None or SRC.resolve() not in found.parents:
            raise SystemExit(f"error: cavlight is not importable from {SRC}: {proc.stderr.strip() or found}")
    return times


def run_context(workers: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": commit,
        # wc -l src/cavlight/*.py
        "src_lines": sum(p.read_text().count("\n") for p in sorted((SRC / "cavlight").glob("*.py"))),
    }


def end_to_end(outcome, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(outcome.latencies), "s"),
        "items_per_s": (outcome.items / outcome.busy_s, "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def tracing_metrics(outcome, tracer) -> dict[str, tuple[float, str]]:
    traced = [t for t, on in zip(outcome.unit_times, outcome.traced_units) if on]
    plain = [t for t, on in zip(outcome.unit_times, outcome.traced_units) if not on]
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    return {
        "trace.unit_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def run_one(args) -> int:
    env = program_env()
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    setup_times = measure_setup(env, SETUP_REPS if not args.trace else 1)
    sys.path.insert(0, str(SRC))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        ctx = RunContext(
            seed=args.seed, seconds=args.seconds, workers=workers,
            trace=bool(args.trace), tracer=tracer, env=env, tmp=tmp,
        )
        context = run_context(workers)
        if args.trace:
            import layers

            metrics = layers.measure(ctx)
            outcome = WORKLOADS[args.workload](ctx)
            metrics.update(tracing_metrics(outcome, tracer))
        else:
            outcome = WORKLOADS[args.workload](ctx)
            metrics = end_to_end(outcome, setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = all(outcome.gates.values()) and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"run": run_id, "context": context, "setup_times": setup_times, **asdict(outcome), **result}
    if args.trace:
        record["spans"] = tracer.summary()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for gate, ok in outcome.gates.items():
        if not ok:
            print(f"gate failed: {args.workload}: {gate}", file=sys.stderr)
    print(json.dumps({"context": context, "gates": outcome.gates}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a table of its metrics."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "GATE FAILED"
        print(f"{name}: {verdict} ({result['failed']}/{result['attempted']} failed)")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "cavlight" / "__init__.py").is_file():
        print(f"error: no cavlight source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
