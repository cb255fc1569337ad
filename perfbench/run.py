"""fracsym benchmark: end-to-end and per-layer numbers for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload seed-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` the run sets up the workload ``setup_repeats`` times
(``setup_s`` is the median), then runs ops back to back, checking each
output outside the timed region, until the ops have taken ``--seconds``.
With ``--trace 1`` the same set-up and a fixed number of ops (``TRACE_OPS``)
run with every layer wrapped by ``tracing.Tracer``, so the counts repeat
exactly; then as many ops run untraced, to give the tracing overhead.  The
spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The library is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACES = HERE / "traces"

WORKLOAD_NAMES = ["sigma-sweep", "seed-sweep", "parabolic-trace"]
DEFAULT_SEED = 0
TRACE_OPS = {"sigma-sweep": 30, "seed-sweep": 60, "parabolic-trace": 12}
TAIL_BEYOND = 10
# Caps a run whose ops fail almost at once; a run at this commit makes < 1000.
MAX_OPS = 100_000
BLAS_THREADS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# printed on the line before the result, beside the metrics
DETAIL_UNITS = {"ops": "count", "op_tail_percentile": "%", "failed_frac": "ratio"}


def pin_blas_threads() -> int:
    """Fix the BLAS pool at min(BLAS_THREADS, nproc); must run before numpy
    is imported."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_library():
    """Import fracsym from this checkout's src/, never from elsewhere."""
    if not (SRC / "fracsym" / "__init__.py").is_file():
        print(f"error: {SRC}/fracsym not found; run from a fracsym checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fracsym

    if Path(fracsym.__file__).resolve().parent != SRC / "fracsym":
        print(f"error: fracsym imported from {fracsym.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return fracsym


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times_ms: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND ops beyond it: the
    (TAIL_BEYOND + 1)-th slowest op, its percentile and the op count.  With
    too few ops for that, the slowest op at percentile 100."""
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n


def load_reference(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


class Runner:
    """Set-up, ops and checks of one workload in this process."""

    def __init__(self, workload_cls, seed: int):
        self.workload_cls = workload_cls
        self.seed = seed
        self.reference = load_reference(workload_cls.name, seed)
        self.state = None
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def setup(self) -> float:
        """Fresh set-ups, setup_repeats of them; returns the median seconds."""
        import gc

        times = []
        for _ in range(self.workload_cls.setup_repeats):
            self.state = None
            gc.collect()
            start = time.perf_counter()
            self.state = self.workload_cls(self.seed)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def run_op(self, i: int) -> float:
        """Op i timed (and traced, with a tracer); its output checked after
        the clock stops.  Returns the op's wall seconds."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(i)
        problem = None
        start = time.perf_counter()
        try:
            out = self.state.op(i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        if problem is None:
            ref = self.reference[i] if i < len(self.reference) else None
            problem = self.state.check(i, out, ref)
        if problem:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append((i, problem))
        return elapsed

    def result(self, metrics: dict) -> dict:
        for i, problem in self.first_failures:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics; ops run until their summed time reaches seconds.
    The op cap and the wall-clock deadline only end broken runs."""
    setup_s = runner.setup()
    times, total = [], 0.0
    deadline = time.perf_counter() + 2 * seconds
    while total < seconds and len(times) < MAX_OPS and time.perf_counter() < deadline:
        times.append(runner.run_op(len(times)))
        total += times[-1]
    times_ms = [1e3 * t for t in times]
    tail_ms, tail_pct, n = tail(times_ms)
    values = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": n / total,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {
        "ops": n,
        "op_tail_percentile": tail_pct,
        "failed_frac": runner.failed / runner.attempted,
    }
    return metrics, detail


def measure_traced(runner: Runner) -> tuple:
    """Per-layer metrics from TRACE_OPS traced ops, then as many untraced."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        runner.setup()
        tracer.active = False
        runner.tracer = tracer
        n_ops = TRACE_OPS[runner.workload_cls.name]
        traced = [runner.run_op(i) for i in range(n_ops)]
    finally:
        runner.tracer = None
        tracer.uninstall()
    untraced = [runner.run_op(n_ops + i) for i in range(n_ops)]

    calls, errors, self_ns, layer_ns = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in tracing.SPAN_NAMES:
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_ns[name] / 1e9, "s")
    for name in tracing.RAISING_SPANS:
        put(f"{name}.errors", errors[name], "count")
    put("spectral.eigvec_mb", runner.state.eigvec_bytes() / 1e6, "MB")
    for name, unit in tracing.COUNTER_UNITS.items():
        put(name, tracer.counts[name], unit)
    hits, lookups = tracer.rho_cache_hits, tracer.rho_cache_lookups
    put("extension.rho_cache_lookups", lookups, "count")
    put("extension.rho_cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    op_ns = 1e9 * sum(traced)
    for layer in tracing.LAYERS:
        put(f"layer.{layer}.self_share", layer_ns[layer] / op_ns, "ratio")
    traced_ms = statistics.median(traced) * 1e3
    untraced_ms = statistics.median(untraced) * 1e3
    put("trace.ops", n_ops, "count")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.op_p50_ms", traced_ms, "ms")
    put("trace.untraced_op_p50_ms", untraced_ms, "ms")
    put("trace.overhead_ms", traced_ms - untraced_ms, "ms")

    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"{runner.workload_cls.name}-seed{runner.seed}.json"
    with open(path, "w") as fh:
        json.dump({"spans": tracer.span_dicts(), "counts": dict(tracer.counts)}, fh)
    return metrics, {"trace_file": str(path.relative_to(ROOT))}


def run_one(args) -> int:
    threads = pin_blas_threads()
    import_library()
    import workloads

    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    env = environment(args.workload, args.seed, threads)
    if args.trace:
        metrics, detail = measure_traced(runner)
    else:
        metrics, detail = measure(runner, args.seconds)
    print(json.dumps({"env": env, **detail}))
    print(json.dumps(runner.result(metrics)))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process; one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}  seed {args.seed}  correct {result['correct']}  "
              f"attempted {result['attempted']}  failed {result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:48s} {m['value']:>16.6g} {m['unit']}")
        for key, unit in DETAIL_UNITS.items():
            if key in detail:
                print(f"  {key:48s} {detail[key]:>16.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
