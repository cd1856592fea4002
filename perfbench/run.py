"""lndkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/lndkit.  Each iteration
of the workload runs in a fresh single-threaded process (worker.py), one
after another: a closed loop with one caller.  Iterations start until
the next one would overrun --seconds.  The last line of standard output
is the result; the line before it records the environment.

Every iteration repeats the same samples.  --trace 0 reports the
end-to-end metrics: wall_s and the sample percentiles from each
sample's fastest time over the iterations, setup_s and peak_rss_mb as
medians over them.  --trace 1 alternates untraced and traced iterations
and reports the per-layer metrics (medians over the traced ones) plus
the tracing overhead; the spans of the last traced iteration are
written to perfbench/out/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every process this script starts is gone before this many seconds.
HARD_LIMIT_S = 170.0


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, read without running git; None outside a
    git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile (linear between order statistics)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _fastest(runs: list[dict]) -> list[float]:
    """Each sample's fastest latency over the iterations.  Every iteration
    repeats the same samples, and contention from the rest of the host
    only ever adds time, so the fastest repeat is the steadiest estimate
    of a sample's own cost."""
    return [min(times) for times in zip(*(r["samples_s"] for r in runs))]


def _run_worker(root, env, args, traced, spans_path, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--spans", spans_path]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, "iteration timed out"
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        return None, elapsed, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, None
    except (ValueError, IndexError):
        return None, elapsed, f"unreadable worker output: {proc.stdout[-500:]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lndkit", "__init__.py")):
        print(f"error: no lndkit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    spans_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{args.workload}.spans.jsonl")

    begin = time.perf_counter()
    runs: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    errors: list[str] = []
    while True:
        traced = bool(args.trace) and len(runs[True]) < len(runs[False])
        elapsed = time.perf_counter() - begin
        need_untraced = not runs[False]
        need_traced = bool(args.trace) and not runs[True]
        if not (need_untraced or need_traced):
            estimate = statistics.median(durations[traced])
            if elapsed + estimate > args.seconds:
                break
        timeout = HARD_LIMIT_S - elapsed
        if timeout <= 0:
            errors.append("ran out of time before the first iterations finished")
            break
        result, took, error = _run_worker(root, env, args, traced, spans_path, timeout)
        if error:
            errors.append(error)
            break
        runs[traced].append(result)
        durations[traced].append(took)

    everything = runs[False] + runs[True]
    attempted = sum(r["attempted"] for r in everything) + len(errors)
    failed = sum(r["failed"] for r in everything) + len(errors)
    plain = runs[False]
    metrics: dict[str, dict] = {}
    fastest = _fastest(plain)
    samples_ms = [s * 1000 for s in fastest]
    if plain and not args.trace:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "wall_s": (sum(fastest), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "sample_p50_ms": (_quantile(samples_ms, 0.50), "ms"),
            "sample_p95_ms": (_quantile(samples_ms, 0.95), "ms"),
        }
    elif plain and runs[True]:
        traced_runs = runs[True]
        for name, unit in LAYER_METRICS:
            metrics[name] = (statistics.median(r["layers"][name] for r in traced_runs), unit)
        overhead = sum(_fastest(traced_runs)) / sum(_fastest(plain)) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")

    env_line = {
        "env": {
            "git_sha": _git_sha(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "coefficients": everything[0]["coefficients"] if everything else None,
        },
        "workload": args.workload,
        "seed": args.seed,
        "iterations": {"untraced": len(plain), "traced": len(runs[True])},
        "samples": len(samples_ms),
        "wall_s_each": [round(r["wall_s"], 4) for r in plain],
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": (errors + [f for r in everything for f in r["failures"]])[:10],
        "spans": os.path.relpath(spans_path, root) if spans_path and runs[True] else None,
    }
    print(json.dumps(env_line))
    result = {
        "correct": failed == 0 and not errors and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
