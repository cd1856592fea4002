"""One iteration of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace --spans PATH]

Run from the root of a checkout; run.py starts it with src/ on
PYTHONPATH.  Prints one JSON object: setup and wall times, peak RSS,
per-sample latencies, the output checks, and with --trace the per-layer
metrics (the spans themselves go to --spans).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "data", "pinned.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)

    start = time.perf_counter()
    import lndkit
    import lndkit.cli  # noqa: F401  (kernel-rounds calls lndkit.cli.run)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workload.setup(lndkit, args.seed, pinned)
    setup_s = time.perf_counter() - start

    if tracer:
        tracer.phase = "work"
    start = time.perf_counter()
    outputs, samples = workload.run(lndkit, state)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {}
    if tracer:
        tracer.active = False
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    checks = workload.check(lndkit, state, outputs, pinned)
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    result.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        samples_s=samples or [wall_s],
        attempted=len(checks),
        failed=len(failures),
        failures=failures[:5],
        coefficients=_coefficient_type(lndkit),
    )
    print(json.dumps(result))
    return 0


def _coefficient_type(lndkit) -> str:
    q = lndkit.groebner._Q
    return f"{q.__module__}.{q.__qualname__}"


if __name__ == "__main__":
    sys.exit(main())
