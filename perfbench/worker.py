"""One benchmark process: set up one workload, then time it or check it.

Run by run.py, never by hand.  Protocol on standard output: the line
``ready`` once set-up is done, then one JSON object with the results.

    python3 perfbench/worker.py --workload NAME --seed N --mode time|check [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from importlib.metadata import version

from workloads import WORKLOADS, lru_caches


def run_calls(calls) -> list[dict]:
    """Time each call; a call that raises is recorded, not propagated."""
    out = []
    for call in calls:
        error = None
        value = None
        start = time.perf_counter()
        try:
            value = call.fn(*call.args)
        except Exception as exc:  # a failed count is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        out.append({"label": call.label, "seconds": time.perf_counter() - start,
                    "value": value, "error": error, "meta": call.meta})
    return out


def time_workload(prep, trace: bool) -> dict:
    cache_sizes = {k: c.cache_info().currsize for k, c in lru_caches().items()}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        results = run_calls(prep.calls)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"wall_s": wall, "calls": results, "cache_sizes_at_start": cache_sizes}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["time", "check"], required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    prep = workload.prepare(args.seed)
    print("ready", flush=True)
    if args.mode == "time":
        out = time_workload(prep, args.trace)
    else:
        out = {"references": workload.references(prep),
               "oracle": workload.oracle(args.seed)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = {"nproc": len(os.sched_getaffinity(0)),
                  "python": sys.version.split()[0], "numpy": version("numpy")}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
