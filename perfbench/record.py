"""Fold the untraced runs in perfbench/out/ into one trajectory point.

    python3 perfbench/record.py LABEL

Writes perfbench/trajectory/LABEL.json: for each workload, the median and
quartiles over runs of each end-to-end metric, the attempted and failed
counts, and per call the best time over all runs and the median of the
runs' medians.  Give LABEL the commit the runs measured.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def fold(docs: list[dict]) -> dict:
    metrics = {}
    for name in docs[0]["result"]["metrics"]:
        values = [d["result"]["metrics"][name]["value"] for d in docs]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "unit": docs[0]["result"]["metrics"][name]["unit"]}
    calls: dict[str, dict] = {}
    for doc in docs:
        for row in doc["rows"]:
            merged = calls.setdefault(row["call"], {**row, "medians": []})
            merged["best_s"] = min(merged["best_s"], row["best_s"])
            merged["medians"].append(row["median_s"])
    rows = []
    for row in calls.values():
        medians = row.pop("medians")
        row.pop("seed")
        row.pop("repetitions")
        row["median_s"] = statistics.median(medians)
        rows.append(row)
    return {"runs": len(docs), "seeds": sorted(d["seed"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": metrics, "rows": rows}


def machine() -> dict:
    """The processor the runs measured, as the kernel names it."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    by_workload: dict[str, list[dict]] = {}
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        by_workload.setdefault(doc["workload"], []).append(doc)
    if not by_workload:
        print("no untraced runs in perfbench/out/", file=sys.stderr)
        return 1
    point = {"label": args[0], "machine": machine(),
             "run_seconds": json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"],
             "workloads": {name: fold(docs) for name, docs in sorted(by_workload.items())}}
    dest = HERE / "trajectory" / f"{args[0]}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(point, indent=1) + "\n")
    print(dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
