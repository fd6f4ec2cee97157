"""Benchmark runner for patterncount: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/patterncount``; nothing is installed.
Each repetition is a fresh ``worker.py`` process, started one at a time
with ``PATTERNCOUNT_THREADS=1`` (so the block counter's process pool never
starts), BLAS threads capped at 1 and ``PYTHONHASHSEED=0``.  Repetitions
run until ``--seconds`` have passed (at least one, and at least two when
tracing), then one more process checks the counts outside the timed
window.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the repetitions):

* ``wall_s``          wall time of one repetition's timed public calls;
* ``slowest_call_s``  the longest single public call of a repetition;
* ``setup_s``         process start to the end of set-up: interpreter
                      start, imports, input generation, family
                      validation and ``decompose``;
* ``peak_rss_mb``     peak resident memory of a repetition's process.

``attempted`` and ``failed`` count the counts made and the ones that raised
or disagreed with a check; ``error_rate`` is failed / attempted and is
printed above the JSON line.  With ``--trace 1`` every other repetition
runs with the tracer installed; the JSON line holds the per-layer metrics
of the traced ones and ``trace.overhead_s``, the traced minus the
untraced median ``wall_s``.

Rows for each call (workload, n, tree or member, m, nproc, Python and numpy
versions, seed, best and median seconds) go to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; a traced run also
writes its spans next to it as ``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "slowest_call_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
# A run must end within 180 s; leave room for the check process.
RUN_BUDGET_S = 170


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PATTERNCOUNT_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, trace: bool, timeout: float) -> dict:
    """Run one worker to completion; adds its set-up time as ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready" or not rest.strip():
        raise WorkerFailed(f"{mode} worker for {workload} exited with "
                           f"{proc.returncode}")
    out = json.loads(rest.strip().splitlines()[-1])
    out["setup_s"] = setup
    return out


def score(workload, timed: list[dict], check: dict) -> tuple[int, int, list[str]]:
    """Counts attempted and failed, with a line per failure."""
    refs = check["references"]
    first: dict = {}
    attempted = failed = 0
    failures = []
    for k, proc in enumerate(timed):
        values = {c["label"]: c["value"] for c in proc["calls"] if c["error"] is None}
        ok = workload.verify(values, refs)
        for call in proc["calls"]:
            label = call["label"]
            attempted += 1
            first.setdefault(label, call["value"])
            if call["error"] is not None:
                why = call["error"]
            elif not ok.get(label, False):
                why = f"disagrees with its check: {call['value']}"
            elif call["value"] != first[label]:
                why = f"differs between repetitions: {call['value']} vs {first[label]}"
            else:
                continue
            failed += 1
            failures.append(f"repetition {k}: {label}: {why}")
        if workload.cold_caches:
            attempted += 1
            if any(proc["cache_sizes_at_start"].values()):
                failed += 1
                failures.append(f"repetition {k}: lru caches not cold: "
                                f"{proc['cache_sizes_at_start']}")
    for name, good in check["oracle"]:
        attempted += 1
        if not good:
            failed += 1
            failures.append(f"{name}: disagrees with the oracle")
    return attempted, failed, failures


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def end_to_end(timed: list[dict], check: dict) -> dict[str, dict]:
    """Median, quartiles and samples of each end-to-end metric.

    The check process sets up like the timed ones, so it adds a set-up
    sample.
    """
    samples = {
        "wall_s": [p["wall_s"] for p in timed],
        "slowest_call_s": [max(c["seconds"] for c in p["calls"]) for p in timed],
        "setup_s": [p["setup_s"] for p in timed] + [check["setup_s"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
    }
    return {name: {**spread(v), "values": v} for name, v in samples.items()}


def per_layer(timed: list[dict]) -> dict[str, float]:
    traced = [p for p in timed if "layers" in p]
    plain = [p for p in timed if "layers" not in p]
    out = {key: statistics.median(p["layers"][key] for p in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def rows(workload: str, seed: int, timed: list[dict]) -> list[dict]:
    env = timed[0]["env"]
    times: dict[str, list[float]] = {}
    meta: dict[str, dict] = {}
    for proc in timed:
        for call in proc["calls"]:
            times.setdefault(call["label"], []).append(call["seconds"])
            meta[call["label"]] = call["meta"]
    return [{"workload": workload, "call": label, **meta[label], **env,
             "seed": seed, "best_s": min(t), "median_s": statistics.median(t),
             "repetitions": len(t)} for label, t in times.items()]


def write_outputs(name: str, seed: int, trace: int, untraced: list[dict],
                  timed: list[dict], result: dict, summary: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    doc = {"workload": name, "seed": seed, "trace": trace, "result": result,
           "summary": summary, "rows": rows(name, seed, untraced)}
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if trace:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for k, proc in enumerate(timed):
                for sid, (span, start, end, parent) in enumerate(proc.get("spans", ())):
                    fh.write(json.dumps({"run": f"{name}-{seed}-{k}", "id": sid,
                                         "name": span, "start": start, "end": end,
                                         "parent": parent}) + "\n")
    return stem.with_suffix(".json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="patterncount benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patterncount" / "__init__.py").is_file():
        print(f"error: no patterncount sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    began = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - began)

    timed = []
    try:
        while (not timed or (args.trace and len(timed) < 2)
               or time.perf_counter() - began < args.seconds):
            traced = bool(args.trace) and len(timed) % 2 == 0
            timed.append(spawn(args.workload, args.seed, "time", traced, remaining()))
        check = spawn(args.workload, args.seed, "check", False, remaining())
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = score(workload, timed, check)
    untraced = [p for p in timed if "layers" not in p]
    summary = end_to_end(untraced, check)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(timed).items()}
    else:
        metrics = {k: {"value": summary[k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path = write_outputs(args.workload, args.seed, args.trace, untraced, timed,
                         result, summary)

    print(f"{args.workload} seed={args.seed} repetitions={len(timed)} "
          f"trace={args.trace} rows={path.relative_to(ROOT)}")
    for k, u in END_TO_END.items():
        s = summary[k]
        print(f"  {k:<15} {s['median']:.4f} {u}  (q1 {s['q1']:.4f}, "
              f"q3 {s['q3']:.4f}, n={s['samples']})")
    print(f"  {'error_rate':<15} {failed / attempted:.4f} ratio  ({failed}/{attempted})")
    for line in failures:
        print(f"  FAIL {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
