"""Each workload exercises the layer it claims, and the checks catch errors.

    python -m pytest perfbench/tests

The workload tests run the real sizes in this process with the tracer
installed (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import patterncount  # noqa: E402
from patterncount import _fast, counting, gen3214  # noqa: E402
from run import score  # noqa: E402
from worker import run_calls, time_workload  # noqa: E402
from workloads import WORKLOADS, CtScan  # noqa: E402


def traced_layers(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    out = time_workload(workload.prepare(seed), trace=True)
    assert all(c["error"] is None for c in out["calls"])
    return out["layers"]


def test_ct_scan_runs_only_counting():
    originals = (patterncount.count_corner_tree, counting.SumTree,
                 _fast._SplitSchedule, gen3214.count_type_a)
    layers = traced_layers("ct-scan", 0)
    assert layers["counting.count_corner_tree.busy_s"] > 0
    assert layers["counting.count_all_west.busy_s"] > 0
    assert layers["counting.points_scanned"] == 2 * CtScan.n * (4 + 3 + 3)
    for key in ("gen3214.self_s", "fast.self_s", "gen3214.blocks",
                "fast.schedule.builds", "fast.dominance.calls"):
        assert layers[key] == 0, key
    # The tracer put every module attribute back.
    assert originals == (patterncount.count_corner_tree, counting.SumTree,
                         _fast._SplitSchedule, gen3214.count_type_a)


def test_block_uniform_stays_on_the_fast_path():
    layers = traced_layers("block-uniform", 0)
    assert layers["gen3214.fast_share"] == 1.0
    assert layers["gen3214.exact_passes"] == 0
    for pass_ in ("type_a", "type_b", "box"):
        assert layers[f"gen3214.fallbacks.{pass_}"] == 0
        assert layers[f"gen3214.{pass_}.busy_s"] > 0
    assert layers["fast.schedule.builds"] > 0
    assert layers["fast.dominance_batch.queries"] > 0
    assert layers["indexstructs.producttree.builds"] == 0
    assert layers["counting.stream_west.builds"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_exact_falls_back_on_every_pass(seed):
    layers = traced_layers("block-exact", seed)
    for pass_ in ("type_a", "type_b", "box"):
        assert layers[f"gen3214.fallbacks.{pass_}"] == 1
    # Three fallbacks plus three exact passes for each level-5 member.
    assert layers["gen3214.exact_passes"] == 3 + 3 * 4
    assert layers["counting.stream_west.builds"] > 0
    assert layers["indexstructs.producttree.builds"] > 0


def test_rank_l5_starts_with_cold_caches():
    code = ("import json, workloads; workloads.WORKLOADS['rank-l5'].prepare(0); "
            "print(json.dumps({k: c.cache_info().currsize "
            "for k, c in workloads.lru_caches().items()}))")
    env = {"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE,
                         capture_output=True, text=True, check=True, timeout=60)
    sizes = json.loads(out.stdout)
    assert sizes and not any(sizes.values())
    # A warm start counts as a failure.
    workload = WORKLOADS["rank-l5"]
    proc = {"calls": [{"label": "rank/level5+new", "value": [138, 106, 105],
                       "error": None}],
            "cache_sizes_at_start": {"core.canonical_form": 3}}
    assert score(workload, [proc], {"references": {}, "oracle": []})[:2] == (2, 1)


class SmallCtScan(CtScan):
    n = 300


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


def _raises(*args):
    raise ArithmeticError("injected")


@pytest.mark.parametrize("label, fake", [
    ("count_all_west/west/uniform", _off_by_one),
    ("count_corner_tree/all-labels/layered", _off_by_one),
    ("count_corner_tree/west/uniform", lambda fn: _raises),
])
def test_injected_wrong_count_shows_in_error_rate(label, fake):
    workload = SmallCtScan()
    prep = workload.prepare(3)
    check = {"references": workload.references(prep), "oracle": workload.oracle(3)}
    good = {"calls": run_calls(prep.calls), "cache_sizes_at_start": {}}
    assert score(workload, [good], check)[:2] == (6 + len(check["oracle"]), 0)

    calls = tuple(replace(c, fn=fake(c.fn)) if c.label == label else c
                  for c in prep.calls)
    bad = {"calls": run_calls(calls), "cache_sizes_at_start": {}}
    attempted, failed, failures = score(workload, [bad], check)
    assert failed >= 1 and any(label in line for line in failures)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ct-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
