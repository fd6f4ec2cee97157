"""perfbench still finds every package name it wraps or calls.

The tracer replaces module attributes by name, so a renamed or deleted
function or class breaks the benchmark at install time.  This loads
perfbench/tracer.py from its source, without writing a cached module,
installs it around one small call of each traced entry point, and removes
it again.  The workloads' oracles call the package's counting oracles
directly, so perfbench/workloads.py is loaded the same way and every
oracle check is run on two seeds.
"""

import random
import sys
import types
from pathlib import Path

import patterncount
from patterncount import algebra, counting, gen3214
from patterncount.core import Permutation
from patterncount.trees import CornerTree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(module: types.ModuleType, path: Path) -> types.ModuleType:
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _load_tracer() -> types.ModuleType:
    return _load(types.ModuleType("perfbench_tracer"), TRACER)


def test_tracer_wraps_the_package():
    values = list(range(1, 61))
    random.Random(11).shuffle(values)
    pi = Permutation(tuple(values))
    west = CornerTree(0, ((0, 1, "SW"), (1, 2, "NW")))
    originals = (counting.count_corner_tree, gen3214.count_gen_3214,
                 algebra.rank_of_family)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        patterncount.count_corner_tree(pi, CornerTree(0, ((0, 1, "NE"),)))
        patterncount.count_all_west(pi, west)
        for method in ("auto", "exact"):
            patterncount.count_gen_3214(pi, gen3214.bare_3214(), method=method)
        patterncount.rank_of_family(patterncount.twin_tree_family(3), 3)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["fast.schedule.builds"] >= 1
    assert originals == (counting.count_corner_tree, gen3214.count_gen_3214,
                         algebra.rank_of_family)


def test_workload_oracles_pass(monkeypatch):
    module = types.ModuleType("perfbench_workloads")
    # Its dataclasses look their module up in sys.modules as they are made.
    monkeypatch.setitem(sys.modules, module.__name__, module)
    workloads = _load(module, PERFBENCH / "workloads.py")
    for workload in workloads.WORKLOADS.values():
        for seed in (0, 1):
            failed = [label for label, ok in workload.oracle(seed) if not ok]
            assert failed == [], (workload.name, seed)
