"""perfbench's tracer still finds every package name it wraps.

The tracer replaces module attributes by name, so a renamed or deleted
function or class breaks the benchmark at install time.  This loads
perfbench/tracer.py from its source, without writing a cached module,
installs it around one small call of each traced entry point, and removes
it again.
"""

import random
import types
from pathlib import Path

import patterncount
from patterncount import algebra, counting, gen3214
from patterncount.core import Permutation
from patterncount.trees import CornerTree

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


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
