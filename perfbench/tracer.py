"""Spans and counters around calls into the patterncount modules.

The tracer replaces module attributes with wrappers while it is installed
and restores them on ``uninstall``; nothing under ``src/`` is edited.  A
span is ``(name, start, end, parent)``, with the parent given as an index
into the span list (-1 for none).  Spans stay in memory; the benchmark
writes them out when its run ends.

A span's name is ``<layer>.<operation>``, where the layer is the package
module (``fast`` stands for ``_fast``, since metric names may not start
with an underscore).  A layer's self time is the time of its spans minus
the time of their child spans; time in helpers without a span (the Fenwick
trees, ``StreamWestCounter.process``) counts toward the caller.

Importing this module imports ``_fast`` and numpy, which an untraced
process does lazily inside its first block count, so ``trace.overhead_s``
reads low by that import (about 0.1 s) on the block workloads.
"""

from __future__ import annotations

import time
from collections import Counter

import patterncount
from patterncount import _fast, algebra, core, counting, gen3214, trees

# Public functions wrapped wherever a caller looks them up: the package,
# the defining module, and modules that import the name.
_FUNCTIONS = [
    ("counting.count_corner_tree", "count_corner_tree", (patterncount, counting)),
    ("counting.count_all_west", "count_all_west", (patterncount, counting)),
    ("gen3214.count_gen_3214", "count_gen_3214", (patterncount, gen3214)),
    ("gen3214.type_a", "count_type_a", (patterncount, gen3214)),
    ("gen3214.type_b", "count_type_b_not_a", (patterncount, gen3214)),
    ("gen3214.box", "count_box", (patterncount, gen3214)),
    ("fast.count_type_a", "count_type_a", (_fast,)),
    ("fast.count_type_b_not_a", "count_type_b_not_a", (_fast,)),
    ("fast.count_box", "count_box", (_fast,)),
    ("fast.dominance_batch", "_dominance_batch", (_fast,)),
    ("algebra.rank_of_family", "rank_of_family", (patterncount, algebra)),
    ("algebra.twin_tree_family", "twin_tree_family", (patterncount, algebra)),
    ("algebra.new_direction_family", "new_direction_family", (patterncount, algebra)),
    ("algebra.pattern_vector", "pattern_vector", (patterncount, algebra)),
    ("algebra.integer_rank", "_integer_rank", (algebra,)),
    ("trees.enumerate_snpolytrees", "enumerate_snpolytrees",
     (patterncount, trees, algebra)),
    ("core.canonical_form", "canonical_form", (patterncount, core, algebra, trees)),
]

_FALLBACK_OF = {"fast.count_type_a": "type_a",
                "fast.count_type_b_not_a": "type_b",
                "fast.count_box": "box"}

_CACHES = {"algebra.count_epis": algebra.count_epis,
           "core.canonical_form": core.canonical_form}

LAYERS = ("counting", "gen3214", "fast", "algebra", "trees", "core")

# Spans whose inclusive time is reported as ``<span>.busy_s``.
_BUSY = ("counting.count_corner_tree", "counting.count_all_west",
         "gen3214.type_a", "gen3214.type_b", "gen3214.box", "fast.schedule",
         "fast.dominance", "fast.dominance_batch", "trees.enumerate_snpolytrees",
         "algebra.pattern_vector", "algebra.integer_rank")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []
        self._cache_start: dict = {}

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span; observe(args, exc) counts work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            exc = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
                if observe is not None:
                    observe(args, exc)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------- observers

    def _observer(self, name: str):
        counts = self.counts
        if name in ("counting.count_corner_tree", "counting.count_all_west"):
            def observe(args, exc):
                pi, tree = args[:2]
                counts["counting.points_scanned"] += pi.n * len(tree.edges)
            return observe
        if name in _FALLBACK_OF:
            key = f"gen3214.fallbacks.{_FALLBACK_OF[name]}"

            def observe(args, exc):
                if isinstance(exc, _fast.Int64Risk):
                    counts[key] += 1
                elif exc is None:
                    counts["gen3214.fast_passes"] += 1
            return observe
        if name in ("gen3214.type_a", "gen3214.type_b", "gen3214.box"):
            def observe(args, exc):
                counts["gen3214.passes"] += 1
                if name == "gen3214.type_a":
                    n, m = args[0].n, args[2]
                    counts["gen3214.blocks"] += -(-n // m)
                    counts["gen3214.m"] = max(counts["gen3214.m"], m)
            return observe
        if name == "fast.dominance_batch":
            def observe(args, exc):
                counts["fast.dominance_batch.queries"] += len(args[2])
            return observe
        if name == "algebra.pattern_vector":
            def observe(args, exc):
                counts["algebra.pattern_vector.calls"] += 1
            return observe
        return None

    def _count_builds(self, cls, key: str):
        counts = self.counts

        class Counted(cls):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                counts[key] += 1
                super().__init__(*args, **kwargs)

        Counted.__name__ = cls.__name__
        return Counted

    def _traced_schedule(self):
        base = _fast._SplitSchedule
        counts = self.counts

        def observe_build(args, exc):
            counts["fast.schedule.builds"] += 1
            counts["fast.schedule.keys"] += len(args[1])

        def observe_dominance(args, exc):
            counts["fast.dominance.calls"] += 1

        return type(base.__name__, (base,), {
            "__init__": self.wrap("fast.schedule", base.__init__, observe_build),
            "dominance_smaller": self.wrap("fast.dominance", base.dominance_smaller,
                                           observe_dominance),
        })

    # -------------------------------------------------- install/remove

    def install(self) -> None:
        for name, attr, owners in _FUNCTIONS:
            wrapped = self.wrap(name, getattr(owners[-1], attr), self._observer(name))
            for owner in owners:
                self._set(owner, attr, wrapped)
        self._set(_fast, "_SplitSchedule", self._traced_schedule())
        self._set(counting, "SumTree",
                  self._count_builds(counting.SumTree, "indexstructs.sumtree.builds"))
        self._set(gen3214, "ProductTree",
                  self._count_builds(gen3214.ProductTree,
                                     "indexstructs.producttree.builds"))
        stream = self._count_builds(counting.StreamWestCounter,
                                    "counting.stream_west.builds")
        self._set(counting, "StreamWestCounter", stream)
        self._set(gen3214, "StreamWestCounter", stream)
        self._cache_start = {k: c.cache_info() for k, c in _CACHES.items()}

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- metrics

    def busy(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, minus the time of child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".")[0]] += t
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for the calls made while installed."""
        busy = self.busy()
        c = self.counts
        passes = c["gen3214.passes"]
        out = {f"{span}.busy_s": busy.get(span, 0.0) for span in _BUSY}
        # With no block pass at all the share reads 0.
        out["gen3214.fast_share"] = c["gen3214.fast_passes"] / passes if passes else 0.0
        out["gen3214.exact_passes"] = passes - c["gen3214.fast_passes"]
        out["trace.spans"] = len(self.spans)
        for key in ("counting.points_scanned", "counting.stream_west.builds",
                    "indexstructs.sumtree.builds", "indexstructs.producttree.builds",
                    "gen3214.m", "gen3214.blocks", "gen3214.fallbacks.type_a",
                    "gen3214.fallbacks.type_b", "gen3214.fallbacks.box",
                    "fast.schedule.builds", "fast.schedule.keys",
                    "fast.dominance.calls", "fast.dominance_batch.queries",
                    "algebra.pattern_vector.calls"):
            out[key] = c[key]
        for key, cache in _CACHES.items():
            now, start = cache.cache_info(), self._cache_start[key]
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for layer, t in self.self_times().items():
            out[f"{layer}.self_s"] = t
        return out
