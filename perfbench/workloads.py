"""Workload definitions: seeded inputs, the timed public calls, and checks.

A workload is a fixed list of public ``patterncount`` calls on inputs made
from the seed.  ``prepare`` builds the inputs and does the family
validation and ``decompose`` (set-up); ``Call.fn`` is the timed call.  Calls
look the function up on the package when they run, so a tracer installed
after ``prepare`` still sees them.

Correctness is checked outside the timed window, in three ways:

* ``verify`` compares one process's timed counts with each other, with the
  full-size references and with known results;
* ``references`` computes those full-size references once per run, by a
  different route to the same number (a symmetry, another block size m,
  the other block-counting method);
* ``oracle`` compares the same calls with a brute-force oracle on a small
  instance drawn from the same generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Call:
    """One timed public call; ``label`` is unique within its workload."""

    label: str
    fn: Callable
    args: tuple
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Prepared:
    calls: tuple[Call, ...]
    inputs: dict


def public(name: str) -> Callable:
    """The package-level function ``name``, looked up at call time."""
    import patterncount

    def call(*args):
        return getattr(patterncount, name)(*args)

    return call


# ------------------------------------------------------------ generators

def uniform_perm(seed: int, tag: str, n: int):
    from patterncount import Permutation

    vals = list(range(1, n + 1))
    random.Random(f"{seed}:{tag}").shuffle(vals)
    return Permutation(tuple(vals))


def layered_perm(seed: int, tag: str, n: int, max_run: int = 64):
    """Direct sum of decreasing runs of random length at most max_run."""
    from patterncount import Permutation

    rng = random.Random(f"{seed}:{tag}")
    vals: list[int] = []
    while len(vals) < n:
        top = min(len(vals) + rng.randint(1, max_run), n)
        vals.extend(range(top, len(vals), -1))
    return Permutation(tuple(vals))


def reverse_perm(pi):
    from patterncount import Permutation

    return Permutation(tuple(reversed(pi.values)))


def mirror_tree(ct):
    """Swap east and west on every edge label (matches reverse_perm)."""
    from patterncount import CornerTree

    flip = {"NE": "NW", "NW": "NE", "SE": "SW", "SW": "SE"}
    return CornerTree(ct.root, tuple((p, c, flip[lab]) for p, c, lab in ct.edges))


def pattern_oracle(pi, dp) -> int:
    """|Mor(dp, pi)| from the pattern vector and the pattern-count table."""
    from patterncount.algebra import pattern_vector
    from patterncount.core import pattern_count_table

    vec = pattern_vector(dp)
    table = pattern_count_table(pi, vec.sizes())
    return sum(c * table.get(p, 0) for p, c in vec.items())


def block_oracle_checks(name: str, pi, arbo, expected: int) -> list[tuple[str, bool]]:
    """count_gen_3214 against ``expected`` for m in {1, 3, n}, both methods."""
    import patterncount as pc

    out = []
    for m in (1, 3, pi.n):
        for method in ("fast", "exact"):
            got = pc.count_gen_3214(pi, arbo, m, method)
            out.append((f"oracle/{name}/m={m}/{method}", got == expected))
    return out


# -------------------------------------------------------------- workloads

class CtScan:
    """Corner-tree scans: per-edge Fenwick scans and the streaming counter."""

    name = "ct-scan"
    n = 100_000
    small_n = 12
    cold_caches = False

    @staticmethod
    def trees():
        from patterncount import CornerTree

        # A 4-node tree has only three edges, so the tree that uses all four
        # corner labels has five nodes.
        all_labels = CornerTree(0, ((0, 1, "NE"), (0, 2, "SE"), (2, 3, "NW"),
                                    (1, 4, "SW")))
        west = CornerTree(0, ((0, 1, "SW"), (1, 2, "NW"), (0, 3, "SW")))
        return {"all-labels": all_labels, "west": west}

    def inputs(self, seed: int, n: int) -> dict:
        return {"uniform": uniform_perm(seed, "uniform", n),
                "layered": layered_perm(seed, "layered", n)}

    def prepare(self, seed: int) -> Prepared:
        perms = self.inputs(seed, self.n)
        trees = self.trees()
        calls = []
        for kind, pi in perms.items():
            for func, tree in (("count_corner_tree", "all-labels"),
                               ("count_corner_tree", "west"),
                               ("count_all_west", "west")):
                calls.append(Call(f"{func}/{tree}/{kind}", public(func),
                                  (pi, trees[tree]),
                                  {"n": pi.n, "tree": tree, "input": kind}))
        return Prepared(tuple(calls), {"perms": perms, "trees": trees})

    def references(self, prep: Prepared) -> dict:
        import patterncount as pc

        tree = prep.inputs["trees"]["all-labels"]
        return {f"count_corner_tree/all-labels/{kind}":
                pc.count_corner_tree(reverse_perm(pi), mirror_tree(tree))
                for kind, pi in prep.inputs["perms"].items()}

    def verify(self, values: dict, refs: dict) -> dict[str, bool]:
        ok = {}
        for label, value in values.items():
            func, tree, kind = label.split("/")
            if func == "count_all_west":
                ok[label] = value == values.get(f"count_corner_tree/west/{kind}")
            else:
                ok[label] = label not in refs or value == refs[label]
        return ok

    def oracle(self, seed: int) -> list[tuple[str, bool]]:
        import patterncount as pc
        from patterncount.counting import naive_corner_tree_count

        out = []
        for kind, pi in self.inputs(seed, self.small_n).items():
            for tree_name, tree in self.trees().items():
                expected = naive_corner_tree_count(pi, tree)
                out.append((f"oracle/count_corner_tree/{tree_name}/{kind}",
                            pc.count_corner_tree(pi, tree) == expected))
                if tree_name == "west":
                    out.append((f"oracle/count_all_west/{tree_name}/{kind}",
                                pc.count_all_west(pi, tree) == expected))
        return out


def _members(shapes: dict) -> dict:
    """Validated family members with their decompositions cached."""
    import patterncount as pc

    members = {name: pc.build_arbo(True, dangles) for name, dangles in shapes.items()}
    for arbo in members.values():
        pc.decompose(arbo)
    return members


def _gen_3214_calls(pi, members: dict) -> list[Call]:
    return [Call(f"count_gen_3214/{name}", public("count_gen_3214"), (pi, arbo),
                 {"n": pi.n, "member": name, "m": "default"})
            for name, arbo in members.items()]


LEVEL5_SHAPES = {"3214": (), "3214+d1": (0,), "3214+d2": (1,), "3214+d3": (2,)}


class BlockUniform:
    """The 3214 block counter on the numpy fast path, default m."""

    name = "block-uniform"
    n = 4000
    small_n = 12
    cold_caches = False

    def prepare(self, seed: int) -> Prepared:
        pi = uniform_perm(seed, "uniform", self.n)
        members = _members(LEVEL5_SHAPES)
        return Prepared(tuple(_gen_3214_calls(pi, members)),
                        {"pi": pi, "members": members})

    def references(self, prep: Prepared) -> dict:
        # The three types partition the morphisms for every m, so another
        # block size must give the same total.
        import patterncount as pc

        pi = prep.inputs["pi"]
        m = 2 * round(pi.n ** (1 / 3))
        return {"count_gen_3214/3214":
                pc.count_gen_3214(pi, prep.inputs["members"]["3214"], m)}

    def verify(self, values: dict, refs: dict) -> dict[str, bool]:
        return {label: label not in refs or value == refs[label]
                for label, value in values.items()}

    def oracle(self, seed: int) -> list[tuple[str, bool]]:
        pi = uniform_perm(seed, "uniform", self.small_n)
        out = []
        for name, arbo in _members(LEVEL5_SHAPES).items():
            out += block_oracle_checks(name, pi, arbo, pattern_oracle(pi, arbo.dp))
        return out


class BlockExact:
    """The 3214 block counter on its exact Python paths.

    ``wide-three`` (four leaves below ``three``) makes the numpy path raise
    Int64Risk on type A, type B and box at n = 1100 for every seed: its
    counts exceed 2^63.  The level-5 members at n = 1000 sit below the
    1024-point fast-path threshold, so they run the exact path directly.
    """

    name = "block-exact"
    wide_n = 1100
    level5_n = 1000
    small_n = 12
    wide_small_n = 9
    cold_caches = False
    WIDE = {"wide-three": (2, 2, 2, 2)}

    def prepare(self, seed: int) -> Prepared:
        wide_pi = uniform_perm(seed, "wide", self.wide_n)
        level5_pi = uniform_perm(seed, "level5", self.level5_n)
        wide = _members(self.WIDE)
        level5 = _members(LEVEL5_SHAPES)
        calls = _gen_3214_calls(wide_pi, wide) + _gen_3214_calls(level5_pi, level5)
        return Prepared(tuple(calls), {"wide_pi": wide_pi, "level5_pi": level5_pi,
                                       "wide": wide, "level5": level5})

    def references(self, prep: Prepared) -> dict:
        # Each call rerun with the other explicit method.
        import patterncount as pc

        refs = {f"count_gen_3214/{name}":
                pc.count_gen_3214(prep.inputs["wide_pi"], arbo, None, "exact")
                for name, arbo in prep.inputs["wide"].items()}
        refs.update({f"count_gen_3214/{name}":
                     pc.count_gen_3214(prep.inputs["level5_pi"], arbo, None, "fast")
                     for name, arbo in prep.inputs["level5"].items()})
        return refs

    verify = BlockUniform.verify

    def oracle(self, seed: int) -> list[tuple[str, bool]]:
        from patterncount import naive_morphism_count

        out = []
        pi = uniform_perm(seed, "wide", self.wide_small_n)
        for name, arbo in _members(self.WIDE).items():
            out += block_oracle_checks(name, pi, arbo, naive_morphism_count(arbo.dp, pi))
        pi = uniform_perm(seed, "level5", self.small_n)
        for name, arbo in _members(LEVEL5_SHAPES).items():
            out += block_oracle_checks(name, pi, arbo, pattern_oracle(pi, arbo.dp))
        return out


def rank_level5_with_new_directions():
    """What ``patterncount rank --max-level 5 --include-new`` computes."""
    import patterncount as pc

    family = pc.twin_tree_family(5) + [d for d in pc.new_direction_family()
                                       if d.n <= 5]
    result = pc.rank_of_family(family, 5)
    return [result.dim_span, result.dim_top_intersection, result.dim_top_strict]


class RankL5:
    """Exact rank of the level-5 twin-tree family plus the new directions.

    Its input is fixed; the seed changes nothing.  Each process starts
    with cold lru caches, as one CLI invocation does.
    """

    name = "rank-l5"
    cold_caches = True
    EXPECTED = [138, 106]

    def prepare(self, seed: int) -> Prepared:
        return Prepared((Call("rank/level5+new", rank_level5_with_new_directions,
                              (), {"n": 5, "member": "twin trees + new directions"}),),
                        {})

    def references(self, prep: Prepared) -> dict:
        return {}

    def verify(self, values: dict, refs: dict) -> dict[str, bool]:
        return {label: value[:2] == self.EXPECTED for label, value in values.items()}

    def oracle(self, seed: int) -> list[tuple[str, bool]]:
        return []


WORKLOADS = {w.name: w for w in (CtScan(), BlockUniform(), BlockExact(), RankL5())}


def lru_caches() -> dict:
    """The package's lru caches that rank-l5 needs to find cold."""
    from patterncount import algebra, core

    return {"core.canonical_form": core.canonical_form,
            "algebra.count_epis": algebra.count_epis,
            "algebra.morphism_class_counts": algebra.morphism_class_counts}
