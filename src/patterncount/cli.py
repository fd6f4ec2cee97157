"""Command-line surface: counting, pattern vectors, ranks, self-tests, benchmarks.

File formats
------------
Permutations are ASCII integers separated by whitespace, one-line notation,
1-indexed.  Trees and posets are JSON documents with a "type" field:

  {"type": "corner_tree", "nodes": [...], "root": r,
   "edges": [[parent, child, "NE|NW|SE|SW"], ...]}
  {"type": "sn_polytree", "nodes": [...],
   "edges": [[tail, head, "S|N"], ...]}          # head = arrow target
  {"type": "double_poset", "n": k,
   "west": [[i, j], ...], "south": [[i, j], ...]}  # generators, closed on load
  {"type": "arbo_ne", "n": k, "west": ..., "south": ...,
   "anchors": {"one": i, "two": j-or-null, "three": k, "four": l}}

The anchors of an arbo_ne document must be the ones its double poset
determines.  count leaves the algorithm to counting.count, which decides it
from the double poset: members count by block, whatever their type says.
validate reads a tree document's flags off its edges, and pattern-vector
its size, so neither closes the tree's orders.

Exit codes: 0 success, 1 self-test failure, 2 parse/validation failure,
3 inapplicable algorithm or size cap.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
import time

from . import algebra, counting, gen3214, trees
from .core import (DoublePoset, InvalidInput, Permutation, _shape, classify,
                   double_poset)
from .counting import Inapplicable

EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3


class ParseFailure(ValueError):
    pass


# ------------------------------------------------------------- file io

def read_permutation(path: str) -> Permutation:
    try:
        with open(path) as fh:
            tokens = fh.read().split()
        return Permutation(tuple(int(t) for t in tokens))
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    except (ValueError, InvalidInput) as exc:
        raise ParseFailure(f"{path}: not a permutation file: {exc}") from exc


def parse_tree_spec(doc: dict):
    """Decode one JSON document into its in-memory value."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseFailure("document must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "corner_tree":
            edges = tuple((p, c, lab) for p, c, lab in doc["edges"])
            ct = trees.CornerTree(doc["root"], edges)
            declared = set(doc.get("nodes", ct.nodes))
            if declared != set(ct.nodes):
                raise ParseFailure("field 'nodes' disagrees with the edges")
            return ct
        if kind == "sn_polytree":
            edges = tuple((t, h, lab) for t, h, lab in doc["edges"])
            return trees.SNPolytree(tuple(doc["nodes"]), edges)
        if kind == "double_poset":
            return _read_double_poset(doc)
        if kind == "arbo_ne":
            arbo = gen3214.validate_arbo(_read_double_poset(doc))
            anchors = doc["anchors"]
            if not isinstance(anchors, dict):
                raise ParseFailure("field 'anchors' must be an object")
            claimed = {a: _read_int(anchors[a], f"anchors.{a}")
                       for a in ("one", "three", "four")}
            two = anchors.get("two")
            claimed["two"] = None if two is None else _read_int(two, "anchors.two")
            derived = {a: getattr(arbo, a) for a in claimed}
            if claimed != derived:
                raise ParseFailure(f"anchors {claimed} disagree with {derived}, "
                                   "read off the double poset")
            return arbo
    except (ParseFailure, Inapplicable):
        raise
    except (KeyError, TypeError) as exc:
        raise ParseFailure(f"field error in {kind!r} document: {exc}") from exc
    except ValueError as exc:
        raise ParseFailure(f"invalid {kind!r} document: {exc}") from exc
    raise ParseFailure(f"unknown tree type {kind!r}")


def _read_int(value, field: str) -> int:
    """value if it is a JSON integer; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseFailure(f"field {field!r} must be an integer, got {value!r}")
    return value


def _read_double_poset(doc: dict) -> DoublePoset:
    n = _read_int(doc["n"], "n")
    west, south = _read_pairs(doc, "west"), _read_pairs(doc, "south")
    try:
        return double_poset(n, west, south)
    except (MemoryError, OverflowError) as exc:
        # The per-element lists of a huge n fail before any order is built.
        raise Inapplicable(
            f"a ground set of {n} elements exceeds the size cap") from exc


def _read_pairs(doc: dict, field: str) -> list[tuple[int, int]]:
    return [(_read_int(a, f"{field}[{i}]"), _read_int(b, f"{field}[{i}]"))
            for i, (a, b) in enumerate(doc[field])]


def tree_spec_to_dict(value) -> dict:
    """Inverse of parse_tree_spec, for round-tripping values to disk."""
    if isinstance(value, trees.CornerTree):
        return {"type": "corner_tree", "nodes": sorted(value.nodes, key=repr),
                "root": value.root,
                "edges": [list(e) for e in value.edges]}
    if isinstance(value, trees.SNPolytree):
        return {"type": "sn_polytree", "nodes": list(value.nodes),
                "edges": [list(e) for e in value.edges]}
    if isinstance(value, gen3214.ArboNE):
        doc = tree_spec_to_dict(value.dp)
        doc["type"] = "arbo_ne"
        doc["anchors"] = {"one": value.one, "two": value.two,
                          "three": value.three, "four": value.four}
        return doc
    if isinstance(value, DoublePoset):
        return {"type": "double_poset", "n": value.n,
                "west": sorted(list(p) for p in value.west.pairs),
                "south": sorted(list(p) for p in value.south.pairs)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def read_tree_file(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseFailure(f"{path}: not a UTF-8 JSON document: {exc}") from exc
    return parse_tree_spec(doc)


# ------------------------------------------------------------ commands

def cmd_count(args) -> int:
    if args.block_size is not None and args.block_size < 1:
        raise ParseFailure(
            f"--block-size must be at least 1, got {args.block_size}")
    pi = read_permutation(args.perm)
    tree = read_tree_file(args.tree)
    t0 = time.perf_counter()
    result = counting.count(tree, pi, args.algorithm, args.block_size)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.json:
        doc = {"count": result.count, "algorithm": result.algorithm, "n": pi.n,
               "block_size": result.block_size, "elapsed_ms": round(ms, 3)}
        print(json.dumps({k: v for k, v in doc.items() if v is not None}))
    else:
        print(result.count)
    return 0


def cmd_pattern_vector(args) -> int:
    obj = read_tree_file(args.tree)
    if _shape(obj)[0] > trees._ENUM_CAP:  # checked before the closure, which grows as k^2
        raise trees.TooLarge(f"pattern vector cap is {trees._ENUM_CAP} elements")
    vec = algebra.pattern_vector(counting.as_double_poset(obj))
    out = {" ".join(map(str, p.values)): c for p, c in vec.items()}
    print(json.dumps(out))
    return 0


def cmd_rank(args) -> int:
    if args.max_level < 1:
        raise ParseFailure(f"--max-level must be at least 1, got {args.max_level}")
    if args.max_level > algebra.RANK_LEVEL_CAP:
        raise trees.TooLarge(
            f"rank computations are capped at level {algebra.RANK_LEVEL_CAP}")
    family = algebra.twin_tree_family(args.max_level)
    if args.include_new:
        family = family + [d for d in algebra.new_direction_family()
                           if d.n <= args.max_level]
    result = algebra.rank_of_family(family, args.max_level)
    print(json.dumps({"dim_span": result.dim_span,
                      "dim_top": result.dim_top_intersection,
                      "dim_top_strict": result.dim_top_strict}))
    return 0


def cmd_validate(args) -> int:
    obj = read_tree_file(args.tree)
    obj = trees.ct_to_snpolytree(obj) if isinstance(obj, trees.CornerTree) else obj
    flags = classify(obj)  # from the Hasse pairs: a tree's edges, an ArboNE's tree
    print(f"elements: {_shape(obj)[0]}")
    for flag in ("twin", "tree", "twin_tree", "permutation"):
        print(f"{flag}: {str(getattr(flags, 'is_' + flag)).lower()}")
    # An arbo_ne document was validated on load; no twin tree is a member.
    if isinstance(obj, gen3214.ArboNE) or (
            not flags.is_twin_tree and gen3214.family_member(obj)):
        print("arbo_ne: valid")
    return 0


def _random_permutation(rng: random.Random, n: int) -> Permutation:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def _random_corner_tree(rng: random.Random, k: int, labels) -> trees.CornerTree:
    return trees.CornerTree(0, tuple((rng.randrange(c), c, rng.choice(labels))
                                     for c in range(1, k)))


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        failures += not ok

    from .indexstructs import ProductTree, SumTree

    ok = True
    for _ in range(30):
        n = rng.randint(1, 32)
        st = SumTree(n)
        ref = [0] * (n + 1)
        for _ in range(30):
            i, w = rng.randint(1, n), rng.randint(0, 9)
            st.add(i, w)
            ref[i] += w
            k = rng.randint(1, n)
            ok &= st.prefix(k) == sum(ref[1:k]) and st.suffix(k) == sum(ref[k + 1:])
    report("sumtree-prefix-suffix", ok)

    ok = True
    for _ in range(30):
        n = rng.randint(1, 24)
        pts = [(x, rng.randrange(n), rng.randint(0, 4))
               for x in rng.sample(range(n), k=rng.randint(0, n))]
        pt = ProductTree(n)
        for x, y, w in pts:
            pt.add(x, y, w)
        for _ in range(4):
            xl = rng.randint(0, n); xh = rng.randint(xl, n)
            yl = rng.randint(0, n); yh = rng.randint(yl, n)
            ok &= pt.sum_box(xl, xh, yl, yh) == sum(
                w for x, y, w in pts if xl <= x < xh and yl <= y < yh)
    report("producttree-box-sums", ok)

    ok = True
    for _ in range(25):
        ct = _random_corner_tree(rng, rng.randint(1, 4), trees.CORNER_LABELS)
        pi = _random_permutation(rng, rng.randint(1, 10))
        ok &= counting.count_corner_tree(pi, ct) == \
            counting.naive_corner_tree_count(pi, ct)
    report("corner-tree-vs-morphisms", ok)

    ok = True
    for _ in range(20):
        # Longer sequences than above, through eight to ten split levels.
        ct = _random_corner_tree(rng, rng.randint(2, 5), trees.CORNER_LABELS)
        pi = _random_permutation(rng, rng.randint(129, 600))
        ok &= counting.count_corner_tree(pi, ct) == \
            sum(counting.corner_tree_profiles(pi, ct)[0][ct.root])
    report("corner-tree-vs-profiles", ok)

    ok = True
    for _ in range(25):
        ct = _random_corner_tree(rng, rng.randint(1, 4), ("NW", "SW"))
        pi = _random_permutation(rng, rng.randint(1, 40))
        # Both counters run one engine; the online counter is independent.
        counter = counting.StreamWestCounter(ct, pi.n)
        streamed = sum(counter.process(x, y)
                       for x, y in enumerate(pi.zero_indexed()))
        ok &= counting.count_all_west(pi, ct) == streamed
        ok &= counting.count_corner_tree(pi, ct) == streamed
    report("stream-vs-general", ok)

    ok = True
    from .core import pattern_count_table
    for _ in range(10):
        arbo = gen3214.build_arbo(rng.random() < 0.7,
                                  tuple(rng.choice([0, 1]) for _ in
                                        range(rng.randint(0, 1))))
        pi = _random_permutation(rng, rng.randint(arbo.n, 16))
        vec = algebra.pattern_vector(arbo.dp)
        table = pattern_count_table(pi, vec.sizes())
        oracle = sum(c * table.get(p, 0) for p, c in vec.items())
        for m in (1, 3, pi.n):
            for method in ("auto", "exact"):
                ok &= gen3214.count_gen_3214(pi, arbo, m, method) == oracle
    report("block-vs-pattern-oracle", ok)

    ok = True
    samples = [
        trees.CornerTree("r", (("r", "a", "SE"), ("a", "b", "NE"),
                               ("a", "c", "NW"))),
        trees.SNPolytree((0, 1, 2), ((2, 0, "N"), (2, 1, "S"))),
        gen3214.bare_3214(),
        double_poset(3, [(0, 1)], [(2, 1)]),
    ]
    for value in samples:
        doc = json.loads(json.dumps(tree_spec_to_dict(value)))
        ok &= parse_tree_spec(doc) == value
    report("serialization-roundtrip", ok)

    return EXIT_SELFTEST if failures else 0


_SW_CHAIN = trees.CornerTree(0, ((0, 1, "SW"), (1, 2, "SW")))
# Each algorithm's benchmark: the object it counts and the default sizes.
_BENCH = {
    "general": (_SW_CHAIN, (100_000, 200_000, 400_000)),
    "block": (gen3214.bare_3214(), (20_000, 40_000, 80_000)),
}


def bench_once(algorithm: str, n: int, seed: int) -> float:
    """Milliseconds of one counting.count call, its decision included."""
    pi = _random_permutation(random.Random(seed), n)
    t0 = time.perf_counter()
    counting.count(_BENCH[algorithm][0], pi, algorithm)
    return (time.perf_counter() - t0) * 1000.0


def cmd_bench(args) -> int:
    sizes = args.n if args.n else _BENCH[args.algorithm][1]
    if min(sizes) < 1:
        raise ParseFailure(f"--n sizes must be at least 1, got {min(sizes)}")
    from . import _fast  # noqa: F401  (numpy loads before the first timing)
    for n in sizes:
        ms = bench_once(args.algorithm, n, args.seed)
        print(f"{n},{args.algorithm},{ms:.1f}")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patterncount",
        description="Exact permutation pattern counting via corner trees "
                    "and double posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count occurrences / morphisms")
    p.add_argument("--perm", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--algorithm", default="auto", choices=counting.ALGORITHMS)
    p.add_argument("--block-size", type=int, default=None,
                   help="block width m of the block algorithm (default "
                        "3 * floor(n^(1/3)), default_block_size(n))")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("pattern-vector",
                       help="pattern combination counted by a tree")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_pattern_vector)

    p = sub.add_parser("rank", help="dimension of a family's span")
    p.add_argument("--max-level", type=int, default=5)
    p.add_argument("--include-new", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("validate", help="classify a tree file")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("bench", help="emit CSV timing rows")
    p.add_argument("--algorithm", default="general", choices=list(_BENCH))
    p.add_argument("--n", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The package's warnings go to this invocation's stderr.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    package_log = logging.getLogger("patterncount")
    package_log.addHandler(handler)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (Inapplicable, trees.TooLarge, counting.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
