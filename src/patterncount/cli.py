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
determines.  count decides its algorithm from the double poset of any
document: family members count by block, whatever their type field says.

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
from .core import (
    DoublePoset,
    InvalidInput,
    Permutation,
    classify,
    double_poset,
)

EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3

log = logging.getLogger("patterncount.cli")


class ParseFailure(ValueError):
    pass


class Inapplicable(ValueError):
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

def _as_double_poset(value) -> DoublePoset:
    if isinstance(value, DoublePoset):
        return value
    if isinstance(value, gen3214.ArboNE):
        return value.dp
    if isinstance(value, trees.CornerTree):
        value = trees.ct_to_snpolytree(value)
    if isinstance(value, trees.SNPolytree):
        return trees.snpolytree_to_dp(value)
    raise Inapplicable(f"cannot interpret {type(value).__name__} as a double poset")


def _resolve(value, requested: str):
    """The algorithm that counts value under --algorithm requested, and its
    operand, both decided from value's double poset.

    A family member goes to block, a twin tree to general or stream (the
    tree rooted at its west maximum, the only all-west rooting), anything
    else to naive; auto picks the first that applies.
    """
    d = _as_double_poset(value)
    try:
        arbo = gen3214.validate_arbo(d)
    except gen3214.ArboValidationError:
        arbo = None
    twin_tree = classify(d).is_twin_tree
    if requested == "auto":
        requested = "block" if arbo else "general" if twin_tree else "naive"
        if requested == "naive":
            log.warning("falling back to naive morphism counting for a "
                        "general double poset")
    if requested == "naive":
        return requested, d
    if requested == "block":
        if arbo is None:
            raise Inapplicable("the block algorithm needs a family member")
        return requested, arbo
    if not twin_tree:
        raise Inapplicable(f"the {requested} algorithm needs a twin tree")
    root = next((v for v in range(d.n)
                 if d.west.below[v].bit_count() == d.n - 1), 0)
    ct = trees.snpolytree_to_ct(trees.dp_to_snpolytree(d), root)
    if requested == "stream" and not ct.labels() <= {"NW", "SW"}:
        raise Inapplicable("no rooting of this tree uses only west labels")
    return requested, ct


def cmd_count(args) -> int:
    if args.block_size is not None and args.block_size < 1:
        raise ParseFailure(
            f"--block-size must be at least 1, got {args.block_size}")
    pi = read_permutation(args.perm)
    algorithm, operand = _resolve(read_tree_file(args.tree), args.algorithm)
    report = {}
    t0 = time.perf_counter()
    if algorithm == "block":
        m = args.block_size or gen3214.default_block_size(pi.n)
        report["block_size"] = m
        count = gen3214.count_gen_3214(pi, operand, m)
    elif algorithm == "general":
        count = counting.count_corner_tree(pi, operand)
    elif algorithm == "stream":
        count = counting.count_all_west(pi, operand)
    else:  # naive
        count = counting.naive_morphism_count(operand, pi)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.json:
        print(json.dumps({"count": count, "algorithm": algorithm, "n": pi.n,
                          **report, "elapsed_ms": round(elapsed_ms, 3)}))
    else:
        print(count)
    return 0


def cmd_pattern_vector(args) -> int:
    value = read_tree_file(args.tree)
    d = _as_double_poset(value)
    vec = algebra.pattern_vector(d)
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
                      "dim_top": result.dim_top_intersection}))
    return 0


def cmd_validate(args) -> int:
    d = _as_double_poset(read_tree_file(args.tree))
    try:
        gen3214.validate_arbo(d)
        arbo_state = "valid"
    except gen3214.ArboValidationError:
        arbo_state = None
    flags = classify(d)
    print(f"elements: {d.n}")
    print(f"twin: {str(flags.is_twin).lower()}")
    print(f"tree: {str(flags.is_tree).lower()}")
    print(f"twin_tree: {str(flags.is_twin_tree).lower()}")
    print(f"permutation: {str(flags.is_permutation).lower()}")
    if arbo_state:
        print(f"arbo_ne: {arbo_state}")
    return 0


def _random_permutation(rng: random.Random, n: int) -> Permutation:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


_LABELS = ("NE", "NW", "SE", "SW")


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
        ct = _random_corner_tree(rng, rng.randint(1, 4), _LABELS)
        pi = _random_permutation(rng, rng.randint(1, 10))
        ok &= counting.count_corner_tree(pi, ct) == \
            counting.naive_corner_tree_count(pi, ct)
    report("corner-tree-vs-morphisms", ok)

    ok = True
    for _ in range(20):
        # Longer sequences than above, through eight to ten split levels.
        ct = _random_corner_tree(rng, rng.randint(2, 5), _LABELS)
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


_BENCH_LADDERS = {
    "stream": (100_000, 200_000, 400_000),
    "general": (100_000, 200_000, 400_000),
    "block": (20_000, 40_000, 80_000),
}


def bench_once(algorithm: str, n: int, seed: int) -> float:
    """One timed run; returns elapsed milliseconds."""
    rng = random.Random(seed)
    pi = _random_permutation(rng, n)
    chain = trees.CornerTree(0, ((0, 1, "SW"), (1, 2, "SW")))
    t0 = time.perf_counter()
    if algorithm == "stream":
        counting.count_all_west(pi, chain)
    elif algorithm == "general":
        counting.count_corner_tree(pi, chain)
    elif algorithm == "block":
        gen3214.count_gen_3214(pi, gen3214.bare_3214())
    else:
        raise Inapplicable(f"no benchmark for algorithm {algorithm!r}")
    return (time.perf_counter() - t0) * 1000.0


def cmd_bench(args) -> int:
    sizes = args.n if args.n else _BENCH_LADDERS[args.algorithm]
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
    p.add_argument("--algorithm", default="auto",
                   choices=["auto", "general", "stream", "block", "naive"])
    p.add_argument("--block-size", type=int, default=None)
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
    p.add_argument("--algorithm", default="stream",
                   choices=["stream", "general", "block"])
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
