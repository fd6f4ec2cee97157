import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import patterncount

from patterncount.cli import main, parse_tree_spec, tree_spec_to_dict
from patterncount.core import double_poset, perm, perm_to_dp
from patterncount.counting import (as_double_poset, corner_tree_profiles,
                                   naive_morphism_count)
from patterncount.gen3214 import (
    bare_3214,
    build_arbo,
    default_block_size,
    level5_arbos,
)
from patterncount.trees import CornerTree, SNPolytree


@pytest.fixture
def write(tmp_path):
    def _write(name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
        return str(path)
    return _write


SE_TREE = {
    "type": "corner_tree",
    "nodes": ["r", "a", "b", "c"],
    "root": "r",
    "edges": [["r", "a", "SE"], ["a", "b", "NE"], ["a", "c", "NW"]],
}


def arbo_doc(arbo):
    return tree_spec_to_dict(arbo)


def test_count_general(write, capsys):
    perm_file = write("p.txt", "2 3 1 5 4 6\n")
    tree_file = write("t.json", SE_TREE)
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--algorithm", "general"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_count_block_and_json(write, capsys):
    perm_file = write("p.txt", "4 3 2 1 5")
    tree_file = write("arbo.json", arbo_doc(bare_3214()))
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--algorithm", "block", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["algorithm"] == "block"
    assert doc["n"] == 5
    assert doc["block_size"] == default_block_size(5) == 3
    assert "elapsed_ms" in doc
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--algorithm", "block", "--block-size", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["count"], doc["block_size"]) == (4, 2)


def test_count_auto_prefers_block_for_arbo(write, capsys):
    perm_file = write("p.txt", "4 3 2 1 5")
    tree_file = write("arbo.json", arbo_doc(bare_3214()))
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "block"


def test_count_block_rejects_corner_tree(write, capsys):
    perm_file = write("p.txt", "2 3 1 5 4 6")
    tree_file = write("t.json", SE_TREE)
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--algorithm", "block"]) == 3


def test_count_block_size_bounds(write, capsys):
    perm_file = write("p.txt", "3 2 1 4 5")
    tree_file = write("arbo.json", arbo_doc(bare_3214()))
    for bad in ("0", "-3"):
        assert main(["count", "--perm", perm_file, "--tree", tree_file,
                     "--block-size", bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # A block larger than the permutation is one block: everything is box,
    # also for a block size that no int64 holds.
    for big in ("9", str(2 ** 63)):
        assert main(["count", "--perm", perm_file, "--tree", tree_file,
                     "--block-size", big]) == 0
        assert capsys.readouterr().out.strip() == "2"


def test_count_general_roots_any_twin_tree(write, capsys):
    perm_file = write("p.txt", "2 1 3")
    # Every rooting of a twin tree counts the same, so neither a cherry with
    # opposite vertical labels (no all-west rooting) nor a chain whose west
    # maximum is its last node needs a particular root.
    cherry = {"type": "sn_polytree", "nodes": [0, 1, 2],
              "edges": [[0, 1, "S"], [2, 1, "N"]]}
    chain = {"type": "sn_polytree", "nodes": [0, 1, 2],
             "edges": [[2, 1, "S"], [1, 0, "N"]]}
    for name, doc in (("cherry", cherry), ("chain", chain)):
        tree_file = write(f"{name}.json", doc)
        expected = naive_morphism_count(
            as_double_poset(parse_tree_spec(doc)), perm([2, 1, 3]))
        for algorithm in ("auto", "general"):
            assert main(["count", "--perm", perm_file, "--tree", tree_file,
                         "--algorithm", algorithm]) == 0
            assert int(capsys.readouterr().out) == expected, (name, algorithm)
    # stream is no algorithm name: argparse rejects it with exit code 2.
    for argv in (["count", "--perm", perm_file, "--tree", tree_file],
                 ["bench", "--n", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--algorithm", "stream"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'stream'" in err and "Traceback" not in err


def test_count_parse_failures(write):
    tree_file = write("t.json", SE_TREE)
    assert main(["count", "--perm", write("bad.txt", "1 1 2"),
                 "--tree", tree_file]) == 2
    perm_file = write("p.txt", "1 2 3")
    assert main(["count", "--perm", perm_file,
                 "--tree", write("broken.json", "{not json")]) == 2
    assert main(["count", "--perm", perm_file,
                 "--tree", write("unknown.json", {"type": "mystery"})]) == 2
    assert main(["count", "--perm", "/nonexistent/p.txt",
                 "--tree", tree_file]) == 2


@pytest.mark.parametrize("n", [-1, 4.5, 4.0, True, "4", None])
@pytest.mark.parametrize("kind", ["double_poset", "arbo_ne"])
def test_bad_ground_set_size(kind, n, write, capsys):
    # bare 3214 with n = 4 is valid; n = -1 fails only with empty orders.
    doc = dict(arbo_doc(bare_3214()), type=kind, n=n)
    if n == -1:
        doc.update(west=[], south=[])
    tree_file = write("d.json", doc)
    assert main(["validate", "--tree", tree_file]) == 2
    assert main(["count", "--perm", write("p.txt", "2 1 3"),
                 "--tree", tree_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 70])
@pytest.mark.parametrize("kind", ["double_poset", "arbo_ne"])
def test_huge_ground_set_hits_size_cap(kind, n, write, capsys):
    # Python refuses both list sizes (MemoryError, OverflowError) before it
    # allocates anything.
    doc = dict(arbo_doc(bare_3214()), type=kind, n=n, west=[], south=[])
    tree_file = write("d.json", doc)
    assert main(["validate", "--tree", tree_file]) == 3
    assert main(["count", "--perm", write("p.txt", "2 1 3"),
                 "--tree", tree_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("anchors", [
    {"one": False}, {"one": 0.0}, {"two": True}, {"three": "2"},
    {"four": 3.0}, {"two": 1.5}, [0, 1, 2, 3]])
def test_bad_anchor(anchors, write, capsys):
    # bare 3214 has anchors 0, 1, 2, 3; each case spoils one of them.  A
    # null `two` is valid (test_roundtrip_all_types).
    doc = arbo_doc(bare_3214())
    doc["anchors"] = dict(doc["anchors"], **anchors) \
        if isinstance(anchors, dict) else anchors
    tree_file = write("a.json", doc)
    assert main(["validate", "--tree", tree_file]) == 2
    assert main(["count", "--perm", write("p.txt", "2 1 3"),
                 "--tree", tree_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("pair", [[False, True], [0, True], [0.0, 1], [0, "1"]])
@pytest.mark.parametrize("kind", ["double_poset", "arbo_ne"])
def test_bad_relation_pair(kind, pair, write, capsys):
    # bare 3214's first west pair is [0, 1]; each case spells it with a
    # non-integer, which must not be read as the pair (0, 1).
    doc = dict(arbo_doc(bare_3214()), type=kind)
    assert doc["west"][0] == [0, 1]
    doc["west"] = [pair] + doc["west"][1:]
    tree_file = write("d.json", doc)
    assert main(["validate", "--tree", tree_file]) == 2
    assert main(["count", "--perm", write("p.txt", "2 1 3"),
                 "--tree", tree_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err


def test_count_member_by_block_whatever_its_type(write, capsys):
    # A family member written as a plain double poset counts by block, under
    # auto and under --algorithm block, and agrees with its arbo_ne file.
    arbo = build_arbo(True, (1,))
    values = list(range(1, 1001))
    random.Random(5).shuffle(values)
    perm_file = write("p.txt", " ".join(map(str, values)))
    plain = dict(arbo_doc(arbo), type="double_poset")
    del plain["anchors"]
    runs = [(write("a.json", arbo_doc(arbo)), "auto"),
            (write("d.json", plain), "auto"),
            (write("d.json", plain), "block")]
    docs = []
    for tree_file, algorithm in runs:
        assert main(["count", "--perm", perm_file, "--tree", tree_file,
                     "--algorithm", algorithm, "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert {d["algorithm"] for d in docs} == {"block"}
    assert len({d["count"] for d in docs}) == 1


def test_arbo_anchors_must_match_the_double_poset(write, capsys):
    # build_arbo(True, (1,)) hangs element 4 below two = 1; naming it `two`
    # disagrees with the spine read off the double poset.
    doc = arbo_doc(build_arbo(True, (1,)))
    doc["anchors"]["two"] = 4
    tree_file = write("a.json", doc)
    assert main(["validate", "--tree", tree_file]) == 2
    assert main(["count", "--perm", write("p.txt", "2 1 3"),
                 "--tree", tree_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err
    assert "disagree" in err


def test_count_naive_on_plain_double_poset(write, capsys):
    perm_file = write("p.txt", "2 1 3")
    doc = {"type": "double_poset", "n": 2, "west": [[0, 1]], "south": []}
    assert main(["count", "--perm", perm_file,
                 "--tree", write("d.json", doc)]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "3"  # pairs ordered by position: C(3,2) = 3
    assert "naive" in err


def test_pattern_vector_cherry(write, capsys):
    cherry = {"type": "corner_tree", "root": 0, "nodes": [0, 1, 2],
              "edges": [[0, 1, "NE"], [0, 2, "NE"]]}
    assert main(["pattern-vector", "--tree", write("c.json", cherry)]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"1 2": 1, "1 2 3": 2, "1 3 2": 2}


def test_pattern_vector_level5(write, capsys):
    arbo = level5_arbos()[0]
    assert main(["pattern-vector", "--tree",
                 write("a.json", arbo_doc(arbo))]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"1 4 3 2 5": 1, "2 4 3 1 5": 1, "3 4 2 1 5": 1}


def test_pattern_vector_single_node(write, capsys):
    doc = {"type": "sn_polytree", "nodes": ["x"], "edges": []}
    assert main(["pattern-vector", "--tree", write("s.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {"1": 1}


def test_pattern_vector_size_cap(write):
    doc = tree_spec_to_dict(perm_to_dp(perm([1, 2, 3, 4, 5, 6, 7])))
    assert main(["pattern-vector", "--tree", write("big.json", doc)]) == 3


def test_pattern_vector_cap_precedes_the_closure(monkeypatch, write, capsys):
    from patterncount import core

    def refused(*args):
        raise AssertionError("the cap check came after a closure")

    monkeypatch.setattr(core, "transitive_closure", refused)
    path = CornerTree(0, tuple((i, i + 1, "SW") for i in range(2999)))
    doc = write("path.json", tree_spec_to_dict(path))
    assert main(["pattern-vector", "--tree", doc]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and "cap is 6" in err


def test_rank_level2(write, capsys):
    assert main(["rank", "--max-level", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim_span": 3, "dim_top": 2,
                                                   "dim_top_strict": 2}


def test_rank_level5_with_new_directions(capsys):
    assert main(["rank", "--max-level", "5", "--include-new"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim_span": 138, "dim_top": 106,
                                                   "dim_top_strict": 105}


def test_rank_cap(monkeypatch, capsys):
    from patterncount import algebra

    def no_family(*args):
        raise AssertionError("the family was built before the cap check")

    monkeypatch.setattr(algebra, "twin_tree_family", no_family)
    assert main(["rank", "--max-level", "6"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("level", ["0", "-2"])
def test_rank_level_below_one(level, capsys):
    assert main(["rank", "--max-level", level]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_validate_twin_tree(write, capsys):
    doc = {"type": "sn_polytree", "nodes": ["a", "b", "c", "e"],
           "edges": [["c", "a", "S"], ["c", "b", "N"], ["b", "e", "S"]]}
    assert main(["validate", "--tree", write("t.json", doc)]) == 0
    out = capsys.readouterr().out
    assert "twin_tree: true" in out


def test_validate_arbo(write, capsys):
    doc = arbo_doc(build_arbo(True, (0,)))
    plain = dict(doc, type="double_poset")
    del plain["anchors"]
    for tree_doc in (doc, plain):
        assert main(["validate", "--tree", write("a.json", tree_doc)]) == 0
        out = capsys.readouterr().out
        assert "arbo_ne: valid" in out
        assert "twin_tree: false" in out and "tree: true" in out
    assert main(["validate", "--tree", write("t.json", SE_TREE)]) == 0
    assert "arbo_ne" not in capsys.readouterr().out


def test_validate_takes_a_member_as_it_stands(monkeypatch, write, capsys):
    # An arbo_ne document is validated once, on load; a double_poset
    # document once, by the member test; a tree document never.
    from patterncount import gen3214

    calls = []
    real = gen3214.validate_arbo
    monkeypatch.setattr(gen3214, "validate_arbo",
                        lambda dp: calls.append(dp) or real(dp))
    doc = arbo_doc(build_arbo(True, (0,)))
    plain = dict(doc, type="double_poset")
    del plain["anchors"]
    for tree_doc, member in ((doc, True), (plain, True), (SE_TREE, False)):
        calls.clear()
        assert main(["validate", "--tree", write("a.json", tree_doc)]) == 0
        assert ("arbo_ne: valid" in capsys.readouterr().out) == member
        assert len(calls) == member


def test_validate_reduces_each_order_once(monkeypatch, write, capsys):
    # classify and the member test of a double_poset document share each
    # order's covers; an arbo_ne document reduces its orders on load only.
    from patterncount import core

    calls = []
    real = core.transitive_reduction
    monkeypatch.setattr(core, "transitive_reduction",
                        lambda p: calls.append(p) or real(p))
    doc = arbo_doc(build_arbo(True, (0, 4, 2)))
    plain = dict(doc, type="double_poset")
    del plain["anchors"]
    for tree_doc in (doc, plain):
        calls.clear()
        assert main(["validate", "--tree", write("a.json", tree_doc)]) == 0
        assert "arbo_ne: valid" in capsys.readouterr().out
        assert len(calls) == 2 and calls[0] is not calls[1]


def test_a_deep_member_document_restricts_no_double_poset(monkeypatch, write,
                                                          capsys):
    # The 604-element deep member, as an arbo_ne and as a double_poset
    # document: validate and count read its tree off its Hasse pairs, and
    # nothing restricts a double poset.
    from patterncount import core

    def refused(*args):
        raise AssertionError("a double poset was restricted")

    monkeypatch.setattr(core.DoublePoset, "restrict", refused)
    doc = arbo_doc(build_arbo(True, (0, 4, *range(5, 603))))
    plain = dict(doc, type="double_poset")
    del plain["anchors"]
    perm_file = write("p.txt", "3 1 2 5 4")
    for i, tree_doc in enumerate((doc, plain)):
        tree_file = write(f"m{i}.json", tree_doc)
        assert main(["validate", "--tree", tree_file]) == 0
        assert capsys.readouterr() == (
            "elements: 604\ntwin: false\ntree: true\ntwin_tree: false\n"
            "permutation: false\narbo_ne: valid\n", "")
        assert main(["count", "--json", "--perm", perm_file,
                     "--tree", tree_file]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert {k: v for k, v in json.loads(out).items() if k != "elapsed_ms"} \
            == {"count": 0, "algorithm": "block", "n": 5, "block_size": 3}


def _refuse_closure(monkeypatch):
    from patterncount import core

    def refused(*args):
        raise AssertionError("an order was closed")

    monkeypatch.setattr(core, "transitive_closure", refused)


def test_validate_reads_a_tree_off_its_edges(monkeypatch, write, capsys):
    path = CornerTree(0, tuple((i, i + 1, "SW") for i in range(11_999)))
    zigzag = CornerTree(0, tuple(
        (i, i + 1, lab) for i, lab in enumerate((["NW", "SE"] * 600)[:1199])))
    files = [write(f"t{i}.json", tree_spec_to_dict(t))
             for i, t in enumerate((path, zigzag))]
    _refuse_closure(monkeypatch)
    assert main(["validate", "--tree", files[0]]) == 0
    assert capsys.readouterr().out == (
        "elements: 12000\ntwin: true\ntree: true\ntwin_tree: true\n"
        "permutation: true\n")
    assert main(["validate", "--tree", files[1]]) == 0
    assert capsys.readouterr().out == (
        "elements: 1200\ntwin: true\ntree: true\ntwin_tree: true\n"
        "permutation: false\n")


def test_naive_budget_precedes_the_closure(monkeypatch, write, capsys):
    path = CornerTree(0, tuple((i, i + 1, "SW") for i in range(1199)))
    perm_file = write("p.txt", "3 1 2 5 4")
    tree_file = write("t.json", tree_spec_to_dict(path))
    _refuse_closure(monkeypatch)
    assert main(["count", "--perm", perm_file, "--tree", tree_file,
                 "--algorithm", "naive"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and "budget" in err


def test_tree_file_not_utf8(write, capsys, tmp_path):
    tree_file = tmp_path / "t.json"
    tree_file.write_bytes(b"\xff\xfe")
    perm_file = write("p.txt", "2 1 3")
    for argv in (["validate"], ["count", "--perm", perm_file],
                 ["pattern-vector"]):
        assert main([*argv, "--tree", str(tree_file)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_selftest_deterministic(write, capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count(": pass") == 7


def test_selftest_checks_the_exact_block_path(monkeypatch, capsys):
    from patterncount import gen3214

    real = gen3214._gated_block
    monkeypatch.setattr(gen3214, "_gated_block",
                        lambda *args: real(*args) + 1)
    assert main(["selftest"]) == 1
    assert "block-vs-pattern-oracle: FAIL" in capsys.readouterr().out


def test_deep_corner_tree_counts(write, capsys):
    # A 1200-node path lies far beyond Python's recursion limit.
    labels = (["NW", "SE"] * 600)[:1199]
    tree = CornerTree(0, tuple((i, i + 1, lab) for i, lab in enumerate(labels)))
    pi = perm([3, 1, 2, 5, 4])
    expected = sum(corner_tree_profiles(pi, tree)[0][0])
    perm_file = write("p.txt", "3 1 2 5 4")
    tree_file = write("t.json", tree_spec_to_dict(tree))
    for algorithm in ("auto", "general"):
        assert main(["count", "--perm", perm_file, "--tree", tree_file,
                     "--algorithm", algorithm]) == 0
        assert capsys.readouterr().out == f"{expected}\n"


def test_deep_path_counts_from_its_edges(write, capsys):
    # 12 000 nodes: closing the path's two orders would take 72 million
    # pairs each; the tree path reads its bound off the edges instead.
    path = CornerTree(0, tuple((i, i + 1, "SW") for i in range(11_999)))
    perm_file = write("p.txt", "3 1 2 5 4")
    tree_file = write("t.json", tree_spec_to_dict(path))
    assert main(["count", "--perm", perm_file, "--tree", tree_file]) == 0
    assert capsys.readouterr().out == "0\n"


def test_selftest_failure_exits_one(monkeypatch, capsys):
    from patterncount import counting

    real = counting.count_corner_tree
    monkeypatch.setattr(counting, "count_corner_tree",
                        lambda pi, ct: real(pi, ct) + 1)
    assert main(["selftest"]) == 1
    assert "corner-tree-vs-morphisms: FAIL" in capsys.readouterr().out


def test_selftest_reaches_the_split_levels(monkeypatch, capsys):
    # Only the corner-tree-vs-profiles line counts in sequences above 64.
    from patterncount import _fast

    real = _fast._SplitSchedule.key_prefix
    monkeypatch.setattr(_fast._SplitSchedule, "key_prefix",
                        lambda self, x: real(self, x) + (self.t > 64))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "corner-tree-vs-profiles: FAIL" in out and out.count("FAIL") == 1


@pytest.mark.parametrize("sizes", [["-5", "0"], ["3", "0"]])
def test_bench_size_below_one(sizes, capsys):
    assert main(["bench", "--algorithm", "general", "--n", *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_bench_smoke(capsys):
    # general is the default algorithm.
    assert main(["bench", "--n", "2000"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 1
    n, algo, ms = rows[0].split(",")
    assert n == "2000" and algo == "general" and float(ms) >= 0
    assert main(["bench", "--algorithm", "block", "--n", "1200", "1500"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert [r.split(",")[0] for r in rows] == ["1200", "1500"]


def test_roundtrip_all_types():
    samples = [
        CornerTree("r", (("r", "a", "SE"), ("a", "b", "NE"))),
        SNPolytree((0, 1, 2), ((2, 0, "N"), (2, 1, "S"))),
        double_poset(3, [(0, 1)], [(2, 1)]),
        bare_3214(),
        build_arbo(False, (0, 1)),
    ]
    for value in samples:
        doc = json.loads(json.dumps(tree_spec_to_dict(value)))
        assert parse_tree_spec(doc) == value


def test_bench_imports_numpy_before_the_first_timing():
    code = ("import sys\n"
            "from patterncount import cli\n"
            "timed = cli.bench_once\n"
            "def first(*args):\n"
            "    print('patterncount._fast' in sys.modules)\n"
            "    cli.bench_once = timed\n"
            "    return timed(*args)\n"
            "cli.bench_once = first\n"
            "cli.main(['bench', '--algorithm', 'general', '--n', '50', '60'])\n")
    src = str(Path(patterncount.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "True" and len(lines) == 3, out


def test_import_does_not_load_numpy():
    code = ("import sys, patterncount, patterncount.cli; "
            "print('numpy' in sys.modules)")
    src = str(Path(patterncount.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
