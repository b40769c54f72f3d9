import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ccgplan import (
    Atom,
    CombinatorKind,
    Functor,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    parse_all,
    parse_category,
    print_category,
    tag_with_lexicon,
    to_ascii,
    to_dot,
    to_json,
    tree_from_json,
)
from ccgplan.cli import _render_documents

C = parse_category
K = CombinatorKind

GOLDEN_ASCII = """\
The   dog  bit        John
NP/N  N    (S\\NP)/NP  NP
-------->  -------------->
NP         S\\NP
-------------------------<
S"""


def golden(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    (tree,) = parse_all(ts, RuleConfig(), ParseGoal.strict())
    return tree


def test_ascii_golden_layout(demo_lexicon):
    assert to_ascii(golden(demo_lexicon)) == GOLDEN_ASCII


def test_ascii_labels_read_bottom_up(demo_lexicon):
    text = to_ascii(golden(demo_lexicon))
    labels = re.findall(r"-+(>B|<B|>T|<T|<Bx|<Sx|&|>|<)", text)
    assert labels == [">", ">", "<"]


def test_ascii_single_leaf():
    assert to_ascii(Leaf("John", C("NP"), 4)) == "John\nNP"


def test_ascii_forest_side_by_side():
    forest = (Leaf("a", C("N"), 1), Leaf("b", C("N"), 2))
    assert to_ascii(forest) == "a  b\nN  N"


def test_ascii_wide_category_over_narrow_leaf():
    tree = Node(K.FWD_RAISE, C(r"S/(S\NP)"), (Leaf("it", C("NP"), 1),))
    lines = to_ascii(tree).splitlines()
    assert lines[-1] == r"S/(S\NP)"
    assert lines[-2].endswith(">T")


def test_json_leaf_fields():
    doc = json.loads(to_json(Leaf("John", C("NP"), 4)))
    assert doc == {"kind": "Leaf", "category": "NP", "pos": 4, "word": "John", "children": []}


def test_json_root_of_golden(demo_lexicon):
    doc = json.loads(to_json(golden(demo_lexicon)))
    assert doc["kind"] == "BwdAppl"
    assert doc["category"] == "S"
    assert len(doc["children"]) == 2


def test_json_round_trip_golden(demo_lexicon):
    tree = golden(demo_lexicon)
    assert tree_from_json(to_json(tree)) == tree


_atoms = st.sampled_from(["S", "NP", "N", "PP"])
_cats = st.recursive(
    st.builds(Atom, _atoms),
    lambda inner: st.builds(Functor, inner, inner, st.booleans()),
    max_leaves=4,
)
_words = st.none() | st.text(alphabet="abcdefg", min_size=1, max_size=5)
_leaves = st.builds(Leaf, _words, _cats, st.integers(1, 99))
_unary_kinds = st.sampled_from([K.FWD_RAISE, K.BWD_RAISE])
_binary_kinds = st.sampled_from([K.FWD_APPL, K.BWD_APPL, K.FWD_COMP, K.BWD_COMP, K.BWD_XCOMP, K.BWD_XSUBST])


def _internal(children):
    return st.one_of(
        st.builds(Node, _unary_kinds, _cats, st.tuples(children)),
        st.builds(Node, _binary_kinds, _cats, st.tuples(children, children)),
        st.builds(Node, st.just(K.COORD), _cats, st.tuples(children, children, children)),
    )


_trees = st.recursive(_leaves, _internal, max_leaves=6)


@given(_trees)
def test_json_round_trip_random_trees(tree):
    assert tree_from_json(to_json(tree)) == tree


@given(_trees)
def test_formats_agree_on_node_count(tree):
    def tree_nodes(t):
        return 1 + sum(tree_nodes(c) for c in t.kids)

    dot = to_dot(tree)
    count = tree_nodes(tree)
    assert len(re.findall(r"^\s*n\d+ \[label=", dot, flags=re.M)) == count
    assert len(re.findall(r"->", dot)) == count - 1

    def json_nodes(obj):
        return 1 + sum(json_nodes(c) for c in obj["children"])

    assert json_nodes(json.loads(to_json(tree))) == count


# any word a token may carry: empty, non-ASCII, control characters, quotes
# and backslashes, which JSON escapes
_any_words = st.none() | st.text(
    alphabet=st.sampled_from('ab "\\/\x00\x1f\x7f\n\té€\u2028😀') | st.characters(), max_size=6
)


_any_trees = st.recursive(st.builds(Leaf, _any_words, _cats, st.integers(0, 10**6)), _internal, max_leaves=6)


def _reference_obj(t):
    if isinstance(t, Leaf):
        obj = {"kind": "Leaf", "category": print_category(t.cat), "pos": t.pos, "children": []}
        if t.word is not None:
            obj["word"] = t.word
        return obj
    return {"kind": t.kind.value, "category": print_category(t.cat), "children": [_reference_obj(c) for c in t.kids]}


@given(_any_trees)
@example(Leaf('a"b\\c\x01é😀', C(r"S\NP"), 1))
def test_json_bytes_match_the_json_module(tree):
    assert to_json(tree) == json.dumps(_reference_obj(tree), indent=2, sort_keys=True)


@given(st.lists(_any_trees, max_size=3))
@example([])
def test_forest_document_bytes_match_the_json_module(forest):
    (doc,) = _render_documents({tuple(forest)}, "json")
    assert doc == json.dumps([_reference_obj(t) for t in forest], indent=2, sort_keys=True)
    assert to_json(tuple(forest)) == doc


# few trees, which forests share and whose documents differ late, if at
# all: one leaf's document runs on where another's ends, at positions 1 and 10
_near_leaves = st.sampled_from([Leaf(w, C(c), pos) for w in (None, "a") for c in ("NP", "S") for pos in (1, 10)])
_forests_of_equal_length = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_near_leaves | _internal(_near_leaves), min_size=n, max_size=n), max_size=6)
)


@given(_forests_of_equal_length)
@example([[Leaf(None, C("NP"), 1), Leaf(None, C("S"), 1)], [Leaf(None, C("NP"), 10), Leaf(None, C("NP"), 1)]])
def test_forests_of_equal_length_sort_by_document_as_by_their_trees_documents(forests):
    # the CLI orders a best-effort answer, whose forests all have the
    # residue's length, by each forest's document
    by_document = sorted(forests, key=lambda forest: to_json(tuple(forest)))
    by_trees = sorted(forests, key=lambda forest: tuple(to_json(t) for t in forest))
    assert by_document == by_trees


def test_dot_escapes_backslashes(demo_lexicon):
    dot = to_dot(golden(demo_lexicon))
    assert r"S\\NP" in dot
    assert "digraph" in dot and dot.rstrip().endswith("}")


def test_dot_leaf_label_includes_word():
    dot = to_dot(Leaf("John", C("NP"), 4))
    assert 'label="John\\nNP"' in dot


def test_dot_stable_ids(demo_lexicon):
    assert to_dot(golden(demo_lexicon)) == to_dot(golden(demo_lexicon))
    assert to_dot(golden(demo_lexicon)).splitlines()[2].startswith("  n0 ")


_LEAF = {"kind": "Leaf", "category": "NP", "pos": 1, "children": []}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([_LEAF], "tree node must be an object"),
        ({**_LEAF, "children": [{**_LEAF, "pos": 2}]}, "a leaf may not have children"),
        ({"kind": "Sideways", "category": "S", "children": [_LEAF]}, "unknown node kind 'Sideways'"),
        ({"kind": "FwdAppl", "category": "S", "children": [_LEAF]}, "FwdAppl node needs 2 children, found 1"),
        ({"kind": "Leaf", "category": "NP", "children": []}, "a leaf's pos must be an integer, found None"),
        ({**_LEAF, "pos": 1.7}, "a leaf's pos must be an integer, found 1.7"),
        ({**_LEAF, "pos": True}, "a leaf's pos must be an integer, found True"),
        ({**_LEAF, "children": 5}, "a node's children must be a list, found 5"),
        ({**_LEAF, "category": 5}, "a node's category must be a string, found 5"),
        ({"kind": "FwdAppl", "children": [_LEAF, _LEAF]}, "a node's category must be a string, found None"),
        ({**_LEAF, "word": 5}, "a leaf's word must be a string, found 5"),
        ({**_LEAF, "word": None}, "a leaf's word must be a string, found None"),
    ],
)
def test_tree_from_json_rejects_malformed_documents(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tree_from_json(json.dumps(obj))


def test_tree_from_json_rejects_a_document_nested_too_deeply():
    leaf = json.dumps(_LEAF)
    deep = '{"kind": "FwdRaise", "category": "S", "children": [' * 5000 + leaf + "]}" * 5000
    with pytest.raises(ValueError, match="nested too deeply"):
        tree_from_json(deep)
