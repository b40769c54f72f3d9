"""Derivation trees: ``check_tree`` rejects unsound trees, and the tree
helpers keep a tree's shape."""

import dataclasses
import sys

import pytest

from ccgplan import (
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    attach_words,
    canonical_plan,
    check_tree,
    leaves,
    parse_all,
    parse_category,
    to_ascii,
    to_dot,
    to_json,
    tree_from_json,
)
from ccgplan.lexicon import MAX_TOKENS
from ccgplan.trees import as_forest, tree_height

C = parse_category
K = CombinatorKind


def _np(det=1, noun=2):
    return Node(K.FWD_APPL, C("NP"), (Leaf(None, C("NP/N"), det), Leaf(None, C("N"), noun)))


def _coordination(raised=r"S/(S\NP)"):
    """*John and Mary left*, the subjects raised and then coordinated."""
    john, conj, mary = Leaf(None, C("NP"), 1), Leaf(None, C("conj"), 2), Leaf(None, C("NP"), 3)
    both = Node(
        K.COORD,
        C(r"S/(S\NP)"),
        (Node(K.FWD_RAISE, C(raised), (john,)), conj, Node(K.FWD_RAISE, C(r"S/(S\NP)"), (mary,))),
    )
    return Node(K.FWD_APPL, C("S"), (both, Leaf(None, C(r"S\NP"), 4)))


def _shape(t):
    return (t.kind, t.cat, tuple(_shape(k) for k in t.kids))


def test_sound_trees_pass():
    assert check_tree(Leaf(None, C("NP"), 1))
    assert check_tree(_np())
    assert check_tree(_coordination())
    # a raise is checked against the target it names, configured or not
    assert check_tree(Node(K.BWD_RAISE, C(r"PP\(PP/NP)"), (Leaf(None, C("NP"), 1),)))


BAD_TREES = {
    "category does not re-derive": Node(K.FWD_APPL, C("S"), _np().kids),
    "wrong combinator": Node(K.BWD_APPL, C("NP"), _np().kids),
    "bad category below the root": _coordination(raised=r"S/(S\N)"),
    "forward raise with a forward inner slash": Node(K.FWD_RAISE, C("S/(S/NP)"), (Leaf(None, C("NP"), 1),)),
    "backward raise with a forward outer slash": Node(K.BWD_RAISE, C(r"S/(S\NP)"), (Leaf(None, C("NP"), 1),)),
    "raise whose inner result differs": Node(K.FWD_RAISE, C(r"S/(PP\NP)"), (Leaf(None, C("NP"), 1),)),
    "coordination without conj": Node(
        K.COORD, C("NP"), (Leaf(None, C("NP"), 1), Leaf(None, C("NP"), 2), Leaf(None, C("NP"), 3))
    ),
    "coordination of unlike conjuncts": Node(
        K.COORD, C("NP"), (Leaf(None, C("NP"), 1), Leaf(None, C("conj"), 2), Leaf(None, C("N"), 3))
    ),
    "leaves out of order": _np(det=2, noun=1),
    "repeated leaf position": _np(det=1, noun=1),
    "> with three children": Node(K.FWD_APPL, C("NP"), _np().kids + (Leaf(None, C("N"), 3),)),
    "& with two children": Node(K.COORD, C("NP"), (Leaf(None, C("NP"), 1), Leaf(None, C("NP"), 2))),
    ">T with two children": Node(K.FWD_RAISE, C(r"S/(S\NP)"), (Leaf(None, C("NP"), 1), Leaf(None, C("NP"), 2))),
}


@pytest.mark.parametrize("name", sorted(BAD_TREES))
def test_check_tree_rejects(name):
    assert not check_tree(BAD_TREES[name])


def test_attach_words_keeps_the_shape_and_fills_every_leaf():
    tree = _coordination()
    words = {1: "John", 2: "and", 3: "Mary", 4: "left"}
    worded = attach_words(tree, words)
    assert _shape(worded) == _shape(tree)
    assert [(lf.word, lf.pos) for lf in leaves(worded)] == [(w, p) for p, w in words.items()]
    assert attach_words(worded, dict.fromkeys(words)) == tree
    partial = attach_words(tree, {4: "left"})
    assert [lf.word for lf in leaves(partial)] == [None, None, None, "left"]


def test_as_forest():
    node, leaf = _np(), Leaf("it", C("NP"), 3)
    assert as_forest(node) == (node,)
    assert as_forest(leaf) == (leaf,)
    assert as_forest((node, leaf)) == (node, leaf)
    assert as_forest([leaf]) == (leaf,)


def test_a_leaf_answers_kind_and_kids_without_new_fields():
    leaf = Leaf("it", C("NP"), 3)
    assert (leaf.kind, leaf.kids) == (None, ())
    assert [f.name for f in dataclasses.fields(Leaf)] == ["word", "cat", "pos"]
    assert repr(leaf) == "Leaf(word='it', cat=Atom(name='NP'), pos=3)"


@dataclasses.dataclass(frozen=True)
class _GeneratedRepr:
    """A ``Node`` twin that keeps the dataclass-generated repr."""

    kind: CombinatorKind
    cat: object
    kids: tuple


def _generated_repr(t):
    def twin(t):
        return t if isinstance(t, Leaf) else _GeneratedRepr(t.kind, t.cat, tuple(map(twin, t.kids)))

    return repr(twin(t)).replace(_GeneratedRepr.__name__, "Node")


def test_a_node_prints_as_the_dataclass_repr():
    for tree in [_np(), _coordination(), *BAD_TREES.values()]:
        assert repr(tree) == _generated_repr(tree)
    assert repr(_np()) == (
        "Node(kind=<CombinatorKind.FWD_APPL: 'FwdAppl'>, cat=Atom(name='NP'), kids=("
        "Leaf(word=None, cat=Functor(result=Atom(name='NP'), arg=Atom(name='N'), forward=True), pos=1), "
        "Leaf(word=None, cat=Atom(name='N'), pos=2)))"
    )


def _right_branching(n, last="NP"):
    """``NP/NP … NP/NP last`` under ``>``, one level per token."""
    tree = Leaf(None, C(last), n)
    for pos in range(n - 1, 0, -1):
        tree = Node(K.FWD_APPL, C("NP"), (Leaf(None, C("NP/NP"), pos), tree))
    return tree


def test_trees_up_to_the_token_bound_work_under_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree, twin = _right_branching(MAX_TOKENS), _right_branching(MAX_TOKENS)
        other = _right_branching(MAX_TOKENS, last="NP/NP")
        worded = attach_words(tree, {pos: f"w{pos}" for pos in range(1, MAX_TOKENS + 1)})
        assert [lf.word for lf in leaves(worded)] == [f"w{pos}" for pos in range(1, MAX_TOKENS + 1)]
        assert tree_height(tree) == MAX_TOKENS - 1
        assert len(leaves(tree)) == MAX_TOKENS
        assert check_tree(tree)
        assert len(canonical_plan(tree).steps) == MAX_TOKENS - 1
        assert to_ascii(tree).count("\n") > MAX_TOKENS
        assert to_dot(tree).count("->") == 2 * (MAX_TOKENS - 1)
        assert hash(tree) == hash(twin)
        assert tree == twin and tree is not twin
        assert tree != other and tree != worded
        assert {tree, other} == {twin, _right_branching(MAX_TOKENS, last="NP/NP")}
        assert tree_from_json(to_json(tree)) == tree
        assert repr(tree) == repr(twin) and repr(tree).count("Node(") == MAX_TOKENS - 1
        # the best-effort chart builds and unpacks the chain without recursing per token:
        # one NP, as it stands and raised six ways
        chain = [Token(f"w{pos}", (Candidate(leaf.cat),)) for pos, leaf in enumerate(leaves(tree), 1)]
        residue, forests = parse_all(TaggedSentence(tuple(chain)), RuleConfig(), ParseGoal.best_effort())
        assert (residue, len(forests)) == (1, 7)
        assert (worded,) in forests
    finally:
        sys.setrecursionlimit(limit)
