"""Derivation trees: the engine's unit of output and deduplication."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .categories import Category
from .rules import CombinatorKind, valid_instance


@dataclass(frozen=True)
class Leaf:
    word: str | None
    cat: Category
    pos: int


@dataclass(frozen=True)
class Unary:
    kind: CombinatorKind
    cat: Category
    child: "DerivationTree"


@dataclass(frozen=True)
class Binary:
    kind: CombinatorKind
    cat: Category
    left: "DerivationTree"
    right: "DerivationTree"


@dataclass(frozen=True)
class Ternary:
    kind: CombinatorKind
    cat: Category
    left: "DerivationTree"
    mid: "DerivationTree"
    right: "DerivationTree"


DerivationTree = Union[Leaf, Unary, Binary, Ternary]


def build_node(kind: CombinatorKind, cat: Category, kids: Sequence[DerivationTree]) -> DerivationTree:
    """The internal node of one, two or three children."""
    if len(kids) == 1:
        return Unary(kind, cat, kids[0])
    if len(kids) == 2:
        return Binary(kind, cat, kids[0], kids[1])
    return Ternary(kind, cat, kids[0], kids[1], kids[2])


def as_forest(parse: DerivationTree | Sequence[DerivationTree]) -> tuple[DerivationTree, ...]:
    """A tree as a one-tree forest; a forest as it stands."""
    if isinstance(parse, (Leaf, Unary, Binary, Ternary)):
        return (parse,)
    return tuple(parse)


def children(t: DerivationTree) -> tuple[DerivationTree, ...]:
    if isinstance(t, Leaf):
        return ()
    if isinstance(t, Unary):
        return (t.child,)
    if isinstance(t, Binary):
        return (t.left, t.right)
    return (t.left, t.mid, t.right)


def leaves(t: DerivationTree) -> tuple[Leaf, ...]:
    if isinstance(t, Leaf):
        return (t,)
    out: list[Leaf] = []
    for c in children(t):
        out.extend(leaves(c))
    return tuple(out)


def node_count(t: DerivationTree) -> int:
    return 1 + sum(node_count(c) for c in children(t))


def tree_height(t: DerivationTree) -> int:
    """Internal-node height: 0 for a leaf, 1 + max child height otherwise.

    Equals the length of the tree's canonical concurrent plan.
    """
    if isinstance(t, Leaf):
        return 0
    return 1 + max(tree_height(c) for c in children(t))


def attach_words(t: DerivationTree, words: Mapping[int, str]) -> DerivationTree:
    """Return an equal-shaped tree whose leaves carry the given words."""
    if isinstance(t, Leaf):
        return Leaf(words.get(t.pos, t.word), t.cat, t.pos)
    if isinstance(t, Unary):
        return Unary(t.kind, t.cat, attach_words(t.child, words))
    if isinstance(t, Binary):
        return Binary(t.kind, t.cat, attach_words(t.left, words), attach_words(t.right, words))
    return Ternary(
        t.kind, t.cat, attach_words(t.left, words), attach_words(t.mid, words), attach_words(t.right, words)
    )


def check_tree(t: DerivationTree) -> bool:
    """True iff every internal node's category re-derives from its children
    and leaf positions read off strictly left to right."""
    positions = [lf.pos for lf in leaves(t)]
    if positions != sorted(positions) or len(set(positions)) != len(positions):
        return False
    return _check_nodes(t)


def _check_nodes(t: DerivationTree) -> bool:
    if isinstance(t, Leaf):
        return True
    kids = children(t)
    if not valid_instance(t.kind, tuple(c.cat for c in kids), t.cat):
        return False
    return all(_check_nodes(c) for c in kids)
