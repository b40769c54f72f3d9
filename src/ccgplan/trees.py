"""Derivation trees: the engine's unit of output and deduplication.

Every tree answers ``.kind``, ``.cat`` and ``.kids``: a leaf has no
combinator and no children, a node has ``kind.arity`` children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence, Union

from .categories import Category
from .rules import CombinatorKind, valid_instance


@dataclass(frozen=True)
class Leaf:
    word: str | None
    cat: Category
    pos: int
    kind: ClassVar[None] = None
    kids: ClassVar[tuple] = ()


@dataclass(frozen=True)
class Node:
    kind: CombinatorKind
    cat: Category
    kids: tuple["DerivationTree", ...]

    def __eq__(self, other):
        """Field-wise equality, as the dataclass would give, walked with a
        stack: a right-branching tree of ``lexicon.MAX_TOKENS`` leaves is
        deeper than Python's default recursion limit lets a recursive
        comparison go. The generated ``__hash__`` is kept."""
        if other.__class__ is not Node:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is Leaf:
                if a != b:
                    return False
            elif a.kind != b.kind or a.cat != b.cat or len(a.kids) != len(b.kids):
                return False
            else:
                pairs.extend(zip(a.kids, b.kids))
        return True

    def __repr__(self):
        """The dataclass repr, written from a stack for the same reason as
        ``__eq__``."""
        parts = []
        todo = [self]
        while todo:
            t = todo.pop()
            if t.__class__ is not Node:
                parts.append(t if t.__class__ is str else repr(t))
                continue
            pieces = [f"Node(kind={t.kind!r}, cat={t.cat!r}, kids=("]
            for i, kid in enumerate(t.kids):
                pieces += [", ", kid] if i else [kid]
            pieces.append(",))" if len(t.kids) == 1 else "))")
            # pushed in reverse, so they pop in reading order
            todo.extend(reversed(pieces))
        return "".join(parts)


DerivationTree = Union[Leaf, Node]


def as_forest(parse: DerivationTree | Sequence[DerivationTree]) -> tuple[DerivationTree, ...]:
    """A tree as a one-tree forest; a forest as it stands."""
    if isinstance(parse, (Leaf, Node)):
        return (parse,)
    return tuple(parse)


def leaves(t: DerivationTree) -> tuple[Leaf, ...]:
    if isinstance(t, Leaf):
        return (t,)
    out: list[Leaf] = []
    for c in t.kids:
        out.extend(leaves(c))
    return tuple(out)


def tree_height(t: DerivationTree) -> int:
    """Internal-node height: 0 for a leaf, 1 + max child height otherwise.

    Equals the length of the tree's canonical concurrent plan.
    """
    if isinstance(t, Leaf):
        return 0
    return 1 + max(tree_height(c) for c in t.kids)


def attach_words(t: DerivationTree, words: Mapping[int, str]) -> DerivationTree:
    """Return an equal-shaped tree whose leaves carry the given words."""
    if isinstance(t, Leaf):
        return Leaf(words.get(t.pos, t.word), t.cat, t.pos)
    return Node(t.kind, t.cat, tuple([attach_words(c, words) for c in t.kids]))


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
    if not valid_instance(t.kind, tuple(c.cat for c in t.kids), t.cat):
        return False
    return all(_check_nodes(c) for c in t.kids)
