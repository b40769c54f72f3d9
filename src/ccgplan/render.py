"""Derivation rendering: fixed-width text, JSON documents, Graphviz DOT."""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Sequence

from .categories import parse_category, print_category
from .rules import CombinatorKind
from .trees import DerivationTree, Leaf, Node, as_forest

_GAP = 2


def to_ascii(parse: DerivationTree | Sequence[DerivationTree]) -> str:
    """Classic derivation layout: words, lexical categories, then one
    underline+category row pair per combination level. Each underline spans
    exactly the columns of its constituent's leaves, with the rule symbol
    at its right end. A forest renders side by side on the shared grid."""
    trees = as_forest(parse)
    leaf_rows: list[Leaf] = []
    internals: list[tuple[int, int, int, DerivationTree]] = []
    for t in trees:
        _place(t, leaf_rows, internals)

    widths = [
        max(len(leaf.word or ""), len(print_category(leaf.cat)))
        for leaf in leaf_rows
    ]
    internals.sort(key=lambda entry: (entry[0], entry[1]))
    for level, lo, hi, node in internals:
        span = sum(widths[lo : hi + 1]) + _GAP * (hi - lo)
        need = max(len(print_category(node.cat)), len(node.kind.symbol) + 1)
        if span < need:
            widths[hi] += need - span

    starts = []
    offset = 0
    for w in widths:
        starts.append(offset)
        offset += w + _GAP
    total = offset - _GAP if widths else 0

    def blank() -> list[str]:
        return [" "] * total

    def write(row: list[str], at: int, text: str) -> None:
        row[at : at + len(text)] = list(text)

    rows: list[list[str]] = []
    if any(leaf.word for leaf in leaf_rows):
        row = blank()
        for k, leaf in enumerate(leaf_rows):
            write(row, starts[k], leaf.word or "")
        rows.append(row)
    row = blank()
    for k, leaf in enumerate(leaf_rows):
        write(row, starts[k], print_category(leaf.cat))
    rows.append(row)

    max_level = max((entry[0] for entry in internals), default=0)
    for level in range(1, max_level + 1):
        line_row, cat_row = blank(), blank()
        for lvl, lo, hi, node in internals:
            if lvl != level:
                continue
            span = starts[hi] + widths[hi] - starts[lo]
            symbol = node.kind.symbol
            write(line_row, starts[lo], "-" * (span - len(symbol)) + symbol)
            write(cat_row, starts[lo], print_category(node.cat))
        rows.append(line_row)
        rows.append(cat_row)
    return "\n".join("".join(row).rstrip() for row in rows)


# ``_place`` and ``_dot_node`` are module-level and take their state as
# arguments: a nested function that calls itself refers to itself through
# its closure, a reference cycle that would keep the layout alive until the
# cyclic collector ran.


def _place(
    node: DerivationTree, leaf_rows: list[Leaf], internals: list[tuple[int, int, int, DerivationTree]]
) -> tuple[int, int, int]:
    """Append ``node``'s leaves to ``leaf_rows`` and its internal nodes to
    ``internals`` as (level, first leaf, last leaf, node); its own triple."""
    if isinstance(node, Leaf):
        ordinal = len(leaf_rows)
        leaf_rows.append(node)
        return ordinal, ordinal, 0
    spans = [_place(c, leaf_rows, internals) for c in node.kids]
    lo, hi = spans[0][0], spans[-1][1]
    level = 1 + max(s[2] for s in spans)
    internals.append((level, lo, hi, node))
    return lo, hi, level


def to_json(parse: DerivationTree | Sequence[DerivationTree]) -> str:
    """Canonical document of a tree, or of a forest as the list of its
    trees' documents; ``tree_from_json`` decodes a tree's back.

    The bytes are those ``json.dumps`` writes with a two-space indent and
    sorted keys, strings escaped to ASCII. They are written directly, since
    an indent puts ``json.dumps`` on its pure-Python encoder."""
    if isinstance(parse, (Leaf, Node)):
        return _json_object(parse, "\n")
    if not parse:
        return "[]"
    return "[\n  " + ",\n  ".join([_json_object(t, "\n  ") for t in parse]) + "\n]"


def _json_object(t: DerivationTree, pad: str) -> str:
    """One tree node's object, its closing brace on a line after ``pad``."""
    inner = pad + "  "
    if t.kids:
        kid_pad = inner + "  "
        children = f"[{kid_pad}{f',{kid_pad}'.join([_json_object(c, kid_pad) for c in t.kids])}{inner}]"
    else:
        children = "[]"
    if isinstance(t, Leaf):
        rest = f'"kind": "Leaf",{inner}"pos": {t.pos}'
        if t.word is not None:
            rest += f',{inner}"word": {_quote(t.word)}'
    else:
        rest = f'"kind": {_quote(t.kind.value)}'
    return f'{{{inner}"category": {_quote(print_category(t.cat))},{inner}"children": {children},{inner}{rest}{pad}}}'


def _tree_from_obj(obj) -> DerivationTree:
    if not isinstance(obj, dict):
        raise ValueError("tree node must be an object")
    kind_name = obj.get("kind")
    category, children = obj.get("category"), obj.get("children", [])
    if not isinstance(category, str):
        raise ValueError(f"a node's category must be a string, found {category!r}")
    if not isinstance(children, list):
        raise ValueError(f"a node's children must be a list, found {children!r}")
    cat = parse_category(category)
    kids = tuple(_tree_from_obj(c) for c in children)
    if kind_name == "Leaf":
        if kids:
            raise ValueError("a leaf may not have children")
        pos, word = obj.get("pos"), obj.get("word")
        if type(pos) is not int:
            raise ValueError(f"a leaf's pos must be an integer, found {pos!r}")
        if "word" in obj and not isinstance(word, str):
            raise ValueError(f"a leaf's word must be a string, found {word!r}")
        return Leaf(word, cat, pos)
    try:
        kind = CombinatorKind(kind_name)
    except ValueError as exc:
        raise ValueError(f"unknown node kind {kind_name!r}") from exc
    if len(kids) != kind.arity:
        raise ValueError(f"{kind.value} node needs {kind.arity} children, found {len(kids)}")
    return Node(kind, cat, kids)


def tree_from_json(text: str) -> DerivationTree:
    """Decode a tree's ``to_json`` document; a malformed one raises ``ValueError``."""
    try:
        return _tree_from_obj(json.loads(text))
    except RecursionError as exc:
        raise ValueError("tree document nested too deeply") from exc


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(parse: DerivationTree | Sequence[DerivationTree]) -> str:
    """One digraph; node ids follow preorder so output diffs are stable."""
    trees = as_forest(parse)
    lines = ["digraph derivation {", "  node [shape=plaintext];"]
    ids = itertools.count()
    for t in trees:
        _dot_node(t, lines, ids)
    lines.append("}")
    return "\n".join(lines)


def _dot_node(node: DerivationTree, lines: list[str], ids: Iterator[int]) -> str:
    """Append ``node``'s subtree to ``lines`` in preorder, its ids drawn
    from ``ids``; the node's own id."""
    node_id = f"n{next(ids)}"
    label = _dot_escape(print_category(node.cat))
    if isinstance(node, Leaf) and node.word is not None:
        label = _dot_escape(node.word) + "\\n" + label
    lines.append(f'  {node_id} [label="{label}"];')
    for child in node.kids:
        child_id = _dot_node(child, lines, ids)
        lines.append(f"  {node_id} -> {child_id};")
    return node_id
