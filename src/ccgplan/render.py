"""Derivation rendering: fixed-width text, JSON documents, Graphviz DOT."""

from __future__ import annotations

import json
from typing import Sequence

from .categories import parse_category, print_category
from .rules import CombinatorKind
from .trees import DerivationTree, Leaf, as_forest, build_node, children

_GAP = 2


def to_ascii(parse: DerivationTree | Sequence[DerivationTree]) -> str:
    """Classic derivation layout: words, lexical categories, then one
    underline+category row pair per combination level. Each underline spans
    exactly the columns of its constituent's leaves, with the rule symbol
    at its right end. A forest renders side by side on the shared grid."""
    trees = as_forest(parse)
    leaf_rows: list[Leaf] = []
    internals: list[tuple[int, int, int, DerivationTree]] = []

    def visit(node: DerivationTree) -> tuple[int, int, int]:
        if isinstance(node, Leaf):
            ordinal = len(leaf_rows)
            leaf_rows.append(node)
            return ordinal, ordinal, 0
        spans = [visit(c) for c in children(node)]
        lo, hi = spans[0][0], spans[-1][1]
        level = 1 + max(s[2] for s in spans)
        internals.append((level, lo, hi, node))
        return lo, hi, level

    for t in trees:
        visit(t)

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


def _tree_to_obj(t: DerivationTree) -> dict:
    if isinstance(t, Leaf):
        obj = {"kind": "Leaf", "category": print_category(t.cat), "pos": t.pos, "children": []}
        if t.word is not None:
            obj["word"] = t.word
        return obj
    return {
        "kind": t.kind.value,
        "category": print_category(t.cat),
        "children": [_tree_to_obj(c) for c in children(t)],
    }


def to_json(t: DerivationTree) -> str:
    """Canonical tree document; ``tree_from_json`` decodes it back."""
    return json.dumps(_tree_to_obj(t), indent=2, sort_keys=True)


def _tree_from_obj(obj) -> DerivationTree:
    if not isinstance(obj, dict):
        raise ValueError("tree node must be an object")
    kind_name = obj.get("kind")
    category = parse_category(obj.get("category", ""))
    kids = [_tree_from_obj(c) for c in obj.get("children", [])]
    if kind_name == "Leaf":
        if kids:
            raise ValueError("a leaf may not have children")
        return Leaf(obj.get("word"), category, int(obj["pos"]))
    try:
        kind = CombinatorKind(kind_name)
    except ValueError as exc:
        raise ValueError(f"unknown node kind {kind_name!r}") from exc
    if len(kids) != kind.arity:
        raise ValueError(f"{kind.value} node needs {kind.arity} children, found {len(kids)}")
    return build_node(kind, category, kids)


def tree_from_json(text: str) -> DerivationTree:
    return _tree_from_obj(json.loads(text))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(parse: DerivationTree | Sequence[DerivationTree]) -> str:
    """One digraph; node ids follow preorder so output diffs are stable."""
    trees = as_forest(parse)
    lines = ["digraph derivation {", "  node [shape=plaintext];"]
    counter = 0

    def visit(node: DerivationTree) -> str:
        nonlocal counter
        node_id = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            label = _dot_escape(print_category(node.cat))
            if node.word is not None:
                label = _dot_escape(node.word) + "\\n" + label
        else:
            label = _dot_escape(print_category(node.cat))
        lines.append(f'  {node_id} [label="{label}"];')
        for child in children(node):
            child_id = visit(child)
            lines.append(f"  {node_id} -> {child_id};")
        return node_id

    for t in trees:
        visit(t)
    lines.append("}")
    return "\n".join(lines)
