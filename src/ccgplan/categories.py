"""CCG category algebra and its textual syntax.

A category is either an atom (``S``, ``NP``, ``N``, ...) or a directional
functor: ``result/arg`` wants its argument to the right, ``result\\arg``
wants it to the left. Slashes share one precedence level and associate to
the left, so ``A/B/C`` reads ``(A/B)/C``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


class CategoryError(ValueError):
    """Raised for malformed category expressions; carries the text offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Functor:
    result: "Category"
    arg: "Category"
    forward: bool


Category = Union[Atom, Functor]


def fwd(result: Category, arg: Category) -> Functor:
    """Build ``result/arg``."""
    return Functor(result, arg, True)


def bwd(result: Category, arg: Category) -> Functor:
    """Build ``result\\arg``."""
    return Functor(result, arg, False)


_TOKEN = re.compile(r"[A-Za-z0-9]+|[/\\()]|\S")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok.isalnum():
            tokens.append((tok, m.start()))
        elif tok in "/\\()":
            tokens.append((tok, m.start()))
        else:
            raise CategoryError(f"unexpected character {tok!r}", m.start())
    return tokens


# Deepest nesting, in parentheses or in slashes, that parse_category
# accepts: far beyond any lexical category, and shallow enough that the
# recursive functions on categories stay clear of Python's recursion limit.
MAX_DEPTH = 64


def parse_category(text: str) -> Category:
    """Parse a category expression.

    Raises CategoryError (with the offending offset) on unbalanced
    parentheses, empty input, a dangling slash, or nesting deeper than
    ``MAX_DEPTH``.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def too_deep(offset: int) -> CategoryError:
        return CategoryError(f"category nested deeper than {MAX_DEPTH} levels", offset)

    def parse_term(level: int) -> tuple[Category, int]:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise CategoryError("expected a category", len(text))
        value, offset = tok
        if value == "(":
            if level == MAX_DEPTH:
                raise too_deep(offset)
            pos += 1
            inner = parse_expr(level + 1)
            closing = peek()
            if closing is None or closing[0] != ")":
                raise CategoryError("unbalanced parenthesis", offset)
            pos += 1
            return inner
        if value in ")/\\":
            raise CategoryError(f"expected a category, found {value!r}", offset)
        pos += 1
        return Atom(value), 0

    def parse_expr(level: int) -> tuple[Category, int]:
        nonlocal pos
        node, depth = parse_term(level)
        while True:
            tok = peek()
            if tok is None or tok[0] not in "/\\":
                return node, depth
            pos += 1
            arg, arg_depth = parse_term(level)
            node, depth = Functor(node, arg, tok[0] == "/"), 1 + max(depth, arg_depth)
            if depth > MAX_DEPTH:
                raise too_deep(tok[1])

    result, _ = parse_expr(0)
    trailing = peek()
    if trailing is not None:
        raise CategoryError(f"unexpected {trailing[0]!r}", trailing[1])
    return result


def print_category(c: Category) -> str:
    """Render a category; complex subcategories are parenthesized."""
    if isinstance(c, Atom):
        return c.name
    slash = "/" if c.forward else "\\"
    return f"{_wrap(c.result)}{slash}{_wrap(c.arg)}"


def _wrap(c: Category) -> str:
    if isinstance(c, Atom):
        return c.name
    return f"({print_category(c)})"
