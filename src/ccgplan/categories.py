"""CCG category algebra and its textual syntax.

A category is either an atom (``S``, ``NP``, ``N``, ...) or a directional
functor: ``result/arg`` wants its argument to the right, ``result\\arg``
wants it to the left. Slashes share one precedence level and associate to
the left, so ``A/B/C`` reads ``(A/B)/C``.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from typing import Union


class CategoryError(ValueError):
    """Raised for malformed category expressions; carries the text offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# Categories are interned (hash-consed): ``Atom`` and ``Functor`` return one
# object per structure, so equality and hashing are object identity, in C.
# The table is keyed by an atom's name, or by a functor's slash and the ids
# of its parts: interned parts are one object per structure, and a functor
# keeps its parts, and so their ids, alive. Text would not do as a key,
# since ``Functor(A, Atom("B/C"))`` and ``Functor(Atom("A/B"), C)`` print
# alike. The table is a ``weakref.WeakValueDictionary``, so a category lives
# only while something else refers to it, and its entry goes when it dies
# unless a new category has taken the key. A lookup that misses takes the
# lock and looks again, so two threads never build two objects for one
# structure. Pickle, ``copy`` and ``deepcopy`` rebuild through the
# constructor and so return the interned object. Each category holds its
# canonical text, built once from its parts' text, for printing.
_interned: "weakref.WeakValueDictionary[object, Category]" = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


def _intern(cls, key, **fields) -> "Category":
    """The interned category for ``key``, built from ``fields`` on a miss."""
    with _intern_lock:
        c = _interned.get(key)
        if c is None:
            c = object.__new__(cls)
            for name, value in fields.items():
                object.__setattr__(c, name, value)
            _interned[key] = c
    return c


@dataclass(frozen=True, eq=False, init=False)
class Atom:
    name: str

    def __new__(cls, name: str) -> "Atom":
        c = _interned.get(name)
        return c if c is not None else _intern(cls, name, name=name, _text=name)

    def __reduce__(self):
        return Atom, (self.name,)


@dataclass(frozen=True, eq=False, init=False)
class Functor:
    result: "Category"
    arg: "Category"
    forward: bool

    def __new__(cls, result: "Category", arg: "Category", forward: bool) -> "Functor":
        key = (id(result), id(arg), forward)
        c = _interned.get(key)
        if c is None:
            slash = "/" if forward else "\\"
            text = f"{_wrap(result)}{slash}{_wrap(arg)}"
            c = _intern(cls, key, result=result, arg=arg, forward=forward, _text=text)
        return c

    def __reduce__(self):
        return Functor, (self.result, self.arg, self.forward)


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
        # str.isalnum is Unicode-aware; an atom name is ASCII letters and digits
        if not ((tok.isascii() and tok.isalnum()) or tok in "/\\()"):
            raise CategoryError(f"unexpected character {tok!r}", m.start())
        tokens.append((tok, m.start()))
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
    # reversed, so the next token is the last and taking it is a pop
    tokens = _tokenize(text)[::-1]
    result, _ = _parse_expr(tokens, len(text), 0)
    if tokens:
        value, offset = tokens[-1]
        raise CategoryError(f"unexpected {value!r}", offset)
    return result


# The parser's functions are module-level and take the token stack as an
# argument: a nested function that calls itself refers to itself through
# its closure, a reference cycle that only the cyclic collector frees.


def _too_deep(offset: int) -> CategoryError:
    return CategoryError(f"category nested deeper than {MAX_DEPTH} levels", offset)


def _parse_term(tokens: list[tuple[str, int]], end: int, level: int) -> tuple[Category, int]:
    """An atom or a parenthesized expression from the top of ``tokens``,
    with its slash depth; ``end`` is the offset past the text's last character."""
    if not tokens:
        raise CategoryError("expected a category", end)
    value, offset = tokens.pop()
    if value == "(":
        if level == MAX_DEPTH:
            raise _too_deep(offset)
        inner = _parse_expr(tokens, end, level + 1)
        if not tokens or tokens[-1][0] != ")":
            raise CategoryError("unbalanced parenthesis", offset)
        tokens.pop()
        return inner
    if value in ")/\\":
        raise CategoryError(f"expected a category, found {value!r}", offset)
    return Atom(value), 0


def _parse_expr(tokens: list[tuple[str, int]], end: int, level: int) -> tuple[Category, int]:
    """Terms joined by slashes, left-associative, with its slash depth."""
    node, depth = _parse_term(tokens, end, level)
    while tokens and tokens[-1][0] in "/\\":
        slash, offset = tokens.pop()
        arg, arg_depth = _parse_term(tokens, end, level)
        node, depth = Functor(node, arg, slash == "/"), 1 + max(depth, arg_depth)
        if depth > MAX_DEPTH:
            raise _too_deep(offset)
    return node, depth


def print_category(c: Category) -> str:
    """Render a category; complex subcategories are parenthesized."""
    return c._text


def _wrap(c: Category) -> str:
    return c._text if isinstance(c, Atom) else f"({c._text})"
