"""Readings of derivation trees: a semantic reference for the normal form.

Each leaf means the curried term λx₁…λxₖ. w x₁ … xₖ, where k is the number
of arguments its category takes and the constant w is the leaf's lexical
entry (position and category, so two entries of one word differ). Each
combinator means its combinatory-logic term (Steedman 2000, *The Syntactic
Process*):

    >, <            application
    >B, <B, <Bx     λx. f (g x)
    <Sx             λx. f x (g x)
    >T, <T          λf. f a
    &               λx₁…λxₖ. and (l x₁ … xₖ) (r x₁ … xₖ), over the k
                    arguments of the conjuncts' category

A reading is the β-normal form of a tree's term, in de Bruijn notation.
It is computed by normalization by evaluation: a term is evaluated to a
Python function or to a stuck application of a constant or variable, then
read back. Two trees mean the same exactly when their readings are equal.
This module shares nothing with the normal-form bans it checks.
"""

from ccgplan import CombinatorKind, Functor, Leaf

K = CombinatorKind


def _arity(cat) -> int:
    return 1 + _arity(cat.result) if isinstance(cat, Functor) else 0


def _apply(f, x):
    """``f x``: a function value is called, a stuck one gains an argument."""
    if callable(f):
        return f(x)
    head, args = f
    return head, args + (x,)


def _curried(head, k: int, args=()):
    if k == 0:
        return head, args
    return lambda x: _curried(head, k - 1, args + (x,))


def _coordinate(conj, l, r, k: int):
    if k == 0:
        return _apply(_apply(conj, l), r)
    return lambda x: _coordinate(conj, _apply(l, x), _apply(r, x), k - 1)


def _value(tree):
    if isinstance(tree, Leaf):
        return _curried(("w", tree.pos, tree.cat), _arity(tree.cat))
    kids = [_value(kid) for kid in tree.kids]
    kind = tree.kind
    if kind is K.FWD_APPL:
        return _apply(kids[0], kids[1])
    if kind is K.BWD_APPL:
        return _apply(kids[1], kids[0])
    if kind in (K.FWD_RAISE, K.BWD_RAISE):
        return lambda f: _apply(f, kids[0])
    if kind is K.COORD:
        return _coordinate(kids[1], kids[0], kids[2], _arity(tree.cat))
    # the functor f and the function g it is composed with
    f, g = (kids[0], kids[1]) if kind is K.FWD_COMP else (kids[1], kids[0])
    if kind is K.BWD_XSUBST:
        return lambda x: _apply(_apply(f, x), _apply(g, x))
    return lambda x: _apply(f, _apply(g, x))


def _read_back(value, depth: int):
    """The β-normal term of a value under ``depth`` binders: ``("λ", body)``
    or ``(head, arg, ...)``, a bound variable ``("v", index)``."""
    if callable(value):
        return ("λ", _read_back(value((("v", depth), ())), depth + 1))
    head, args = value
    if head[0] == "v":
        # the variable bound at level ``head[1]`` has this de Bruijn index
        head = ("v", depth - 1 - head[1])
    return (head,) + tuple(_read_back(arg, depth) for arg in args)


def reading(tree):
    """The β-normal de Bruijn term a derivation tree denotes."""
    return _read_back(_value(tree), 0)
