"""Sentences drawn from derivations: a hypothesis strategy.

``derivations`` builds a random derivation top-down. A node with a budget
of one leaf stays a leaf. Otherwise it picks a rule whose schema can
output its category, splits the category into the schema's inputs, shares
its budget among them and recurses into each. The free part of a split,
``B`` in ``A/B B => A``, comes from a small pool, so categories repeat and
several derivations can share a reading. The leaves make a sentence with a
strict parse under any rule set holding the rules the derivation used.
Compositions are picked more often than the other rules, and they split
any functor, so composition chains are common.
"""

from itertools import repeat

from hypothesis import strategies as st

from ccgplan import Atom, CombinatorKind, Functor, parse_category

K = CombinatorKind

# Each rule's schema as (inputs, output), with A, B, C and T as variables:
# README's Schema column, stated apart from ``rules``. A raise takes only
# NP, toward a raise target T, as with normalization on.
# The compositions come first: hypothesis draws its simplest examples, and
# shrinks, towards the first of the options.
SCHEMAS = {
    kind: ([parse_category(c) for c in inputs.split()], parse_category(output))
    for kind, (inputs, output) in {
        K.FWD_COMP: ("A/B B/C", "A/C"),
        K.BWD_COMP: (r"B\C A\B", r"A\C"),
        K.BWD_XCOMP: (r"B/C A\B", "A/C"),
        K.BWD_XSUBST: (r"B/C (A\B)/C", "A/C"),
        K.FWD_APPL: ("A/B B", "A"),
        K.BWD_APPL: (r"B A\B", "A"),
        K.FWD_RAISE: ("NP", r"T/(T\NP)"),
        K.BWD_RAISE: ("NP", r"T\(T/NP)"),
        K.COORD: ("A conj A", "A"),
    }.items()
}
VARIABLES = {"A", "B", "C", "T"}
# how many times as often as another rule that fits a node a composition is picked
WEIGHTS = {K.FWD_COMP: 3, K.BWD_COMP: 3, K.BWD_XCOMP: 3, K.BWD_XSUBST: 3}
PARTS = [parse_category(c) for c in ("S", "NP", r"S\NP")]


def unify(pattern, c, env) -> bool:
    """Whether ``pattern`` matches ``c``, binding its variables in ``env`` consistently."""
    if isinstance(pattern, Atom):
        return env.setdefault(pattern.name, c) is c if pattern.name in VARIABLES else pattern is c
    return (
        isinstance(c, Functor)
        and c.forward == pattern.forward
        and unify(pattern.result, c.result, env)
        and unify(pattern.arg, c.arg, env)
    )


def substitute(pattern, env, flips=repeat(False)):
    """``pattern`` with its variables bound from ``env``, reversing each slash
    for which the iterator ``flips`` yields True."""
    if isinstance(pattern, Atom):
        return env[pattern.name] if pattern.name in VARIABLES else pattern
    forward = pattern.forward != next(flips)
    return Functor(substitute(pattern.result, env, flips), substitute(pattern.arg, env, flips), forward)


@st.composite
def derivations(draw, target, raise_target, budget: int):
    """A random derivation of ``target`` with at most ``budget`` leaves, as
    (its leaf categories left to right, the set of rules it uses). A raise
    goes to ``raise_target``. The derivation has ``budget`` leaves unless
    some node's category fits no rule."""
    splits = []
    for kind, (inputs, output) in SCHEMAS.items():
        env = {}
        if len(inputs) <= budget and unify(output, target, env) and env.get("T", raise_target) is raise_target:
            splits += [(kind, env)] * WEIGHTS.get(kind, 1)
    if budget == 1 or not splits:
        return [target], set()
    kind, env = draw(st.sampled_from(splits))
    env["B"] = draw(st.sampled_from(PARTS))
    inputs = [substitute(p, env) for p in SCHEMAS[kind][0]]
    leaves, used = [], {kind}
    for i, cat in enumerate(inputs):
        # each input after this one keeps one leaf of the budget, the last takes the rest
        rest = budget - len(leaves) - (len(inputs) - 1 - i)
        share = rest if i == len(inputs) - 1 else draw(st.integers(1, rest))
        more, kinds = draw(derivations(cat, raise_target, share))
        leaves += more
        used |= kinds
    return leaves, used
