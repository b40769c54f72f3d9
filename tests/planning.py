"""The planning model: the reference semantics the search is checked against.

An ASR (abstract sentence representation) is an ordered sequence of
categories, each tagged with a position id. Actions are annotated
combinator occurrences; applying a set of position-disjoint actions is one
concurrent step. The effect of an action carries the id of its leftmost
input, untouched items persist by inertia, and the state remembers for
each position when and by which combinator it was last modified.
``banned`` applies the normal-form constraints to an action from that
bookkeeping.

The package's search builds none of this: it starts from a combination's
categories. ``tests/brute.py`` searches these states directly, and the
tests replay ``ccgplan.canonical_plan`` over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ccgplan.categories import Category
from ccgplan.engine import Action, Plan
from ccgplan.rules import (
    RAISE_KINDS,
    CombinatorKind,
    RuleConfig,
    binary_instances,
    blocked,
    ternary_instances,
    unary_instances,
    valid_instance,
)


@dataclass(frozen=True)
class AnnotatedCategory:
    pos: int
    cat: Category


@dataclass(frozen=True)
class Asr:
    """One planning state: items plus modification bookkeeping.

    ``last_affected[p]`` is the state time at which position p last changed
    (so an action occurring at time t stamps its output with t+1);
    ``last_action[p]`` is the combinator that produced it. Initial items
    appear in neither map.
    """

    items: tuple[AnnotatedCategory, ...]
    time: int = 0
    last_affected: Mapping[int, int] = field(default_factory=dict)
    last_action: Mapping[int, CombinatorKind] = field(default_factory=dict)

    @classmethod
    def initial(cls, cats: Iterable[Category]) -> "Asr":
        """The time-0 state of the given categories at positions 1..n."""
        items = tuple(AnnotatedCategory(i + 1, c) for i, c in enumerate(cats))
        return cls(items=items)

    def index_of(self, pos: int) -> int:
        for i, item in enumerate(self.items):
            if item.pos == pos:
                return i
        raise ValueError(f"no item at position {pos}")


def step(s: Asr, acts: Iterable[Action]) -> Asr:
    """Apply one concurrent step and return the successor state.

    The caller guarantees the actions are unbanned; this checks the rest of
    the contract: the set is non-empty, actions are stamped with the
    current time, each names as many positions as its combinator's arity,
    those positions name adjacent items, outputs satisfy their schemas, and
    no two actions touch the same position.
    """
    actions = list(acts)
    if not actions:
        raise ValueError("a step must contain at least one action")
    seen: set[int] = set()
    for a in actions:
        if a.time != s.time:
            raise ValueError(f"action stamped for time {a.time} applied at time {s.time}")
        if len(a.positions) != a.kind.arity:
            raise ValueError(f"{a.kind.value} takes {a.kind.arity} positions, not {a.positions}")
        indices = [s.index_of(p) for p in a.positions]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise ValueError(f"positions {a.positions} are not adjacent")
        cats = tuple(s.items[i].cat for i in indices)
        if not valid_instance(a.kind, cats, a.output):
            raise ValueError(f"{a.kind.value} does not map {a.positions} to {a.output}")
        overlap = seen.intersection(a.positions)
        if overlap:
            raise ValueError(f"overlapping actions at positions {sorted(overlap)}")
        seen.update(a.positions)

    by_left = {a.positions[0]: a for a in actions}
    consumed = frozenset(p for a in actions for p in a.positions)
    new_items = []
    for item in s.items:
        if item.pos in by_left:
            new_items.append(AnnotatedCategory(item.pos, by_left[item.pos].output))
        elif item.pos not in consumed:
            new_items.append(item)
    survivors = {item.pos for item in new_items}
    t1 = s.time + 1
    last_affected = {p: t for p, t in s.last_affected.items() if p in survivors and p not in by_left}
    last_action = {p: k for p, k in s.last_action.items() if p in survivors and p not in by_left}
    for p, a in by_left.items():
        last_affected[p] = t1
        last_action[p] = a.kind
    return Asr(items=tuple(new_items), time=t1, last_affected=last_affected, last_action=last_action)


def applicable_actions(s: Asr, cfg: RuleConfig) -> tuple[Action, ...]:
    """Schema-applicable, unbanned actions in a state, left to right."""
    out: list[Action] = []
    for item in s.items:
        producer = s.last_action.get(item.pos)
        if all(blocked(kind, producer, None, cfg) for kind in RAISE_KINDS):
            continue  # no raise may consume this item: build none
        for kind, output in unary_instances(item.cat, cfg):
            out.append(Action(kind, (item.pos,), output, s.time))
    for i in range(len(s.items) - 1):
        l, r = s.items[i], s.items[i + 1]
        for kind, output in binary_instances(l.cat, r.cat, cfg):
            out.append(Action(kind, (l.pos, r.pos), output, s.time))
    for i in range(len(s.items) - 2):
        a, b, c = s.items[i], s.items[i + 1], s.items[i + 2]
        for kind, output in ternary_instances(a.cat, b.cat, c.cat, cfg):
            out.append(Action(kind, (a.pos, b.pos, c.pos), output, s.time))
    return tuple(a for a in out if not banned(a, s, cfg))


def banned(a: Action, s: Asr, cfg: RuleConfig) -> bool:
    """True iff ``rules.blocked`` forbids the action on its inputs' producers."""
    left = s.last_action.get(a.positions[0])
    right = s.last_action.get(a.positions[-1]) if len(a.positions) > 1 else None
    return blocked(a.kind, left, right, cfg)


def replay_plan(initial: Asr, plan: Plan) -> tuple[Asr, ...]:
    """Fold a plan's steps over an initial state; returns every state."""
    states = [initial]
    for acts in plan.steps:
        states.append(step(states[-1], acts))
    return tuple(states)
