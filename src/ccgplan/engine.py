"""Parsing as plan search over annotated category sequences.

The search enumerates canonical concurrent plans: within a plan, a
category produced at step t that is consumed later must be consumed at
step t+1, and every action at step t >= 1 either consumes a category
produced at step t-1 or works entirely on untouched initial material. One
canonical plan exists per derivation tree reaching the goal, its length
equal to the tree's internal height, with every node scheduled at
``height(tree) - 1 - depth(node)``.

That correspondence lets the enumeration walk reductions while tracking
the height each constituent would occupy in the levelized concurrent
schedule, discarding reductions whose height exceeds ``max_steps``. A
reduction is one binary or ternary rule; a type raise is applied to one
of its inputs in the same reduction, so raised categories never sit in a
search state and need no filter. Only a tree root may stand raised: the
sentence under a strict goal when the raise yields the target, and any
residue item under best-effort. Reductions reaching the same reduced
state are collapsed by memoizing packed sub-derivations keyed on
(category, producing combinator, height) per item, so commutative action
orders are explored once. The trees found are exactly those denoted by
admissible canonical plans; ``canonical_plan`` rebuilds the concurrent
plan for any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Literal, Sequence

from .asr import Action, AnnotatedCategory, Asr, Plan, step
from .categories import Atom, Category
from .lexicon import TaggedSentence, initial_asrs
from .rules import (
    RAISE_KINDS,
    CombinatorKind,
    RuleConfig,
    binary_instances,
    normal_form_blocked,
    ternary_instances,
    unary_instances,
)
from .trees import Binary, DerivationTree, Leaf, Ternary, Unary, attach_words, children, tree_height


@dataclass(frozen=True)
class ParseGoal:
    """Strict: reduce to a single ``target`` category. Best-effort: reach
    the fewest residual categories, then enumerate all optima."""

    mode: Literal["strict", "best-effort"]
    target: Category = Atom("S")

    @classmethod
    def strict(cls, target: Category = Atom("S")) -> "ParseGoal":
        return cls("strict", target)

    @classmethod
    def best_effort(cls) -> "ParseGoal":
        return cls("best-effort")


def effective_max_steps(cfg: RuleConfig, sentence_length: int) -> int:
    return cfg.max_steps if cfg.max_steps is not None else sentence_length + 2


def applicable_actions(s: Asr, cfg: RuleConfig) -> tuple[Action, ...]:
    """Schema-applicable, unbanned actions in a state, left to right.

    Besides the normalization bans, a category built by type raising is
    never raised again; without that bound, normalize-off enumeration and
    the chart oracle would disagree on raise towers.
    """
    out: list[Action] = []
    for item in s.items:
        if s.last_action.get(item.pos) in RAISE_KINDS:
            continue
        for inst in unary_instances(item.cat, cfg):
            out.append(Action(inst.kind, (item.pos,), inst.output, s.time))
    for i in range(len(s.items) - 1):
        l, r = s.items[i], s.items[i + 1]
        for inst in binary_instances(l.cat, r.cat, cfg):
            out.append(Action(inst.kind, (l.pos, r.pos), inst.output, s.time))
    for i in range(len(s.items) - 2):
        a, b, c = s.items[i], s.items[i + 1], s.items[i + 2]
        for inst in ternary_instances(a.cat, b.cat, c.cat, cfg):
            out.append(Action(inst.kind, (a.pos, b.pos, c.pos), inst.output, s.time))
    return tuple(a for a in out if not banned(a, s, cfg))


def banned(a: Action, s: Asr, cfg: RuleConfig) -> bool:
    """True iff a normalization clause forbids the action in this state."""
    if not cfg.normalize:
        return False
    left = s.last_action.get(a.positions[0])
    right = s.last_action.get(a.positions[-1]) if len(a.positions) > 1 else None
    return normal_form_blocked(a.kind, left, right)


# Internal reduction nodes and packed sub-derivations ("recipes"). A recipe
# is a tree over item indices of some state: ("leaf", i) or
# ("node", kind, category, children). Rebasing maps a recipe across one
# reduction so memoized futures compose with any path into the state. A
# reduction's recipe carries the raises it applied to its inputs, so every
# raise node in a recipe sits under a binary or ternary node or is a root;
# states hold no raised item, and nothing filters raises.


@dataclass(frozen=True)
class _Node:
    cat: Category
    kind: CombinatorKind | None
    height: int


def _variants(state: tuple[_Node, ...], cfg: RuleConfig, limit: int):
    """Per item, the ways it can enter a rule: as it stands, or raised.
    Each way is a (node, recipe) pair. No state item is a raise, so
    nothing is raised twice."""
    out = []
    for j, nd in enumerate(state):
        leaf = ("leaf", j)
        ways = [(nd, leaf)]
        if nd.height < limit:
            for inst in unary_instances(nd.cat, cfg):
                raised = _Node(inst.output, inst.kind, nd.height + 1)
                ways.append((raised, ("node", inst.kind, inst.output, (leaf,))))
        out.append(ways)
    return out


def _reductions(state: tuple[_Node, ...], variants, cfg: RuleConfig, limit: int):
    """Every reduction as (index, arity, merged node, recipe over ``state``)."""
    for i in range(len(state) - 1):
        for (l, l_recipe), (r, r_recipe) in product(variants[i], variants[i + 1]):
            height = 1 + max(l.height, r.height)
            if height > limit:
                continue
            for inst in binary_instances(l.cat, r.cat, cfg):
                if cfg.normalize and normal_form_blocked(inst.kind, l.kind, r.kind):
                    continue
                recipe = ("node", inst.kind, inst.output, (l_recipe, r_recipe))
                yield i, 2, _Node(inst.output, inst.kind, height), recipe
    if CombinatorKind.COORD not in cfg.enabled:
        return
    for i in range(len(state) - 2):
        for ways in product(variants[i], variants[i + 1], variants[i + 2]):
            nodes, recipes = zip(*ways)
            height = 1 + max(nd.height for nd in nodes)
            if height > limit:
                continue
            for inst in ternary_instances(*(nd.cat for nd in nodes), cfg):
                yield i, 3, _Node(inst.output, inst.kind, height), ("node", inst.kind, inst.output, recipes)


def _rebase(recipe, i: int, arity: int, built):
    if recipe[0] == "leaf":
        j = recipe[1]
        if j < i:
            return recipe
        if j == i:
            return built
        return ("leaf", j + arity - 1)
    _, kind, cat, kids = recipe
    return ("node", kind, cat, tuple(_rebase(k, i, arity, built) for k in kids))


def _strict_recipes(state, cfg, limit, target, memo):
    cached = memo.get(state)
    if cached is not None:
        return cached
    variants = _variants(state, cfg, limit)
    found = set()
    if len(state) == 1:
        found.update(recipe for nd, recipe in variants[0] if nd.cat == target)
    for i, arity, merged, built in _reductions(state, variants, cfg, limit):
        successor = state[:i] + (merged,) + state[i + arity :]
        for sub in _strict_recipes(successor, cfg, limit, target, memo):
            found.add(_rebase(sub, i, arity, built))
    result = frozenset(found)
    memo[state] = result
    return result


def _residue_recipes(state, cfg, limit, memo):
    cached = memo.get(state)
    if cached is not None:
        return cached
    variants = _variants(state, cfg, limit)
    best = len(state)
    forests = set()
    for i, arity, merged, built in _reductions(state, variants, cfg, limit):
        successor = state[:i] + (merged,) + state[i + arity :]
        sub_best, sub_forests = _residue_recipes(successor, cfg, limit, memo)
        if sub_best < best:
            best = sub_best
            forests = set()
        if sub_best == best:
            forests.update(tuple(_rebase(t, i, arity, built) for t in f) for f in sub_forests)
    if best == len(state):
        # every reduction shortens the state, so none applies: the items
        # are the residue, each as it stands or raised
        forests = set(product(*([recipe for _, recipe in ways] for ways in variants)))
    result = (best, frozenset(forests))
    memo[state] = result
    return result


def _materialize(recipe, items: tuple[AnnotatedCategory, ...]) -> DerivationTree:
    if recipe[0] == "leaf":
        item = items[recipe[1]]
        return Leaf(None, item.cat, item.pos)
    _, kind, cat, kids = recipe
    built = tuple(_materialize(k, items) for k in kids)
    if len(built) == 1:
        return Unary(kind, cat, built[0])
    if len(built) == 2:
        return Binary(kind, cat, built[0], built[1])
    return Ternary(kind, cat, built[0], built[1], built[2])


def _initial_state(initial: Asr) -> tuple[_Node, ...]:
    if initial.time != 0:
        raise ValueError("enumeration starts from a time-0 state")
    return tuple(_Node(it.cat, initial.last_action.get(it.pos), 0) for it in initial.items)


def enumerate_parses(initial: Asr, cfg: RuleConfig, goal: ParseGoal) -> set[DerivationTree]:
    """All distinct derivation trees whose canonical plan reaches the goal
    within ``max_steps``. Empty when the goal is unreachable."""
    if goal.mode != "strict":
        raise ValueError("enumerate_parses handles strict goals; use best_effort")
    state = _initial_state(initial)
    limit = effective_max_steps(cfg, len(initial.items))
    recipes = _strict_recipes(state, cfg, limit, goal.target, {})
    return {_materialize(r, initial.items) for r in recipes}


def best_effort(initial: Asr, cfg: RuleConfig) -> tuple[int, set[tuple[DerivationTree, ...]]]:
    """Minimal reachable residue length and every forest achieving it."""
    state = _initial_state(initial)
    limit = effective_max_steps(cfg, len(initial.items))
    best, forests = _residue_recipes(state, cfg, limit, {})
    return best, {tuple(_materialize(t, initial.items) for t in f) for f in forests}


def parse_all(ts: TaggedSentence, cfg: RuleConfig, goal: ParseGoal):
    """Union over every initial candidate combination, deduplicated.

    Strict: a set of derivation trees. Best-effort: the globally minimal
    residue length across combinations plus all forests achieving it.
    Leaves carry the sentence's words.
    """
    words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
    if goal.mode == "strict":
        found: set[DerivationTree] = set()
        for asr in initial_asrs(ts):
            for tree in enumerate_parses(asr, cfg, goal):
                found.add(attach_words(tree, words))
        return found
    best: int | None = None
    forests: set[tuple[DerivationTree, ...]] = set()
    for asr in initial_asrs(ts):
        m, fs = best_effort(asr, cfg)
        if best is None or m < best:
            best = m
            forests = set()
        if m == best:
            forests.update(tuple(attach_words(t, words) for t in f) for f in fs)
    assert best is not None
    return best, forests


def canonical_plan(parse: DerivationTree | Sequence[DerivationTree]) -> Plan:
    """The unique canonical concurrent plan denoting a tree (or forest).

    Every internal node v of a tree of height h is scheduled at time
    h - 1 - depth(v); each action consumes the positions at the leftmost
    leaves of its children and outputs the node's category.
    """
    trees = (parse,) if isinstance(parse, (Leaf, Unary, Binary, Ternary)) else tuple(parse)
    by_time: dict[int, set[Action]] = {}

    def walk(node: DerivationTree, depth: int, height: int) -> int:
        if isinstance(node, Leaf):
            return node.pos
        time = height - 1 - depth
        positions = tuple(walk(c, depth + 1, height) for c in children(node))
        by_time.setdefault(time, set()).add(Action(node.kind, positions, node.cat, time))
        return positions[0]

    for tree in trees:
        walk(tree, 0, tree_height(tree))
    if not by_time:
        return Plan(())
    length = max(by_time) + 1
    return Plan(tuple(frozenset(by_time.get(t, ())) for t in range(length)))


def replay_plan(initial: Asr, plan: Plan) -> tuple[Asr, ...]:
    """Fold a plan's steps over an initial state; returns every state."""
    states = [initial]
    for acts in plan.steps:
        states.append(step(states[-1], acts))
    return tuple(states)
