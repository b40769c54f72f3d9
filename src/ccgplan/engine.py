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
residue item under best-effort.

Each search interns its nodes, the (category, producing combinator,
height) of an item, to ints, and a state is the tuple of its items' node
ids. Reductions reaching the same state are collapsed by memoizing packed
sub-derivations per state, so commutative action orders are explored
once. What an adjacent pair of nodes (or triple, under coordination) can
reduce to depends on those nodes alone, so it is computed once per search
and reused in every state where they are adjacent; the rule instances of
a category pair and the raises of a category are computed once too. The
trees found are exactly those denoted by admissible canonical plans;
``canonical_plan`` rebuilds the concurrent plan for any of them.
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


# A search's packed sub-derivations ("recipes") are trees of ints over the
# item indices of some state: a leaf is the item's index, a node is (label
# id, children), where a label is an interned (combinator, category).
# Rebasing maps a recipe across one reduction so memoized futures compose
# with any path into the state; ``_materialize`` translates labels back. A
# reduction's recipe carries the raises it applied to its inputs, so every
# raise node in a recipe sits under a binary or ternary node or is a root.


def _intern(ids: dict, values: list, value) -> int:
    found = ids.get(value)
    if found is None:
        found = ids[value] = len(values)
        values.append(value)
    return found


class _Tables:
    """One search's interned values and the rule work done so far.

    Categories, nodes (category id, producing combinator, height) and
    labels (combinator, category id) are each a dict from value to id plus
    the list of values by id.
    """

    def __init__(self, cfg: RuleConfig, limit: int):
        self.cfg = cfg
        self.limit = limit
        self.arities = (2, 3) if CombinatorKind.COORD in cfg.enabled else (2,)
        self.cat_ids: dict[Category, int] = {}
        self.cats: list[Category] = []
        self.node_ids: dict[tuple, int] = {}
        self.nodes: list[tuple[int, CombinatorKind | None, int]] = []
        self.label_ids: dict[tuple, int] = {}
        self.labels: list[tuple[CombinatorKind, int]] = []
        self.rules: dict[tuple[int, ...], list[tuple[CombinatorKind, int]]] = {}
        self.ways_of: dict[int, list[tuple[int, int | None]]] = {}
        self.reduced: dict[tuple[int, ...], list[tuple[int, int, tuple[int | None, ...]]]] = {}

    def cat(self, c: Category) -> int:
        return _intern(self.cat_ids, self.cats, c)

    def node(self, cat: int, kind: CombinatorKind | None, height: int) -> int:
        return _intern(self.node_ids, self.nodes, (cat, kind, height))

    def label(self, kind: CombinatorKind, cat: int) -> int:
        return _intern(self.label_ids, self.labels, (kind, cat))

    def ways(self, nid: int) -> list[tuple[int, int | None]]:
        """The ways a node can enter a rule or stand as a root, as (node,
        raise label): as it stands (label None), or raised within the
        height bound. No state node is a raise, so nothing is raised twice."""
        ways = self.ways_of.get(nid)
        if ways is None:
            cat, _, height = self.nodes[nid]
            ways = [(nid, None)]
            if height < self.limit:
                raises = self.instances((cat,))
                ways += [(self.node(out, kind, height + 1), self.label(kind, out)) for kind, out in raises]
            self.ways_of[nid] = ways
        return ways

    def instances(self, cats: tuple[int, ...]) -> list[tuple[CombinatorKind, int]]:
        """The rule instances over one category (its raises), a pair, or a
        triple under coordination, as (combinator, output category)."""
        insts = self.rules.get(cats)
        if insts is None:
            inputs = [self.cats[c] for c in cats]
            if len(cats) == 1:
                found = unary_instances(*inputs, self.cfg)
            elif len(cats) == 2:
                found = binary_instances(*inputs, self.cfg)
            else:
                found = ternary_instances(*inputs, self.cfg)
            insts = self.rules[cats] = [(inst.kind, self.cat(inst.output)) for inst in found]
        return insts

    def reductions(self, key: tuple[int, ...]) -> list[tuple[int, int, tuple[int | None, ...]]]:
        """The reductions of adjacent nodes (a pair, or a triple for
        coordination) as (merged node, label, raise label per input)."""
        found = self.reduced.get(key)
        if found is not None:
            return found
        found = []
        for ways in product(*(self.ways(nid) for nid in key)):
            nodes = [self.nodes[nid] for nid, _ in ways]
            insts = self.instances(tuple([cat for cat, _, _ in nodes]))
            if not insts:
                continue
            height = 1 + max([h for _, _, h in nodes])
            if height > self.limit:
                continue
            raises = tuple([r for _, r in ways])
            for kind, out in insts:
                if self.cfg.normalize and normal_form_blocked(kind, nodes[0][1], nodes[-1][1]):
                    continue
                found.append((self.node(out, kind, height), self.label(kind, out), raises))
        self.reduced[key] = found
        return found


def _input(j: int, raise_label: int | None):
    return j if raise_label is None else (raise_label, (j,))


def _successors(state: tuple[int, ...], tables: _Tables):
    """Every reduction of a state as (index, arity, successor state,
    recipe over ``state``)."""
    for arity in tables.arities:
        for i in range(len(state) - arity + 1):
            for merged, label, raises in tables.reductions(state[i : i + arity]):
                built = (label, tuple([_input(j, r) for j, r in enumerate(raises, i)]))
                yield i, arity, state[:i] + (merged,) + state[i + arity :], built


def _rebase(recipe, i: int, arity: int, built):
    if recipe.__class__ is int:
        if recipe < i:
            return recipe
        if recipe == i:
            return built
        return recipe + arity - 1
    label, kids = recipe
    return (label, tuple([_rebase(k, i, arity, built) for k in kids]))


def _strict_recipes(state, tables, target, memo):
    cached = memo.get(state)
    if cached is not None:
        return cached
    found = set()
    if len(state) == 1:
        found.update(_input(0, r) for nid, r in tables.ways(state[0]) if tables.nodes[nid][0] == target)
    for i, arity, successor, built in _successors(state, tables):
        for sub in _strict_recipes(successor, tables, target, memo):
            found.add(_rebase(sub, i, arity, built))
    result = frozenset(found)
    memo[state] = result
    return result


def _residue_recipes(state, tables, memo):
    cached = memo.get(state)
    if cached is not None:
        return cached
    best = len(state)
    forests = set()
    for i, arity, successor, built in _successors(state, tables):
        sub_best, sub_forests = _residue_recipes(successor, tables, memo)
        if sub_best < best:
            best = sub_best
            forests = set()
        if sub_best == best:
            forests.update(tuple(_rebase(t, i, arity, built) for t in f) for f in sub_forests)
    if best == len(state):
        # every reduction shortens the state, so none applies: the items
        # are the residue, each as it stands or raised
        forests = set(product(*([_input(j, r) for _, r in tables.ways(nid)] for j, nid in enumerate(state))))
    result = (best, frozenset(forests))
    memo[state] = result
    return result


def _materialize(recipe, items: tuple[AnnotatedCategory, ...], tables: _Tables) -> DerivationTree:
    if recipe.__class__ is int:
        item = items[recipe]
        return Leaf(None, item.cat, item.pos)
    label, kids = recipe
    kind, cat_id = tables.labels[label]
    cat = tables.cats[cat_id]
    built = [_materialize(k, items, tables) for k in kids]
    if len(built) == 1:
        return Unary(kind, cat, built[0])
    if len(built) == 2:
        return Binary(kind, cat, built[0], built[1])
    return Ternary(kind, cat, built[0], built[1], built[2])


def _start(initial: Asr, cfg: RuleConfig) -> tuple[_Tables, tuple[int, ...]]:
    """A search's tables and its initial state of node ids."""
    if initial.time != 0:
        raise ValueError("enumeration starts from a time-0 state")
    tables = _Tables(cfg, effective_max_steps(cfg, len(initial.items)))
    state = tuple(tables.node(tables.cat(it.cat), initial.last_action.get(it.pos), 0) for it in initial.items)
    return tables, state


def enumerate_parses(initial: Asr, cfg: RuleConfig, goal: ParseGoal) -> set[DerivationTree]:
    """All distinct derivation trees whose canonical plan reaches the goal
    within ``max_steps``. Empty when the goal is unreachable."""
    if goal.mode != "strict":
        raise ValueError("enumerate_parses handles strict goals; use best_effort")
    tables, state = _start(initial, cfg)
    recipes = _strict_recipes(state, tables, tables.cat(goal.target), {})
    return {_materialize(r, initial.items, tables) for r in recipes}


def best_effort(initial: Asr, cfg: RuleConfig) -> tuple[int, set[tuple[DerivationTree, ...]]]:
    """Minimal reachable residue length and every forest achieving it."""
    tables, state = _start(initial, cfg)
    best, forests = _residue_recipes(state, tables, {})
    return best, {tuple(_materialize(t, initial.items, tables) for t in f) for f in forests}


def parse_all(ts: TaggedSentence, cfg: RuleConfig, goal: ParseGoal):
    """Union over every initial candidate combination, deduplicated.

    Strict: a set of derivation trees. Best-effort: the globally minimal
    residue length across combinations plus all forests achieving it.
    Leaves carry the sentence's words.
    """
    words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
    strict = goal.mode == "strict"
    best: int | None = None
    found: set = set()
    for asr in initial_asrs(ts):
        # a strict search's trees count as residue-1 results of its combination
        residue, results = (1, enumerate_parses(asr, cfg, goal)) if strict else best_effort(asr, cfg)
        if best is None or residue < best:
            best, found = residue, set()
        if residue == best:
            for entry in results:
                found.add(attach_words(entry, words) if strict else tuple(attach_words(t, words) for t in entry))
    return found if strict else (best, found)


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
