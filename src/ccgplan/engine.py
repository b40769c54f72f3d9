"""Parsing as plan search over annotated category sequences.

The planning model: an ASR (abstract sentence representation) is an
ordered sequence of categories, each tagged with a position id; the
initial states are a tagged sentence's candidate combinations at
positions 1..n. Actions are annotated combinator occurrences; applying a
set of position-disjoint actions is one concurrent step. The effect of an
action carries the id of its leftmost input, untouched items persist by
inertia, and the state remembers for each position when and by which
combinator it was last modified. ``banned`` applies the normal-form
constraints to an action from that bookkeeping.

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

Strict and best-effort parsing differ only in their goal, so one
memoized search serves both. It maps a state to the fewest items it
reduces to and every packed sub-derivation reaching them: with a target
category, one item of that category; without one, any residue, each
item as it stands or raised. Each search interns its nodes, the
(category, producing combinator, height) of an item, to ints, and a
state is the tuple of its items' node ids. Reductions reaching the same
state share its memo entry, so commutative action orders are explored
once. What an adjacent pair of nodes (or triple, under coordination) can
reduce to depends on those nodes alone, so it is computed once per search
and reused in every state where they are adjacent; the rule instances of
a category pair and the raises of a category are computed once too. The
trees found are exactly those denoted by admissible canonical plans;
``canonical_plan`` rebuilds the concurrent plan for any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .categories import Category
from .lexicon import TaggedSentence
from .rules import (
    RAISE_KINDS,
    CombinatorKind,
    ParseGoal,
    RuleConfig,
    RuleInstance,
    binary_instances,
    blocked,
    ternary_instances,
    unary_instances,
    valid_instance,
)
from .trees import DerivationTree, Leaf, Node, as_forest, attach_words, tree_height


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


@dataclass(frozen=True)
class Action:
    """An annotated combinator occurrence at one time step."""

    kind: CombinatorKind
    positions: tuple[int, ...]
    output: Category
    time: int


@dataclass(frozen=True)
class Plan:
    """Timed sequence of concurrent steps; each step is non-empty."""

    steps: tuple[frozenset[Action], ...]


def step(s: Asr, acts: Iterable[Action]) -> Asr:
    """Apply one concurrent step and return the successor state.

    The caller guarantees the actions are unbanned; this checks the rest of
    the contract: the set is non-empty, actions are stamped with the
    current time, their positions name adjacent items, outputs satisfy
    their schemas, and no two actions touch the same position.
    """
    actions = list(acts)
    if not actions:
        raise ValueError("a step must contain at least one action")
    seen: set[int] = set()
    for a in actions:
        if a.time != s.time:
            raise ValueError(f"action stamped for time {a.time} applied at time {s.time}")
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


def initial_asrs(ts: TaggedSentence) -> Iterator[Asr]:
    """All candidate combinations as initial states, highest weights first.

    Yields one state per element of the Cartesian product of candidate
    lists, position ids 1..n, ordered lexicographically by candidate index.
    """
    for combo in product(*(t.candidates for t in ts.tokens)):
        yield Asr.initial(c.cat for c in combo)


def effective_max_steps(cfg: RuleConfig, sentence_length: int) -> int:
    return cfg.max_steps if cfg.max_steps is not None else sentence_length + 2


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


# A search's packed sub-derivations ("recipes") are trees of ints over the
# item indices of some state: a leaf is the item's index, a node is (node
# id, children), and a best-effort forest is a node with the reserved id
# ``_FOREST`` whose children are the residue items. A node id gives the
# node's combinator and category; its height, also in the id, follows from
# its children. Rebasing maps a recipe across one reduction so memoized
# futures compose with any path into the state; ``_materialize`` translates
# node ids back. A reduction's recipe carries the raises it applied to its
# inputs, so every raise node in a recipe sits under a binary or ternary
# node or is a root.
_FOREST = -1


class _Tables:
    """One search's interned nodes and the rule work done so far.

    Nodes (category, producing combinator, height) are a dict from node to
    id plus the list of nodes by id.
    """

    def __init__(self, cfg: RuleConfig, limit: int):
        self.cfg = cfg
        self.limit = limit
        self.arities = (2, 3) if CombinatorKind.COORD in cfg.enabled else (2,)
        self.node_ids: dict[tuple[Category, CombinatorKind | None, int], int] = {}
        self.nodes: list[tuple[Category, CombinatorKind | None, int]] = []
        self.rules: dict[tuple[Category, ...], list[RuleInstance]] = {}
        self.ways_of: dict[int, list[int | None]] = {}
        self.reduced: dict[tuple[int, ...], list[tuple[int, tuple[int | None, ...]]]] = {}

    def node(self, cat: Category, kind: CombinatorKind | None, height: int) -> int:
        key = (cat, kind, height)
        nid = self.node_ids.get(key)
        if nid is None:
            nid = self.node_ids[key] = len(self.nodes)
            self.nodes.append(key)
        return nid

    def ways(self, nid: int) -> list[int | None]:
        """The ways a node can enter a rule or stand as a root: as it
        stands (None), or as a raised node within the height bound. No
        state node is a raise, so nothing is raised twice."""
        ways = self.ways_of.get(nid)
        if ways is None:
            cat, _, height = self.nodes[nid]
            ways = [None]
            if height < self.limit:
                ways += [self.node(out, kind, height + 1) for kind, out in self.instances((cat,))]
            self.ways_of[nid] = ways
        return ways

    def instances(self, cats: tuple[Category, ...]) -> list[RuleInstance]:
        """The rule instances over one category (its raises), a pair, or a
        triple under coordination, as (combinator, output category)."""
        insts = self.rules.get(cats)
        if insts is None:
            if len(cats) == 1:
                insts = unary_instances(*cats, self.cfg)
            elif len(cats) == 2:
                insts = binary_instances(*cats, self.cfg)
            else:
                insts = ternary_instances(*cats, self.cfg)
            self.rules[cats] = insts
        return insts

    def reductions(self, key: tuple[int, ...]) -> list[tuple[int, tuple[int | None, ...]]]:
        """The reductions of adjacent nodes (a pair, or a triple for
        coordination) as (merged node, raised node or None per input)."""
        found = self.reduced.get(key)
        if found is not None:
            return found
        found = []
        for raises in product(*(self.ways(nid) for nid in key)):
            nodes = [self.nodes[nid if r is None else r] for nid, r in zip(key, raises)]
            insts = self.instances(tuple([cat for cat, _, _ in nodes]))
            if not insts:
                continue
            height = 1 + max([h for _, _, h in nodes])
            if height > self.limit:
                continue
            for kind, out in insts:
                if blocked(kind, nodes[0][1], nodes[-1][1], self.cfg):
                    continue
                found.append((self.node(out, kind, height), raises))
        self.reduced[key] = found
        return found


def _input(j: int, raised: int | None):
    return j if raised is None else (raised, (j,))


def _successors(state: tuple[int, ...], tables: _Tables):
    """Every reduction of a state as (index, arity, successor state,
    recipe over ``state``)."""
    for arity in tables.arities:
        for i in range(len(state) - arity + 1):
            for merged, raises in tables.reductions(state[i : i + arity]):
                built = (merged, tuple([_input(j, r) for j, r in enumerate(raises, i)]))
                yield i, arity, state[:i] + (merged,) + state[i + arity :], built


def _rebase(recipe, i: int, arity: int, built):
    if recipe.__class__ is int:
        if recipe < i:
            return recipe
        if recipe == i:
            return built
        return recipe + arity - 1
    nid, kids = recipe
    return (nid, tuple([_rebase(k, i, arity, built) for k in kids]))


def _recipes(state, tables, target, memo):
    """The fewest items ``state`` reduces to and every recipe reaching
    them: with a ``target`` category, one item of that category (no
    recipes if unreachable), without one, best-effort forests. Callers
    look ``state`` up in ``memo`` first."""
    best = len(state) if target is None else 1
    found = set()
    if target is not None and len(state) == 1:
        root = state[0]
        for r in tables.ways(root):
            if tables.nodes[root if r is None else r][0] == target:
                found.add(_input(0, r))
    for i, arity, successor, built in _successors(state, tables):
        sub_best, subs = memo.get(successor) or _recipes(successor, tables, target, memo)
        if not subs:
            continue
        if sub_best < best:
            best, found = sub_best, set()
        if sub_best == best:
            found.update([_rebase(sub, i, arity, built) for sub in subs])
    if not found and target is None:
        # every reduction shortens the state, so none applies: the items
        # are the residue, each as it stands or raised
        residue = product(*([_input(j, r) for r in tables.ways(nid)] for j, nid in enumerate(state)))
        found = {(_FOREST, items) for items in residue}
    memo[state] = result = (best, found)
    return result


def _materialize(recipe, items: tuple[AnnotatedCategory, ...], tables: _Tables):
    if recipe.__class__ is int:
        item = items[recipe]
        return Leaf(None, item.cat, item.pos)
    nid, kids = recipe
    built = tuple([_materialize(k, items, tables) for k in kids])
    if nid == _FOREST:
        return built
    cat, kind, _ = tables.nodes[nid]
    return Node(kind, cat, built)


def _parse(initial: Asr, cfg: RuleConfig, target: Category | None):
    """One search from an initial state: the fewest items reached, and the
    trees rooted at ``target`` or, without one, the best-effort forests."""
    if initial.time != 0 or initial.last_affected or initial.last_action:
        raise ValueError("enumeration starts from an initial state")
    tables = _Tables(cfg, effective_max_steps(cfg, len(initial.items)))
    state = tuple(tables.node(it.cat, None, 0) for it in initial.items)
    best, recipes = _recipes(state, tables, target, {})
    return best, {_materialize(r, initial.items, tables) for r in recipes}


def enumerate_parses(initial: Asr, cfg: RuleConfig, goal: ParseGoal) -> set[DerivationTree]:
    """All distinct derivation trees whose canonical plan reaches the goal
    within ``max_steps``. Empty when the goal is unreachable."""
    if goal.target is None:
        raise ValueError("enumerate_parses handles strict goals; use best_effort")
    return _parse(initial, cfg, goal.target)[1]


def best_effort(initial: Asr, cfg: RuleConfig) -> tuple[int, set[tuple[DerivationTree, ...]]]:
    """Minimal reachable residue length and every forest achieving it."""
    return _parse(initial, cfg, None)


def parse_all(ts: TaggedSentence, cfg: RuleConfig, goal: ParseGoal):
    """Union over every initial candidate combination, deduplicated.

    Strict: a set of derivation trees. Best-effort: the globally minimal
    residue length across combinations plus all forests achieving it.
    Leaves carry the sentence's words.
    """
    words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
    strict = goal.target is not None
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
    by_time: dict[int, set[Action]] = {}

    def walk(node: DerivationTree, depth: int, height: int) -> int:
        if isinstance(node, Leaf):
            return node.pos
        time = height - 1 - depth
        positions = tuple(walk(c, depth + 1, height) for c in node.kids)
        by_time.setdefault(time, set()).add(Action(node.kind, positions, node.cat, time))
        return positions[0]

    for tree in as_forest(parse):
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
