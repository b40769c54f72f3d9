"""Parsing as plan search over category sequences.

The search starts from the categories of one candidate combination, at
positions 1..n, and builds no planning state. It enumerates canonical
concurrent plans: within a plan, a category produced at step t that is
consumed later must be consumed at step t+1, and every action at step
t >= 1 either consumes a category produced at step t-1 or works entirely
on untouched initial material. One canonical plan exists per derivation
tree reaching the goal, its length equal to the tree's internal height,
with every node scheduled at ``height(tree) - 1 - depth(node)``.

That correspondence lets the enumeration walk reductions while tracking
the height each constituent would occupy in the levelized concurrent
schedule, discarding reductions whose height exceeds ``max_steps``. A
reduction is one binary or ternary rule; a type raise is applied to one
of its inputs in the same reduction, so raised categories never sit in a
search state and need no filter. Only a tree root may stand raised: the
sentence under a strict goal when the raise yields the target, and any
residue item under best-effort, raised by ``_standing`` after the search.

The strict search is memoized: it maps a state to every packed
sub-derivation reducing it to one item of the target category or raising
to it. Nodes, the (category, producing combinator, height) of an item, are
interned to ints, and a state is the tuple of its items' node ids.
Reductions reaching the same state share its memo entry, so commutative
action orders are explored once. What an adjacent pair of nodes (or
triple, under coordination) can reduce to depends on those nodes, the
rule configuration and the height bound alone, so it is computed once
and reused in every state where they are adjacent. Below that sits the
rule work of a category pair (or triple): the rule over each combination
of its inputs, each as it stands or raised, computed once, so a node pair
only filters that list by height and by the normal-form bans. Categories
are interned, so the tables hash and compare them by identity.
``parse_all`` is the one entry point: it builds one table set per call,
from the rule configuration and the sentence's height bound, and every
search it runs shares it. The trees found are exactly those denoted by admissible
canonical plans; ``canonical_plan`` rebuilds the concurrent plan for any
of them.

On supertagged input most combinations have no strict parse, and most
of those fail a test that needs no search. Count each atom +1 in a
result position and -1 in an argument position, so count(X/Y) =
count(X) - count(Y). Every combinator but ``<Sx`` and ``&``
(``rules.COUNT_KEEPING_KINDS``) gives its output the sum of its inputs'
counts (van Benthem 1991), and so does a raise, at a root too. So while
only those combinators are enabled, every tree over a combination has
the sum of its categories' counts at its root, and a strict search whose
sum differs from the target's count can find nothing: ``parse_all`` does
not run it. With ``<Sx`` or ``&`` enabled no search is skipped.

Best-effort runs no state search but one chart over the candidate lattice
(Billot & Lang 1989) on the same tables. Cell (i, j) maps each node built
over tokens i..j-1 to its backpointers, and only non-empty cells are kept.
For each end j a start index lists the starts of its cells: a span tries
only splits into cells that exist, and segmentations are read from it too.
A segmentation takes each segment's candidates on its own, so its
segmentations into the fewest cells give the fewest items over all
combinations, and every forest of that many. Leaves carry their words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .categories import Category
from .lexicon import TaggedSentence, Token
from .rules import (
    COUNT_KEEPING_KINDS,
    CombinatorKind,
    ParseGoal,
    RuleConfig,
    RuleInstance,
    atom_count,
    binary_instances,
    blocked,
    ternary_instances,
    unary_instances,
)
from .trees import DerivationTree, Leaf, Node, as_forest, attach_words, tree_height


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


def effective_max_steps(cfg: RuleConfig, sentence_length: int) -> int:
    return cfg.max_steps if cfg.max_steps is not None else sentence_length + 2


# A search's packed sub-derivations ("recipes") are trees of ints over the
# item indices of some state: a leaf is the item's index, a node is (node
# id, children), the id giving its combinator, category and height. Rebasing
# maps a recipe across one reduction so memoized futures compose with any
# path into the state; ``_materialize`` translates node ids back. A
# reduction's recipe is the merged node over its inputs, each as it stands
# or raised, so every raise node in a recipe sits under a binary or ternary node.


class _Tables:
    """Interned nodes and the rule work done so far, for one rule
    configuration and height bound.

    Nodes (category, producing combinator, height) are a dict from node to
    id plus the list of nodes by id. The rule work has three levels, each
    computed once: a category's raises (``unary_instances``); a category
    tuple's raised rules, the rule over each combination of its inputs as
    they stand or raised; and a node tuple's reductions, the raised rules
    that fit the height bound and the normal-form bans. The rule functions
    are looked up in this module's globals at each call. No entry depends
    on a search's start state or target, so every search over sentences of
    one length may share a table set: ``parse_all`` builds one per call,
    for either goal, and hands it to each strict search or to the chart.
    """

    def __init__(self, cfg: RuleConfig, limit: int):
        self.cfg = cfg
        self.limit = limit
        self.arities = (2, 3) if CombinatorKind.COORD in cfg.enabled else (2,)
        self.node_ids: dict[tuple[Category, CombinatorKind | None, int], int] = {}
        self.nodes: list[tuple[Category, CombinatorKind | None, int]] = []
        self.raises_of: dict[Category, list[RuleInstance]] = {}
        self.raised: dict[tuple[Category, ...], list] = {}
        self.reduced: dict[tuple[int, ...], list[tuple[int, tuple[int | None, ...]]]] = {}

    def node(self, cat: Category, kind: CombinatorKind | None, height: int) -> int:
        key = (cat, kind, height)
        nid = self.node_ids.get(key)
        if nid is None:
            nid = self.node_ids[key] = len(self.nodes)
            self.nodes.append(key)
        return nid

    def raises(self, cat: Category) -> list[RuleInstance]:
        """The raise instances of one category, as (combinator, output
        category)."""
        insts = self.raises_of.get(cat)
        if insts is None:
            insts = self.raises_of[cat] = unary_instances(cat, self.cfg)
        return insts

    def raised_rules(self, cats: tuple[Category, ...]) -> list:
        """Every rule over a category pair (or triple, for coordination)
        with its inputs as they stand or raised, as (raise or None per
        input, combinator, output category), in the order of the raise
        combinations and then of the rule instances."""
        found = self.raised.get(cats)
        if found is None:
            rule = binary_instances if len(cats) == 2 else ternary_instances
            ways = [[None, *self.raises(cat)] for cat in cats]
            variants = [[cat if r is None else r.output for r in rs] for cat, rs in zip(cats, ways)]
            found = self.raised[cats] = [
                (picks, kind, out)
                for picks, inputs in zip(product(*ways), product(*variants))
                for kind, out in rule(*inputs, self.cfg)
            ]
        return found

    def reductions(self, key: tuple[int, ...]) -> list[tuple[int, tuple[int | None, ...]]]:
        """The reductions of adjacent nodes (a pair, or a triple for
        coordination) as (merged node, raised node or None per input): the
        category tuple's raised rules, each input as it stands or raised,
        that fit the height bound and the bans on the inputs' producers.
        Each instance is held to the bound with its raises applied, which
        also drops every one whose plain inputs are already too tall."""
        found = self.reduced.get(key)
        if found is not None:
            return found
        found = []
        nodes = [self.nodes[nid] for nid in key]
        for raises, kind, out in self.raised_rules(tuple([cat for cat, _, _ in nodes])):
            inputs = [n if r is None else (r.output, r.kind, n[2] + 1) for n, r in zip(nodes, raises)]
            height = 1 + max([h for _, _, h in inputs])
            if height > self.limit or blocked(kind, inputs[0][1], inputs[-1][1], self.cfg):
                continue
            raised = tuple([None if r is None else self.node(*n) for n, r in zip(inputs, raises)])
            found.append((self.node(out, kind, height), raised))
        self.reduced[key] = found
        return found


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
    """Every recipe reducing ``state`` to one item that is ``target`` or
    raises to it. No root is raised here (see ``_standing``). Callers look
    ``state`` up in ``memo`` first."""
    found = set()
    if len(state) > 1:
        for arity in tables.arities:
            for i in range(len(state) - arity + 1):
                for merged, raises in tables.reductions(state[i : i + arity]):
                    successor = state[:i] + (merged,) + state[i + arity :]
                    subs = memo[successor] if successor in memo else _recipes(successor, tables, target, memo)
                    if subs:
                        built = (merged, tuple([j if r is None else (r, (j,)) for j, r in enumerate(raises, i)]))
                        found.update([_rebase(sub, i, arity, built) for sub in subs])
    elif len(state) == 1:
        cat, _, height = tables.nodes[state[0]]
        if cat == target or height < tables.limit and any(out == target for _, out in tables.raises(cat)):
            found.add(0)
    memo[state] = found
    return found


def _materialize(recipe, cats: tuple[Category, ...], tables: _Tables):
    if recipe.__class__ is int:
        return Leaf(None, cats[recipe], recipe + 1)
    nid, kids = recipe
    cat, kind, _ = tables.nodes[nid]
    return Node(kind, cat, tuple([_materialize(k, cats, tables) for k in kids]))


def _standing(tree: DerivationTree, tables: _Tables) -> list[DerivationTree]:
    """The ways an answer's root may stand: as it is, then raised by each
    raise within the height bound. No root is a raise, so nothing is
    raised twice."""
    if tree_height(tree) >= tables.limit:
        return [tree]
    return [tree, *[Node(kind, out, (tree,)) for kind, out in tables.raises(tree.cat)]]


def enumerate_parses(cats: tuple[Category, ...], tables: _Tables, target: Category) -> set[DerivationTree]:
    """All distinct derivation trees over the categories at positions 1..n
    whose canonical plan reaches ``target`` within the tables' height bound;
    empty when it is unreachable."""
    state = tuple([tables.node(cat, None, 0) for cat in cats])
    trees = [_materialize(r, cats, tables) for r in _recipes(state, tables, target, {})]
    raised = [t for tree in trees if tree.cat != target for t in _standing(tree, tables)]
    return {tree for tree in trees + raised if tree.cat == target}


def _chart(tokens: Sequence[Token], tables: _Tables) -> tuple[dict, list[list[int]]]:
    """The non-empty cells over the candidates of ``tokens``, and per end j its cells' starts, descending."""
    # a backpointer is (input spans, input node ids, raised node id or None per input)
    cells, starts = {}, [[]]
    for j, tok in enumerate(tokens, 1):
        cells[(j - 1, j)] = {tables.node(c.cat, None, 0): [] for c in tok.candidates}
        starts.append([j - 1])
        for i in range(j - 2, -1, -1):
            splits = [((i, k), (k, j)) for k in starts[j] if (i, k) in cells]
            if 3 in tables.arities:
                splits += [((i, k), (k, m), (m, j)) for m in starts[j] for k in starts[m] if k > i and (i, k) in cells]
            cell = {}
            for spans in splits:
                for key in product(*[cells[span] for span in spans]):
                    for merged, raises in tables.reductions(key):
                        cell.setdefault(merged, []).append((spans, key, raises))
            if cell:
                cells[(i, j)] = cell
                starts[j].append(i)
    return cells, starts


def best_effort(tokens: Sequence[Token], tables: _Tables) -> tuple[int, set[tuple[DerivationTree, ...]]]:
    """The fewest items the candidates of ``tokens`` reduce to, and every forest of that many."""
    cells, starts = _chart(tokens, tables)
    # the segmentations of tokens 0..j-1 into the fewest cells
    best, segmentations = [0], [[()]]
    for j in range(1, len(tokens) + 1):
        best.append(min([best[i] + 1 for i in starts[j]]))
        segmentations.append([(*s, (i, j)) for i in starts[j] if best[i] + 1 == best[j] for s in segmentations[i]])
    # each (span, node) of the answer is unpacked once, after the (span, node)s below it
    trees: dict = {}
    todo = [(span, nid) for spans in segmentations[-1] for span in spans for nid in cells[span]]
    while todo:
        span, nid = item = todo.pop()
        below = [pair for spans, key, _ in cells[span][nid] for pair in zip(spans, key) if pair not in trees]
        if below:
            todo += [item, *below]
        elif item not in trees:
            cat, kind, _ = tables.nodes[nid]
            trees[item] = [] if kind else [Leaf(tokens[span[0]].word, cat, span[1])]
            for spans, key, raises in cells[span][nid]:
                inputs = [trees[pair] for pair in zip(spans, key)]
                for x, (out, rule, _) in [(x, tables.nodes[r]) for x, r in enumerate(raises) if r is not None]:
                    inputs[x] = [Node(rule, out, (t,)) for t in inputs[x]]
                trees[item] += [Node(kind, cat, kids) for kids in product(*inputs)]
    ways = [[[t for nid in cells[span] for tree in trees[span, nid] for t in _standing(tree, tables)] for span in spans]
            for spans in segmentations[-1]]
    return best[-1], {forest for way in ways for forest in product(*way)}


def _sums_to(counts: Iterable[dict], total: dict) -> bool:
    """Whether atom counts sum to ``total``."""
    left = dict(total)
    for count in counts:
        for atom, n in count.items():
            left[atom] = left.get(atom, 0) - n
    return not any(left.values())


def parse_all(ts: TaggedSentence, cfg: RuleConfig, goal: ParseGoal):
    """Strict: every derivation tree over any candidate combination.
    Best-effort: the fewest items over the candidate lattice and every
    forest of that many. Leaves carry the sentence's words."""
    tables = _Tables(cfg, effective_max_steps(cfg, len(ts.tokens)))
    if goal.target is None:
        return best_effort(ts.tokens, tables)
    words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
    # while every enabled rule keeps the atom count, a strict combination
    # whose counts do not sum to the target's has no parse (module docstring)
    counts = None
    if cfg.enabled <= COUNT_KEEPING_KINDS:
        counts = {c.cat: atom_count(c.cat) for tok in ts.tokens for c in tok.candidates}
        need = atom_count(goal.target)
    found: set = set()
    for combo in product(*(tok.candidates for tok in ts.tokens)):
        cats = tuple([c.cat for c in combo])
        if counts is not None and not _sums_to([counts[cat] for cat in cats], need):
            continue
        found.update([attach_words(tree, words) for tree in enumerate_parses(cats, tables, goal.target)])
    return found


def _schedule(node: DerivationTree, time: int, by_time: dict[int, set[Action]]) -> int:
    """Add ``node``'s action at ``time``, and each below it a step earlier
    than its parent's, to ``by_time``; the position of its leftmost leaf.
    Module-level, like ``render._place``, so no closure refers to itself."""
    if isinstance(node, Leaf):
        return node.pos
    positions = tuple([_schedule(c, time - 1, by_time) for c in node.kids])
    by_time.setdefault(time, set()).add(Action(node.kind, positions, node.cat, time))
    return positions[0]


def canonical_plan(parse: DerivationTree | Sequence[DerivationTree]) -> Plan:
    """The unique canonical concurrent plan denoting a tree (or forest).

    Every internal node v of a tree of height h is scheduled at time
    h - 1 - depth(v); each action consumes the positions at the leftmost
    leaves of its children and outputs the node's category.
    """
    by_time: dict[int, set[Action]] = {}
    for tree in as_forest(parse):
        _schedule(tree, tree_height(tree) - 1, by_time)
    if not by_time:
        return Plan(())
    length = max(by_time) + 1
    return Plan(tuple(frozenset(by_time.get(t, ())) for t in range(length)))

