"""Exhaustive chart parser used as an independent cross-check.

Builds every derivation over every span bottom-up, applying the same rule
schemas and normal-form bans as the plan engine. Cell ``(i, j)`` is the
list of distinct trees over tokens i..j-1, in the order found; a tree's
root ``kind`` is the combinator that built it (None for a lexical leaf),
and a combination or raise is dropped when ``rules.blocked`` bans it on
its inputs' producers, the root kinds of its input trees, as in the plan
engine, so a raised tree is never raised again. Exhaustive, so guarded
by a sentence-length limit.
"""

from __future__ import annotations

from itertools import product

from .lexicon import TaggedSentence
from .rules import CombinatorKind, ParseGoal, RuleConfig, binary_instances, blocked, ternary_instances, unary_instances
from .trees import DerivationTree, Leaf, Node


class ChartLimitError(ValueError):
    """Raised when a sentence exceeds the exhaustive-parse guard."""


def _close_under_raising(trees: list[DerivationTree], cfg: RuleConfig) -> list[DerivationTree]:
    """The trees plus every raise of them that is not blocked, each tree once."""
    closed = list(trees)
    for t in trees:
        for kind, out in unary_instances(t.cat, cfg):
            if not blocked(kind, t.kind, None, cfg):
                closed.append(Node(kind, out, (t,)))
    return list(dict.fromkeys(closed))


def _build_chart(ts: TaggedSentence, cfg: RuleConfig, guard: int) -> dict[tuple[int, int], list[DerivationTree]]:
    n = len(ts.tokens)
    if n > guard:
        raise ChartLimitError(f"sentence length {n} exceeds the oracle guard of {guard}")
    coordinate = CombinatorKind.COORD in cfg.enabled
    cells: dict[tuple[int, int], list[DerivationTree]] = {}
    for i, tok in enumerate(ts.tokens):
        base = [Leaf(tok.word, cand.cat, i + 1) for cand in tok.candidates]
        cells[(i, i + 1)] = _close_under_raising(base, cfg)
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length
            found: list[DerivationTree] = []
            for k in range(i + 1, j):
                for l, r in product(cells[(i, k)], cells[(k, j)]):
                    for kind, out in binary_instances(l.cat, r.cat, cfg):
                        if not blocked(kind, l.kind, r.kind, cfg):
                            found.append(Node(kind, out, (l, r)))
            if coordinate:  # else no triple reduces
                for k in range(i + 1, j - 1):
                    for m in range(k + 1, j):
                        for a, b, c in product(cells[(i, k)], cells[(k, m)], cells[(m, j)]):
                            for kind, out in ternary_instances(a.cat, b.cat, c.cat, cfg):
                                found.append(Node(kind, out, (a, b, c)))
            cells[(i, j)] = _close_under_raising(found, cfg)
    return cells


def chart_parse_all(ts: TaggedSentence, cfg: RuleConfig, goal: ParseGoal, guard: int = 10):
    """All goal-reaching derivations by brute force.

    Strict: the set of whole-sentence trees with the target category.
    Best-effort: the minimal number of contiguous segments covering the
    sentence, plus every forest of segment derivations achieving it.
    """
    n = len(ts.tokens)
    cells = _build_chart(ts, cfg, guard)
    if goal.target is not None:
        return {t for t in cells[(0, n)] if t.cat == goal.target}

    best = [0] + [n + 1] * n
    for j in range(1, n + 1):
        for i in range(j):
            if cells[(i, j)]:
                best[j] = min(best[j], best[i] + 1)

    def segmentations(j: int) -> list[tuple[tuple[int, int], ...]]:
        if j == 0:
            return [()]
        out = []
        for i in range(j):
            if cells[(i, j)] and best[i] + 1 == best[j]:
                out.extend(prefix + ((i, j),) for prefix in segmentations(i))
        return out

    forests: set[tuple[DerivationTree, ...]] = set()
    for spans in segmentations(n):
        forests.update(product(*(cells[span] for span in spans)))
    return best[n], forests
