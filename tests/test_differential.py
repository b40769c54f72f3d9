"""Differential tests over every combinator, and pinned type-raise sites.

The plan engine is checked against the brute-force concurrent-plan search
with all nine combinators enabled, and against the chart oracle on
sentences whose tokens have one or two candidate categories, under both
goals. The oracle has no plan-length bound, so its strict trees are cut
to ``tree_height <= max_steps`` before comparing, and best-effort runs
with ``max_steps = 2n+1``, which admits every tree over n words.
"""

import random

from ccgplan import (
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    best_effort,
    chart_parse_all,
    effective_max_steps,
    enumerate_parses,
    parse_all,
    parse_category,
)
from ccgplan.trees import tree_height
from brute import brute_best_effort, brute_strict_trees

C = parse_category
K = CombinatorKind

ALL_RULES = frozenset(K)

# Sentences with a strict parse; between them they use every combinator.
SHAPES = [
    ["NP", r"S\NP"],
    ["NP", r"(S\NP)/NP", "NP"],
    ["S", "conj", "S"],
    ["S/NP", r"S\S", "NP"],  # <Bx
    ["S/NP", r"(S\S)/NP", "NP"],  # <Sx
    ["NP/N", "N", r"S\NP"],
    ["NP", "conj", "NP", r"S\NP"],  # & over raised NPs
    ["NP", r"(S\NP)/NP", r"(S\NP)\(S\NP)", "NP"],  # <Bx
]
LONG_SHAPES = SHAPES + [
    ["NP", r"(S\NP)/NP", "conj", r"(S\NP)/NP", "NP"],
    ["NP/N", "N", r"(S\NP)/NP", "NP/N", "N"],
    ["NP", r"(S\NP)/NP", "NP", r"(NP\NP)/NP", "NP"],
]
POOL = ["S", "NP", "N", "NP/N", r"S\NP", r"(S\NP)/NP", "conj", "S/NP", r"NP\NP", r"(S\NP)\(S\NP)"]


def _sentence(rng, shapes):
    """A random shape, one of its categories swapped for a pool entry a
    third of the time."""
    cats = list(rng.choice(shapes))
    if rng.random() < 1 / 3:
        cats[rng.randrange(len(cats))] = rng.choice(POOL)
    return [C(c) for c in cats]


def _all_rules_config(case, n):
    # one raise target keeps the brute-force search over step sets small
    max_steps = (1, 2, n + 1)[case % 3]
    return RuleConfig(
        enabled=ALL_RULES, raise_targets=(C("S"),), normalize=case // 3 % 2 == 0, max_steps=max_steps
    )


def test_all_combinators_match_brute_force_strict():
    rng = random.Random(409)
    goal = ParseGoal.strict()
    for case in range(36):
        cats = _sentence(rng, SHAPES)
        cfg = _all_rules_config(case, len(cats))
        assert enumerate_parses(cats, cfg, goal) == brute_strict_trees(cats, cfg, goal), f"case {case}: {cats} {cfg}"


def test_all_combinators_match_brute_force_best_effort():
    rng = random.Random(521)
    for case in range(36):
        cats = _sentence(rng, SHAPES)
        cfg = _all_rules_config(case, len(cats))
        assert best_effort(cats, cfg) == brute_best_effort(cats, cfg), f"case {case}: {cats} {cfg}"


def _oracle_config(case, n):
    enabled = ALL_RULES if case % 2 else RuleConfig().enabled
    max_steps = (None, 2, n + 1)[case // 2 % 3]
    return RuleConfig(enabled=enabled, normalize=case // 6 % 2 == 0, max_steps=max_steps)


def test_engine_matches_oracle_with_candidate_sets():
    rng = random.Random(613)
    goal = ParseGoal.strict()
    for case in range(48):
        cats = _sentence(rng, LONG_SHAPES)
        tokens = tuple(
            Token(f"w{i}", (Candidate(c),) + ((Candidate(C(rng.choice(POOL))),) if rng.random() < 0.5 else ()))
            for i, c in enumerate(cats)
        )
        ts = TaggedSentence(tokens)
        cfg = _oracle_config(case, len(cats))
        limit = effective_max_steps(cfg, len(cats))
        oracle = {t for t in chart_parse_all(ts, cfg, goal) if tree_height(t) <= limit}
        assert parse_all(ts, cfg, goal) == oracle, f"case {case}: {tokens} {cfg}"


def test_engine_matches_oracle_best_effort_with_candidate_sets():
    rng = random.Random(727)
    goal = ParseGoal.best_effort()
    for case in range(40):
        cats = _sentence(rng, LONG_SHAPES)
        tokens = tuple(
            Token(f"w{i}", (Candidate(c),) + ((Candidate(C(rng.choice(POOL))),) if rng.random() < 0.5 else ()))
            for i, c in enumerate(cats)
        )
        ts = TaggedSentence(tokens)
        enabled = ALL_RULES if case % 2 else RuleConfig().enabled
        cfg = RuleConfig(enabled=enabled, normalize=case // 2 % 2 == 0, max_steps=2 * len(cats) + 1)
        assert parse_all(ts, cfg, goal) == chart_parse_all(ts, cfg, goal), f"case {case}: {tokens} {cfg}"


def _tagged(*entries):
    return TaggedSentence(tuple(Token(word, (Candidate(C(cat)),)) for word, cat in entries))


def test_coordination_of_raised_noun_phrases():
    ts = _tagged(("John", "NP"), ("and", "conj"), ("Mary", "NP"), ("left", r"S\NP"))
    cfg = RuleConfig(enabled=RuleConfig().enabled | {K.COORD})
    john, conj, mary = Leaf("John", C("NP"), 1), Leaf("and", C("conj"), 2), Leaf("Mary", C("NP"), 3)
    left = Leaf("left", C(r"S\NP"), 4)
    raised = C(r"S/(S\NP)")
    coordinated = Node(K.COORD, raised, (Node(K.FWD_RAISE, raised, (john,)), conj, Node(K.FWD_RAISE, raised, (mary,))))
    expected = {
        Node(K.FWD_APPL, C("S"), (coordinated, left)),
        Node(K.BWD_APPL, C("S"), (Node(K.COORD, C("NP"), (john, conj, mary)), left)),
    }
    assert parse_all(ts, cfg, ParseGoal.strict()) == expected
    assert chart_parse_all(ts, cfg, ParseGoal.strict()) == expected


def test_best_effort_residue_with_a_raised_root():
    ts = _tagged(("John", "NP"), ("dog", "N"))
    cfg = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL, K.FWD_RAISE}, raise_targets=(C("S"),))
    john, dog = Leaf("John", C("NP"), 1), Leaf("dog", C("N"), 2)
    expected = (2, {(john, dog), (Node(K.FWD_RAISE, C(r"S/(S\NP)"), (john,)), dog)})
    assert parse_all(ts, cfg, ParseGoal.best_effort()) == expected
    assert chart_parse_all(ts, cfg, ParseGoal.best_effort()) == expected


def test_strict_root_may_stand_raised_when_it_is_the_target():
    target = C(r"S/(S\NP)")
    trees = enumerate_parses([C("NP")], RuleConfig(), ParseGoal.strict(target))
    assert trees == {Node(K.FWD_RAISE, target, (Leaf(None, C("NP"), 1),))}
    assert enumerate_parses([C("NP")], RuleConfig(max_steps=1), ParseGoal.strict(target)) == trees
