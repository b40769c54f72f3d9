"""Differential tests over every combinator, and pinned type-raise sites.

The plan engine is checked against the brute-force concurrent-plan search
with all nine combinators enabled, and against the chart oracle on
sentences whose tokens have one or two candidate categories, under both
goals. The oracle has no plan-length bound, so its strict trees are cut
to ``tree_height <= max_steps`` before comparing, and best-effort runs
with ``max_steps = 2n+1``, which admits every tree over n words. Besides
fixed shapes, the sentences come from random derivations
(``tests/derivations.py``), which always have a strict parse.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ccgplan import (
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    attach_words,
    chart_parse_all,
    effective_max_steps,
    parse_all,
    parse_category,
)
from ccgplan.rules import DEFAULT_RAISE_TARGETS
from ccgplan.trees import tree_height
from brute import brute_best_effort, brute_strict_trees
from conftest import one_candidate
from derivations import derivations

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
        assert parse_all(one_candidate(cats), cfg, goal) == brute_strict_trees(cats, cfg, goal), (
            f"case {case}: {cats} {cfg}"
        )


def test_all_combinators_match_brute_force_best_effort():
    rng = random.Random(521)
    goal = ParseGoal.best_effort()
    for case in range(36):
        cats = _sentence(rng, SHAPES)
        cfg = _all_rules_config(case, len(cats))
        assert parse_all(one_candidate(cats), cfg, goal) == brute_best_effort(cats, cfg), (
            f"case {case}: {cats} {cfg}"
        )


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


DERIVED_TARGETS = [C("S"), C("NP"), C(r"S\NP")]
MAX_DERIVED_TOKENS = 5
# the brute-force search is checked on sentences of at most this many tokens
MAX_BRUTE_TOKENS = 3


@st.composite
def derived_cases(draw):
    """A random derivation's leaves, some tokens with a distractor candidate
    from ``POOL``, under a rule set holding the derivation's rules (all nine
    in some cases) and one raise target, with normalization on or off; and
    the derivation's target."""
    target, raise_target = draw(st.sampled_from(DERIVED_TARGETS)), draw(st.sampled_from(DEFAULT_RAISE_TARGETS))
    cats, used = draw(derivations(target, raise_target, draw(st.integers(1, MAX_DERIVED_TOKENS))))
    distractors = draw(st.lists(st.none() | st.sampled_from(POOL), min_size=len(cats), max_size=len(cats)))
    tokens = tuple(
        Token(f"w{i}", (Candidate(c),) + (() if d is None or C(d) is c else (Candidate(C(d)),)))
        for i, (c, d) in enumerate(zip(cats, distractors))
    )
    enabled = used | draw(st.just(ALL_RULES) | st.frozensets(st.sampled_from(list(K)), min_size=1))
    cfg = RuleConfig(enabled=enabled, raise_targets=(raise_target,), normalize=draw(st.booleans()))
    return TaggedSentence(tokens), cfg, ParseGoal.strict(target)


@settings(max_examples=100, deadline=None)
@given(derived_cases())
def test_engine_matches_oracle_and_brute_force_on_derived_sentences(case):
    """Strict goals at every ``max_steps`` from None and 1 to 2n+1, and
    best-effort at 2n+1, which cuts no tree. A short sentence whose tokens
    have one candidate each is checked against the brute-force search too.
    A tree's height is its canonical plan's length, so the references run
    once, unbounded or at 2n+1, and are cut by ``tree_height``."""
    ts, cfg, goal = case
    n = len(ts.tokens)
    wide = replace(cfg, max_steps=2 * n + 1)
    best_effort_goal = ParseGoal.best_effort()
    strict_refs = [chart_parse_all(ts, cfg, goal)]
    best_refs = [chart_parse_all(ts, wide, best_effort_goal)]
    if n <= MAX_BRUTE_TOKENS and all(len(tok.candidates) == 1 for tok in ts.tokens):
        cats = [tok.candidates[0].cat for tok in ts.tokens]
        words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
        strict_refs.append({attach_words(t, words) for t in brute_strict_trees(cats, wide, goal)})
        residue, forests = brute_best_effort(cats, wide)
        best_refs.append((residue, {tuple(attach_words(t, words) for t in forest) for forest in forests}))
    for max_steps in [None, *range(1, 2 * n + 2)]:
        bounded = replace(cfg, max_steps=max_steps)
        limit = effective_max_steps(bounded, n)
        strict = parse_all(ts, bounded, goal)
        for ref in strict_refs:
            assert strict == {t for t in ref if tree_height(t) <= limit}, max_steps
    best = parse_all(ts, wide, best_effort_goal)
    for ref in best_refs:
        assert best == ref


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
    trees = parse_all(one_candidate([C("NP")]), RuleConfig(), ParseGoal.strict(target))
    assert trees == {Node(K.FWD_RAISE, target, (Leaf(None, C("NP"), 1),))}
    assert parse_all(one_candidate([C("NP")]), RuleConfig(max_steps=1), ParseGoal.strict(target)) == trees
