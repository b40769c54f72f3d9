"""Metamorphic laws of the plan engine on generated sentences.

Example size is bounded explicitly: at most ``MAX_TOKENS`` tokens, each
with one to ``MAX_CANDIDATES`` distinct candidate categories from a fixed
pool, under any non-empty set of the nine combinators. Random sentences
rarely have a strict parse, so the laws relating strict parses to other
results also draw sentences from parseable shapes. One law counts the
strict parses of composition chains in closed form. The last two compare
what trees mean (``tests/semantics.py``): the normal form keeps exactly
one tree per reading of the unnormalized trees that raise only ``NP``.
They draw most of their sentences from random derivations
(``tests/derivations.py``), which always parse.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccgplan import (
    Candidate,
    CombinatorKind,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    attach_words,
    best_effort,
    canonical_plan,
    check_tree,
    enumerate_parses,
    ingest_supertags,
    leaves,
    parse_all,
    parse_category,
    print_category,
)
from ccgplan.rules import DEFAULT_RAISE_TARGETS, RAISE_KINDS
from derivations import derivations
from planning import AnnotatedCategory, Asr, replay_plan
from semantics import reading

MAX_TOKENS = 5
MAX_CANDIDATES = 2
POOL = [
    parse_category(c)
    for c in ("S", "NP", "N", "NP/N", r"S\NP", r"(S\NP)/NP", "conj", "S/NP", r"S\S", r"NP\NP", r"(NP\NP)/NP")
]
EXAMPLES = settings(max_examples=100, deadline=None)
# The law a missing normal-form clause breaks draws more: a gap shows in a
# few percent of generated derivations.
READING_EXAMPLES = settings(max_examples=300, deadline=None)

candidate_lists = st.lists(st.sampled_from(POOL), min_size=1, max_size=MAX_CANDIDATES, unique=True)
sentences = st.lists(candidate_lists, min_size=1, max_size=MAX_TOKENS).map(
    lambda cands: TaggedSentence(
        tuple(Token(f"w{i}", tuple(Candidate(c) for c in cs)) for i, cs in enumerate(cands))
    )
)
rule_sets = st.frozensets(st.sampled_from(list(CombinatorKind)), min_size=1)
# One raise target: an item then enters a rule in at most three ways (as it
# stands, raised forward, raised backward), which keeps normalize-off
# best-effort forests, every residue item raised each way, in the hundreds.
raise_targets = st.sampled_from(DEFAULT_RAISE_TARGETS)


@st.composite
def cases(draw):
    """A sentence and a rule configuration for it."""
    ts = draw(sentences)
    cfg = RuleConfig(
        enabled=draw(rule_sets),
        raise_targets=(draw(raise_targets),),
        normalize=draw(st.booleans()),
        max_steps=draw(st.none() | st.integers(1, 2 * len(ts.tokens) + 1)),
    )
    return ts, cfg


STRICT = ParseGoal.strict()


@EXAMPLES
@given(cases())
def test_normal_form_parses_are_among_all_parses(case):
    ts, cfg = case
    on = parse_all(ts, replace(cfg, normalize=True), STRICT)
    off = parse_all(ts, replace(cfg, normalize=False), STRICT)
    assert on <= off


@EXAMPLES
@given(cases(), st.integers(1, 2 * MAX_TOKENS))
def test_strict_parses_grow_with_max_steps(case, steps):
    ts, cfg = case
    shorter = parse_all(ts, replace(cfg, max_steps=steps), STRICT)
    assert shorter <= parse_all(ts, replace(cfg, max_steps=steps + 1), STRICT)


@EXAMPLES
@given(cases())
def test_every_emitted_tree_is_sound(case):
    ts, cfg = case
    trees = parse_all(ts, cfg, STRICT)
    _, forests = parse_all(ts, cfg, ParseGoal.best_effort())
    assert all(check_tree(t) for t in trees)
    assert all(check_tree(t) for forest in forests for t in forest)


@EXAMPLES
@given(cases())
def test_canonical_plan_of_every_strict_tree_replays_to_the_goal(case):
    ts, cfg = case
    for tree in parse_all(ts, cfg, STRICT):
        initial = Asr.initial([leaf.cat for leaf in leaves(tree)])
        final = replay_plan(initial, canonical_plan(tree))[-1]
        assert final.items == (AnnotatedCategory(1, STRICT.target),)


# Category sequences with a strict parse under application alone, except
# the coordination, which needs &.
SHAPES = [
    ["NP", r"S\NP"],
    ["S/NP", "NP"],
    ["S", r"S\S"],
    ["NP", r"(S\NP)/NP", "NP"],
    ["NP/N", "N", r"S\NP"],
    ["S", "conj", "S"],
    ["NP", r"(S\NP)/NP", "NP/N", "N"],
    ["NP/N", "N", r"(S\NP)/NP", "NP"],
    ["NP", r"(S\NP)/NP", "NP", r"(NP\NP)/NP", "NP"],
]
APPLICATION = frozenset({CombinatorKind.FWD_APPL, CombinatorKind.BWD_APPL})


@st.composite
def shaped_candidates(draw):
    """Candidate lists for a parseable shape: per token its category and,
    two times in three, a second one, from the pool or from a shape of the
    same length, so that a second combination may parse too."""
    shape = draw(st.sampled_from(SHAPES))
    twin = draw(st.sampled_from([other for other in SHAPES if len(other) == len(shape)]))
    candidates = []
    for text, twin_text in zip(shape, twin):
        gold = parse_category(text)
        other = draw(st.none() | st.just(parse_category(twin_text)) | st.sampled_from(POOL))
        candidates.append([gold] if other in (None, gold) else [gold, other])
    return candidates


@st.composite
def shaped_cases(draw):
    """A parseable shape under a rule set that includes application."""
    ts = TaggedSentence(
        tuple(Token(f"w{i}", tuple(Candidate(c) for c in cs)) for i, cs in enumerate(draw(shaped_candidates())))
    )
    cfg = RuleConfig(
        enabled=draw(rule_sets) | APPLICATION,
        raise_targets=(draw(raise_targets),),
        normalize=draw(st.booleans()),
        max_steps=draw(st.none() | st.integers(1, 2 * len(ts.tokens) + 1)),
    )
    return ts, cfg


@EXAMPLES
@given(cases() | shaped_cases())
def test_strict_parses_are_the_residue_one_trees_rooted_at_the_target(case):
    """So a sentence with a strict parse has best-effort residue 1."""
    ts, cfg = case
    trees = parse_all(ts, cfg, STRICT)
    residue, forests = parse_all(ts, cfg, ParseGoal.best_effort())
    rooted = {forest[0] for forest in forests if residue == 1 and forest[0].cat == STRICT.target}
    assert trees == rooted


@EXAMPLES
@given(cases() | shaped_cases())
def test_parse_all_is_the_union_of_one_fresh_search_per_combination(case):
    """``parse_all``'s searches share one table set; they find what
    searches with a table set each find."""
    ts, cfg = case
    words = {i + 1: tok.word for i, tok in enumerate(ts.tokens)}
    trees = set()
    fallbacks = []
    for combo in product(*(tok.candidates for tok in ts.tokens)):
        cats = [c.cat for c in combo]
        trees |= {attach_words(t, words) for t in enumerate_parses(cats, cfg, STRICT)}
        residue, forests = best_effort(cats, cfg)
        fallbacks.append((residue, {tuple(attach_words(t, words) for t in forest) for forest in forests}))
    best = min(residue for residue, _ in fallbacks)
    assert parse_all(ts, cfg, STRICT) == trees
    assert parse_all(ts, cfg, ParseGoal.best_effort()) == (best, set().union(*(f for r, f in fallbacks if r == best)))


weights = st.floats(0.001, 1.0)
cutoff_pairs = st.lists(weights, min_size=2, max_size=2, unique=True)


@st.composite
def supertag_lines(draw):
    """One supertagged sentence, shaped or random, each candidate weighted."""
    candidates = draw(shaped_candidates() | st.lists(candidate_lists, min_size=1, max_size=MAX_TOKENS))
    return " ".join(
        "|".join([f"w{i}", "X", *(f"{print_category(c)}:{draw(weights)}" for c in cs)])
        for i, cs in enumerate(candidates)
    )


@EXAMPLES
@given(supertag_lines(), rule_sets, st.booleans(), cutoff_pairs)
def test_a_wider_supertag_cutoff_keeps_every_strict_parse(line, rules, normalize, cutoffs):
    cfg = RuleConfig(enabled=rules | APPLICATION, raise_targets=DEFAULT_RAISE_TARGETS[:1], normalize=normalize)
    wide, narrow = sorted(cutoffs)
    kept = parse_all(ingest_supertags(line, narrow), cfg, STRICT)
    assert kept <= parse_all(ingest_supertags(line, wide), cfg, STRICT)


@lru_cache(maxsize=None)
def bracketings(n: int, height: int) -> int:
    """Binary bracketings of n leaves of height at most ``height``."""
    if n == 1:
        return 1
    if height == 0:
        return 0
    return sum(bracketings(k, height - 1) * bracketings(n - k, height - 1) for k in range(1, n))


def chain(n: int, forward: bool) -> list:
    """``A0/A1 ... A(n-2)/A(n-1) A(n-1)``, or its mirror image with
    backward slashes, which reduces to ``A0`` under any bracketing."""
    functors = [f"A{i}/A{i + 1}" if forward else f"A{i}\\A{i + 1}" for i in range(n - 1)]
    cats = functors + [f"A{n - 1}"]
    return [parse_category(c) for c in (cats if forward else reversed(cats))]


CHAIN_RULES = {
    True: frozenset({CombinatorKind.FWD_APPL, CombinatorKind.FWD_COMP}),
    False: frozenset({CombinatorKind.BWD_APPL, CombinatorKind.BWD_COMP}),
}


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("n", range(2, 8))
def test_composition_chains_have_one_parse_per_bracketing_within_the_height_bound(n, forward):
    """Application and composition in one direction derive ``A0`` from the
    chain by every bracketing, so with normalization off the strict parses
    within ``max_steps`` h number B(n, h), the Catalan number once h >= n-1.
    With normalization on only the application chain remains, of height n-1."""
    goal = ParseGoal.strict(parse_category("A0"))
    for height in range(1, n + 2):
        cfg = RuleConfig(enabled=CHAIN_RULES[forward], max_steps=height)
        off = enumerate_parses(chain(n, forward), replace(cfg, normalize=False), goal)
        on = enumerate_parses(chain(n, forward), cfg, goal)
        assert (len(off), len(on)) == (bracketings(n, height), int(height >= n - 1)), height


# Shapes where a normal-form clause chooses between derivations of one
# reading: a composition chain as an argument and coordinated (N2, N3),
# right-node raising (N1), crossed composition before application.
NORMAL_FORM_SHAPES = [
    ["S/S", "S/S", "S/NP", r"S\(S/NP)"],
    ["S/S", "S/S", "S/NP", "conj", "S/NP", "NP"],
    ["NP", r"(S\NP)/NP", "conj", "NP", r"(S\NP)/NP", "NP"],
    ["S/NP", r"S\S", "NP"],
]


def _sentence(cats):
    return TaggedSentence(tuple(Token(f"w{i}", (Candidate(parse_category(c)),)) for i, c in enumerate(cats)))


@st.composite
def normal_form_cases(draw):
    cfg = RuleConfig(enabled=draw(rule_sets) | APPLICATION, raise_targets=(draw(raise_targets),))
    return _sentence(draw(st.sampled_from(NORMAL_FORM_SHAPES))), cfg


# The targets of generated derivations: a functor target lets a
# composition build the root, so that composition chains are common.
DERIVATION_TARGETS = [parse_category(c) for c in ("S", "S/NP", r"S\NP")]


@st.composite
def derived_cases(draw):
    """The leaves of a random derivation of a target (``tests/derivations.py``),
    under the rules it uses and others: a sentence with a strict parse, and its goal."""
    target, raise_target = draw(st.sampled_from(DERIVATION_TARGETS)), draw(raise_targets)
    cats, used = draw(derivations(target, raise_target, MAX_TOKENS))
    cfg = RuleConfig(enabled=used | draw(rule_sets), raise_targets=(raise_target,))
    ts = TaggedSentence(tuple(Token(f"w{i}", (Candidate(c),)) for i, c in enumerate(cats)))
    return ts, cfg, ParseGoal.strict(target)


@st.composite
def reading_cases(draw):
    """A derived, shaped or normal-form case and its strict goal. Random
    sentences, which rarely parse, are left to the other laws. Its
    ``max_steps``, 2n+1, cuts no tree: a path from the root to a leaf
    passes at most n-1 rule nodes and one raise above each of its nodes."""
    strict = (shaped_cases() | normal_form_cases()).map(lambda case: (*case, STRICT))
    ts, cfg, goal = draw(derived_cases() | strict)
    return ts, replace(cfg, max_steps=2 * len(ts.tokens) + 1), goal


# With every combinator on, the first two shapes need N2 to keep one
# composition chain per reading, and the first loses a reading if N3 also
# banned applying a functor to a composed argument.
ALL_RULES = RuleConfig(enabled=frozenset(CombinatorKind), raise_targets=DEFAULT_RAISE_TARGETS[:1])
CHAIN_CASES = [
    (_sentence(cats), replace(ALL_RULES, max_steps=2 * len(cats) + 1), STRICT) for cats in NORMAL_FORM_SHAPES[:2]
]
# A backward composition as crossed composition's right input: without N2x
# both bracketings of the two S\S would stand, as in ``(S/NP <Bx S\S) <Bx S\S``
# and ``S/NP <Bx (S\S <B S\S)``.
CROSSED_CASES = [
    (
        _sentence(["S/NP", r"S\S", r"S\S", "NP"]),
        RuleConfig(
            enabled={CombinatorKind.FWD_APPL, CombinatorKind.BWD_COMP, CombinatorKind.BWD_XCOMP}, max_steps=9
        ),
        STRICT,
    ),
    (_sentence(["NP", r"S\S", r"S\S", r"S\NP"]), replace(ALL_RULES, max_steps=9), STRICT),
]
# Raise-then-apply with the plain application the other way disabled: N1
# has no rewrite there, so banning it would drop the only reading.
RAISE_ONLY_CASES = [
    (
        _sentence(cats),
        RuleConfig(enabled=rules, raise_targets=(parse_category("S"),), max_steps=2 * len(cats) + 1),
        STRICT,
    )
    for cats, rules in (
        (["NP", r"(S\NP)/NP", "NP"], {CombinatorKind.FWD_APPL, CombinatorKind.FWD_RAISE}),
        (["S/NP", "NP"], {CombinatorKind.BWD_APPL, CombinatorKind.BWD_RAISE}),
    )
]


def _raises_only_np(tree) -> bool:
    if tree.kind in RAISE_KINDS and tree.kids[0].cat != parse_category("NP"):
        return False
    return all(_raises_only_np(kid) for kid in tree.kids)


@READING_EXAMPLES
@given(reading_cases())
@example(CHAIN_CASES[0])
@example(CHAIN_CASES[1])
@example(CROSSED_CASES[0])
@example(CROSSED_CASES[1])
def test_normal_form_trees_have_pairwise_distinct_readings(case):
    ts, cfg, goal = case
    readings = [reading(t) for t in parse_all(ts, replace(cfg, normalize=True), goal)]
    assert len(set(readings)) == len(readings)


@EXAMPLES
@given(reading_cases())
@example(CHAIN_CASES[0])
@example(RAISE_ONLY_CASES[0])
@example(RAISE_ONLY_CASES[1])
def test_normal_form_readings_are_those_of_the_trees_raising_only_np(case):
    """The bans drop derivations, never readings, except for the raises of
    non-``NP`` categories that clause N4 takes out of the grammar."""
    ts, cfg, goal = case
    on = {reading(t) for t in parse_all(ts, replace(cfg, normalize=True), goal)}
    off = parse_all(ts, replace(cfg, normalize=False), goal)
    assert on == {reading(t) for t in off if _raises_only_np(t)}
