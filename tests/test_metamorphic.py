"""Metamorphic laws of the plan engine on generated sentences.

Example size is bounded explicitly: at most ``MAX_TOKENS`` tokens, each
with one to ``MAX_CANDIDATES`` distinct candidate categories from a fixed
pool, under any non-empty set of the nine combinators.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ccgplan import (
    AnnotatedCategory,
    Asr,
    Candidate,
    CombinatorKind,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    canonical_plan,
    check_tree,
    leaves,
    parse_all,
    parse_category,
    replay_plan,
)
from ccgplan.rules import DEFAULT_RAISE_TARGETS

MAX_TOKENS = 5
MAX_CANDIDATES = 2
POOL = [
    parse_category(c)
    for c in ("S", "NP", "N", "NP/N", r"S\NP", r"(S\NP)/NP", "conj", "S/NP", r"S\S", r"NP\NP", r"(NP\NP)/NP")
]
EXAMPLES = settings(max_examples=100, deadline=None)

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
