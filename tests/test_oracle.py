import ast
import random
from pathlib import Path

import pytest

import ccgplan.oracle
from ccgplan import (
    Candidate,
    ChartLimitError,
    CombinatorKind,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    chart_parse_all,
    check_tree,
    count_parses,
    parse_all,
    parse_category,
    tag_with_lexicon,
)

C = parse_category
K = CombinatorKind


def _plain_sentence(cats, words=None):
    words = words or [f"w{i}" for i in range(len(cats))]
    tokens = tuple(Token(w, (Candidate(C(c)),)) for w, c in zip(words, cats))
    return TaggedSentence(tokens)


def _chain(n):
    """Composable functor chain: A/B, B/C, ..., ending in the last atom."""
    names = [chr(ord("A") + i) for i in range(n)]
    cats = [f"{names[i]}/{names[i + 1]}" for i in range(n - 1)] + [names[-1]]
    return _plain_sentence(cats)


APP_COMP = RuleConfig(enabled={K.FWD_APPL, K.FWD_COMP}, normalize=False)


def test_golden_sentence_has_one_normalized_parse(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    trees = chart_parse_all(ts, RuleConfig(), ParseGoal.strict())
    assert len(trees) == 1
    (tree,) = trees
    assert tree.kind is K.BWD_APPL and tree.cat == C("S")
    assert check_tree(tree)


def test_functor_chain_counts():
    goal = ParseGoal.strict(C("A"))
    assert count_parses(_chain(4), APP_COMP, goal) == 5
    normalized = RuleConfig(enabled=APP_COMP.enabled, normalize=True)
    assert count_parses(_chain(4), normalized, goal) == 1


def test_single_token_strict():
    ts = _plain_sentence(["S"])
    assert len(chart_parse_all(ts, RuleConfig(), ParseGoal.strict())) == 1


def test_guard_rejects_long_sentences():
    ts = _plain_sentence(["N"] * 11)
    with pytest.raises(ChartLimitError):
        chart_parse_all(ts, RuleConfig(), ParseGoal.strict())


def test_best_effort_segmentation(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit"], demo_lexicon)
    residue, forests = chart_parse_all(ts, RuleConfig(), ParseGoal.best_effort())
    assert residue == 1
    assert {f[0].cat for f in forests} == {C("S/NP")}


def test_normalized_trees_are_subset_of_unnormalized(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    on = chart_parse_all(ts, RuleConfig(), ParseGoal.strict())
    off = chart_parse_all(ts, RuleConfig(normalize=False), ParseGoal.strict())
    assert on <= off


def test_oracle_agrees_with_plan_engine_on_random_sentences():
    pool = ["S", "NP", "N", "NP/N", "N/N", r"S\NP", r"(S\NP)/NP", "PP/NP", r"(S\NP)/PP"]
    rng = random.Random(4021)
    for case in range(20):
        n = rng.randint(2, 5)
        ts = _plain_sentence([rng.choice(pool) for _ in range(n)])
        cfg = RuleConfig(normalize=case % 2 == 0, max_steps=2 * n + 1)
        goal = ParseGoal.strict()
        assert parse_all(ts, cfg, goal) == chart_parse_all(ts, cfg, goal)


def test_oracle_imports_nothing_from_the_plan_engine():
    # the oracle is the independent reference: it must load, and agree or
    # disagree, whatever state the plan search is in
    tree = ast.parse(Path(ccgplan.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add("." * node.level + node.module)
            else:
                imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({".engine", "ccgplan.engine"})
    assert ".rules" in imported
