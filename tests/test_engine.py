import gc
import math
import random
from collections import Counter
from itertools import product

import pytest

import ccgplan.engine
from ccgplan import (
    Action,
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    attach_words,
    binary_instances,
    canonical_plan,
    chart_parse_all,
    check_tree,
    ingest_supertags,
    leaves,
    load_lexicon,
    load_rule_config,
    parse_all,
    parse_category,
    tag_with_lexicon,
    ternary_instances,
    to_ascii,
    to_dot,
    to_json,
    tree_from_json,
    unary_instances,
)
from ccgplan.rules import RAISE_KINDS, blocked
from brute import brute_best_effort, brute_strict_trees
from conftest import DEMO_LEXICON, one_candidate

C = parse_category
K = CombinatorKind


DEMO = (C("NP/N"), C("N"), C(r"(S\NP)/NP"), C("NP"))


def c1():
    return Action(K.FWD_APPL, (1, 2), C("NP"), 0)


def c2():
    return Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 0)


def c3(time=1):
    return Action(K.BWD_APPL, (1, 3), C("S"), time)


# enumeration


def golden_tree(words=False):
    w = ("The", "dog", "bit", "John") if words else (None,) * 4
    return Node(
        K.BWD_APPL,
        C("S"),
        (
            Node(K.FWD_APPL, C("NP"), (Leaf(w[0], C("NP/N"), 1), Leaf(w[1], C("N"), 2))),
            Node(K.FWD_APPL, C(r"S\NP"), (Leaf(w[2], C(r"(S\NP)/NP"), 3), Leaf(w[3], C("NP"), 4))),
        ),
    )


def spurious_tree(words=False):
    w = ("The", "dog", "bit", "John") if words else (None,) * 4
    np = Node(K.FWD_APPL, C("NP"), (Leaf(w[0], C("NP/N"), 1), Leaf(w[1], C("N"), 2)))
    raised = Node(K.FWD_RAISE, C(r"S/(S\NP)"), (np,))
    composed = Node(K.FWD_COMP, C("S/NP"), (raised, Leaf(w[2], C(r"(S\NP)/NP"), 3)))
    return Node(K.FWD_APPL, C("S"), (composed, Leaf(w[3], C("NP"), 4)))


def test_enumerate_golden_sentence():
    trees = parse_all(one_candidate(DEMO), RuleConfig(), ParseGoal.strict())
    assert trees == {golden_tree()}


def test_enumerate_finds_spurious_tree_without_normalization():
    trees = parse_all(one_candidate(DEMO), RuleConfig(normalize=False, max_steps=5), ParseGoal.strict())
    assert spurious_tree() in trees
    assert golden_tree() in trees


def test_enumerate_trivial_goal():
    trees = parse_all(one_candidate([C("S")]), RuleConfig(), ParseGoal.strict())
    assert trees == {Leaf(None, C("S"), 1)}


def test_enumerate_unreachable_goal_is_empty():
    assert parse_all(one_candidate([C("N"), C("N")]), RuleConfig(), ParseGoal.strict()) == set()


def test_all_enumerated_trees_are_sound():
    trees = parse_all(one_candidate(DEMO), RuleConfig(normalize=False, max_steps=5), ParseGoal.strict())
    assert all(check_tree(t) for t in trees)


PP_WORDS = "The dog saw the man with the telescope in the park near the river by the tree".split()
PP_LEXICON = "\n".join(
    ["The\tNP/N", "the\tNP/N", "saw\t(S\\NP)/NP"]
    + [f"{noun}\tN" for noun in ("dog", "man", "telescope", "park", "river", "tree")]
    + [f"{p}\t(NP\\NP)/NP\n{p}\t((S\\NP)\\(S\\NP))/NP" for p in ("with", "in", "near", "by")]
)


def _record_rule_work(monkeypatch):
    """Record each category tuple ``_Tables.raised_rules`` computes, with
    its tables, in ``computed``, and each category pair the engine passes
    to ``binary_instances`` in ``calls``."""
    computed, calls = [], []
    original, original_raised = ccgplan.engine.binary_instances, ccgplan.engine._Tables.raised_rules

    def recording(l, r, cfg):
        calls.append((l, r))
        return original(l, r, cfg)

    def recording_raised(tables, cats):
        if cats not in tables.raised:
            computed.append((tables, cats))
        return original_raised(tables, cats)

    monkeypatch.setattr(ccgplan.engine, "binary_instances", recording)
    monkeypatch.setattr(ccgplan.engine._Tables, "raised_rules", recording_raised)
    return computed, calls


def _check_rule_work(computed, calls):
    """Each category tuple is computed once, and a pair's rule work is one
    ``binary_instances`` call per combination of its inputs' ways in: as
    it stands or raised. Two pairs may share a pair of variants, so the
    calls alone may repeat."""
    repeated = [cats for cats, times in Counter([cats for _, cats in computed]).items() if times > 1]
    assert computed and not repeated, f"{len(repeated)} category tuples computed more than once"
    pairs = [(tables, cats) for tables, cats in computed if len(cats) == 2]
    ways = [math.prod([1 + len(tables.raises(cat)) for cat in cats]) for tables, cats in pairs]
    assert len(calls) == sum(ways)
    assert len(calls) > len(pairs), "no category pair was tried with its raises"


@pytest.mark.parametrize("length, normalize, count", [(14, True, 14), (8, False, 524)])
def test_each_category_pair_is_combined_once_per_search(monkeypatch, length, normalize, count):
    computed, calls = _record_rule_work(monkeypatch)
    raised = []
    original_unary = ccgplan.engine.unary_instances

    def recording_unary(c, cfg):
        raised.append(c)
        return original_unary(c, cfg)

    monkeypatch.setattr(ccgplan.engine, "unary_instances", recording_unary)
    ts = tag_with_lexicon(PP_WORDS[:length], load_lexicon(PP_LEXICON))
    cfg = RuleConfig(normalize=normalize)
    trees = set()
    for combo in product(*(tok.candidates for tok in ts.tokens)):
        computed.clear()
        calls.clear()
        raised.clear()
        cats = tuple([c.cat for c in combo])
        tables = ccgplan.engine._Tables(cfg, ccgplan.engine.effective_max_steps(cfg, len(cats)))
        trees |= ccgplan.engine.enumerate_parses(cats, tables, ParseGoal.strict().target)
        _check_rule_work(computed, calls)
        repeated = [c for c, times in Counter(raised).items() if times > 1]
        assert raised and not repeated, f"{len(repeated)} categories raised more than once"
    assert len(trees) == count


def _reference_reductions(tables, key):
    """A node tuple's reductions, tried as the product of each node's
    ways in: as it stands, or raised if below the height bound."""
    cfg, limit = tables.cfg, tables.limit

    def ways(nid):
        cat, _, height = tables.nodes[nid]
        if height >= limit:
            return [None]
        return [None] + [tables.node(out, kind, height + 1) for kind, out in unary_instances(cat, cfg)]

    found = []
    for raises in product(*(ways(nid) for nid in key)):
        nodes = [tables.nodes[nid if r is None else r] for nid, r in zip(key, raises)]
        cats = [cat for cat, _, _ in nodes]
        height = 1 + max(h for _, _, h in nodes)
        instances = binary_instances(*cats, cfg) if len(cats) == 2 else ternary_instances(*cats, cfg)
        for kind, out in instances:
            if height <= limit and not blocked(kind, nodes[0][1], nodes[-1][1], cfg):
                found.append((tables.node(out, kind, height), raises))
    return found


_NODE_CATS = [
    C(c) for c in ("S", "NP", "N", "conj", r"S\NP", r"(S\NP)/NP", "NP/N", "S/NP", r"S\S", r"(S\S)/NP", r"(S\NP)\(S\NP)")
]
# a state node is never a raise
_STATE_KINDS = [None] + [k for k in K if k.arity > 1]


@pytest.mark.parametrize("max_steps", [1, 2, 3])
@pytest.mark.parametrize("normalize", [True, False])
def test_reductions_match_the_product_over_each_nodes_ways(normalize, max_steps):
    rng = random.Random(10 * max_steps + normalize)
    cfg = RuleConfig(enabled=frozenset(K), normalize=normalize, max_steps=max_steps)
    reducible = raised_conjuncts = 0
    for _ in range(20):
        tables = ccgplan.engine._Tables(cfg, max_steps)
        for _ in range(40):
            cats = [rng.choice(_NODE_CATS) for _ in range(rng.choice((2, 3)))]
            if len(cats) == 3 and rng.random() < 0.5:
                cats[1:] = [C("conj"), cats[0]]
            key = tuple(
                tables.node(cat, rng.choice(_STATE_KINDS), rng.choice((0, rng.randint(0, max_steps)))) for cat in cats
            )
            found = tables.reductions(key)
            assert found == _reference_reductions(tables, key), [tables.nodes[nid] for nid in key]
            reducible += bool(found)
            # only a conjunct can be raised in a triple that coordinates
            raised_conjuncts += len(key) == 3 and any(r is not None for _, raises in found for r in raises)
    assert reducible > 100
    # coordination over raised conjuncts is tried, where the bound leaves room for a raise
    assert raised_conjuncts or max_steps < 2, raised_conjuncts


@pytest.mark.parametrize(
    "length, cfg, goal, combos",
    [
        (14, RuleConfig(), ParseGoal.strict(), 8),
        (14, RuleConfig(normalize=False, max_steps=5), ParseGoal.strict(), 8),
        (10, RuleConfig(), ParseGoal.best_effort(), 4),
    ],
)
def test_each_category_pair_is_combined_once_per_parse_all(monkeypatch, length, cfg, goal, combos):
    computed, calls = _record_rule_work(monkeypatch)
    ts = tag_with_lexicon(PP_WORDS[:length], load_lexicon(PP_LEXICON))
    assert math.prod(len(tok.candidates) for tok in ts.tokens) == combos
    found = parse_all(ts, cfg, goal)
    _check_rule_work(computed, calls)
    assert found if goal.target is not None else found[1]


# the count check


def _record_searches(monkeypatch, name):
    """Record the categories of each combination ``parse_all`` hands to the
    engine function ``name``."""
    searched = []
    original = getattr(ccgplan.engine, name)

    def recording(cats, *args, **kwargs):
        searched.append(tuple(cats))
        return original(cats, *args, **kwargs)

    monkeypatch.setattr(ccgplan.engine, name, recording)
    return searched


SLEEPS = TaggedSentence(
    (Token("John", (Candidate(C("NP")),)), Token("sleeps", (Candidate(C(r"(S\NP)/NP")), Candidate(C(r"S\NP")))))
)


def test_parse_all_searches_only_the_strict_combinations_that_can_balance(monkeypatch):
    strict = _record_searches(monkeypatch, "enumerate_parses")
    fallback = _record_searches(monkeypatch, "best_effort")
    # NP and (S\NP)/NP count S - NP between them, and the target S counts S
    assert len(parse_all(SLEEPS, RuleConfig(), ParseGoal.strict())) == 1
    assert strict == [(C("NP"), C(r"S\NP"))]
    # best-effort has no target to balance to: its one chart holds both
    assert parse_all(SLEEPS, RuleConfig(), ParseGoal.best_effort())[0] == 1
    assert [[[c.cat for c in tok.candidates] for tok in tokens] for tokens in fallback] == [
        [[C("NP")], [C(r"(S\NP)/NP"), C(r"S\NP")]]
    ]


OFF_LEXICON = "\n".join(
    ["John\tNP", "Mary\tNP", "likes\t(S\\NP)/NP", "hates\t(S\\NP)/NP", "and\tconj", "without\t((S\\NP)\\(S\\NP))/NP"]
)


def _kinds(tree):
    """The combinators a tree uses."""
    return {tree.kind}.union(*map(_kinds, tree.kids)) if tree.kids else set()


# "John likes without Mary" counts S - NP and "John likes and hates Mary"
# 2S - 2NP + conj, not S; each parses only with its combinator, which does
# not keep the count
@pytest.mark.parametrize(
    "words, kind", [("John likes without Mary", K.BWD_XSUBST), ("John likes and hates Mary", K.COORD)]
)
@pytest.mark.parametrize("every_rule", [True, False], ids=["all nine rules", "the defaults and one more"])
def test_no_search_is_skipped_while_a_rule_that_changes_the_count_is_on(words, kind, every_rule):
    ts = tag_with_lexicon(words.split(), load_lexicon(OFF_LEXICON))
    cfg = RuleConfig(enabled=frozenset(K) if every_rule else RuleConfig().enabled | {kind})
    trees = parse_all(ts, cfg, ParseGoal.strict())
    assert len(trees) == 1
    assert trees == chart_parse_all(ts, cfg, ParseGoal.strict())
    assert kind in _kinds(next(iter(trees)))


# best effort


def test_best_effort_the_dog_bit(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit"], demo_lexicon)
    residue, forests = parse_all(ts, RuleConfig(), ParseGoal.best_effort())
    assert residue == 1
    assert len(forests) == 1
    (forest,) = forests
    assert len(forest) == 1
    assert forest[0].cat == C("S/NP")
    np = Node(K.FWD_APPL, C("NP"), (Leaf("The", C("NP/N"), 1), Leaf("dog", C("N"), 2)))
    expected = Node(
        K.FWD_COMP,
        C("S/NP"),
        (Node(K.FWD_RAISE, C(r"S/(S\NP)"), (np,)), Leaf("bit", C(r"(S\NP)/NP"), 3)),
    )
    assert forest[0] == expected


def test_best_effort_single_word():
    residue, forests = parse_all(one_candidate([C("N")]), RuleConfig(), ParseGoal.best_effort())
    assert residue == 1
    assert forests == {(Leaf(None, C("N"), 1),)}


def test_best_effort_nothing_combines():
    cfg = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL})
    residue, forests = parse_all(one_candidate([C("N"), C("N")]), cfg, ParseGoal.best_effort())
    assert residue == 2
    assert forests == {(Leaf(None, C("N"), 1), Leaf(None, C("N"), 2))}


def test_best_effort_leaves_take_their_words_from_the_chart(monkeypatch, demo_lexicon):
    def no_attach(*args):
        raise AssertionError("best-effort leaves carry their words as the chart builds them")

    monkeypatch.setattr(ccgplan.engine, "attach_words", no_attach)
    ts = tag_with_lexicon(["The", "dog", "bit"], demo_lexicon)
    residue, forests = parse_all(ts, RuleConfig(), ParseGoal.best_effort())
    assert residue == 1 and len(forests) == 1
    assert [lf.word for forest in forests for tree in forest for lf in leaves(tree)] == ["The", "dog", "bit"]


def _chart_of(ts, cfg):
    """The best-effort chart of ``ts``, checked against its contract: no
    stored cell is empty, and ``starts[j]`` lists the start of every cell
    ending at j, in descending order."""
    tables = ccgplan.engine._Tables(cfg, ccgplan.engine.effective_max_steps(cfg, len(ts.tokens)))
    cells, starts = ccgplan.engine._chart(ts.tokens, tables)
    assert all(cells.values())
    assert starts == [sorted([i for i, k in cells if k == j], reverse=True) for j in range(len(ts.tokens) + 1)]
    return cells


def test_the_chart_keeps_only_its_non_empty_cells():
    # the functor chain A0/A1 … A254/A255 A255 under application alone
    # reduces only its suffixes: n leaves and n - 1 longer cells
    n = 256
    chain = one_candidate([C(f"A{i}/A{i + 1}") for i in range(n - 1)] + [C(f"A{n - 1}")])
    assert len(_chart_of(chain, RuleConfig(enabled=frozenset({K.FWD_APPL, K.BWD_APPL})))) == 2 * n - 1
    # NP/NP … NP/NP NP composes over every span
    n = 32
    assert len(_chart_of(one_candidate([C("NP/NP")] * (n - 1) + [C("NP")]), RuleConfig())) == n * (n + 1) // 2


def test_the_chart_splits_a_coordination_into_non_empty_cells():
    ts = one_candidate([C("NP"), C("conj"), C("NP"), C("conj"), C("NP")])
    cfg = RuleConfig(enabled=RuleConfig().enabled | {K.COORD})
    assert (0, 5) in _chart_of(ts, cfg)
    found = parse_all(ts, cfg, ParseGoal.best_effort())
    assert found[0] == 1
    assert found == chart_parse_all(ts, cfg, ParseGoal.best_effort())


def _two_candidate_line(n):
    """*John saw big … dogs*, every token with two candidates."""
    pairs = [("NP", "S/S"), (r"(S\NP)/NP", r"S\NP")] + [("NP/NP", "N/N")] * (n - 3) + [("NP", "N")]
    return TaggedSentence(tuple(Token(f"w{i}", (Candidate(C(a)), Candidate(C(b)))) for i, (a, b) in enumerate(pairs)))


def test_best_effort_builds_one_chart_over_every_candidate(monkeypatch):
    # 12 tokens of two candidates each are 4,096 combinations
    ts = _two_candidate_line(12)
    fallback = _record_searches(monkeypatch, "best_effort")
    found = parse_all(ts, RuleConfig(), ParseGoal.best_effort())
    assert len(fallback) == 1
    assert found == chart_parse_all(ts, RuleConfig(), ParseGoal.best_effort(), guard=12)


# a residue of several items; under coordination a ternary reduction skips
# a length on the way there
@pytest.mark.parametrize(
    "words, cfg, residue, forests",
    [
        ("zz The dog bit John zz The dog", RuleConfig(), 4, 7),
        ("John and Mary zz", RuleConfig(enabled=RuleConfig().enabled | {K.COORD}), 2, 13),
    ],
)
def test_best_effort_residue_of_several_items(demo_lexicon, words, cfg, residue, forests):
    lexicon = {**demo_lexicon, **load_lexicon("zz\tQ\nMary\tNP\nand\tconj")}
    ts = tag_with_lexicon(words.split(), lexicon)
    found = parse_all(ts, cfg, ParseGoal.best_effort())
    assert found[0] == residue
    assert len(found[1]) == forests
    assert found == chart_parse_all(ts, cfg, ParseGoal.best_effort())
    cats = [tok.candidates[0].cat for tok in ts.tokens]
    assert parse_all(one_candidate(cats), cfg, ParseGoal.best_effort()) == brute_best_effort(cats, cfg)


# root raises


def _raised_roots(memo, tables):
    """The recipe roots in ``memo`` that a raise produced."""
    roots = []
    for recipes in memo.values():
        for recipe in recipes:
            if recipe.__class__ is tuple and tables.nodes[recipe[0]][1] in RAISE_KINDS:
                roots.append(recipe)
    return roots


# a lone NP reaches S/(S\NP) only raised
def test_no_memo_entry_holds_a_raised_root():
    cats, target, cfg = (C("NP"),), C(r"S/(S\NP)"), RuleConfig()
    tables = ccgplan.engine._Tables(cfg, ccgplan.engine.effective_max_steps(cfg, len(cats)))
    memo = {}
    assert ccgplan.engine._recipes(tuple([tables.node(cat, None, 0) for cat in cats]), tables, target, memo)
    assert _raised_roots(memo, tables) == []
    assert len(ccgplan.engine.enumerate_parses(cats, tables, target)) == 1


# parse_all


def test_parse_all_matches_enumerate_for_single_candidates(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    assert parse_all(ts, RuleConfig(), ParseGoal.strict()) == {golden_tree(words=True)}


def test_parse_all_unions_over_candidates():
    tokens = (
        Token("The", (Candidate(C("NP/N")),)),
        Token("dog", (Candidate(C("N")),)),
        Token("bit", (Candidate(C(r"(S\NP)/NP")), Candidate(C("N")))),
        Token("John", (Candidate(C("NP")),)),
    )
    trees = parse_all(TaggedSentence(tokens), RuleConfig(), ParseGoal.strict())
    assert trees == {golden_tree(words=True)}


# canonical plans


def test_canonical_plan_of_golden_tree_is_the_concurrent_plan():
    plan = canonical_plan(golden_tree())
    assert plan.steps == (frozenset({c1(), c2()}), frozenset({c3()}))


def test_canonical_plan_of_leaf_is_empty():
    assert canonical_plan(Leaf(None, C("S"), 1)).steps == ()


# reference cycles

_WORDS = ["The", "dog", "bit", "John"]
_LEXICON = load_lexicon(DEMO_LEXICON)
_GOLDEN_JSON = to_json(golden_tree(words=True))
_FOREST = (Node(K.FWD_APPL, C("NP"), (Leaf(None, C("NP/N"), 1), Leaf(None, C("N"), 2))), Leaf(None, C("S/NP"), 3))
PUBLIC_CALLS = {
    "parse_all strict": lambda: parse_all(tag_with_lexicon(_WORDS, _LEXICON), RuleConfig(), ParseGoal.strict()),
    "parse_all best-effort": lambda: parse_all(one_candidate(DEMO[:3]), RuleConfig(), ParseGoal.best_effort()),
    "chart_parse_all": lambda: chart_parse_all(one_candidate(DEMO), RuleConfig(), ParseGoal.strict()),
    "to_ascii": lambda: to_ascii(golden_tree(words=True)),
    "to_json": lambda: to_json(golden_tree(words=True)),
    "to_dot": lambda: to_dot(golden_tree(words=True)),
    "check_tree": lambda: check_tree(golden_tree()),
    "tree_from_json": lambda: tree_from_json(_GOLDEN_JSON),
    "load_lexicon": lambda: load_lexicon(DEMO_LEXICON),
    "tag_with_lexicon": lambda: tag_with_lexicon(_WORDS, _LEXICON),
    "ingest_supertags": lambda: ingest_supertags("The|DT|NP/N:0.9 dog|NN|N:0.9|NP:0.1"),
    "load_rule_config": lambda: load_rule_config("rules = >, <, >B\nmax_steps = 4\n"),
    "attach_words": lambda: attach_words(golden_tree(), dict(enumerate(_WORDS, 1))),
    "leaves": lambda: leaves(golden_tree()),
    "canonical_plan tree": lambda: canonical_plan(golden_tree()),
    "canonical_plan forest": lambda: canonical_plan(_FOREST),
}


@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS.keys())
def test_a_public_call_leaves_no_cyclic_garbage(call):
    # with no cycles, reference counting frees all a call allocates, so a
    # caller that pauses the collector around it defers no garbage
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert call()
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


# cross-check against the brute-force concurrent-plan search

POOL = [
    "S", "NP", "N", "NP/N", "N/N", r"S\NP", r"(S\NP)/NP", "PP/NP", r"(S\NP)/PP",
]


def _random_cats(rng, max_n=3):
    n = rng.randint(2, max_n)
    return [C(rng.choice(POOL)) for _ in range(n)]


def _quadrant_config(index, n):
    normalize = index % 2 == 0
    raises = index // 2 % 2 == 0
    enabled = set(RuleConfig().enabled)
    if not raises:
        enabled -= {K.FWD_RAISE, K.BWD_RAISE}
    return RuleConfig(enabled=frozenset(enabled), normalize=normalize, max_steps=n + 1)


def test_engine_matches_brute_force_concurrent_search():
    rng = random.Random(193)
    goal = ParseGoal.strict()
    for case in range(32):
        cats = _random_cats(rng)
        cfg = _quadrant_config(case, len(cats))
        assert parse_all(one_candidate(cats), cfg, goal) == brute_strict_trees(cats, cfg, goal), (
            f"case {case}: {[str(c) for c in cats]}"
        )


def test_engine_best_effort_matches_brute_force():
    rng = random.Random(311)
    for case in range(12):
        cats = _random_cats(rng)
        cfg = _quadrant_config(case, len(cats))
        assert parse_all(one_candidate(cats), cfg, ParseGoal.best_effort()) == brute_best_effort(cats, cfg)


def test_canonical_plans_are_unique_per_tree_for_application_only():
    rng = random.Random(77)
    cfg_base = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL})
    from brute import concurrent_plans

    for _ in range(12):
        cats = _random_cats(rng, max_n=4)
        cfg = RuleConfig(enabled=cfg_base.enabled, normalize=True, max_steps=2 * len(cats) + 1)
        seen = {}
        for plan, _, forest in concurrent_plans(cats, cfg, ParseGoal.strict()):
            tree = forest[0]
            assert seen.get(tree, plan) == plan, "two canonical plans denote one tree"
            seen[tree] = plan
