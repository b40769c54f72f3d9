import random
from collections import Counter

import pytest

import ccgplan.engine
from ccgplan import (
    Action,
    AnnotatedCategory,
    Asr,
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    applicable_actions,
    banned,
    best_effort,
    canonical_plan,
    check_tree,
    enumerate_parses,
    initial_asrs,
    load_lexicon,
    parse_all,
    parse_category,
    replay_plan,
    step,
    tag_with_lexicon,
)
from brute import brute_best_effort, brute_strict_trees

C = parse_category
K = CombinatorKind


def demo_asr():
    return Asr.initial([C("NP/N"), C("N"), C(r"(S\NP)/NP"), C("NP")])


def c1():
    return Action(K.FWD_APPL, (1, 2), C("NP"), 0)


def c2():
    return Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 0)


def c3(time=1):
    return Action(K.BWD_APPL, (1, 3), C("S"), time)


# applicable actions


def test_applicable_actions_on_demo_sentence():
    acts = applicable_actions(demo_asr(), RuleConfig())
    assert c1() in acts
    assert c2() in acts
    assert not any(a.kind is K.FWD_APPL and a.positions == (2, 3) for a in acts)


def test_single_s_has_no_actions():
    assert applicable_actions(Asr.initial([C("S")]), RuleConfig()) == ()


def test_actions_on_np_and_verb_phrase():
    s = Asr(items=(AnnotatedCategory(1, C("NP")), AnnotatedCategory(3, C(r"S\NP"))), time=0)
    acts = applicable_actions(s, RuleConfig())
    assert Action(K.BWD_APPL, (1, 3), C("S"), 0) in acts
    assert Action(K.FWD_RAISE, (1,), C(r"S/(S\NP)"), 0) in acts


def test_raised_item_is_not_raised_again():
    s = Asr(
        items=(AnnotatedCategory(1, C(r"S/(S\NP)")),),
        time=1,
        last_affected={1: 1},
        last_action={1: K.FWD_RAISE},
    )
    assert applicable_actions(s, RuleConfig(normalize=False)) == ()


@pytest.mark.parametrize("normalize", [True, False])
def test_banned_agrees_that_a_raise_is_never_raised(normalize):
    s = Asr(items=(AnnotatedCategory(1, C(r"S/(S\NP)")),), time=1, last_affected={1: 1}, last_action={1: K.FWD_RAISE})
    act = Action(K.FWD_RAISE, (1,), C(r"S/(S\(S/(S\NP)))"), 1)
    cfg = RuleConfig(normalize=normalize)
    assert banned(act, s, cfg)
    assert applicable_actions(s, cfg) == ()


@pytest.mark.parametrize("normalize", [True, False])
def test_raised_item_gets_no_raise_instances_built(monkeypatch, normalize):
    s = Asr(
        items=(AnnotatedCategory(1, C(r"S/(S\NP)")), AnnotatedCategory(2, C("NP")), AnnotatedCategory(3, C(r"S\NP"))),
        time=1,
        last_affected={1: 1},
        last_action={1: K.FWD_RAISE},
    )
    cfg = RuleConfig(normalize=normalize)
    expected = applicable_actions(s, cfg)
    asked = []
    original = ccgplan.engine.unary_instances

    def counting(c, cfg):
        asked.append(c)
        return original(c, cfg)

    monkeypatch.setattr(ccgplan.engine, "unary_instances", counting)
    assert applicable_actions(s, cfg) == expected
    assert asked == [C("NP"), C(r"S\NP")]
    assert any(a.kind is K.FWD_RAISE and a.positions == (2,) for a in expected)


# normalization bans (N1-N4)


def _state_after(kind, cat, pos=1, extra=()):
    items = [AnnotatedCategory(pos, cat)] + [AnnotatedCategory(p, c) for p, c in extra]
    return Asr(items=tuple(items), time=1, last_affected={pos: 1}, last_action={pos: kind})


def test_n1_raise_then_apply_banned():
    s = _state_after(K.FWD_RAISE, C(r"S/(S\NP)"), extra=[(3, C(r"S\NP"))])
    act = Action(K.FWD_APPL, (1, 3), C("S"), 1)
    assert banned(act, s, RuleConfig())
    assert not banned(act, s, RuleConfig(normalize=False))


def test_n1_mirror_backward():
    s = Asr(
        items=(AnnotatedCategory(1, C("S/NP")), AnnotatedCategory(2, C(r"S\(S/NP)"))),
        time=1,
        last_affected={2: 1},
        last_action={2: K.BWD_RAISE},
    )
    act = Action(K.BWD_APPL, (1, 2), C("S"), 1)
    assert banned(act, s, RuleConfig())


def test_n2_composition_branching_banned():
    s = _state_after(K.FWD_COMP, C("S/NP"), extra=[(3, C("NP/N"))])
    act = Action(K.FWD_COMP, (1, 3), C("S/N"), 1)
    assert banned(act, s, RuleConfig())


def test_n3_compose_then_apply_banned():
    s = _state_after(K.FWD_COMP, C("S/NP"), extra=[(4, C("NP"))])
    act = Action(K.FWD_APPL, (1, 4), C("S"), 1)
    assert banned(act, s, RuleConfig())


def test_banned_is_off_without_normalization():
    s = _state_after(K.FWD_COMP, C("S/NP"), extra=[(4, C("NP"))])
    act = Action(K.FWD_APPL, (1, 4), C("S"), 1)
    assert banned(act, s, RuleConfig(normalize=False)) is False


def test_n4_raising_restricted_to_np():
    acts = applicable_actions(Asr.initial([C("N")]), RuleConfig())
    assert acts == ()
    acts_off = applicable_actions(Asr.initial([C("N")]), RuleConfig(normalize=False))
    assert any(a.kind is K.FWD_RAISE for a in acts_off)


# step semantics


def test_concurrent_step_matches_expected_states():
    s0 = demo_asr()
    s1 = step(s0, {c1(), c2()})
    assert [(i.pos, i.cat) for i in s1.items] == [(1, C("NP")), (3, C(r"S\NP"))]
    assert s1.time == 1
    assert s1.last_affected == {1: 1, 3: 1}
    assert s1.last_action == {1: K.FWD_APPL, 3: K.FWD_APPL}
    s2 = step(s1, {c3()})
    assert [(i.pos, i.cat) for i in s2.items] == [(1, C("S"))]
    assert s2.time == 2


def test_sequential_replay_matches_published_plan():
    s0 = demo_asr()
    s1 = step(s0, {c1()})
    assert [(i.pos, i.cat) for i in s1.items] == [(1, C("NP")), (3, C(r"(S\NP)/NP")), (4, C("NP"))]
    s2 = step(s1, {Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 1)})
    assert [(i.pos, i.cat) for i in s2.items] == [(1, C("NP")), (3, C(r"S\NP"))]
    s3 = step(s2, {c3(2)})
    assert [(i.pos, i.cat) for i in s3.items] == [(1, C("S"))]


def test_serializability_of_concurrent_steps():
    s0 = demo_asr()
    concurrent = step(s0, {c1(), c2()})
    via_c1 = step(step(s0, {c1()}), {Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 1)})
    via_c2 = step(step(s0, {c2()}), {Action(K.FWD_APPL, (1, 2), C("NP"), 1)})
    assert via_c1.items == via_c2.items == concurrent.items


def test_effect_inherits_leftmost_position():
    s1 = step(demo_asr(), {c1(), c2()})
    assert [i.pos for i in s1.items] == [1, 3]


def test_inertia_preserves_untouched_items():
    s0 = demo_asr()
    s1 = step(s0, {c1()})
    assert s1.items[1] == s0.items[2]
    assert s1.items[2] == s0.items[3]


def test_overlapping_actions_rejected():
    raise_john = Action(K.FWD_RAISE, (4,), C(r"S/(S\NP)"), 0)
    with pytest.raises(ValueError, match="overlap"):
        step(demo_asr(), {c2(), raise_john})


def test_step_validates_schema():
    with pytest.raises(ValueError):
        step(demo_asr(), {Action(K.FWD_APPL, (1, 2), C("S"), 0)})


def test_step_requires_matching_time():
    with pytest.raises(ValueError):
        step(demo_asr(), {c3(0)})


def test_empty_step_rejected():
    with pytest.raises(ValueError):
        step(demo_asr(), set())


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
    trees = enumerate_parses(demo_asr(), RuleConfig(), ParseGoal.strict())
    assert trees == {golden_tree()}


def test_enumerate_finds_spurious_tree_without_normalization():
    trees = enumerate_parses(demo_asr(), RuleConfig(normalize=False, max_steps=5), ParseGoal.strict())
    assert spurious_tree() in trees
    assert golden_tree() in trees


def test_enumerate_trivial_goal():
    trees = enumerate_parses(Asr.initial([C("S")]), RuleConfig(), ParseGoal.strict())
    assert trees == {Leaf(None, C("S"), 1)}


def test_enumerate_unreachable_goal_is_empty():
    assert enumerate_parses(Asr.initial([C("N"), C("N")]), RuleConfig(), ParseGoal.strict()) == set()


def test_enumerate_rejects_best_effort_goal():
    with pytest.raises(ValueError):
        enumerate_parses(demo_asr(), RuleConfig(), ParseGoal.best_effort())


def test_enumerate_rejects_started_state():
    started = step(demo_asr(), {c1()})
    with pytest.raises(ValueError):
        enumerate_parses(started, RuleConfig(), ParseGoal.strict())


def test_enumerate_rejects_an_initial_time_state_with_bookkeeping():
    started = Asr(demo_asr().items, time=0, last_affected={1: 1}, last_action={1: K.FWD_RAISE})
    with pytest.raises(ValueError, match="initial state"):
        enumerate_parses(started, RuleConfig(), ParseGoal.strict())
    with pytest.raises(ValueError, match="initial state"):
        best_effort(started, RuleConfig())


def test_all_enumerated_trees_are_sound():
    trees = enumerate_parses(demo_asr(), RuleConfig(normalize=False, max_steps=5), ParseGoal.strict())
    assert all(check_tree(t) for t in trees)


PP_WORDS = "The dog saw the man with the telescope in the park near the river by the tree".split()
PP_LEXICON = "\n".join(
    ["The\tNP/N", "the\tNP/N", "saw\t(S\\NP)/NP"]
    + [f"{noun}\tN" for noun in ("dog", "man", "telescope", "park", "river", "tree")]
    + [f"{p}\t(NP\\NP)/NP\n{p}\t((S\\NP)\\(S\\NP))/NP" for p in ("with", "in", "near", "by")]
)


@pytest.mark.parametrize("length, normalize, count", [(14, True, 14), (8, False, 524)])
def test_each_category_pair_is_combined_once_per_search(monkeypatch, length, normalize, count):
    calls = []
    original = ccgplan.engine.binary_instances

    def recording(l, r, cfg):
        calls.append((l, r))
        return original(l, r, cfg)

    monkeypatch.setattr(ccgplan.engine, "binary_instances", recording)
    ts = tag_with_lexicon(PP_WORDS[:length], load_lexicon(PP_LEXICON))
    trees = set()
    for asr in initial_asrs(ts):
        calls.clear()
        trees |= enumerate_parses(asr, RuleConfig(normalize=normalize), ParseGoal.strict())
        repeated = [pair for pair, times in Counter(calls).items() if times > 1]
        assert calls and not repeated, f"{len(repeated)} category pairs combined more than once"
    assert len(trees) == count


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
    residue, forests = best_effort(Asr.initial([C("N")]), RuleConfig())
    assert residue == 1
    assert forests == {(Leaf(None, C("N"), 1),)}


def test_best_effort_nothing_combines():
    residue, forests = best_effort(
        Asr.initial([C("N"), C("N")]),
        RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL}),
    )
    assert residue == 2
    assert forests == {(Leaf(None, C("N"), 1), Leaf(None, C("N"), 2))}


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


def test_canonical_plan_replays_to_goal():
    states = replay_plan(demo_asr(), canonical_plan(golden_tree()))
    assert [(i.pos, i.cat) for i in states[-1].items] == [(1, C("S"))]


def test_canonical_plan_of_leaf_is_empty():
    assert canonical_plan(Leaf(None, C("S"), 1)).steps == ()


def test_canonical_plan_of_forest_schedules_both_trees():
    initial = Asr.initial([C("A/B"), C("B"), C("C/D"), C("D")])
    cfg = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL})
    residue, forests = best_effort(initial, cfg)
    assert residue == 2
    forest = next(f for f in forests if all(not isinstance(t, Leaf) for t in f))
    plan = canonical_plan(forest)
    assert len(plan.steps) == 1 and len(plan.steps[0]) == 2
    final = replay_plan(initial, plan)[-1]
    assert [i.cat for i in final.items] == [C("A"), C("C")]


def _plan_is_canonical(plan, initial, cfg):
    """Direct transcription of the canonicality and ban requirements."""
    state = initial
    for acts in plan.steps:
        if not acts:
            return False
        for a in acts:
            if banned(a, state, cfg):
                return False
            stamps = [state.last_affected.get(p, 0) for p in a.positions]
            if any(0 < t < state.time for t in stamps):
                return False
            if state.time >= 1 and any(t > 0 for t in stamps) and not any(t == state.time for t in stamps):
                return False
        state = step(state, acts)
    return True


def test_levelized_plans_replay_canonically():
    cfg = RuleConfig(normalize=False, max_steps=5)
    initial = demo_asr()
    for tree in enumerate_parses(initial, cfg, ParseGoal.strict()):
        plan = canonical_plan(tree)
        assert len(plan.steps) <= 5
        assert _plan_is_canonical(plan, initial, cfg)


# cross-check against the brute-force concurrent-plan search

POOL = [
    "S", "NP", "N", "NP/N", "N/N", r"S\NP", r"(S\NP)/NP", "PP/NP", r"(S\NP)/PP",
]


def _random_asr(rng, max_n=3):
    n = rng.randint(2, max_n)
    return Asr.initial([C(rng.choice(POOL)) for _ in range(n)])


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
        initial = _random_asr(rng)
        cfg = _quadrant_config(case, len(initial.items))
        assert enumerate_parses(initial, cfg, goal) == brute_strict_trees(initial, cfg, goal), (
            f"case {case}: {[str(i.cat) for i in initial.items]}"
        )


def test_engine_best_effort_matches_brute_force():
    rng = random.Random(311)
    for case in range(12):
        initial = _random_asr(rng)
        cfg = _quadrant_config(case, len(initial.items))
        assert best_effort(initial, cfg) == brute_best_effort(initial, cfg)


def test_canonical_plans_are_unique_per_tree_for_application_only():
    rng = random.Random(77)
    cfg_base = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL})
    from brute import concurrent_plans

    for _ in range(12):
        initial = _random_asr(rng, max_n=4)
        cfg = RuleConfig(
            enabled=cfg_base.enabled, normalize=True, max_steps=2 * len(initial.items) + 1
        )
        seen = {}
        for plan, _, forest in concurrent_plans(initial, cfg, ParseGoal.strict()):
            tree = forest[0]
            assert seen.get(tree, plan) == plan, "two canonical plans denote one tree"
            seen[tree] = plan
