"""The planning model of ``tests/planning.py``: applicable actions, the
normal-form bans, concurrent steps and plan replay. The package's search
builds no planning state, and nothing in the package imports the model."""

import ast
from pathlib import Path

import pytest

import ccgplan
import ccgplan.engine
import planning
from ccgplan import (
    Action,
    CombinatorKind,
    Leaf,
    ParseGoal,
    RuleConfig,
    canonical_plan,
    parse_all,
    parse_category,
)
from conftest import one_candidate
from planning import AnnotatedCategory, Asr, applicable_actions, banned, replay_plan, step
from test_engine import DEMO, c1, c2, c3, golden_tree

C = parse_category
K = CombinatorKind

PLANNING_MODEL = ("AnnotatedCategory", "Asr", "applicable_actions", "banned", "replay_plan", "step")


def demo_asr():
    return Asr.initial(DEMO)


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
    original = planning.unary_instances

    def counting(c, cfg):
        asked.append(c)
        return original(c, cfg)

    monkeypatch.setattr(planning, "unary_instances", counting)
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


@pytest.mark.parametrize("positions", [(), (1,), (1, 2, 3)])
def test_step_rejects_an_action_of_the_wrong_arity(positions):
    with pytest.raises(ValueError, match="takes 2 positions"):
        step(demo_asr(), {Action(K.FWD_APPL, positions, C("NP"), 0)})


# plan replay


def test_canonical_plan_replays_to_goal():
    states = replay_plan(demo_asr(), canonical_plan(golden_tree()))
    assert [(i.pos, i.cat) for i in states[-1].items] == [(1, C("S"))]


def test_canonical_plan_of_forest_schedules_both_trees():
    cats = [C("A/B"), C("B"), C("C/D"), C("D")]
    cfg = RuleConfig(enabled={K.FWD_APPL, K.BWD_APPL})
    residue, forests = parse_all(one_candidate(cats), cfg, ParseGoal.best_effort())
    assert residue == 2
    forest = next(f for f in forests if all(not isinstance(t, Leaf) for t in f))
    plan = canonical_plan(forest)
    assert len(plan.steps) == 1 and len(plan.steps[0]) == 2
    final = replay_plan(Asr.initial(cats), plan)[-1]
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
    for tree in parse_all(one_candidate(DEMO), cfg, ParseGoal.strict()):
        plan = canonical_plan(tree)
        assert len(plan.steps) <= 5
        assert _plan_is_canonical(plan, demo_asr(), cfg)


# the package ships the search, not the model


def test_the_package_imports_nothing_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}
    assert {"planning", "brute"} <= test_modules
    package = Path(ccgplan.__file__).parent
    for source in sorted(package.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
        assert imported.isdisjoint(test_modules), source.name


def test_the_planning_model_is_not_in_the_package():
    for module in (ccgplan, ccgplan.engine):
        assert [name for name in PLANNING_MODEL if hasattr(module, name)] == [], module.__name__
    assert "canonical_plan" in ccgplan.__all__
