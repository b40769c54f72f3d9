import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccgplan import (
    Atom,
    CombinatorKind,
    Functor,
    ParseGoal,
    RuleConfig,
    RuleConfigError,
    binary_instances,
    kind_from_name,
    load_rule_config,
    parse_category,
    print_category,
    ternary_instances,
    unary_instances,
)
from ccgplan.rules import RAISE_KINDS, valid_instance

C = parse_category
ALL_KINDS = frozenset(CombinatorKind)


def test_raise_np_to_s():
    cfg = RuleConfig(enabled={CombinatorKind.FWD_RAISE}, raise_targets=(C("S"),))
    out = unary_instances(C("NP"), cfg)
    assert [(i.kind, i.output) for i in out] == [(CombinatorKind.FWD_RAISE, C(r"S/(S\NP)"))]


def test_raise_two_kinds_three_targets():
    cfg = RuleConfig()
    out = unary_instances(C("NP"), cfg)
    assert len(out) == 6
    kinds = [i.kind for i in out]
    assert kinds == [CombinatorKind.FWD_RAISE] * 3 + [CombinatorKind.BWD_RAISE] * 3
    targets = [print_category(i.output.result) for i in out[:3]]
    assert targets == sorted(targets)


def test_raise_restricted_to_np_when_normalizing():
    assert unary_instances(C("N"), RuleConfig()) == []


def test_raise_any_category_when_not_normalizing():
    cfg = RuleConfig(normalize=False)
    assert len(unary_instances(C("N"), cfg)) == 6
    assert C(r"S/(S\(N/N))") in [i.output for i in unary_instances(C("N/N"), cfg)]


def test_forward_application():
    out = binary_instances(C("NP/N"), C("N"), RuleConfig())
    assert [(i.kind, i.output) for i in out] == [(CombinatorKind.FWD_APPL, C("NP"))]


def test_forward_composition():
    out = binary_instances(C(r"S/(S\NP)"), C(r"(S\NP)/NP"), RuleConfig())
    assert [(i.kind, i.output) for i in out] == [(CombinatorKind.FWD_COMP, C("S/NP"))]


def test_backward_application_and_composition():
    assert binary_instances(C("NP"), C(r"S\NP"), RuleConfig())[0].output == C("S")
    out = binary_instances(C(r"NP\N"), C(r"S\NP"), RuleConfig())
    assert [(i.kind, i.output) for i in out] == [(CombinatorKind.BWD_COMP, C(r"S\N"))]


def test_no_match_yields_nothing():
    assert binary_instances(C("N"), C("N"), RuleConfig()) == []


def test_cross_rules_disabled_by_default():
    assert binary_instances(C("S/NP"), C(r"PP\S"), RuleConfig()) == []


def test_backward_cross_composition():
    cfg = RuleConfig(enabled=ALL_KINDS)
    out = binary_instances(C("S/NP"), C(r"PP\S"), cfg)
    assert [(i.kind, i.output) for i in out] == [(CombinatorKind.BWD_XCOMP, C("PP/NP"))]


def test_backward_cross_substitution():
    cfg = RuleConfig(enabled=ALL_KINDS)
    out = binary_instances(C("S/NP"), C(r"(PP\S)/NP"), cfg)
    assert (CombinatorKind.BWD_XSUBST, C("PP/NP")) in [(i.kind, i.output) for i in out]


def test_coordination_requires_equal_conjuncts():
    cfg = RuleConfig(enabled=ALL_KINDS)
    assert [i.output for i in ternary_instances(C("NP"), C("conj"), C("NP"), cfg)] == [C("NP")]
    assert ternary_instances(C("NP"), C("conj"), C("N"), cfg) == []
    assert ternary_instances(C("NP"), C("conj"), C("NP"), RuleConfig()) == []


def test_instances_are_deterministic():
    cfg = RuleConfig(enabled=ALL_KINDS, normalize=False)
    a = binary_instances(C(r"S/(S\NP)"), C(r"(S\NP)/NP"), cfg)
    b = binary_instances(C(r"S/(S\NP)"), C(r"(S\NP)/NP"), cfg)
    assert a == b
    assert unary_instances(C("NP"), cfg) == unary_instances(C("NP"), cfg)


_atoms = st.sampled_from(["S", "NP", "N", "PP"])
_cats = st.recursive(
    st.builds(Atom, _atoms),
    lambda inner: st.builds(Functor, inner, inner, st.booleans()),
    max_leaves=5,
)


@given(_cats, _cats)
def test_binary_instances_satisfy_their_schemas(l, r):
    cfg = RuleConfig(enabled=ALL_KINDS, normalize=False)
    for inst in binary_instances(l, r, cfg):
        assert valid_instance(inst.kind, (l, r), inst.output)


@given(_cats)
def test_unary_instances_satisfy_their_schemas(c):
    cfg = RuleConfig(normalize=False)
    for inst in unary_instances(c, cfg):
        assert valid_instance(inst.kind, (c,), inst.output)


@given(_cats, _cats)
def test_applications_and_compositions_emit_at_most_one(l, r):
    cfg = RuleConfig(enabled=ALL_KINDS, normalize=False)
    instances = binary_instances(l, r, cfg)
    for kind in (
        CombinatorKind.FWD_APPL,
        CombinatorKind.BWD_APPL,
        CombinatorKind.FWD_COMP,
        CombinatorKind.BWD_COMP,
    ):
        assert sum(1 for i in instances if i.kind == kind) <= 1


def test_config_invariants():
    with pytest.raises(ValueError):
        RuleConfig(enabled=frozenset())
    with pytest.raises(ValueError):
        RuleConfig(enabled={CombinatorKind.FWD_RAISE}, raise_targets=())
    with pytest.raises(ValueError):
        RuleConfig(max_steps=0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"enabled": {"FwdAppl"}}, "CombinatorKind"),
        ({"raise_targets": ("S",)}, "categories"),
        ({"max_steps": 2.5}, "int"),
        ({"max_steps": True}, "int"),
    ],
)
def test_config_rejects_a_malformed_value(fields, message):
    with pytest.raises(ValueError, match=message):
        RuleConfig(**fields)


def test_a_goal_is_its_target():
    assert ParseGoal.strict() == ParseGoal(C("S"))
    assert ParseGoal.strict(C("NP")).mode == "strict"
    assert ParseGoal.best_effort() == ParseGoal(None)
    assert ParseGoal.best_effort().mode == "best-effort"


@pytest.mark.parametrize("target", [None, "S"])
def test_a_strict_goal_needs_a_category(target):
    with pytest.raises(ValueError, match="target"):
        ParseGoal.strict(target)


def test_a_mistyped_mode_is_an_error():
    """A mode string in the target's place is an error, never a goal that
    runs best-effort."""
    with pytest.raises(ValueError, match="target"):
        ParseGoal("strct")


K = CombinatorKind
ROWS = [
    (K.FWD_APPL, "FwdAppl", ">", 2),
    (K.BWD_APPL, "BwdAppl", "<", 2),
    (K.FWD_COMP, "FwdComp", ">B", 2),
    (K.BWD_COMP, "BwdComp", "<B", 2),
    (K.FWD_RAISE, "FwdRaise", ">T", 1),
    (K.BWD_RAISE, "BwdRaise", "<T", 1),
    (K.BWD_XCOMP, "BwdXComp", "<Bx", 2),
    (K.BWD_XSUBST, "BwdXSubst", "<Sx", 2),
    (K.COORD, "Coord", "&", 3),
]


def test_each_kind_is_one_row():
    assert [row[0] for row in ROWS] == list(K)
    for kind, value, symbol, arity in ROWS:
        assert (kind.value, kind.symbol, kind.arity) == (value, symbol, arity)
        assert K(value) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind


def test_raise_kinds_are_the_unary_rows():
    assert RAISE_KINDS == {kind for kind in K if kind.arity == 1} == {K.FWD_RAISE, K.BWD_RAISE}


def test_binary_instances_come_in_row_order():
    out = binary_instances(C(r"S/(NP\S)"), C(r"NP\S"), RuleConfig(enabled=frozenset(K)))
    assert [i.kind.symbol for i in out] == [">", "<Bx"]


def test_kind_names():
    for kind in K:
        for name in (kind.symbol, kind.value, kind.value.upper(), kind.name, kind.name.lower(), f" {kind.symbol} "):
            assert kind_from_name(name) is kind
    with pytest.raises(RuleConfigError):
        kind_from_name("sideways")


def test_load_rule_config_full():
    cfg = load_rule_config(
        "\n".join(
            [
                "# demo",
                "rules = >, <, >B",
                "raise_targets = S, S\\NP",
                "normalize = off",
                "max_steps = 9",
            ]
        )
    )
    assert cfg.enabled == frozenset(
        {CombinatorKind.FWD_APPL, CombinatorKind.BWD_APPL, CombinatorKind.FWD_COMP}
    )
    assert cfg.raise_targets == (C("S"), C(r"S\NP"))
    assert cfg.normalize is False
    assert cfg.max_steps == 9


def test_load_rule_config_partial_keeps_defaults():
    cfg = load_rule_config("max_steps = 4\n")
    assert cfg.max_steps == 4
    assert cfg.normalize is True
    assert cfg.enabled == RuleConfig().enabled


@pytest.mark.parametrize(
    "text",
    ["rules = sideways", "normalize = maybe", "max_steps = many", "beam = 3", "just a line"],
)
def test_load_rule_config_errors(text):
    with pytest.raises(RuleConfigError, match="line 1"):
        load_rule_config(text)
