import os
import pickle
import subprocess
import sys
from itertools import combinations, product, repeat
from pathlib import Path

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
    bwd,
    fwd,
    kind_from_name,
    load_rule_config,
    parse_category,
    print_category,
    ternary_instances,
    unary_instances,
)
from ccgplan import rules
from ccgplan.rules import RAISE_KINDS, RuleInstance, _binary_output, blocked, joined_instances, valid_instance
from derivations import SCHEMAS, substitute, unify

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


@given(_cats, _cats, _cats, st.integers(0, 6), st.sets(st.sampled_from(list(CombinatorKind)), min_size=1))
def test_binary_instances_try_every_enabled_kind_in_row_order(a, b, c, shape, enabled):
    # pairs shaped for each schema, and unrelated ones
    l, r = [
        (a, b),
        (fwd(a, b), b),
        (b, bwd(a, b)),
        (fwd(a, b), fwd(b, c)),
        (bwd(b, c), bwd(a, b)),
        (fwd(b, c), bwd(a, b)),
        (fwd(b, c), fwd(bwd(a, b), c)),
    ][shape]
    cfg = RuleConfig(enabled=enabled)
    rows = [k for k in CombinatorKind if k.arity == 2 and k in enabled]
    expected = [RuleInstance(k, out) for k in rows for out in [_binary_output(k, l, r)] if out is not None]
    assert binary_instances(l, r, cfg) == expected


_BINARY_KINDS = [kind for kind in CombinatorKind if kind.arity == 2]


@pytest.mark.parametrize("shape", [None, *_BINARY_KINDS], ids=lambda k: "unrelated" if k is None else k.symbol)
@given(_cats, _cats, _cats, st.sampled_from([None, 0, 1, 2]), st.sets(st.sampled_from(list(CombinatorKind)), min_size=1))
def test_binary_instances_match_the_readme_schemas(shape, a, b, c, flip, enabled):
    # a pair built from one schema's inputs, with at most one slash reversed, or an unrelated pair
    env = {"A": a, "B": b, "C": c}
    if shape is None:
        l, r = a, b
    else:
        flips = iter([i == flip for i in range(3)])
        l, r = (substitute(p, env, flips) for p in SCHEMAS[shape][0])
    assert binary_instances(l, r, RuleConfig(enabled=enabled)) == _readme_instances(l, r, enabled)


def _readme_instances(l, r, enabled) -> list[RuleInstance]:
    """The enabled binary instances over a pair by README's Schema column
    (``derivations.SCHEMAS``), in row order."""
    found = []
    for kind in _BINARY_KINDS:
        (left, right), output = SCHEMAS[kind]
        match = {}
        if kind in enabled and unify(left, l, match) and unify(right, r, match):
            found.append(RuleInstance(kind, substitute(output, match)))
    return found


# variants for the join: plain categories of both slashes, raises of ``NP``
# and ``S`` to ``S``, and ``conj``; ``S/NP`` with ``(S\NP)/NP`` or with
# ``(S/NP)/NP`` fits ``<Sx``'s key parts but not its further condition
_VARIANT_POOL = [
    C(c)
    for c in ["S", "NP", "conj", r"S\NP", "S/NP", r"(S\NP)/NP", r"S\S", r"(S\S)/NP", "NP/NP", "(S/NP)/NP"]
    + [r"S/(S\NP)", r"S\(S/NP)", r"S/(S\S)", r"S\(S/S)"]
]
_variants = st.lists(st.sampled_from(_VARIANT_POOL), min_size=1, max_size=6)


@given(st.lists(_variants, min_size=2, max_size=3), st.sets(st.sampled_from(list(CombinatorKind)), min_size=1))
def test_joined_instances_equal_the_loop_over_every_combination(variants, enabled):
    cfg = RuleConfig(enabled=enabled)
    rule = binary_instances if len(variants) == 2 else ternary_instances
    expected = [
        (picks, kind, out)
        for picks in product(*[range(len(v)) for v in variants])
        for kind, out in rule(*[v[i] for v, i in zip(variants, picks)], cfg)
    ]
    assert joined_instances(variants, cfg) == expected
    if len(variants) == 2:
        # the rows the join and ``binary_instances`` share, against README's templates
        assert expected == [
            (picks, kind, out)
            for picks in product(*[range(len(v)) for v in variants])
            for kind, out in _readme_instances(*[v[i] for v, i in zip(variants, picks)], enabled)
        ]


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


def test_config_repr_lists_enabled_kinds_in_row_order():
    # kinds hash by identity, so a frozenset of them iterates in an order
    # that may differ between processes; the repr must not
    code = "from ccgplan import CombinatorKind, RuleConfig; print(repr(RuleConfig(enabled=frozenset(CombinatorKind))))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    first, second = (
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    )
    assert first == second
    assert first.startswith(f"RuleConfig(enabled=frozenset({{{', '.join(repr(k) for k in CombinatorKind)}}}), ")
    assert repr(RuleConfig(enabled=frozenset(CombinatorKind))) == first.rstrip("\n")


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


def _if_chain_blocked(kind, left_producer, right_producer, cfg) -> bool:
    """``rules.blocked`` as it was written before its clauses became the rows
    of ``rules._BANS``, and before the N2x row: the reference for the rows."""
    if kind in RAISE_KINDS:
        return left_producer in RAISE_KINDS
    if not cfg.normalize:
        return False
    if kind is K.FWD_APPL:
        if left_producer is K.FWD_RAISE:
            return K.BWD_APPL in cfg.enabled
        return left_producer is K.FWD_COMP
    if kind is K.BWD_APPL:
        if right_producer is K.BWD_RAISE:
            return K.FWD_APPL in cfg.enabled
        return right_producer is K.BWD_COMP
    if kind is K.FWD_COMP:
        return left_producer is K.FWD_COMP
    if kind is K.BWD_COMP:
        return right_producer is K.BWD_COMP
    return False


def _n2x_blocked(kind, left_producer, right_producer, cfg) -> bool:
    """N2x: with normalization on, no ``<B`` output as ``<Bx``'s right input."""
    return kind is K.BWD_XCOMP and right_producer is K.BWD_COMP and cfg.normalize


def _with_n2x(*inputs) -> bool:
    return _n2x_blocked(*inputs) or _if_chain_blocked(*inputs)


# Every input of ``blocked``: each kind and pair of producers (None for a
# leaf) under every non-empty enabled set, largest first, with normalization
# on and then off; 9 x 10 x 10 x 511 x 2 = 919,800 inputs.
_PRODUCER_PAIRS = list(product([None, *K], repeat=2))
_BAN_CONFIGS = [
    RuleConfig(enabled=frozenset(kinds), normalize=normalize)
    for normalize in (True, False)
    for size in range(len(K), 0, -1)
    for kinds in combinations(K, size)
]


def _first_difference(reference):
    """The first input on which ``blocked`` and ``reference`` differ, or None."""
    kinds, lefts, rights = zip(*[(kind, l, r) for kind in K for l, r in _PRODUCER_PAIRS])
    for cfg in _BAN_CONFIGS:
        inputs = (kinds, lefts, rights, repeat(cfg))
        if list(map(blocked, *inputs)) != list(map(reference, *inputs)):
            return next(i for i in zip(*inputs) if blocked(*i) != reference(*i))
    return None


def _use_bans(monkeypatch, rows):
    monkeypatch.setattr(rules, "_BANS_BY_KIND", {kind: tuple(row for row in rows if row[1] is kind) for kind in K})


def test_the_ban_rows_without_n2x_are_the_if_chain(monkeypatch):
    assert len(_BAN_CONFIGS) * len(K) * len(_PRODUCER_PAIRS) == 919_800
    _use_bans(monkeypatch, [row for row in rules._BANS if row[0] != "N2x"])
    assert _first_difference(_if_chain_blocked) is None


def test_the_n2x_row_bans_a_backward_composition_as_crossed_compositions_right_input(monkeypatch):
    # ``blocked`` bans what any row bans, so with the test above the rows
    # give the if-chain or N2x
    _use_bans(monkeypatch, [row for row in rules._BANS if row[0] == "N2x"])
    assert _first_difference(_n2x_blocked) is None


def _mutants():
    """Copies of ``_BANS`` with one row moved to the other input side, or
    with one banned producer dropped from a row."""
    for i, row in enumerate(rules._BANS):
        clause, kind, side, producers = row[:4]
        other = "right" if side == "left" else "left"
        before, after = rules._BANS[:i], rules._BANS[i + 1 :]
        yield f"{clause} {kind.symbol} to the {other}", [*before, (clause, kind, other, *row[3:]), *after]
        for producer in producers:
            dropped = (clause, kind, side, producers - {producer}, *row[4:])
            yield f"{clause} {kind.symbol} without {producer.symbol}", [*before, dropped, *after]


@pytest.mark.parametrize("rows", [rows for _, rows in _mutants()], ids=[name for name, _ in _mutants()])
def test_the_exhaustive_check_finds_a_mutated_row(monkeypatch, rows):
    _use_bans(monkeypatch, rows)
    assert _first_difference(_with_n2x) is not None


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


def test_load_rule_config_rejects_a_repeated_key():
    with pytest.raises(RuleConfigError, match="line 2: repeated key 'max_steps'"):
        load_rule_config("max_steps = 3\nmax_steps = 4\n")
