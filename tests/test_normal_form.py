"""Two ways normalization changes the strict parse set beyond removing
spurious derivations. Both are known behaviour, pinned so that a change to
either is deliberate; README's normalization section describes them. The
last test pins a case where it must not: a ban whose rewrite needs a
disabled rule."""

from dataclasses import replace

import pytest

from ccgplan import (
    Candidate,
    CombinatorKind,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    chart_parse_all,
    parse_all,
    parse_category,
)
from ccgplan.rules import DEFAULT_RULES

C = parse_category
K = CombinatorKind


def _sentence(*pairs):
    return TaggedSentence(tuple(Token(w, (Candidate(C(c)),)) for w, c in pairs))


def _strict_count(ts, normalize, max_steps):
    return len(parse_all(ts, RuleConfig(normalize=normalize, max_steps=max_steps), ParseGoal.strict()))


@pytest.mark.parametrize(
    "cats, cut, off_at_cut",
    [
        (["S/S", "S/S", "NP", r"S\NP"], 2, 1),
        (["S/S", "S/S", "S/S", "NP", r"S\NP"], 3, 11),
        (["NP", r"(S\NP)/NP", "NP/N", "N/N", "N"], 3, 6),
    ],
)
def test_height_bound_cuts_normal_form_derivations(cats, cut, off_at_cut):
    """A normal-form tree can be taller than a spurious derivation of the
    same reading, so at a tight ``max_steps`` normalization leaves no
    strict parse while the unnormalized search still finds some. One more
    step admits the normal form."""
    ts = _sentence(*((f"w{i}", c) for i, c in enumerate(cats)))
    assert _strict_count(ts, normalize=False, max_steps=cut) == off_at_cut
    assert _strict_count(ts, normalize=True, max_steps=cut) == 0
    assert _strict_count(ts, normalize=True, max_steps=cut + 1) == 1


def test_raising_only_np_drops_a_distributive_reading():
    """Normal-form clause N4 (raise only ``NP``) changes the grammar.

    In *rain and snow again* (``S conj S S\\S``), raising both conjuncts to
    ``S/(S\\S)`` and coordinating them gives a function that hands the
    modifier to each conjunct: the tree below reads "rain again and snow
    again". With normalization on, no ``S`` is raised, and the two trees
    left read "(rain and snow) again" and "rain and (snow again)". So the
    normalize-on set is not just the normalize-off set less its spurious
    derivations.
    """
    ts = _sentence(("rain", "S"), ("and", "conj"), ("snow", "S"), ("again", r"S\S"))
    cfg = RuleConfig(enabled=DEFAULT_RULES | {K.COORD}, raise_targets=(C("S"),))
    raised = C(r"S/(S\S)")
    rain, conj, snow = Leaf("rain", C("S"), 1), Leaf("and", C("conj"), 2), Leaf("snow", C("S"), 3)
    both = Node(K.COORD, raised, (Node(K.FWD_RAISE, raised, (rain,)), conj, Node(K.FWD_RAISE, raised, (snow,))))
    distributive = Node(K.FWD_APPL, C("S"), (both, Leaf("again", C(r"S\S"), 4)))

    off = parse_all(ts, replace(cfg, normalize=False), ParseGoal.strict())
    on = parse_all(ts, cfg, ParseGoal.strict())
    assert (len(off), len(on)) == (9, 2)
    assert distributive in off
    assert distributive not in on
    assert on <= off
    assert on == chart_parse_all(ts, cfg, ParseGoal.strict())


@pytest.mark.parametrize(
    "cats, enabled",
    [
        (["NP", r"(S\NP)/NP", "NP"], {K.FWD_APPL, K.FWD_RAISE}),
        (["S/NP", "NP"], {K.BWD_APPL, K.BWD_RAISE}),
    ],
)
def test_raise_then_apply_stays_when_the_plain_application_is_disabled(cats, enabled):
    """N1 bans applying a raised ``NP`` because the plain application the
    other way round derives the same reading. In *John saw Mary* with only
    ``>`` and ``>T``, raising *John* to ``S/(S\\NP)`` is the only way to
    consume it, as is raising *Mary* to ``S\\(S/NP)`` in ``S/NP NP`` with
    only ``<`` and ``<T``: the one parse stays with normalization on."""
    ts = _sentence(*((f"w{i}", c) for i, c in enumerate(cats)))
    cfg = RuleConfig(enabled=enabled, raise_targets=(C("S"),))
    for normalize in (False, True):
        on_or_off = replace(cfg, normalize=normalize)
        assert len(parse_all(ts, on_or_off, ParseGoal.strict())) == 1
        assert len(chart_parse_all(ts, on_or_off, ParseGoal.strict())) == 1
