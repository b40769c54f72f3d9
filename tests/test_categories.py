import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ccgplan.categories
from ccgplan import (
    Atom,
    CategoryError,
    Functor,
    RuleConfig,
    binary_instances,
    bwd,
    fwd,
    parse_category,
    print_category,
    unary_instances,
)

S, NP, N = Atom("S"), Atom("NP"), Atom("N")


def test_parse_transitive_verb():
    assert parse_category(r"(S\NP)/NP") == fwd(bwd(S, NP), NP)


def test_parse_single_atom():
    assert parse_category("N") == N


def test_parse_forward_functor():
    assert parse_category("NP/N") == fwd(NP, N)


def test_slashes_are_left_associative():
    assert parse_category("A/B/C") == parse_category("(A/B)/C")
    assert parse_category(r"A\B/C") == fwd(bwd(Atom("A"), Atom("B")), Atom("C"))


def test_redundant_parentheses_accepted():
    assert parse_category("((NP))/N") == fwd(NP, N)


def test_whitespace_tolerated():
    assert parse_category(r" ( S \ NP ) / NP ") == fwd(bwd(S, NP), NP)


def test_print_transitive_verb():
    assert print_category(fwd(bwd(S, NP), NP)) == r"(S\NP)/NP"


def test_print_atom():
    assert print_category(NP) == "NP"


def test_print_intransitive_verb():
    assert print_category(bwd(S, NP)) == r"S\NP"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("N//", 2),
        ("", 0),
        ("(S\\NP", 0),
        ("S)", 1),
        ("/NP", 0),
        ("S\\NP)", 4),
        ("S[dcl]", 1),
        ("\u00e9", 0),
        ("S/\u00e9", 2),
        ("NP\u00e9", 2),
    ],
)
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(CategoryError) as err:
        parse_category(text)
    assert err.value.offset == offset
    if not text[offset:].isascii():
        # str.isalnum takes a non-ASCII letter, but no atom name has one
        assert str(err.value) == f"unexpected character {text[offset]!r} (offset {offset})"


_atoms = st.sampled_from(["S", "NP", "N", "PP", "conj", "X2"])
categories = st.recursive(
    st.builds(Atom, _atoms),
    lambda inner: st.builds(Functor, inner, inner, st.booleans()),
    max_leaves=8,
)


@given(categories)
def test_print_parse_round_trip(c):
    parsed = parse_category(print_category(c))
    assert parsed == c
    assert hash(parsed) == hash(c)


@given(categories)
def test_print_is_idempotent_through_parse(c):
    text = print_category(c)
    assert print_category(parse_category(text)) == text


@given(categories)
def test_parse_ignores_spaces_around_operators(c):
    text = print_category(c)
    spaced = text.replace("/", " / ").replace("\\", " \\ ").replace("(", "( ")
    assert parse_category(spaced) == c


def test_nesting_up_to_the_bound_parses():
    from ccgplan.categories import MAX_DEPTH

    assert parse_category("(" * MAX_DEPTH + "S" + ")" * MAX_DEPTH) == S
    c = parse_category("S" + "/NP" * MAX_DEPTH)
    for _ in range(MAX_DEPTH):
        assert c.arg == NP
        c = c.result
    assert c == S


@pytest.mark.parametrize("text", ["(" * 600 + "S" + ")" * 600, "S" + "/NP" * 600, "S/(" * 600 + "S" + ")" * 600])
def test_nesting_past_the_bound_is_a_category_error(text):
    with pytest.raises(CategoryError, match="nested deeper"):
        parse_category(text)


def test_equal_categories_built_each_way_hash_equal():
    built = fwd(bwd(S, NP), NP)
    parsed = parse_category(r"(S\NP)/NP")
    (composed,) = [i.output for i in binary_instances(fwd(bwd(S, NP), S), fwd(S, NP), RuleConfig())]
    assert built == parsed == composed
    assert hash(built) == hash(parsed) == hash(composed)
    raised = {i.output for i in unary_instances(NP, RuleConfig(raise_targets=(S,)))}
    assert raised == {parse_category(r"S/(S\NP)"), parse_category(r"S\(S/NP)")}


_PICKLE_CATEGORY = (
    "import pickle, sys; from ccgplan import parse_category; "
    r"sys.stdout.buffer.write(pickle.dumps(parse_category('((S\\NP)/NP)/(N/N)')))"
)
_LOAD_CATEGORY = (
    "import pickle, sys; from ccgplan import parse_category; "
    "c = pickle.loads(sys.stdin.buffer.read()); "
    r"wanted = parse_category('((S\\NP)/NP)/(N/N)'); "
    "print(c in {wanted}, wanted in {c}, hash(c) == hash(wanted))"
)


def test_unpickled_category_rehashes_in_a_new_process():
    # string hashes differ between processes, so a hash cached in one
    # must not travel with the pickle
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(code: str, seed: str, data: bytes | None = None) -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True).stdout

    assert run(_LOAD_CATEGORY, "2", run(_PICKLE_CATEGORY, "1")).split() == [b"True", b"True", b"True"]


# interning: one object per structure


def test_a_category_built_twice_is_one_object():
    assert Atom("NP") is NP
    assert fwd(bwd(S, NP), NP) is fwd(bwd(S, NP), NP)
    assert parse_category(r"(S\NP)/NP") is fwd(bwd(S, NP), NP)
    assert Functor(S, NP, False) is bwd(S, NP)


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy])
def test_pickle_and_copies_return_the_interned_object(clone):
    c = parse_category(r"((S\NP)/NP)/(N/N)")
    assert clone(c) is c
    assert clone(NP) is NP
    assert clone([c, NP])[0] is c


@pytest.mark.parametrize("category, field", [(NP, "name"), (bwd(S, NP), "forward"), (bwd(S, NP), "result")])
def test_assigning_a_field_raises(category, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(category, field, N)
    with pytest.raises(dataclasses.FrozenInstanceError):
        category.extra = 1


def test_repr_shows_the_fields():
    assert repr(NP) == "Atom(name='NP')"
    assert repr(parse_category(r"S\NP")) == "Functor(result=Atom(name='S'), arg=Atom(name='NP'), forward=False)"


def test_categories_that_print_alike_stay_distinct():
    left = Functor(Atom("A"), Atom("B/C"), True)
    right = Functor(Atom("A/B"), Atom("C"), True)
    assert print_category(left) == print_category(right) == "A/B/C"
    assert left != right
    assert len({left, right}) == 2


def test_a_dropped_category_leaves_the_intern_table():
    c = fwd(Atom("Dropped"), Atom("Dropped2"))
    key = (id(c.result), id(c.arg), True)
    alive = weakref.ref(c)
    assert ccgplan.categories._interned[key] is c
    del c
    gc.collect()
    assert alive() is None
    assert key not in ccgplan.categories._interned
    assert "Dropped" not in ccgplan.categories._interned and "Dropped2" not in ccgplan.categories._interned


def test_threads_building_the_same_categories_get_one_object_each():
    workers, rounds = 8, 1000
    built = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def build(out):
        start.wait(timeout=10)
        for i in range(rounds):
            out.append(parse_category(f"(Shared{i}\\NP)/(Shared{i}/N)"))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == rounds for out in built)
    for same in zip(*built):
        assert all(c is same[0] for c in same)
