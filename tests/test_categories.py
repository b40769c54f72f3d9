import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccgplan import Atom, CategoryError, Functor, bwd, fwd, parse_category, print_category

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
    ],
)
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(CategoryError) as err:
        parse_category(text)
    assert err.value.offset == offset


_atoms = st.sampled_from(["S", "NP", "N", "PP", "conj", "X2"])
categories = st.recursive(
    st.builds(Atom, _atoms),
    lambda inner: st.builds(Functor, inner, inner, st.booleans()),
    max_leaves=8,
)


@given(categories)
def test_print_parse_round_trip(c):
    assert parse_category(print_category(c)) == c


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
