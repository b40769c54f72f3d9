import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccgplan import (
    Candidate,
    LexiconError,
    SupertagError,
    TaggedSentence,
    Token,
    ingest_supertags,
    initial_asrs,
    load_lexicon,
    parse_category,
    tag_with_lexicon,
)
from ccgplan.lexicon import DEFAULT_CUTOFFS


def test_load_demo_lexicon(demo_lexicon_text):
    lex = load_lexicon(demo_lexicon_text)
    assert len(lex) == 4
    assert lex["bit"] == (parse_category(r"(S\NP)/NP"),)


def test_multiple_categories_merge():
    lex = load_lexicon("bit\t(S\\NP)/NP\nbit\tN\n")
    assert lex["bit"] == (parse_category(r"(S\NP)/NP"), parse_category("N"))


def test_duplicate_entries_collapse():
    lex = load_lexicon("dog\tN\ndog\tN\n")
    assert lex["dog"] == (parse_category("N"),)


def test_comments_and_blank_lines_skipped():
    lex = load_lexicon("# header\n\ndog\tN\n")
    assert "dog" in lex


def test_malformed_category_reports_line():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("dog\tN\ncat\tN//\n")


def test_missing_tab_reports_line():
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon("dog N\n")


def test_empty_lexicon_rejected():
    with pytest.raises(LexiconError):
        load_lexicon("# only a comment\n")


def test_tag_with_lexicon(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    assert len(ts.tokens) == 4
    assert all(len(t.candidates) == 1 for t in ts.tokens)
    assert ts.tokens[0].candidates[0].cat == parse_category("NP/N")


def test_tag_with_multi_category_word():
    lex = load_lexicon("bit\t(S\\NP)/NP\nbit\tN\n")
    ts = tag_with_lexicon(["bit"], lex)
    assert len(ts.tokens[0].candidates) == 2


def test_tag_out_of_vocabulary(demo_lexicon):
    with pytest.raises(LexiconError, match="'cat' at position 1"):
        tag_with_lexicon(["cat"], demo_lexicon)


def test_supertag_cutoff_drops_weak_candidate():
    ts = ingest_supertags("John|NNP|NP:0.9|N:0.05", cutoff=0.1)
    assert [(c.cat, c.weight) for c in ts.tokens[0].candidates] == [(parse_category("NP"), 0.9)]


def test_supertag_cutoff_keeps_both():
    ts = ingest_supertags("John|NNP|NP:0.9|N:0.05", cutoff=0.01)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.9, 0.05]


def test_supertag_cutoff_one_keeps_only_maximum():
    ts = ingest_supertags("John|NNP|NP:0.9|N:0.05|PP:0.9", cutoff=1.0)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.9, 0.9]


def test_supertag_candidates_sorted_descending():
    ts = ingest_supertags("w|X|N:0.1|NP:0.8|PP:0.4", cutoff=0.01)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.8, 0.4, 0.1]


def test_supertag_repeated_category_keeps_its_highest_weight():
    ts = ingest_supertags("The|DT|NP/N:0.5|N:0.7|NP/N:0.9", cutoff=0.01)
    assert [(c.cat, c.weight) for c in ts.tokens[0].candidates] == [
        (parse_category("NP/N"), 0.9),
        (parse_category("N"), 0.7),
    ]


def test_supertag_default_cutoff_is_the_ladders_first_rung():
    line = "John|NNP|NP:0.9|N:0.05"
    assert 0.05 < DEFAULT_CUTOFFS[0] * 0.9  # the default prunes N
    assert ingest_supertags(line) == ingest_supertags(line, DEFAULT_CUTOFFS[0])
    assert [c.cat for c in ingest_supertags(line).tokens[0].candidates] == [parse_category("NP")]


def test_supertag_pos_carried_through():
    ts = ingest_supertags("John|NNP|NP:0.9")
    assert ts.tokens[0].pos_tag == "NNP"


def test_supertag_rejects_multiple_sentences():
    with pytest.raises(SupertagError):
        ingest_supertags("a|X|N:1.0\nb|X|N:1.0")


def test_supertag_malformed_record_names_token():
    with pytest.raises(SupertagError, match="token 2"):
        ingest_supertags("a|X|N:1.0 b|X")


def test_supertag_bad_probability():
    with pytest.raises(SupertagError, match="token 1"):
        ingest_supertags("a|X|N:1.5")


@pytest.mark.parametrize(
    "source, message",
    [
        (" \n\n", "no sentence found"),
        ("a|X|N:1.0 |X|N:1.0", "token 2: empty word"),
        ("a|X|N", "token 1: malformed candidate 'N'"),
        ("a|X|:0.5", "token 1: malformed candidate ':0.5'"),
        ("a|X|N//:0.5", "token 1: expected a category"),
        ("a|X|N:high", "token 1: could not convert"),
    ],
)
def test_supertag_input_errors_name_their_cause(source, message):
    with pytest.raises(SupertagError, match=re.escape(message)):
        ingest_supertags(source)


def test_supertag_cutoff_validated():
    with pytest.raises(ValueError):
        ingest_supertags("a|X|N:1.0", cutoff=0.0)


def _sentence(counts):
    cats = ["S", "NP", "N", "PP"]
    tokens = []
    for i, k in enumerate(counts):
        cands = tuple(Candidate(parse_category(cats[j % len(cats)])) for j in range(k))
        tokens.append(Token(f"w{i}", cands))
    return TaggedSentence(tuple(tokens))


def test_initial_asrs_single_combination(demo_lexicon):
    ts = tag_with_lexicon(["The", "dog", "bit", "John"], demo_lexicon)
    asrs = list(initial_asrs(ts))
    assert len(asrs) == 1
    assert [(it.pos, it.cat) for it in asrs[0].items] == [
        (1, parse_category("NP/N")),
        (2, parse_category("N")),
        (3, parse_category(r"(S\NP)/NP")),
        (4, parse_category("NP")),
    ]


def test_initial_asrs_product_counts():
    assert len(list(initial_asrs(_sentence([1, 2, 1])))) == 2
    assert len(list(initial_asrs(_sentence([2, 3])))) == 6


def test_initial_asrs_first_combination_is_top_ranked():
    ts = ingest_supertags("a|X|N:0.9|NP:0.2 b|X|S:0.8|PP:0.7", cutoff=0.01)
    first = next(initial_asrs(ts))
    assert [it.cat for it in first.items] == [parse_category("N"), parse_category("S")]


def test_initial_asrs_is_lazy():
    stream = initial_asrs(_sentence([3, 3, 3]))
    assert len(list(itertools.islice(stream, 2))) == 2


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_initial_asr_count_matches_product(counts):
    expected = 1
    for k in counts:
        expected *= k
    assert len(list(initial_asrs(_sentence(counts)))) == expected


@given(
    st.lists(
        st.lists(st.floats(0.001, 1.0), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.01, 1.0),
)
def test_supertag_cutoff_never_empties_a_token(weight_rows, cutoff):
    cats = ["S", "NP", "N", "PP"]
    line = " ".join(
        f"w{i}|X|" + "|".join(f"{cats[j % 4]}:{w:.3f}" for j, w in enumerate(row))
        for i, row in enumerate(weight_rows)
    )
    ts = ingest_supertags(line, cutoff=cutoff)
    assert len(ts.tokens) == len(weight_rows)
    for token in ts.tokens:
        assert token.candidates
        weights = [c.weight for c in token.candidates]
        assert weights == sorted(weights, reverse=True)
