import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccgplan import (
    LexiconError,
    SupertagError,
    ingest_supertags,
    load_lexicon,
    parse_category,
    tag_with_lexicon,
)
from ccgplan.cli import DEFAULT_CUTOFFS, _rungs, build_parser
from ccgplan.lexicon import prune


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
    ts = prune(ingest_supertags("John|NNP|NP:0.9|N:0.05"), 0.1)
    assert [(c.cat, c.weight) for c in ts.tokens[0].candidates] == [(parse_category("NP"), 0.9)]


def test_supertag_cutoff_keeps_both():
    ts = prune(ingest_supertags("John|NNP|NP:0.9|N:0.05"), 0.01)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.9, 0.05]


def test_supertag_cutoff_one_keeps_only_maximum():
    ts = prune(ingest_supertags("John|NNP|NP:0.9|N:0.05|PP:0.9"), 1.0)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.9, 0.9]


def test_supertag_candidates_sorted_descending():
    ts = prune(ingest_supertags("w|X|N:0.1|NP:0.8|PP:0.4"), 0.01)
    assert [c.weight for c in ts.tokens[0].candidates] == [0.8, 0.4, 0.1]


def test_supertag_repeated_category_keeps_its_highest_weight():
    ts = prune(ingest_supertags("The|DT|NP/N:0.5|N:0.7|NP/N:0.9"), 0.01)
    assert [(c.cat, c.weight) for c in ts.tokens[0].candidates] == [
        (parse_category("NP/N"), 0.9),
        (parse_category("N"), 0.7),
    ]


def test_supertag_default_cutoff_is_the_ladders_first_rung(tmp_path):
    line = "John|NNP|NP:0.9|N:0.05"
    assert 0.05 < DEFAULT_CUTOFFS[0] * 0.9  # the default prunes N
    tags = tmp_path / "tagged.txt"
    tags.write_text(line + "\n")
    rungs = _rungs(build_parser().parse_args(["parse", "--supertags", str(tags)]))
    assert [cutoff for cutoff, _ in rungs] == list(DEFAULT_CUTOFFS)
    first = rungs[0][1]
    assert first == prune(ingest_supertags(line), DEFAULT_CUTOFFS[0])
    assert [c.cat for c in first.tokens[0].candidates] == [parse_category("NP")]


def test_supertag_reader_keeps_every_candidate():
    ts = ingest_supertags("John|NNP|NP:0.9|N:0.001")
    assert [c.weight for c in ts.tokens[0].candidates] == [0.9, 0.001]


def test_supertag_pos_carried_through():
    ts = ingest_supertags("John|NNP|NP:0.9")
    assert ts.tokens[0].pos_tag == "NNP"


def test_supertag_rejects_multiple_sentences():
    with pytest.raises(SupertagError):
        ingest_supertags("a|X|N:1.0\nb|X|N:1.0")


def test_supertag_malformed_record_names_token():
    with pytest.raises(SupertagError, match="token 2"):
        ingest_supertags("a|X|N:1.0 b|X")


@pytest.mark.parametrize("gap", ["  ", "\t", " \t "])
def test_supertag_tokens_are_separated_by_any_whitespace(gap):
    ts = ingest_supertags(f"John|NNP|NP:0.9{gap}sleeps|VBZ|S\\NP:0.8")
    assert [(t.word, t.pos_tag, [c.cat for c in t.candidates]) for t in ts.tokens] == [
        ("John", "NNP", [parse_category("NP")]),
        ("sleeps", "VBZ", [parse_category(r"S\NP")]),
    ]
    with pytest.raises(SupertagError, match="token 3"):
        ingest_supertags(f"John|NNP|NP:0.9{gap}sleeps|VBZ|S\\NP:0.8{gap}now|RB")


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
    ts = prune(ingest_supertags(line), cutoff)
    assert len(ts.tokens) == len(weight_rows)
    for token in ts.tokens:
        assert token.candidates
        weights = [c.weight for c in token.candidates]
        assert weights == sorted(weights, reverse=True)


# a small pool, so a token lists a category twice, and a weight grid with 0 and ties
_POOL = ["NP", "N", "S\\NP", "(S\\NP)/NP", "NP/N"]
_GRID = [0.0, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]


@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_GRID)), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.sampled_from([1.0, 0.5, 0.1, 0.075, 0.03, 0.02, 0.01]), min_size=1, max_size=4, unique=True),
)
def test_each_rung_keeps_a_prefix_of_the_next_wider_rung(rows, cutoffs):
    line = " ".join(f"w{i}|X|" + "|".join(f"{cat}:{w}" for cat, w in row) for i, row in enumerate(rows))
    every = ingest_supertags(line)
    # the read itself is the widest rung
    ladder = [prune(every, c) for c in sorted(cutoffs, reverse=True)] + [every]
    for narrow, wide in zip(ladder, ladder[1:]):
        for n, w in zip(narrow.tokens, wide.tokens):
            assert n.candidates == w.candidates[: len(n.candidates)]
