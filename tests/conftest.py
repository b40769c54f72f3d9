import pytest

from ccgplan import Candidate, Category, TaggedSentence, Token, load_lexicon, parse_category

DEMO_LEXICON = "\n".join(
    [
        "The\tNP/N",
        "dog\tN",
        "bit\t(S\\NP)/NP",
        "John\tNP",
    ]
)


@pytest.fixture
def demo_lexicon_text() -> str:
    return DEMO_LEXICON


@pytest.fixture
def demo_lexicon() -> dict[str, tuple[Category, ...]]:
    return load_lexicon(DEMO_LEXICON)


def cat(text: str):
    return parse_category(text)


def one_candidate(cats) -> TaggedSentence:
    """A sentence of the categories at positions 1..n, one candidate per
    token and no words: ``parse_all`` searches that one combination, and
    every leaf's word stays ``None``."""
    return TaggedSentence(tuple([Token(None, (Candidate(c),)) for c in cats]))
