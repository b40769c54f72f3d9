import pytest

from ccgplan import Category, load_lexicon, parse_category

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
