"""Lexicon and supertag ingestion.

Lexicon files are UTF-8 text with one ``word<TAB>category`` entry per
line; ``#`` lines are comments and blank lines are ignored. Supertag input
is one sentence on one line, tokens separated by whitespace, each token
``word|POS|cat:prob(|cat:prob)*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .categories import Category, CategoryError, parse_category


class LexiconError(ValueError):
    """Raised for malformed lexicon input or out-of-vocabulary words."""


class SupertagError(ValueError):
    """Raised for malformed supertagger output."""


# Most tokens a sentence may have: the strict plan search recurses once
# per reduction, and the tree functions and renderers once per tree level,
# so a sentence far longer than any real one would end in a RecursionError
# instead of an answer. The best-effort chart and its unpacker use loops.
MAX_TOKENS = 256


@dataclass(frozen=True)
class Candidate:
    cat: Category
    weight: float | None = None


@dataclass(frozen=True)
class Token:
    word: str
    candidates: tuple[Candidate, ...]
    pos_tag: str | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ValueError(f"token {self.word!r} has no candidate categories")
        for c in self.candidates:
            if c.weight is not None and not 0.0 <= c.weight <= 1.0:
                raise ValueError(f"weight {c.weight} for {self.word!r} outside [0, 1]")


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a tagged sentence needs at least one token")
        if len(self.tokens) > MAX_TOKENS:
            raise ValueError(f"sentence has {len(self.tokens)} tokens; at most {MAX_TOKENS} are supported")


def parse_lexicon_line(line: str) -> tuple[str, Category] | None:
    """One entry, or None for a comment/blank line. Raises LexiconError."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "\t" not in line:
        raise LexiconError("expected 'word<TAB>category-expression'")
    word, _, rest = line.partition("\t")
    word = word.strip()
    if not word:
        raise LexiconError("empty word")
    try:
        return word, parse_category(rest.strip())
    except CategoryError as exc:
        raise LexiconError(f"bad category: {exc}") from exc


def load_lexicon(source: str) -> dict[str, tuple[Category, ...]]:
    """Each word's categories, in file order with duplicates collapsed."""
    entries: dict[str, list[Category]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            parsed = parse_lexicon_line(line)
        except LexiconError as exc:
            raise LexiconError(f"line {lineno}: {exc}") from exc
        if parsed is None:
            continue
        word, cat = parsed
        cats = entries.setdefault(word, [])
        if cat not in cats:
            cats.append(cat)
    if not entries:
        raise LexiconError("lexicon has no entries")
    return {w: tuple(cs) for w, cs in entries.items()}


def tag_with_lexicon(words: Sequence[str], lex: Mapping[str, Sequence[Category]]) -> TaggedSentence:
    """Tag pre-tokenized words; every word must be in the lexicon."""
    if not words:
        raise LexiconError("no tokens to tag")
    tokens = []
    for i, word in enumerate(words, start=1):
        if word not in lex:
            raise LexiconError(f"unknown word {word!r} at position {i}")
        tokens.append(Token(word, tuple(Candidate(c) for c in lex[word])))
    return TaggedSentence(tuple(tokens))


def ingest_supertags(source: str) -> TaggedSentence:
    """Read one supertagged sentence with every candidate: per token in
    descending-weight order, ties in line order, and a category listed more
    than once keeps only its highest weight."""
    lines = [l for l in source.splitlines() if l.strip()]
    if not lines:
        raise SupertagError("no sentence found in supertag input")
    if len(lines) > 1:
        raise SupertagError(f"expected one sentence, found {len(lines)} lines")
    tokens = []
    for index, field in enumerate(lines[0].split(), start=1):
        parts = field.split("|")
        if len(parts) < 3:
            raise SupertagError(f"token {index}: expected 'word|POS|cat:prob...'")
        word, pos_tag = parts[0], parts[1]
        if not word:
            raise SupertagError(f"token {index}: empty word")
        candidates = []
        for entry in parts[2:]:
            cat_text, sep, prob_text = entry.rpartition(":")
            if not sep or not cat_text:
                raise SupertagError(f"token {index}: malformed candidate {entry!r}")
            try:
                cat = parse_category(cat_text)
                weight = float(prob_text)
            except (CategoryError, ValueError) as exc:
                raise SupertagError(f"token {index}: {exc}") from exc
            if not 0.0 <= weight <= 1.0:
                raise SupertagError(f"token {index}: probability {weight} outside [0, 1]")
            candidates.append(Candidate(cat, weight))
        kept: dict[Category, Candidate] = {}
        for c in sorted(candidates, key=lambda c: -c.weight):
            kept.setdefault(c.cat, c)
        tokens.append(Token(word, tuple(kept.values()), pos_tag))
    return TaggedSentence(tuple(tokens))


def prune(ts: TaggedSentence, cutoff: float) -> TaggedSentence:
    """Per token, the candidates whose weight is at least ``cutoff`` times
    its first's, in the order they stand. On a sentence from
    ``ingest_supertags`` the first is the highest and survives any cutoff,
    and a larger cutoff keeps a prefix of a smaller one's candidates."""
    return TaggedSentence(tuple(
        Token(t.word, tuple(c for c in t.candidates if c.weight >= cutoff * t.candidates[0].weight), t.pos_tag)
        for t in ts.tokens
    ))
