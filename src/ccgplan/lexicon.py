"""Lexicon and supertag ingestion; initial planning states.

Lexicon files are UTF-8 text with one ``word<TAB>category`` entry per
line; ``#`` lines are comments and blank lines are ignored. Supertag input
is one sentence per line, tokens separated by single spaces, each token
``word|POS|cat:prob(|cat:prob)*``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .asr import Asr
from .categories import Category, CategoryError, parse_category


class LexiconError(ValueError):
    """Raised for malformed lexicon input or out-of-vocabulary words."""


class SupertagError(ValueError):
    """Raised for malformed supertagger output."""


# Most tokens a sentence may have: the plan search recurses once per
# reduction, so a sentence far longer than any real one would end in a
# RecursionError instead of an answer.
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

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(t.word for t in self.tokens)


@dataclass(frozen=True)
class Lexicon:
    """Word to category-set mapping; sets keep file order, duplicates collapse."""

    entries: dict[str, tuple[Category, ...]]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __getitem__(self, word: str) -> tuple[Category, ...]:
        return self.entries[word]


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


def load_lexicon(source: str) -> Lexicon:
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
    return Lexicon({w: tuple(cs) for w, cs in entries.items()})


def tag_with_lexicon(words: Sequence[str], lex: Lexicon) -> TaggedSentence:
    """Tag pre-tokenized words; every word must be in the lexicon."""
    if not words:
        raise LexiconError("no tokens to tag")
    tokens = []
    for i, word in enumerate(words, start=1):
        if word not in lex:
            raise LexiconError(f"unknown word {word!r} at position {i}")
        tokens.append(Token(word, tuple(Candidate(c) for c in lex[word])))
    return TaggedSentence(tuple(tokens))


def ingest_supertags(source: str, cutoff: float = 0.075) -> TaggedSentence:
    """Read one supertagged sentence, pruning candidates by relative weight.

    Per token, candidates whose weight is at least ``cutoff`` times the
    token's maximum weight survive, in descending-weight order.
    """
    if not 0.0 < cutoff <= 1.0:
        raise ValueError(f"cutoff must be in (0, 1], got {cutoff}")
    lines = [l for l in source.splitlines() if l.strip()]
    if not lines:
        raise SupertagError("no sentence found in supertag input")
    if len(lines) > 1:
        raise SupertagError(f"expected one sentence, found {len(lines)} lines")
    tokens = []
    for index, field in enumerate(lines[0].strip().split(" "), start=1):
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
        if not candidates:
            raise SupertagError(f"token {index}: no candidate categories")
        top = max(c.weight for c in candidates)
        kept = [c for c in candidates if c.weight >= cutoff * top]
        kept.sort(key=lambda c: -c.weight)
        tokens.append(Token(word, tuple(kept), pos_tag))
    return TaggedSentence(tuple(tokens))


def initial_asrs(ts: TaggedSentence) -> Iterator[Asr]:
    """All candidate combinations as initial states, highest weights first.

    Yields one state per element of the Cartesian product of candidate
    lists, position ids 1..n, ordered lexicographically by candidate index.
    """
    for combo in itertools.product(*(t.candidates for t in ts.tokens)):
        yield Asr.initial(c.cat for c in combo)
