"""Seeded workload corpora for ``ccgplan parse`` and their reference answers.

Each workload is a list of sentences making one *pass*. A pass has a fixed
composition by shape (sentence length, ambiguity, ladder scenario); the
seed picks the words, the distractor categories and the order. Per-sentence
cost depends on the shape, not on the words, so passes from different seeds
cost about the same and the benchmark's figures stay comparable across seeds.

References never come from the plan engine. They come from closed forms
(Catalan counts on the PP chain) and from the chart oracle in
``ccgplan.oracle``, run on tagged sentences built here from the
generator's own category strings, so the lexicon and supertag readers are
checked too. The oracle has no plan-length bound; its strict trees are kept
when ``tree_height <= len(sentence) + 2``, the CLI's default ``max_steps``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from ccgplan.categories import parse_category
from ccgplan.engine import ParseGoal
from ccgplan.lexicon import Candidate, TaggedSentence, Token
from ccgplan.oracle import chart_parse_all
from ccgplan.render import to_ascii, to_dot, to_json
from ccgplan.rules import RuleConfig
from ccgplan.trees import tree_height

WORKLOADS = ("pp-attach", "spurious-off", "tagged-ladder")
CUTOFFS = (0.075, 0.03, 0.01)  # the CLI's default supertag ladder

# -- categories ------------------------------------------------------------

DET = "NP/N"
NOUN = "N"
ADJ = "N/N"
NAME = "NP"
IV = r"S\NP"
TV = r"(S\NP)/NP"
PV = r"(S\NP)/PP"
PC = "PP/NP"
NP_MOD = r"(NP\NP)/NP"
VP_MOD = r"((S\NP)\(S\NP))/NP"

# The category pool of the repository's randomized acceptance tests.
POOL_12 = ("S", "NP", "N", "PP", "NP/N", "N/N", r"S\NP", r"(S\NP)/NP", r"(S\NP)/PP", "PP/NP", "S/S", r"(NP\NP)/NP")

NOUNS = ("man", "park", "telescope", "river", "tree", "hill", "garden", "house", "road", "bridge", "field", "boat")
AMBIG_NOUNS = ("iron", "stone", "paper")  # N and also N/N
PREPS = ("with", "in", "near", "by", "on", "under")
ADJS = ("big", "old", "red", "small", "quiet", "tall")
VERBS_T = ("saw", "liked", "chased", "found")
VERBS_I = ("slept", "ran", "smiled")
VERBS_P = (("relied", "on"), ("looked", "at"), ("waited", "for"))
NAMES = ("John", "Mary", "Kim", "Lee")

ANCHOR_WORDS = "The dog saw the man with the telescope in the park near the river by the tree".split()
ANCHOR_LEXICON = {
    "The": (DET,), "the": (DET,), "saw": (TV,),
    **{w: (NOUN,) for w in ("dog", "man", "telescope", "park", "river", "tree")},
    **{p: (NP_MOD, VP_MOD) for p in ("with", "in", "near", "by")},
}
# (label, words, normalize, expected strict parses) as in the ROADMAP baseline table
ANCHORS = (
    ("pp-chain n=11 strict", 11, "on", 5),
    ("pp-chain n=14 strict", 14, "on", 14),
    ("pp-chain n=8 normalize-off", 8, "off", 524),
)


@dataclass
class Expected:
    code: int
    mode: str
    residue: int
    parses: int
    cutoff: str | None
    json_digest: str
    out_digest: str


@dataclass
class Sentence:
    """One operation: the CLI arguments after ``parse`` plus its reference."""

    text: str  # the words, or the supertag line
    tokens: list[tuple[str, list[tuple[str, float | None]]]]  # word, (category, weight) candidates
    fmt: str
    normalize: bool
    goal: str  # "strict" or "auto"
    shape: str
    expected: Expected | None = None
    extra: dict = field(default_factory=dict)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalan(n: int) -> int:
    out = 1
    for i in range(n):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


# -- generators ------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lexical(words: list[str], lexicon: dict[str, tuple[str, ...]]):
    return [(w, [(c, None) for c in lexicon[w]]) for w in words]


def pp_lexicon() -> dict[str, tuple[str, ...]]:
    lex = {"The": (DET,), "the": (DET,), "dog": (NOUN,), "saw": (TV,)}
    lex.update({n: (NOUN,) for n in NOUNS})
    lex.update({n: (NOUN, ADJ) for n in AMBIG_NOUNS})
    lex.update({p: (NP_MOD, VP_MOD) for p in PREPS})
    return lex


# (k prepositional phrases, one noun also N/N, sentences per pass). k=1,2,3
# give 8, 11 and 14 words. The mix puts the median well inside the plain
# k=1 group and the 90th percentile well inside the plain k=2 group, so the
# percentiles do not jump between shapes from run to run.
PP_PASS = ((1, False, 22), (1, True, 2), (2, False, 8), (2, True, 1), (3, False, 1))


def gen_pp_attach(seed: int) -> list[Sentence]:
    rng = _rng("pp-attach", seed)
    lex = pp_lexicon()
    out = []
    for k, ambiguous, count in PP_PASS:
        for _ in range(count):
            nouns = [rng.choice(NOUNS) for _ in range(k + 1)]
            if ambiguous:
                nouns[rng.randrange(k + 1)] = rng.choice(AMBIG_NOUNS)
            words = ["The", "dog", "saw", "the", nouns[0]]
            for noun in nouns[1:]:
                words += [rng.choice(PREPS), "the", noun]
            out.append(
                Sentence(" ".join(words), _lexical(words, lex), "ascii", True, "strict",
                         f"k={k}{' amb' if ambiguous else ''}", extra={"k": k})
            )
    rng.shuffle(out)
    return out


def spurious_lexicon() -> dict[str, tuple[str, ...]]:
    lex = {"The": (DET,), "the": (DET,), "dog": (NOUN,)}
    lex.update({n: (NOUN,) for n in NOUNS})
    lex.update({a: (ADJ,) for a in ADJS})
    lex.update({v: (TV,) for v in VERBS_T})
    lex.update({p: (NP_MOD, VP_MOD) for p in PREPS})
    return lex


# (adjectives before the subject noun, before the object noun, with a PP,
# sentences per pass). Parse counts with normalization off: 29, 58, 77, 224
# and 524. Formats cycle ascii, json, dot within each shape, so each shape
# renders in every format in every pass. As on pp-attach, the median falls
# well inside the 29-parse group and the 90th percentile inside the
# 224-parse group.
SPURIOUS_PASS = ((0, 0, False, 24), (1, 0, False, 3), (0, 1, False, 3), (0, 2, False, 6), (0, 0, True, 1))
FORMATS = ("ascii", "json", "dot")


def gen_spurious_off(seed: int) -> list[Sentence]:
    rng = _rng("spurious-off", seed)
    lex = spurious_lexicon()
    out = []
    for subj_adj, obj_adj, pp, count in SPURIOUS_PASS:
        for i in range(count):
            words = ["The", *rng.sample(ADJS, subj_adj), rng.choice(("dog",) + NOUNS), rng.choice(VERBS_T),
                     "the", *rng.sample(ADJS, obj_adj), rng.choice(NOUNS)]
            if pp:
                words += [rng.choice(PREPS), "the", rng.choice(NOUNS)]
            out.append(
                Sentence(" ".join(words), _lexical(words, lex), FORMATS[i % 3], False, "auto",
                         f"adj={subj_adj}+{obj_adj}{' pp' if pp else ''}")
            )
    rng.shuffle(out)
    return out


def ladder_lexicon() -> dict[str, tuple[str, ...]]:
    """Gold entries of the tagged-ladder grammar; used only to time ``check``."""
    lex = {"the": (DET,)}
    lex.update({n: (NOUN,) for n in ("dog",) + NOUNS})
    lex.update({a: (ADJ,) for a in ADJS})
    lex.update({n: (NAME,) for n in NAMES})
    lex.update({v: (TV,) for v in VERBS_T})
    lex.update({v: (IV,) for v in VERBS_I})
    lex.update({v: (PV,) for v, _ in VERBS_P})
    lex.update({p: (PC,) for _, p in VERBS_P})
    lex.update({p: (NP_MOD,) for p in PREPS})
    return lex


_POS = {DET: "DT", NOUN: "NN", ADJ: "JJ", NAME: "NNP", IV: "VBD", TV: "VBD", PV: "VBD", PC: "IN", NP_MOD: "IN"}


def _ladder_np(rng: random.Random, size: int) -> list[tuple[str, str]]:
    if size == 1:
        return [(rng.choice(NAMES), NAME)]
    adjs = [(a, ADJ) for a in rng.sample(ADJS, size - 2)]
    return [("the", DET), *adjs, (rng.choice(("dog",) + NOUNS), NOUN)]


def _ladder_gold(rng: random.Random, template: str) -> list[tuple[str, str]]:
    """Gold (word, category) pairs; templates name the verb frame and NP sizes."""
    frame, *sizes = template.split(":")
    sizes = [int(s) for s in sizes]
    words = _ladder_np(rng, sizes[0])
    if frame == "iv":
        words.append((rng.choice(VERBS_I), IV))
    elif frame == "tv":
        words.append((rng.choice(VERBS_T), TV))
        words += _ladder_np(rng, sizes[1])
    elif frame == "tvpp":
        words.append((rng.choice(VERBS_T), TV))
        words += _ladder_np(rng, sizes[1])
        words.append((rng.choice(PREPS), NP_MOD))
        words += _ladder_np(rng, sizes[2])
    else:  # "pv": verb with a PP complement
        verb, prep = rng.choice(VERBS_P)
        words += [(verb, PV), (prep, PC)]
        words += _ladder_np(rng, sizes[1])
    return words


# Distractors that survive a cutoff ("live") are never NP: with
# normalization on only NP type-raises, and a few extra NP candidates can
# multiply a best-effort search's cost by a hundred, so the cost of a pass
# would hinge on how many the seed happened to draw.
#
# Distractor weights, as a share of the token's top weight. "pruned" never
# survives the widest cutoff (0.01); r1, r2, r3 first survive the cutoff of
# that rung (0.075, 0.03, 0.01). No band touches a cutoff.
_BANDS = {"pruned": (0.001, 0.008), "r1": (0.1, 0.5), "r2": (0.035, 0.07), "r3": (0.012, 0.028)}

# (template, scenario, live distractor bands, sentences per pass).
# Scenarios: "r1" strict at the first rung; "r2"/"r3" one gold category is
# weighted so that it appears only at that rung; "drop" one gold category
# is missing, so every rung fails and the best-effort search runs. Each
# live band puts one distractor that survives from that rung on onto its
# own token, so the strict attempts try 2**(live distractors) combinations.
LADDER_PASS = (
    ("iv:3", "r1", "r1r2", 2), ("tv:1:2", "r1", "r1r1r3", 3), ("tv:2:3", "r1", "r1r1r2r3", 4),
    ("tv:3:3", "r1", "r1r1r2", 2), ("pv:2:3", "r1", "r1r1r3", 3), ("tvpp:1:2:2", "r1", "r1r1r2", 3),
    ("tvpp:2:2:3", "r1", "r1r1r2r3", 3), ("tvpp:3:3:2", "r1", "r1r2r3", 2),
    ("tv:2:3", "r2", "r1r1r2", 3), ("pv:2:2", "r2", "r1r2r3", 2), ("tvpp:2:2:2", "r2", "r1r1r2", 2),
    ("tv:3:2", "r3", "r1r2r3", 2), ("tvpp:1:2:2", "r3", "r1r1", 1),
    ("tv:1:2", "drop", "r1r3", 3), ("tv:2:3", "drop", "r1r2", 3), ("pv:2:2", "drop", "r1", 2), ("iv:2", "drop", "r1", 2),
)
LADDER_MAX_TRIES = 200
# Copies of LADDER_PASS per pass. Ladder sentences are cheap but their cost
# varies with the distractors drawn, so a pass needs many of them for its
# total to vary little from seed to seed.
LADDER_REPEAT = 8


def _fmt_weight(w: float) -> str:
    return f"{w:.6f}"


def _ladder_candidates(rng: random.Random, gold: list[tuple[str, str]], scenario: str, live: str):
    n = len(gold)
    order = rng.sample(range(n), n)
    special = order.pop() if scenario != "r1" else None
    bands = dict(zip(order, re.findall(r"r\d", live)))
    tokens = []
    for i, (word, cat) in enumerate(gold):
        others = [c for c in POOL_12 if c != cat]
        top = round(rng.uniform(0.6, 0.99), 6)
        cands: list[tuple[str, float]] = []
        if i == special or i in bands:
            extra = rng.choice([c for c in others if c != NAME])
            others.remove(extra)
        if i == special:
            # the top category is a distractor; gold is demoted below the first cutoff, or dropped
            cands.append((extra, top))
            if scenario != "drop":
                cands.append((cat, top * rng.uniform(*_BANDS[scenario])))
        else:
            cands.append((cat, top))
            if i in bands:
                cands.append((extra, top * rng.uniform(*_BANDS[bands[i]])))
        cands += [(c, top * rng.uniform(*_BANDS["pruned"])) for c in rng.sample(others, rng.randint(0, 2))]
        rng.shuffle(cands)
        # weights go through text, so the reference reads the same floats as the CLI
        tokens.append((word, [(c, float(_fmt_weight(w))) for c, w in cands]))
    return tokens


def supertag_line(tokens, gold) -> str:
    fields = []
    for (word, cands), (_, gold_cat) in zip(tokens, gold):
        tags = "|".join(f"{c}:{_fmt_weight(w)}" for c, w in cands)
        fields.append(f"{word}|{_POS[gold_cat]}|{tags}")
    return " ".join(fields)


def gen_tagged_ladder(seed: int) -> list[Sentence]:
    """Draws each slot until the oracle ladder realizes the slot's scenario.

    A distractor can, by chance, complete a parse the scenario did not
    intend (for example a strict parse at the first rung of a "drop"
    sentence). Redrawing keeps each pass's mix of rung counts and
    best-effort fallbacks fixed across seeds.
    """
    rng = _rng("tagged-ladder", seed)
    out = []
    for template, scenario, live, count in LADDER_PASS:
        for _ in range(count * LADDER_REPEAT):
            for _attempt in range(LADDER_MAX_TRIES):
                gold = _ladder_gold(rng, template)
                tokens = _ladder_candidates(rng, gold, scenario, live)
                s = Sentence(supertag_line(tokens, gold), tokens, "json", True, "auto", f"{template} {scenario}")
                result = ladder_reference(s)
                if result is not None and result[0] == scenario:
                    s.extra["reference"] = result[1:]
                    out.append(s)
                    break
            else:
                raise RuntimeError(f"no {template} {scenario} sentence in {LADDER_MAX_TRIES} draws")
    rng.shuffle(out)
    return out


GENERATORS = {"pp-attach": gen_pp_attach, "spurious-off": gen_spurious_off, "tagged-ladder": gen_tagged_ladder}
LEXICONS = {"pp-attach": pp_lexicon, "spurious-off": spurious_lexicon, "tagged-ladder": ladder_lexicon}


def generate(workload: str, seed: int) -> list[Sentence]:
    return GENERATORS[workload](seed)


def lexicon_text(lexicon: dict[str, tuple[str, ...]]) -> str:
    return "".join(f"{word}\t{cat}\n" for word, cats in lexicon.items() for cat in cats)


# -- references ------------------------------------------------------------


def tagged(tokens, cutoff: float | None = None) -> TaggedSentence:
    """Build a tagged sentence directly, applying the supertag cutoff rule."""
    out = []
    for word, cands in tokens:
        if cutoff is not None:
            top = max(w for _, w in cands)
            cands = sorted((c for c in cands if c[1] >= cutoff * top), key=lambda c: -c[1])
        out.append(Token(word, tuple(Candidate(parse_category(c), w) for c, w in cands)))
    return TaggedSentence(tuple(out))


def _strict_trees(ts: TaggedSentence, normalize: bool) -> set:
    limit = len(ts.tokens) + 2
    trees = chart_parse_all(ts, RuleConfig(normalize=normalize), ParseGoal.strict(), guard=len(ts.tokens))
    return {t for t in trees if tree_height(t) <= limit}


def ladder_reference(s: Sentence):
    """(scenario realized, mode, residue, parses, cutoff) or None if unusable.

    Follows the CLI's auto ladder: strict at each cutoff in turn, then
    best-effort at the widest cutoff. Returns None when the height bound
    would remove a best-effort forest, since the oracle's minimal residue
    could then differ from the bounded search's.
    """
    for rung, cutoff in enumerate(CUTOFFS, start=1):
        trees = _strict_trees(tagged(s.tokens, cutoff), s.normalize)
        if trees:
            return f"r{rung}", "strict", 1, trees, cutoff
    ts = tagged(s.tokens, CUTOFFS[-1])
    limit = len(ts.tokens) + 2
    residue, forests = chart_parse_all(ts, RuleConfig(normalize=s.normalize), ParseGoal.best_effort())
    kept = {f for f in forests if all(tree_height(t) <= limit for t in f)}
    if kept != forests:
        return None
    return "drop", "best-effort", residue, forests, CUTOFFS[-1]


def documents(entries, fmt: str) -> tuple[list[str], list[str]]:
    """(documents in ``fmt``, JSON documents), both in canonical order.

    The order is the CLI's: by the JSON serialization of each tree, or of
    each tree of a forest in turn.
    """
    keyed = []
    for entry in entries:
        if isinstance(entry, tuple):
            key = tuple(to_json(t) for t in entry)
            json_doc = json.dumps([json.loads(k) for k in key], indent=2, sort_keys=True)
        else:
            key = (to_json(entry),)
            json_doc = key[0]
        keyed.append((key, entry, json_doc))
    keyed.sort(key=lambda item: item[0])
    render = {"ascii": to_ascii, "dot": to_dot}.get(fmt)
    docs = [json_doc if render is None else render(entry) for _, entry, json_doc in keyed]
    return docs, [json_doc for _, _, json_doc in keyed]


def stdout_body(docs: list[str]) -> str:
    """What ``ccgplan parse`` prints before its summary line."""
    return "".join(f"# parse {k} of {len(docs)}\n{doc}\n\n" for k, doc in enumerate(docs, start=1))


def reference(workload: str, s: Sentence) -> tuple[Expected, str | None]:
    """The sentence's expected outcome, and a note if two references disagree.

    On ``pp-attach`` the parse count is the closed form, Catalan(k+1), and
    the documents come from the oracle; if they disagree, the sentence
    cannot match both and counts as failed.
    """
    cutoff, note = None, None
    if workload == "tagged-ladder":
        mode, residue, entries, cutoff = s.extra.get("reference") or ladder_reference(s)[1:]
    else:
        mode, residue = "strict", 1
        entries = _strict_trees(tagged(s.tokens), s.normalize)
    docs, json_docs = documents(entries, s.fmt)
    parses = len(docs)
    if workload == "pp-attach":
        parses = catalan(s.extra["k"] + 1)
        if parses != len(docs):
            note = f"oracle gives {len(docs)} parses for {s.text!r}, Catalan({s.extra['k'] + 1}) = {parses}"
    expected = Expected(
        code=0 if mode == "strict" else 2,
        mode=mode,
        residue=residue,
        parses=parses,
        cutoff=None if cutoff is None else f"{cutoff:g}",
        json_digest=sha("\n".join(json_docs)),
        out_digest=sha(stdout_body(docs)),
    )
    return expected, note


PINS_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 1


def pin_entry(s: Sentence) -> list:
    """Input and answer of one sentence; 64-bit digest prefixes keep the file small."""
    e = s.expected
    return [sha(s.text)[:16], e.code, e.mode, e.residue, e.parses, e.cutoff, e.json_digest[:16]]


def check_pins(workload: str, sentences: list[Sentence]) -> list[str]:
    """Disagreements between this corpus and the pinned default-seed corpus."""
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))[workload]
    got = [pin_entry(s) for s in sentences]
    if len(got) != len(pinned):
        return [f"{workload}: {len(got)} sentences, pinned {len(pinned)}"]
    return [f"{workload}: sentence {i}: got {g}, pinned {p}" for i, (g, p) in enumerate(zip(got, pinned)) if g != p]
