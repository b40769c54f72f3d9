"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from ccgplan import (
    Action,
    Atom,
    Candidate,
    CombinatorKind,
    Functor,
    Leaf,
    Node,
    ParseGoal,
    RuleConfig,
    TaggedSentence,
    Token,
    chart_parse_all,
    ingest_supertags,
    parse_all,
    parse_category,
    print_category,
    tag_with_lexicon,
    to_json,
    tree_from_json,
)
from ccgplan.cli import main
from conftest import DEMO_LEXICON
from ccgplan.lexicon import load_lexicon, prune
from planning import AnnotatedCategory, Asr, banned, step

C = parse_category
K = CombinatorKind


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except AssertionError:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def _demo_sentence(words):
    return tag_with_lexicon(words, load_lexicon(DEMO_LEXICON))


def _golden_tree():
    return Node(
        K.BWD_APPL,
        C("S"),
        (
            Node(K.FWD_APPL, C("NP"), (Leaf("The", C("NP/N"), 1), Leaf("dog", C("N"), 2))),
            Node(K.FWD_APPL, C(r"S\NP"), (Leaf("bit", C(r"(S\NP)/NP"), 3), Leaf("John", C("NP"), 4))),
        ),
    )


def _spurious_tree():
    np = Node(K.FWD_APPL, C("NP"), (Leaf("The", C("NP/N"), 1), Leaf("dog", C("N"), 2)))
    raised = Node(K.FWD_RAISE, C(r"S/(S\NP)"), (np,))
    composed = Node(K.FWD_COMP, C("S/NP"), (raised, Leaf("bit", C(r"(S\NP)/NP"), 3)))
    return Node(K.FWD_APPL, C("S"), (composed, Leaf("John", C("NP"), 4)))


def test_criterion_1_golden_strict_parse():
    def check():
        started = time.perf_counter()
        trees = parse_all(_demo_sentence(["The", "dog", "bit", "John"]), RuleConfig(), ParseGoal.strict())
        elapsed = time.perf_counter() - started
        assert trees == {_golden_tree()}
        assert elapsed < 1.0

    _report(1, "golden strict parse is exactly the application-only derivation", check)


def test_criterion_2_spurious_parse_elimination():
    def check():
        started = time.perf_counter()
        ts = _demo_sentence(["The", "dog", "bit", "John"])
        off = parse_all(ts, RuleConfig(normalize=False, max_steps=5), ParseGoal.strict())
        assert _spurious_tree() in off
        on = parse_all(ts, RuleConfig(normalize=True, max_steps=5), ParseGoal.strict())
        assert _spurious_tree() not in on
        assert on == {_golden_tree()}

        # the ban sites that remove the spurious family:
        # N3: the composed S/NP may not feed a forward application
        n3_state = Asr(
            items=(AnnotatedCategory(1, C("S/NP")), AnnotatedCategory(4, C("NP"))),
            time=3,
            last_affected={1: 3},
            last_action={1: K.FWD_COMP},
        )
        n3_action = Action(K.FWD_APPL, (1, 4), C("S"), 3)
        assert banned(n3_action, n3_state, RuleConfig(normalize=True, max_steps=5))
        assert not banned(n3_action, n3_state, RuleConfig(normalize=False, max_steps=5))
        # N1: the raised S/(S\NP) may not feed a forward application
        n1_state = Asr(
            items=(AnnotatedCategory(1, C(r"S/(S\NP)")), AnnotatedCategory(3, C(r"S\NP"))),
            time=2,
            last_affected={1: 2, 3: 1},
            last_action={1: K.FWD_RAISE, 3: K.FWD_APPL},
        )
        n1_action = Action(K.FWD_APPL, (1, 3), C("S"), 2)
        assert banned(n1_action, n1_state, RuleConfig(normalize=True, max_steps=5))
        assert not banned(n1_action, n1_state, RuleConfig(normalize=False, max_steps=5))
        assert time.perf_counter() - started < 1.0

    _report(2, "normalization removes the spurious raise/compose derivation via N1/N3", check)


def test_criterion_3_best_effort():
    def check():
        started = time.perf_counter()
        ts = _demo_sentence(["The", "dog", "bit"])
        assert parse_all(ts, RuleConfig(), ParseGoal.strict()) == set()
        residue, forests = parse_all(ts, RuleConfig(), ParseGoal.best_effort())
        assert residue == 1
        np = Node(K.FWD_APPL, C("NP"), (Leaf("The", C("NP/N"), 1), Leaf("dog", C("N"), 2)))
        expected = Node(
            K.FWD_COMP,
            C("S/NP"),
            (Node(K.FWD_RAISE, C(r"S/(S\NP)"), (np,)), Leaf("bit", C(r"(S\NP)/NP"), 3)),
        )
        assert forests == {(expected,)}
        assert print_category(expected.cat) == "S/NP"
        assert time.perf_counter() - started < 1.0

    _report(3, "best-effort leaves residue 1 with the S/NP derivation", check)


def test_criterion_4_plan_and_concurrency_semantics():
    def check():
        initial = Asr.initial([C("NP/N"), C("N"), C(r"(S\NP)/NP"), C("NP")])
        c1 = Action(K.FWD_APPL, (1, 2), C("NP"), 0)
        c2 = Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 0)

        # sequential replay visits every published state
        s1 = step(initial, {c1})
        assert [(i.pos, i.cat) for i in s1.items] == [
            (1, C("NP")),
            (3, C(r"(S\NP)/NP")),
            (4, C("NP")),
        ]
        s2 = step(s1, {Action(K.FWD_APPL, (3, 4), C(r"S\NP"), 1)})
        assert [(i.pos, i.cat) for i in s2.items] == [(1, C("NP")), (3, C(r"S\NP"))]
        s3 = step(s2, {Action(K.BWD_APPL, (1, 3), C("S"), 2)})
        assert [(i.pos, i.cat) for i in s3.items] == [(1, C("S"))]

        # concurrent two-step plan reaches the same goal state
        t1 = step(initial, {c1, c2})
        assert [(i.pos, i.cat) for i in t1.items] == [(1, C("NP")), (3, C(r"S\NP"))]
        t2 = step(t1, {Action(K.BWD_APPL, (1, 3), C("S"), 1)})
        assert [(i.pos, i.cat) for i in t2.items] == [(1, C("S"))]

        # serializing the concurrent step in either order is equivalent
        via_c2 = step(step(initial, {c2}), {Action(K.FWD_APPL, (1, 2), C("NP"), 1)})
        assert s2.items == via_c2.items == t1.items

    _report(4, "step() replays the concurrent plan and serializes either way", check)


POOL_12 = [
    "S",
    "NP",
    "N",
    "PP",
    "NP/N",
    "N/N",
    r"S\NP",
    r"(S\NP)/NP",
    r"(S\NP)/PP",
    "PP/NP",
    "S/S",
    r"(NP\NP)/NP",
]


def _random_instance(rng: random.Random):
    n = rng.randint(2, 6)
    tokens = []
    for i in range(n):
        cats = rng.sample(POOL_12, rng.randint(1, 2))
        tokens.append(Token(f"w{i}", tuple(Candidate(C(c)) for c in cats)))
    return TaggedSentence(tuple(tokens))


def _quadrant(index: int, n: int) -> RuleConfig:
    normalize = index % 2 == 0
    raises = (index // 2) % 2 == 0
    enabled = set(RuleConfig().enabled)
    if not raises:
        enabled -= {K.FWD_RAISE, K.BWD_RAISE}
    return RuleConfig(enabled=frozenset(enabled), normalize=normalize, max_steps=2 * n + 1)


def test_criterion_5_oracle_equivalence():
    def check():
        rng = random.Random(20260810)
        started = time.perf_counter()
        goal = ParseGoal.strict()
        for case in range(200):
            ts = _random_instance(rng)
            cfg = _quadrant(case, len(ts.tokens))
            plan_side = parse_all(ts, cfg, goal)
            chart_side = chart_parse_all(ts, cfg, goal)
            assert plan_side == chart_side, f"case {case}: {[t.word for t in ts.tokens]}"
        assert time.perf_counter() - started < 60.0

    _report(5, "plan engine and chart oracle agree on 200 random instances", check)


def _chain_sentence(n: int) -> TaggedSentence:
    names = [chr(ord("A") + i) for i in range(n)]
    cats = [f"{names[i]}/{names[i + 1]}" for i in range(n - 1)] + [names[-1]]
    return TaggedSentence(tuple(Token(f"w{i}", (Candidate(C(c)),)) for i, c in enumerate(cats)))


def test_criterion_6_spurious_count_law():
    def check():
        goal = ParseGoal.strict(Atom("A"))
        plain = {K.FWD_APPL, K.FWD_COMP}
        for n, catalan in ((3, 2), (4, 5), (5, 14)):
            ts = _chain_sentence(n)
            off = RuleConfig(enabled=plain, normalize=False)
            on = RuleConfig(enabled=plain, normalize=True)
            assert len(chart_parse_all(ts, off, goal)) == catalan
            assert len(chart_parse_all(ts, on, goal)) == 1
            # the engine obeys the same law
            assert len(parse_all(ts, off, goal)) == catalan
            assert len(parse_all(ts, on, goal)) == 1

    _report(6, "functor chains show Catalan counts unnormalized and 1 normalized", check)


def _random_category(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.4:
        return Atom(rng.choice(["S", "NP", "N", "PP", "conj", "X9"]))
    return Functor(_random_category(rng, depth + 1), _random_category(rng, depth + 1), rng.random() < 0.5)


def _random_tree(rng: random.Random, next_pos: list, depth: int = 0):
    if depth >= 3 or rng.random() < 0.4:
        word = rng.choice([None, "a", "bc", "word"])
        pos = next_pos[0]
        next_pos[0] += 1
        return Leaf(word, _random_category(rng), pos)
    shape = rng.randint(1, 3)
    cat = _random_category(rng)
    if shape == 1:
        kind = rng.choice([K.FWD_RAISE, K.BWD_RAISE])
        return Node(kind, cat, (_random_tree(rng, next_pos, depth + 1),))
    if shape == 2:
        kind = rng.choice([K.FWD_APPL, K.BWD_APPL, K.FWD_COMP, K.BWD_COMP, K.BWD_XCOMP, K.BWD_XSUBST])
        return Node(kind, cat, (_random_tree(rng, next_pos, depth + 1), _random_tree(rng, next_pos, depth + 1)))
    return Node(
        K.COORD,
        cat,
        (
            _random_tree(rng, next_pos, depth + 1),
            _random_tree(rng, next_pos, depth + 1),
            _random_tree(rng, next_pos, depth + 1),
        ),
    )


def test_criterion_7_round_trip_properties():
    def check():
        rng = random.Random(907)
        for _ in range(1000):
            cat = _random_category(rng)
            assert parse_category(print_category(cat)) == cat
        for _ in range(1000):
            tree = _random_tree(rng, [1])
            assert tree_from_json(to_json(tree)) == tree

    _report(7, "category and tree round-trips hold on 1000 random cases each", check)


LADDER_SUPERTAGS = (
    "The|DT|NP/N:0.99 dog|NN|N:0.98 bit|VBD|N:0.9|(S\\NP)/NP:0.02 John|NNP|NP:0.99\n"
)


def test_criterion_8_supertag_ladder(tmp_path, capsys):
    def check():
        # top cutoff hides the transitive-verb reading; the ladder recovers it
        narrow = prune(ingest_supertags(LADDER_SUPERTAGS), 0.075)
        assert parse_all(narrow, RuleConfig(), ParseGoal.strict()) == set()
        wide = prune(ingest_supertags(LADDER_SUPERTAGS), 0.01)
        assert parse_all(wide, RuleConfig(), ParseGoal.strict()) != set()

        tags = tmp_path / "tagged.txt"
        tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
        code = main(["parse", "--supertags", str(tags), "--goal", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=strict" in out
        assert "cutoff=0.01" in out

    _report(8, "auto mode reaches a strict parse only after widening the cutoff", check)
