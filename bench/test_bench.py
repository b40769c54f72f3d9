"""Tests of the benchmark itself: generator, reference check, cap, tracing."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ccgplan.cli  # noqa: E402
import pytest  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def inputs(seed):
        return [(s.text, s.fmt, s.normalize, s.goal) for s in corpus.generate(workload, seed)]

    first = inputs(7)
    assert first == inputs(7)
    assert first != inputs(8)
    assert len(first) == len(inputs(8))


def _lexicon_op(tmp_path, workload, sentence):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(corpus.lexicon_text(corpus.LEXICONS[workload]()), encoding="utf-8")
    return ["parse", "--lexicon", str(lexicon), "--words", sentence.text, "--goal", sentence.goal,
            "--normalize", "on" if sentence.normalize else "off", "--format", sentence.fmt]


def _pp_sentence(k):
    sentence = next(s for s in corpus.generate("pp-attach", 3) if s.extra["k"] == k and "amb" not in s.shape)
    sentence.expected, note = corpus.reference("pp-attach", sentence)
    assert note is None
    return sentence


def test_reference_accepts_the_right_answer_and_flags_a_dropped_parse(tmp_path, monkeypatch):
    sentence = _pp_sentence(2)
    argv = _lexicon_op(tmp_path, "pp-attach", sentence)
    _, good = worker.run_one(argv, 30.0)
    assert run.check_sample(good, sentence.expected) is None

    original = ccgplan.cli.parse_all

    def drops_one(ts, cfg, goal):
        trees = original(ts, cfg, goal)
        return set(sorted(trees, key=ccgplan.cli._sort_key)[1:])

    monkeypatch.setattr(ccgplan.cli, "parse_all", drops_one)
    _, bad = worker.run_one(argv, 30.0)
    assert "parses" in run.check_sample(bad, sentence.expected)


def test_reference_flags_a_wrong_document(tmp_path):
    sentence = _pp_sentence(1)
    _, sample = worker.run_one(_lexicon_op(tmp_path, "pp-attach", sentence), 30.0)
    sample["digest"] = corpus.sha("something else")
    assert run.check_sample(sample, sentence.expected) == "documents differ from the reference"


def test_ladder_reference_follows_the_cutoff_ladder():
    sentences = corpus.generate("tagged-ladder", 5)
    scenarios = {s.shape.split()[-1] for s in sentences}
    assert scenarios == {"r1", "r2", "r3", "drop"}
    for s in sentences:
        expected, _ = corpus.reference("tagged-ladder", s)
        scenario = s.shape.split()[-1]
        if scenario == "drop":
            assert (expected.mode, expected.code, expected.cutoff) == ("best-effort", 2, "0.01")
        else:
            assert (expected.mode, expected.code) == ("strict", 0)
            assert expected.cutoff == f"{corpus.CUTOFFS[int(scenario[1]) - 1]:g}"


def test_wall_time_cap_records_a_failure(tmp_path):
    sentence = _pp_sentence(3)
    elapsed, sample = worker.run_one(_lexicon_op(tmp_path, "pp-attach", sentence), 0.05)
    assert sample["code"] is None
    assert sample["error"].startswith("timeout")
    assert elapsed < 1.0
    assert run.check_sample(sample, sentence.expected).startswith("timeout")


def test_tracer_patches_and_restores_every_name(tmp_path):
    sites = spans.patched_sites()
    originals = [getattr(module, attr) for module, attr in sites]
    sentence = _pp_sentence(1)
    argv = _lexicon_op(tmp_path, "pp-attach", sentence)
    with spans.Tracer() as tracer:
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(sites, originals))
        with tracer.sentence_span(0):
            _, sample = worker.run_one(argv, 30.0)
    assert [getattr(module, attr) for module, attr in sites] == originals
    assert run.check_sample(sample, sentence.expected) is None

    layers = tracer.metrics(1, 0.0)
    assert layers["engine.searches"] == layers["lexicon.combos"] == 2  # one preposition, two categories
    assert layers["engine.parses"] == 2
    assert layers["trees.attach_calls"] == 2
    assert layers["render.calls"] == 4  # two sort keys, two documents
    own = (layers["cli.self_s"] + layers["lexicon.ingest_s"] + layers["categories.parse_s"]
           + layers["engine.strict_s"] + layers["rules.s"] + layers["render.s"])
    assert own == pytest.approx(layers["trace.sentence_s"])


def test_tracer_restores_names_after_an_error():
    sites = spans.patched_sites()
    originals = [getattr(module, attr) for module, attr in sites]
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert [getattr(module, attr) for module, attr in sites] == originals
