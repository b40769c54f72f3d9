import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ccgplan import ParseGoal, RuleConfig, load_lexicon, parse_all, tag_with_lexicon, to_json
from ccgplan.cli import _EXT, main
from ccgplan.lexicon import MAX_TOKENS
from ccgplan.oracle import chart_parse_all

LADDER_SUPERTAGS = (
    "The|DT|NP/N:0.99 dog|NN|N:0.98 bit|VBD|N:0.9|(S\\NP)/NP:0.02 John|NNP|NP:0.99\n"
)


@pytest.fixture
def lexicon_file(tmp_path, demo_lexicon_text):
    path = tmp_path / "lexicon.txt"
    path.write_text(demo_lexicon_text + "\n", encoding="utf-8")
    return str(path)


def test_parse_strict_success(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit John"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=strict" in out and "parses=1" in out
    assert "-<" in out  # root application underline


def test_parse_best_effort_fallback(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit"])
    out = capsys.readouterr().out
    assert code == 2
    assert "mode=best-effort" in out and "residue=1" in out
    assert "S/NP" in out


def test_parse_strict_goal_without_parse(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit", "--goal", "strict"])
    assert code == 2
    assert "no strict parse" in capsys.readouterr().out


def test_parse_missing_lexicon(tmp_path, capsys):
    code = main(["parse", "--lexicon", str(tmp_path / "nope.txt"), "--words", "The dog"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_parse_oov_word(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The cat"])
    assert code == 1
    assert "cat" in capsys.readouterr().err


def test_parse_rejects_a_bound_below_one(lexicon_file, tmp_path, capsys):
    words = ["parse", "--lexicon", lexicon_file, "--words", "The dog bit John"]
    assert main([*words, "--max-steps", "0"]) == 1
    assert capsys.readouterr() == ("", "error: max_steps must be >= 1\n")
    rules = tmp_path / "rules.cfg"
    rules.write_text("max_steps = 0\n", encoding="utf-8")
    assert main([*words, "--rules", str(rules)]) == 1
    assert capsys.readouterr() == ("", f"error: {rules}: max_steps must be >= 1\n")


def test_parse_zero_tokens(lexicon_file):
    assert main(["parse", "--lexicon", lexicon_file, "--words", "  "]) == 1


def test_parse_requires_exactly_one_input_mode(lexicon_file):
    assert main(["parse", "--words", "The dog"]) == 1
    assert main(["parse", "--lexicon", lexicon_file, "--words", "x", "--supertags", "y"]) == 1


def test_parse_json_format(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit John", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    body = out.split("# parse 1 of 1\n", 1)[1].rsplit("mode=", 1)[0]
    doc = json.loads(body)
    assert doc["kind"] == "BwdAppl"


def test_parse_best_effort_json_documents_list_each_forest(lexicon_file, demo_lexicon_text, tmp_path, capsys):
    out_dir = tmp_path / "forests"
    code = main(
        ["parse", "--lexicon", lexicon_file, "--words", "dog John", "--format", "json", "--out", str(out_dir)]
    )
    assert code == 2
    ts = tag_with_lexicon(["dog", "John"], load_lexicon(demo_lexicon_text))
    _, forests = parse_all(ts, RuleConfig(), ParseGoal.best_effort())
    ordered = sorted(forests, key=lambda forest: tuple(to_json(t) for t in forest))
    expected = [json.dumps([json.loads(to_json(t)) for t in forest], indent=2, sort_keys=True) for forest in ordered]
    written = [path.read_text(encoding="utf-8") for path in sorted(out_dir.glob("*.json"))]
    assert len(expected) > 1
    assert written == [doc + "\n" for doc in expected]


def test_parse_writes_documents(lexicon_file, tmp_path, capsys):
    out_dir = tmp_path / "parses"
    code = main(
        [
            "parse", "--lexicon", lexicon_file, "--words", "The dog bit John",
            "--format", "dot", "--out", str(out_dir),
        ]
    )
    assert code == 0
    files = sorted(out_dir.glob("*.dot"))
    assert len(files) == 1
    assert "digraph" in files[0].read_text(encoding="utf-8")
    assert str(files[0]) in capsys.readouterr().out


@pytest.mark.parametrize("fmt", list(_EXT))
def test_parse_out_removes_the_documents_of_an_earlier_run(lexicon_file, tmp_path, capsys, fmt):
    formats = list(_EXT)
    later = formats[(formats.index(fmt) + 1) % len(formats)]
    out_dir = tmp_path / "parses"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n", encoding="utf-8")
    (out_dir / "parse_12.txt").write_text("kept\n", encoding="utf-8")
    parse = ["parse", "--lexicon", lexicon_file, "--out", str(out_dir)]
    assert main(parse + ["--words", "The dog bit John", "--normalize", "off", "--max-steps", "5", "--format", fmt]) == 0
    assert len(list(out_dir.glob(f"parse_????.{_EXT[fmt]}"))) == 13
    assert main(parse + ["--words", "The dog bit John", "--format", later]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt", f"parse_0001.{_EXT[later]}", "parse_12.txt"]
    assert main(parse + ["--words", "The dog bit", "--goal", "strict"]) == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt", "parse_12.txt"]
    assert "parses=0" in capsys.readouterr().out.splitlines()[-1]


def test_parse_out_creates_no_directory_without_documents(lexicon_file, tmp_path):
    out_dir = tmp_path / "parses"
    argv = ["parse", "--lexicon", lexicon_file, "--words", "The dog bit", "--goal", "strict", "--out", str(out_dir)]
    assert main(argv) == 2
    assert not out_dir.exists()


def _documents(out: str) -> list[str]:
    """The documents of ``parse`` output on stdout, in order."""
    chunks = re.split(r"^# parse \d+ of \d+\n", out, flags=re.M)[1:]
    return [chunk.split("\n\n")[0] for chunk in chunks]


@pytest.mark.parametrize(
    "words, goal",
    [("The dog bit John", ParseGoal.strict()), ("bit John The", ParseGoal.best_effort())],
)
def test_parse_with_the_widest_bound_prints_the_oracles_parses(lexicon_file, demo_lexicon, capsys, words, goal):
    # the bound compare uses: every tree the chart oracle builds is this tall at most
    bound = 2 * len(words.split()) + 1
    argv = ["parse", "--lexicon", lexicon_file, "--words", words, "--normalize", "off", "--max-steps", str(bound)]
    code = main([*argv, "--goal", goal.mode, "--format", "json"])
    cfg = RuleConfig(normalize=False, max_steps=bound)
    expected = chart_parse_all(tag_with_lexicon(words.split(), demo_lexicon), cfg, goal)
    if goal.mode == "best-effort":
        assert code == 2
        expected = expected[1]
    else:
        assert code == 0
    assert len(expected) > 1
    assert _documents(capsys.readouterr().out) == sorted(to_json(entry) for entry in expected)


def test_parse_normalize_off_finds_more(lexicon_file, capsys):
    code = main(
        [
            "parse", "--lexicon", lexicon_file, "--words", "The dog bit John",
            "--normalize", "off", "--max-steps", "5",
        ]
    )
    assert code == 0
    summary = [l for l in capsys.readouterr().out.splitlines() if l.startswith("mode=")][0]
    assert "parses=13" in summary


def test_supertag_ladder_widens_until_strict(tmp_path, capsys):
    tags = tmp_path / "tagged.txt"
    tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
    code = main(["parse", "--supertags", str(tags)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=strict" in out and "cutoff=0.01" in out


def test_supertag_single_cutoff_falls_back(tmp_path, capsys):
    tags = tmp_path / "tagged.txt"
    tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
    code = main(["parse", "--supertags", str(tags), "--cutoffs", "0.075"])
    out = capsys.readouterr().out
    assert code == 2
    assert "mode=best-effort" in out


def test_check_clean_files(lexicon_file, tmp_path, capsys):
    rules = tmp_path / "rules.cfg"
    rules.write_text("rules = >, <\nnormalize = on\n", encoding="utf-8")
    assert main(["check", "--lexicon", lexicon_file, "--rules", str(rules)]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_bad_lines(tmp_path, capsys):
    lex = tmp_path / "bad.txt"
    lex.write_text("dog\tN\ncat\tN//\nno tab here\n", encoding="utf-8")
    assert main(["check", "--lexicon", str(lex)]) == 1
    out = capsys.readouterr().out
    assert ":2:" in out and ":3:" in out


def test_check_unknown_rule_name(tmp_path, capsys):
    rules = tmp_path / "rules.cfg"
    rules.write_text("rules = sideways\n", encoding="utf-8")
    assert main(["check", "--rules", str(rules)]) == 1
    assert "sideways" in capsys.readouterr().out


def test_check_repeated_rule_key(tmp_path, capsys):
    rules = tmp_path / "rules.cfg"
    rules.write_text("max_steps = 3\nmax_steps = 4\n", encoding="utf-8")
    assert main(["check", "--rules", str(rules)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{rules}: line 2: repeated key 'max_steps'"]


def test_check_requires_a_target():
    assert main(["check"]) == 1


def test_compare_engines_agree(lexicon_file, capsys):
    code = main(["compare", "--lexicon", lexicon_file, "--words", "The dog bit John"])
    assert code == 0
    assert "engines agree" in capsys.readouterr().out


def test_compare_mismatched_budget(lexicon_file, capsys):
    code = main(
        [
            "compare", "--lexicon", lexicon_file, "--words", "The dog bit John",
            "--normalize", "off", "--max-steps", "1",
        ]
    )
    assert code == 1
    assert "disagree" in capsys.readouterr().out


def test_compare_best_effort(lexicon_file, capsys):
    code = main(["compare", "--lexicon", lexicon_file, "--words", "The dog bit", "--goal", "best-effort"])
    assert code == 0
    assert "engines agree" in capsys.readouterr().out


@pytest.mark.parametrize("goal", ["strict", "best-effort"])
def test_compare_parses_on_the_rung_parse_answers_on(tmp_path, capsys, goal):
    tags = tmp_path / "tagged.txt"
    tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
    # the first rung has no strict parse; the last has exactly one
    assert main(["parse", "--supertags", str(tags), "--goal", goal]) == (0 if goal == "strict" else 2)
    assert "parses=1 " in capsys.readouterr().out
    assert main(["compare", "--supertags", str(tags), "--goal", goal]) == 0
    assert capsys.readouterr().out == "engines agree: 1 parses\n"


def test_compare_lists_the_trees_only_one_engine_finds(lexicon_file, monkeypatch, capsys):
    def plan_engine(ts, cfg, goal):
        # the spurious trees normalization would drop, without the normal-form tree
        return parse_all(ts, dataclasses.replace(cfg, normalize=False), goal) - parse_all(ts, cfg, goal)

    monkeypatch.setattr("ccgplan.cli.parse_all", plan_engine)
    assert main(["compare", "--lexicon", lexicon_file, "--words", "The dog bit John"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("engines disagree: plan=")
    assert out.count("only oracle:") == 1 and "only plan engine:" in out


def test_compare_reports_a_best_effort_residue_difference(lexicon_file, monkeypatch, capsys):
    def plan_engine(ts, cfg, goal):
        residue, forests = parse_all(ts, cfg, goal)
        return residue + 1, forests

    monkeypatch.setattr("ccgplan.cli.parse_all", plan_engine)
    assert main(["compare", "--lexicon", lexicon_file, "--words", "The dog bit", "--goal", "best-effort"]) == 1
    assert capsys.readouterr().out == "residue differs: plan=2 oracle=1\n"


@pytest.mark.parametrize(
    "cutoffs, message",
    [("0.1;0.01", "error: bad cutoff list '0.1;0.01'"), ("0.1,1.5", "error: cutoffs must lie in (0, 1]"),
     ("0", "error: cutoffs must lie in (0, 1]"), ("0.01,0.5", "error: cutoffs must strictly decrease"),
     ("0.03,0.03", "error: cutoffs must strictly decrease")],
)
def test_parse_rejects_a_bad_cutoff_list(tmp_path, capsys, cutoffs, message):
    tags = tmp_path / "tagged.txt"
    tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
    assert main(["parse", "--supertags", str(tags), "--cutoffs", cutoffs]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_parse_lexicon_needs_words(lexicon_file, capsys):
    assert main(["parse", "--lexicon", lexicon_file]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --lexicon needs --words"]


def test_check_lexicon_of_comments_has_no_entries(tmp_path, capsys):
    lex = tmp_path / "comments.txt"
    lex.write_text("# only a comment\n\n", encoding="utf-8")
    assert main(["check", "--lexicon", str(lex)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{lex}: lexicon has no entries"]


DEEP_CATEGORY = "(" * 600 + "S" + ")" * 600


def test_parse_deeply_nested_category_is_one_error_line(tmp_path, capsys):
    lex = tmp_path / "deep.txt"
    lex.write_text(f"John\tNP\nleft\t{DEEP_CATEGORY}\n", encoding="utf-8")
    assert main(["parse", "--lexicon", str(lex), "--words", "John left"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "nested deeper" in err[0]


def test_check_deeply_nested_category(tmp_path, capsys):
    lex = tmp_path / "deep.txt"
    lex.write_text(f"John\tNP\nleft\t{DEEP_CATEGORY}\n", encoding="utf-8")
    assert main(["check", "--lexicon", str(lex)]) == 1
    assert capsys.readouterr().out.startswith(f"{lex}:2: bad category")


@pytest.mark.parametrize("command", ["parse", "compare"])
@pytest.mark.parametrize(
    "cutoffs, message",
    [("abc", "error: bad cutoff list 'abc'"), ("0.1,1.5", "error: cutoffs must lie in (0, 1]"),
     ("0.01,0.5", "error: cutoffs must strictly decrease"), ("0.03,0.03", "error: cutoffs must strictly decrease")],
)
def test_lexicon_input_rejects_a_bad_cutoff_list(lexicon_file, capsys, command, cutoffs, message):
    assert main([command, "--lexicon", lexicon_file, "--words", "The dog bit John", "--cutoffs", cutoffs]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parse", "--words", "x", "--format", "xml"], "error: argument --format: invalid choice: 'xml'"),
        (["parse", "--words", "x", "--max-steps", "x"], "error: argument --max-steps: invalid int value: 'x'"),
        (["parse", "--words", "x", "--engine", "oracle"], "error: unrecognized arguments: --engine oracle"),
        ([], "error: the following arguments are required: command"),
    ],
)
def test_a_usage_error_is_one_error_line_and_exit_1(capsys, argv, message):
    # exit 2 means a best-effort answer
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--help"])
    assert exc.value.code == 0
    assert "--engine" not in capsys.readouterr().out


def test_parse_out_naming_a_file_is_one_error_line(lexicon_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit John", "--out", str(taken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")


def test_compare_checks_the_oracle_guard_before_any_search(lexicon_file, monkeypatch, capsys):
    def plan_engine(*args):
        raise AssertionError("the plan engine ran before the oracle's guard")

    monkeypatch.setattr("ccgplan.cli.parse_all", plan_engine)
    words = " ".join(["John"] * 11)
    assert main(["compare", "--lexicon", lexicon_file, "--words", words]) == 1
    assert "exceeds the oracle guard of 10" in capsys.readouterr().err


def _chain(tmp_path, root: str, length: int) -> list[str]:
    """Input flags for a chain root/A1 A1/A2 ... A(n-1) that reduces, right
    to left, only to ``root``."""
    cats = [f"{root}/A1"] + [f"A{i - 1}/A{i}" for i in range(2, length)] + [f"A{length - 1}"]
    lex = tmp_path / f"chain_{root}_{length}.txt"
    lex.write_text("".join(f"w{i}\t{cat}\n" for i, cat in enumerate(cats, start=1)), encoding="utf-8")
    rules = tmp_path / "rules.cfg"
    rules.write_text("rules = >, <\n", encoding="utf-8")
    words = " ".join(f"w{i}" for i in range(1, length + 1))
    return ["--lexicon", str(lex), "--words", words, "--rules", str(rules)]


@pytest.mark.parametrize("fmt", ["ascii", "json", "dot"])
def test_parse_takes_sentences_up_to_the_token_bound(tmp_path, capsys, fmt):
    assert main(["parse", *_chain(tmp_path, "S", MAX_TOKENS), "--goal", "strict", "--format", fmt]) == 0
    assert "mode=strict residue=1 parses=1 " in capsys.readouterr().out
    assert main(["parse", *_chain(tmp_path, "A0", MAX_TOKENS), "--goal", "best-effort", "--format", fmt]) == 2
    assert "mode=best-effort residue=1 parses=1 " in capsys.readouterr().out
    assert main(["parse", *_chain(tmp_path, "S", MAX_TOKENS + 1), "--format", fmt]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"at most {MAX_TOKENS}" in err[0]


def test_main_builds_no_parser_per_call(lexicon_file, monkeypatch, capsys):
    def fail():
        raise AssertionError("main built a parser")

    monkeypatch.setattr("ccgplan.cli.build_parser", fail)
    assert main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit John"]) == 0
    assert main(["parse", "--format", "xml"]) == 1
    assert "parses=1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["parse", "compare"])
def test_supertag_input_rejects_words(tmp_path, capsys, command):
    tags = tmp_path / "tagged.txt"
    tags.write_text(LADDER_SUPERTAGS, encoding="utf-8")
    assert main([command, "--supertags", str(tags), "--words", "The dog"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: --words needs --lexicon"]


PP_LEXICON = "\n".join(
    ["The\tNP/N", "the\tNP/N", "dog\tN", "man\tN", "telescope\tN", "saw\t(S\\NP)/NP"]
    + ["with\t(NP\\NP)/NP", "with\t((S\\NP)\\(S\\NP))/NP"]
)


def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    lexicon = tmp_path / "pp.txt"
    lexicon.write_text(PP_LEXICON + "\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["parse", "--lexicon", str(lexicon), "--words", "The dog saw the man with the telescope", "--normalize", "off"]
    # 524 parses, some 400 KB: far more than a pipe holds, so the process
    # is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccgplan.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == b"# parse 1 of 524\n"
    assert (proc.returncode, err) == (1, b"")
