import json

import pytest

from ccgplan import ParseGoal, RuleConfig, load_lexicon, parse_all, tag_with_lexicon, to_json
from ccgplan.cli import main
from ccgplan.lexicon import MAX_TOKENS

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


def test_parse_out_removes_the_documents_of_an_earlier_run(lexicon_file, tmp_path, capsys):
    out_dir = tmp_path / "parses"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n", encoding="utf-8")
    (out_dir / "parse_12.txt").write_text("kept\n", encoding="utf-8")
    parse = ["parse", "--lexicon", lexicon_file, "--out", str(out_dir)]
    assert main(parse + ["--words", "The dog bit John", "--normalize", "off", "--max-steps", "5"]) == 0
    assert len(list(out_dir.glob("parse_????.txt"))) == 13
    assert main(parse + ["--words", "The dog bit John", "--format", "json"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt", "parse_0001.json", "parse_12.txt"]
    assert main(parse + ["--words", "The dog bit", "--goal", "strict"]) == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["notes.txt", "parse_12.txt"]
    assert "parses=0" in capsys.readouterr().out.splitlines()[-1]


def test_parse_out_creates_no_directory_without_documents(lexicon_file, tmp_path):
    out_dir = tmp_path / "parses"
    argv = ["parse", "--lexicon", lexicon_file, "--words", "The dog bit", "--goal", "strict", "--out", str(out_dir)]
    assert main(argv) == 2
    assert not out_dir.exists()


def test_parse_with_oracle_engine(lexicon_file, capsys):
    code = main(["parse", "--lexicon", lexicon_file, "--words", "The dog bit John", "--engine", "oracle"])
    assert code == 0
    assert "parses=1" in capsys.readouterr().out


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


def test_parse_oracle_rejects_a_plan_length_bound(lexicon_file, tmp_path, capsys):
    words = ["--lexicon", lexicon_file, "--words", "The dog bit John", "--engine", "oracle"]
    assert main(["parse", *words, "--max-steps", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    rules = tmp_path / "rules.cfg"
    rules.write_text("max_steps = 3\n", encoding="utf-8")
    assert main(["parse", *words, "--rules", str(rules)]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
