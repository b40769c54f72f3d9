"""README's library example runs as written against the demo lexicon, its
combinator table matches ``CombinatorKind``, its rows' defaults and
``DEFAULT_RULES``, and its normal-form table matches ``rules._BANS``."""

import re
from pathlib import Path

from conftest import DEMO_LEXICON

from ccgplan import CombinatorKind, parse_category
from ccgplan.rules import _BANS, DEFAULT_RULES, kind_from_name, valid_instance

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    section = _section("Library use")
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    (tmp_path / "lexicon.txt").write_text(DEMO_LEXICON + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["1 parses, oracle 1", "residue 1, 1 forests"]
    assert "bit" in out[0] and "John" in out[0]


def test_combinator_table_matches_the_kinds():
    lines = [line for line in _section("Combinators and normalization").splitlines() if line.startswith("| `")]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]
    assert [row[0] for row in rows] == [kind.value for kind in CombinatorKind]
    for value, symbol, arity, schema, default in rows:
        kind = CombinatorKind(value)
        assert (symbol, int(arity)) == (kind.symbol, kind.arity)
        assert default == ("on" if kind.on_by_default else "off")
        assert default == ("on" if kind in DEFAULT_RULES else "off")
        inputs, output = schema.split(" => ")
        cats = tuple(parse_category(c) for c in inputs.split())
        assert valid_instance(kind, cats, parse_category(output)), schema


def _kind(cell: str) -> CombinatorKind:
    return kind_from_name(cell.strip("`"))


def test_normal_form_table_matches_the_ban_rows():
    section = _section("Combinators and normalization")
    table = section.split("\n| Clause |", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        clause, rule, side, producers, normalization, needs = (cell.strip() for cell in line.strip("|").split("|"))
        assert normalization in ("on", "on or off")
        producers = frozenset(_kind(p) for p in producers.split(", "))
        rows.append((clause, _kind(rule), side, producers, normalization == "on", _kind(needs) if needs else None))
    assert rows == list(_BANS)
