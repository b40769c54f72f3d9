"""README's library example runs as written against the demo lexicon."""

import re
from pathlib import Path

from conftest import DEMO_LEXICON

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    (tmp_path / "lexicon.txt").write_text(DEMO_LEXICON + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["1 parses, oracle 1", "residue 1, 1 forests"]
    assert "bit" in out[0] and "John" in out[0]
