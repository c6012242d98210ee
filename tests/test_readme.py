"""The Python examples of README.md run as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run_in_order(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "readme"}
    for block in blocks:
        # padded so that a traceback names the README's own line numbers
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(ROOT / "README.md"), "exec"), namespace)
    out = capsys.readouterr().out
    assert "TOTAL 2 violations" in out
    assert "['act.db.log', 'act.db.ret']" in out
