"""The README's library example runs as documented."""
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out
    assert printed == namespace["trace"].to_json() + "\n"
    doc = json.loads(printed)
    assert doc["threshold"] == 5.0 and all(a["holds"] for a in doc["assertions"])
