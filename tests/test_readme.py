"""The Python examples of README.md run against the library as it is."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.chdir(tmp_path)  # whatever an example writes lands here
    for k, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {k}", "exec"), {})
