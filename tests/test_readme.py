"""The library sketch in README.md runs as written, so a name it uses
cannot be deleted or renamed without this test failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, "README.md should hold one python block"
    exec(compile(blocks[0], str(README), "exec"), {})
