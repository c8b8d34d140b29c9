"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
