"""The README's library quick start and CLI examples run against the current code."""

import re
import shlex
from pathlib import Path

from qbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("qbound ")]
    assert commands, "README's CLI block has no qbound line"
    monkeypatch.chdir(tmp_path)  # one example writes region.csv
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
