"""The demos and the README's examples run as written.

Each demo runs in-process under ``runpy`` as ``__main__``, with its
stdout captured; the two that write tables get an ``--outdir`` under
the test's temporary directory.  The README's ``python`` blocks run in
order in one namespace, as a reader pasting them would, and each of its
``corridors`` command lines runs through the CLI's ``main`` with its
outputs redirected; every one must exit 0.
"""

import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from corridors.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
DEMOS = sorted((REPO / "demos").glob("*.py"))
WRITES_FILES = {"monitored_packet.py", "zeno_localization.py"}
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("corridors ")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    argv = [str(demo)]
    if demo.name in WRITES_FILES:
        argv += ["--outdir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    if demo.name in WRITES_FILES:
        assert list(tmp_path.glob("*.txt"))


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines_are_found():
    # an empty parametrization below would skip, not fail
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, capsys):
    task, scenario, *options = shlex.split(command)[1:]
    assert main([task, str(REPO / scenario), *options, "--outdir", str(tmp_path)]) == 0
