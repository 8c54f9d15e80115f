"""README's Python API example runs as written and prints what it says, and
its usage block names every option of every subcommand."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from cfsmkit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs_from_the_repository_root():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == re.findall(r"^\s*print\(.*\)  # (.*)$", block, flags=re.M)


def test_readme_usage_block_names_every_option_of_every_subcommand():
    section = (ROOT / "README.md").read_text().split("## Command-line tool", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S)[1]
    # A subcommand's usage starts at ``cfsmkit NAME`` and runs on over indented lines.
    usage = {m[0]: set(re.findall(r"--[\w-]+", m[1]))
             for m in re.findall(r"^cfsmkit (\w+)(.*(?:\n[ \t]+.*)*)", block, flags=re.M)}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
               for name, sub in commands.choices.items()}
    assert usage == options
