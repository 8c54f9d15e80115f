"""README's Python API example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs_from_the_repository_root():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == re.findall(r"^\s*print\(.*\)  # (.*)$", block, flags=re.M)
