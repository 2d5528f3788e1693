"""The README's library quickstart runs, and its CLI examples parse, against ``src/``."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from critical_esn.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_library_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "CriticalPoint(b_star=2.344" in proc.stdout


def test_cli_examples_parse():
    """Every ``critical-esn ...`` line of the README's sh blocks names real flags and choices."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("critical-esn ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
