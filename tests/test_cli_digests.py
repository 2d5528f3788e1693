"""The CLI byte report in ``tools/cli_digests.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

from critical_esn.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


@pytest.mark.parametrize("argv", cli_digests.COMMANDS, ids=" ".join)
def test_every_command_parses(argv):
    build_parser().parse_args(["--seed", "0", "--out", "unused", *argv])


def test_runs_repeat_and_a_moved_run_is_listed(tmp_path):
    runs = [cli_digests.digest_run(argv, 3) for argv in (["critical-b"], ["transfer-dump"])]
    again = cli_digests.digest_run(["critical-b"], 3)
    assert again == runs[0]
    assert runs[0]["exit"] == 0 and set(runs[0]["files"]) == {"critical_b.csv"}

    rejected = cli_digests.digest_run(["forgetting", "--horizon", "1000", "--d0", "nan"], 0)
    assert rejected["exit"] == 1 and rejected["files"] == {}

    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    base.write_text("".join(json.dumps(r) + "\n" for r in runs))
    assert cli_digests.diff(base, base) == "CLI bytes: 0 of 2 runs differ.\n"
    moved = dict(runs[1], files={**runs[1]["files"], "transfer.csv": "0" * 64})
    head.write_text(json.dumps(runs[0]) + "\n" + json.dumps(moved) + "\n")
    report = cli_digests.diff(base, head)
    assert report.startswith("CLI bytes: 1 of 2 runs differ.")
    assert "| `transfer-dump` | 3 | file transfer.csv |" in report
