"""A byte report of the CLI: one JSON line per command and seed.

Runs a fixed list of ``critical-esn`` commands in process, each under
seeds 0, 3 and 11 with its own empty ``--out`` directory, and prints one
JSON line per run: the argv, the exit code, and the sha256 of stdout, of
stderr and of every output file.  Two reports, one from each of two
checkouts on the same host, show which runs moved; bytes depend on the
host's numpy kernels, so reports from different hosts do not compare.

    python tools/cli_digests.py --src path/to/base/src > base.jsonl
    python tools/cli_digests.py --src src > head.jsonl
    python tools/cli_digests.py --diff base.jsonl head.jsonl

``--src`` names the directory the package is imported from (default:
the ``src`` next to this file).  ``--diff`` prints the runs that differ
as a Markdown table and exits 0 whether or not any differ; the tool
exits nonzero only when it fails itself.  Standard library and the
package only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

SEEDS = (0, 3, 11)

# The paper's two sweeps, the 3,000-point grid, every single estimate,
# washouts and horizons that put batch edges inside engine blocks, every
# forgetting input and init, the remaining commands, the acceptance
# suite's determinism commands (criterion 8), and the rejected forgetting
# --d0 values.
COMMANDS = [
    ["sweep-alpha"],
    ["sweep-gamma"],
    ["sweep-alpha", "--grid", "0.0005:1.5:0.0005", "--horizon", "10000"],
    *[["lyapunov", "--preset", preset, "--method", method, "--input", kind]
      for preset in ("anchored", "baseline")
      for method in ("renormalized", "derivative_product")
      for kind in ("alternating", "constant", "iid")],
    *[[command, "--washout", washout, "--horizon", horizon]
      for command in ("sweep-alpha", "sweep-gamma")
      for washout in ("0", "37") for horizon in ("1000", "1019")],
    *[["lyapunov", "--preset", preset, "--method", method, "--input", "iid",
       "--washout", "37", "--horizon", "1019"]
      for preset in ("anchored", "baseline")
      for method in ("renormalized", "derivative_product")],
    *[["forgetting", "--input", kind, "--init", init]
      for kind in ("alternating", "constant", "iid") for init in ("fixed-delta", "bit-scale")],
    ["readout-demo"],
    ["critical-b"],
    ["transfer-dump"],
    ["transfer-dump", "--ecps=-1,0,1", "--variant", "bridge", "--n", "101"],
    ["sweep-alpha", "--grid", "0.5,1.0", "--horizon", "1500"],
    ["sweep-gamma", "--grid", "0.9,1.0,1.2", "--horizon", "1500"],
    ["forgetting", "--input", "iid", "--init", "bit-scale", "--horizon", "800",
     "--replicates", "2"],
    ["lyapunov", "--preset", "anchored", "--alpha", "0.75", "--horizon", "1500"],
    ["readout-demo", "--length", "1200"],
    *[["forgetting", "--init", init, "--horizon", "1000", "--d0", d0]
      for init in ("fixed-delta", "bit-scale") for d0 in ("nan", "inf")],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(argv: list[str], seed: int) -> dict:
    """Run ``critical-esn --seed SEED --out DIR *argv`` in process; return its digests."""
    from critical_esn.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # Every warning is shown, so a run's stderr does not depend on the runs before it.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(["--seed", str(seed), "--out", tmp, *argv])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        root = Path(tmp)
        files = {str(p.relative_to(root)): _sha(p.read_bytes())
                 for p in sorted(root.rglob("*")) if p.is_file()}
    return {"argv": argv, "seed": seed, "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def diff(base_path: Path, head_path: Path) -> str:
    """The runs of two reports that differ, as Markdown."""
    def runs(path):
        rows = (json.loads(line) for line in path.read_text().splitlines() if line.strip())
        return {(" ".join(r["argv"]), r["seed"]): r for r in rows}

    base, head = runs(base_path), runs(head_path)
    lines = []
    for key in sorted(base.keys() | head.keys()):
        a, b = base.get(key), head.get(key)
        if a is None or b is None:
            moved = ["only in " + ("head" if a is None else "base")]
        else:
            moved = [f for f in ("exit", "stdout", "stderr") if a[f] != b[f]]
            moved += [f"file {name}" for name in sorted(a["files"].keys() | b["files"].keys())
                      if a["files"].get(name) != b["files"].get(name)]
        if moved:
            lines.append(f"| `{key[0]}` | {key[1]} | {', '.join(moved)} |")
    summary = f"CLI bytes: {len(lines)} of {len(base.keys() | head.keys())} runs differ."
    if not lines:
        return summary + "\n"
    return "\n".join([summary, "", "| argv | seed | moved |", "|---|---|---|", *lines]) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory the critical_esn package is imported from")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                        help="compare two reports instead of running the commands")
    args = parser.parse_args(argv)
    if args.diff:
        sys.stdout.write(diff(*args.diff))
        return 0
    sys.path.insert(0, str(args.src.resolve()))
    for command in COMMANDS:
        for seed in SEEDS:
            print(json.dumps(digest_run(command, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
