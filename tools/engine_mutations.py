"""Mutation guard of the engine, its float step and the decay thresholds: each must fail a test.

Each mutation is a file under ``src/``, an old text and a new text.  For
each one the tool copies ``src/`` to a temporary directory, replaces the
old text, which must occur exactly once, and runs

    pytest -x -q tests/test_analysis.py

against the copy.  It prints one Markdown row per mutation with the
first failing test, and exits 1 if any mutation leaves every test
passing or any old text does not occur exactly once.  ``src/`` itself is
never written, and hypothesis keeps its examples in the temporary
directory.

    python tools/engine_mutations.py

Rerun it after a change to the engine, the one-neuron step or the decay
classifier; ``tests/test_engine_mutations.py`` checks in tier-1 that
every old text still occurs exactly once.  Standard library only;
pytest and hypothesis come from the test dependencies.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str


ANALYSIS = "critical_esn/analysis.py"
RESERVOIR = "critical_esn/reservoir.py"

MUTATIONS = [
    Mutation("tail phase (r - t + 1) % 2", ANALYSIS,
             "return self.last[np.arange(lo - self.t, hi - self.t) % 2]",
             "return self.last[np.arange(lo - self.t + 1, hi - self.t + 1) % 2]"),
    Mutation("closure without the input period", ANALYSIS,
             "closed |= (start <= t0 - 2) & (recent[-1]",
             "closed |= (recent[-1]"),
    Mutation("no flips", ANALYSIS,
             "np.logical_xor.accumulate(down_next & ~up_next)",
             "np.zeros_like(down_next)"),
    Mutation("no sets", ANALYSIS,
             "keys *= np.vstack((~none, up_next == down_next))",
             "keys *= np.vstack((~none, np.zeros_like(up_next)))"),
    Mutation("tail sums reused without the phase", ANALYSIS,
             "elif (phase := (lo - block.t) % 2) in whole:",
             "elif (phase := 0) in whole:"),
    # The tail repeats the consumer's rows R-1 (the last stepped row) and
    # R (one row from the cycle) instead of rows R and R+1 from the cycle.
    Mutation("tail from rows R-1 and R", ANALYSIS,
             """\
        yield rows_of(drive, states)
        t0 += len(drive)
        recent = np.concatenate((recent[:-1], states[-3:]))[-3:]
        if len(recent) == 3:
            closed |= (start <= t0 - 2) & (recent[-1].view(np.uint64) == recent[0].view(np.uint64))
        if t0 < len(u) and closed.all():
            # recent, s[R-3:R], equals s[R-1:R+2] bit for bit: the states of rows R and R+1.
            drive = win * u[t0:t0 + 2]
            yield (last := rows_of(drive, recent[:len(drive) + 1]))
            if len(last) == 2:
                yield _CycleTail(last, t0 + 2)
            return
""",
             """\
        yield (prev := rows_of(drive, states))
        t0 += len(drive)
        recent = np.concatenate((recent[:-1], states[-3:]))[-3:]
        if len(recent) == 3:
            closed |= (start <= t0 - 2) & (recent[-1].view(np.uint64) == recent[0].view(np.uint64))
        if t0 < len(u) and closed.all():
            yield (last := rows_of(win * u[t0:t0 + 1], recent[:2]))
            if t0 + 1 < len(u):
                yield _CycleTail(np.concatenate((prev[-1:], last)), t0 + 1)
            return
"""),
    # The decay classifier's floor, transient and r2 margin.
    Mutation("floor 1e-12", ANALYSIS, "_FLOOR = 1e-13", "_FLOOR = 1e-12"),
    Mutation("transient of 12 steps", ANALYSIS, "_TRANSIENT = 10", "_TRANSIENT = 12"),
    Mutation("margin 0.05", ANALYSIS, "_MARGIN = 0.02", "_MARGIN = 0.05"),
    # A one-neuron Reservoir.step of the tanh baseline on math.tanh, which
    # differs from np.tanh in the last bit on some points.  The per-row
    # derivative-product loop steps the same way and cannot see it.
    Mutation("math.tanh in the one-neuron tanh step", RESERVOIR,
             "self.state = np.array([self.transfers[0]._eval_float(x)])",
             "self.state = np.array([self.transfers[0]._eval_float(x) if self.transfers[0].variant"
             " else math.tanh(x)])"),
]


def occurrences(mutation: Mutation) -> int:
    """How often the mutation's old text occurs in its file under ``src/``."""
    return (ROOT / "src" / mutation.path).read_text().count(mutation.old)


def run(mutation: Mutation) -> str:
    """The first test that fails with ``mutation`` applied, or "" if every test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutation.path
        target.write_text(target.read_text().replace(mutation.old, mutation.new))
        env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_STORAGE_DIRECTORY=tmp)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests/test_analysis.py"],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    if result.returncode != 1 or failed is None:
        raise RuntimeError(f"pytest exited {result.returncode} under {mutation.name!r}:\n"
                           + result.stdout[-2000:] + result.stderr[-2000:])
    return failed.group(1)


def main() -> int:
    print("| mutation | first failing test |")
    print("|---|---|")
    ok = True
    for mutation in MUTATIONS:
        count = occurrences(mutation)
        if count != 1:
            outcome, ok = f"NOT APPLIED: old text found {count} times in src/{mutation.path}", False
        else:
            failed = run(mutation)
            outcome = f"`{failed}`" if failed else "NOT CAUGHT: every test passes"
            ok = ok and bool(failed)
        print(f"| {mutation.name} | {outcome} |", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
