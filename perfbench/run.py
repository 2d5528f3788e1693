"""critical-esn benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweeps --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it once more with span timers wrapped around
the package's public functions and prints the per-layer metrics.  Every
metric is printed by name with its unit, followed by a JSON line of
details (environment, per-command medians, output digests) and, as the
last line, the result object
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``perfbench/README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import BYTES_PER_ELEMENT, SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Every child process must finish this long after the benchmark started.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "wall_s": "s",
    "steps_per_s": "lane-steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
    "ref_margin": "ratio",
}

MICRO_UNITS = {
    "transfer.eval_us.n1": "us",
    "transfer.eval_us.n60": "us",
    "transfer.eval_us.n6000": "us",
    "transfer.eval_us.n1e6": "us",
    "transfer.slope_us.n1": "us",
    "transfer.slope_us.n60": "us",
    "transfer.build_us.bridge": "us",
    "transfer.build_us.plateau": "us",
    "transfer.validate_ms": "ms",
    "reservoir.step_us.k1": "us",
    "reservoir.step_us.k8": "us",
}

COUNT_UNITS = {
    "transfer.eval.elements": "count",
    "transfer.eval.bytes_computed": "B",
    "transfer.slope.elements": "count",
    "signals.generate.elements": "count",
    "cli.write_csv.rows": "count",
    "cli.write_csv.bytes": "B",
    "reservoir.run_pair.useful_ratio": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts worker processes from the checkout root against its ``src``."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})

    def call(self, *args) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} failed:\n{proc.stderr.strip()[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if not Path(result["module"]).resolve().is_relative_to(src):
            raise BenchError(f"imported {result['module']}, not the package under {src}")
        return result


def measure_setup(children: Children, workload: str, seed: int) -> list[float]:
    """Fresh-interpreter import of ``critical_esn.cli`` plus the workload's set-up calls."""
    children.call("setup", workload, seed)  # fills the bytecode caches; not counted
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = children.call("setup", workload, seed)
        raw = result["imported_at"] - spawned + result["setup_calls_s"]
        samples.append(raw * result["scale"])
    return samples


def end_to_end(children: Children, name: str, seed: int, seconds: int, out: Path):
    setup = measure_setup(children, name, seed)
    run = children.call("run", name, seed, seconds, out)
    wall = statistics.median(run["scaled_walls"])
    ref_err = run["ref_err"]
    metrics = {
        "wall_s": wall,
        "steps_per_s": WORKLOADS[name].lane_steps / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_frac": 1.0 - run["failed"] / run["attempted"],
        "ref_margin": 0.0 if ref_err is None else 1.0 - ref_err,
    }
    correct = run["failed"] == 0 and run["deterministic"]
    details = {
        "reps": len(run["walls"]), "raw_walls_s": run["walls"], "speed_scales": run["scales"],
        "scaled_walls_s": run["scaled_walls"], "setup_samples_s": setup,
        "command_s": dict(zip((" ".join(c.argv) for c in WORKLOADS[name].commands),
                              run["command_s"])),
        "ref_err": ref_err, "deterministic": run["deterministic"],
        "failures": run["failures"], "digests": run["digests"],
    }
    return correct, run, metrics, E2E_UNITS, details


def traced(children: Children, name: str, seed: int, seconds: int, out: Path):
    plain = children.call("run", name, seed, max(1, seconds // 2), out / "plain")
    trace = children.call("trace", name, seed, out / "traced")
    metrics, units = {}, {}
    for span in SPANS:
        metrics[f"{span}.calls"] = trace["calls"].get(span, 0)
        units[f"{span}.calls"] = "count"
        metrics[f"{span}.self_s"] = trace["self_s"].get(span, 0.0)
        units[f"{span}.self_s"] = "s"
    counts = trace["counts"]
    for key in ("transfer.eval.elements", "transfer.slope.elements",
                "signals.generate.elements", "cli.write_csv.rows", "cli.write_csv.bytes"):
        metrics[key] = counts.get(key, 0)
    metrics["transfer.eval.bytes_computed"] = BYTES_PER_ELEMENT * counts.get(
        "transfer.eval.elements", 0)
    requested = counts.get("reservoir.run_pair.steps_requested", 0)
    metrics["reservoir.run_pair.useful_ratio"] = (
        counts.get("reservoir.run_pair.steps_run", 0) / requested if requested else 0.0)
    traced_wall = trace["scaled_walls"][0]
    metrics["trace.overhead_s"] = traced_wall - statistics.median(plain["scaled_walls"])
    units.update(COUNT_UNITS)
    metrics.update(trace["micro"])
    units.update(MICRO_UNITS)

    same_bytes = trace["digests"] == plain["digests"]
    unused = [s for s in WORKLOADS[name].spans if not trace["calls"].get(s)]
    correct = (plain["failed"] == 0 and trace["failed"] == 0 and plain["deterministic"]
               and same_bytes and not trace["leftover_wrappers"])
    run = {"attempted": plain["attempted"] + trace["attempted"],
           "failed": plain["failed"] + trace["failed"],
           "package": trace["package"], "numpy": trace["numpy"]}
    details = {
        "untraced_scaled_walls_s": plain["scaled_walls"], "traced_scaled_wall_s": traced_wall,
        "traced_bytes_equal_untraced": same_bytes, "absent_targets": trace["absent"],
        "expected_spans_not_called": unused, "leftover_wrappers": trace["leftover_wrappers"],
        "failures": plain["failures"] + trace["failures"], "digests": trace["digests"],
    }
    return correct, run, metrics, units, details


# -- environment block ----------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def cache_sizes() -> dict:
    """Per-instance cache sizes as the kernel reports them, keyed L1d, L2, ..."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind or "", "")
            sizes[label] = size
    return sizes


def git_commit(root: Path) -> str | None:
    head = _read(str(root / ".git" / "HEAD"))
    if head and head.startswith("ref: "):
        return _read(str(root / ".git" / head[5:]))
    return head


def environment(root: Path, seed: int, run: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": run.get("numpy"),
        "critical_esn": run.get("package"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "commit": git_commit(root),
        "seed": seed,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "byte_figures": "computed from element counts (16 B per element), not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="passed on to every command as --seed, modulo 2**32")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    seed = args.seed % 2**32

    root = Path.cwd()
    if not (root / "src" / "critical_esn" / "cli.py").is_file():
        print(f"error: no package source at {root / 'src' / 'critical_esn'}; "
              "run from the root of a critical-esn checkout", file=sys.stderr)
        return 2
    children = Children(root, time.monotonic() + DEADLINE_S)
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    measure = traced if args.trace else end_to_end
    try:
        correct, run, metrics, units, details = measure(
            children, args.workload, seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    print(f"{args.workload} (seed {seed}, trace {args.trace})")
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>18.6g} {units[key]}")
    details = {"workload": args.workload, "env": environment(root, seed, run), **details}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
