"""Child process of the benchmark: times set-up, runs or traces one workload.

Run from the checkout root with ``src`` on ``PYTHONPATH`` (``run.py`` does
this); each mode prints one JSON object as its last line of output:

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS OUT_DIR
    python3 perfbench/worker.py trace WORKLOAD SEED OUT_DIR

The package is imported before anything else, so that ``setup`` can report
the moment its import finished on the system-wide monotonic clock.
"""

import time

import critical_esn.cli as cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import critical_esn  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def out_digest(out: Path) -> str:
    """sha256 over the names and bytes of every file in ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- host speed probe ---------------------------------------------------------

#: Duration of one probe pass at the reference speed: the development
#: host's contended state (its uncontended state runs a pass in about
#: 15 ms).  Scaled times read in seconds at that speed.
PROBE_REFERENCE_S = 0.03
#: Probing after a command lasts at least this share of the command's time.
PROBE_SHARE = 0.1
_PROBE_EDGES = np.array([-1.2, -0.8, 0.8, 1.2])
_PROBE_SHIFTS = np.array([-1.0, 0.0, 0.0, 0.0, 1.0])
_PROBE_LEVELS = np.array([-0.76, 0.0, 0.0, 0.0, 0.76])


def _probe_pass(width: int) -> float:
    """A fixed copy of the sweep kernel's step on ``width`` lanes.

    Piecewise lookup, tanh and renormalisation of a reference and a twin
    trajectory, ``width // 2`` lanes each.  Wider passes take fewer steps,
    so that every width costs about the same.
    """
    half = max(1, width // 2)
    gains = -np.linspace(0.05, 1.5, half)
    ref = np.zeros(half)
    twin = ref + 1e-9
    acc = 0.0
    for t in range(1200 if width <= 60 else 1_200_000 // width):
        drive = 1.0 - 2.0 * (t & 1)
        lin = np.concatenate([gains * ref + drive, gains * twin + drive])
        idx = np.searchsorted(_PROBE_EDGES, lin, side="right")
        vals = np.tanh(lin - _PROBE_SHIFTS[idx]) + _PROBE_LEVELS[idx]
        ref = vals[:half]
        delta = vals[half:] - ref
        dist = np.abs(delta)
        acc += float(np.log(dist[0] / 1e-9 + 1.0))
        good = dist > 0.0
        twin = np.where(good, ref + delta * (1e-9 / np.where(good, dist, 1.0)), ref + 1e-9)
    return acc


def speed_scale(width: int, seconds: float = 0.0) -> float:
    """Reference time over the mean time of probe passes ``width`` lanes wide.

    Runs at least ten passes and at least ``seconds``.  The kernel never
    calls the package, so no change to the package can move the scale; it
    is an interpreted loop of numpy calls as wide as the workload's own.
    Contention from other tenants of the host slows it as it slows the
    workload, so multiplying a command's time by the scales measured on
    either side of it removes much of that drift.
    """
    start = time.perf_counter()
    passes = 0
    while passes < 10 or time.perf_counter() - start < seconds:
        _probe_pass(width)
        passes += 1
    return PROBE_REFERENCE_S * passes / (time.perf_counter() - start)


# -- one repetition of a workload ---------------------------------------------


def run_rep(workload: Workload, seed: int, out_root: Path, scales=None) -> dict:
    """Run every command of the workload once and check its outputs.

    With a ``scales`` list (holding the scale measured just before), a speed
    scale is appended after each command and the command's time is also
    reported scaled by the mean of the scales on either side of it.
    """
    commands = []
    for index, command in enumerate(workload.commands):
        out = out_root / str(index)
        if out.exists():
            shutil.rmtree(out)
        argv = ["--seed", str(seed), "--out", str(out), *command.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        scaled = None
        if scales is not None:
            scales.append(speed_scale(workload.probe_width, PROBE_SHARE * seconds))
            scaled = seconds * 0.5 * (scales[-2] + scales[-1])
        failures, errs = [], []
        if code != 0:
            failures.append(f"exit {code}: {stderr.getvalue().strip()}")
        else:
            try:
                checks = command.check(out)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                failures.append(f"output unreadable: {exc!r}")
            else:
                failures += [c.label for c in checks if not c.ok]
                errs += [c.err for c in checks if c.err is not None]
        commands.append({
            "argv": " ".join(command.argv),
            "seconds": seconds,
            "scaled": scaled,
            "ok": not failures,
            "failures": failures,
            "ref_err": max(errs, default=None),
            "digest": out_digest(out) if out.exists() else None,
        })
    rep = {"wall": sum(c["seconds"] for c in commands), "commands": commands}
    if scales is not None:
        rep["scaled_wall"] = sum(c["scaled"] for c in commands)
    return rep


def summarize(reps: list[dict]) -> dict:
    commands = [c for rep in reps for c in rep["commands"]]
    errs = [c["ref_err"] for c in commands if c["ref_err"] is not None]
    digests = [[c["digest"] for c in rep["commands"]] for rep in reps]
    return {
        "walls": [rep["wall"] for rep in reps],
        "scaled_walls": [rep.get("scaled_wall") for rep in reps],
        "command_s": [statistics.median(rep["commands"][i]["seconds"] for rep in reps)
                      for i in range(len(reps[0]["commands"]))],
        "attempted": len(commands),
        "failed": sum(not c["ok"] for c in commands),
        "failures": sorted({f"{c['argv']}: {f}" for c in commands for f in c["failures"]}),
        "ref_err": max(errs, default=None),
        "digests": digests[-1],
        "deterministic": all(d == digests[0] for d in digests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def mode_setup(workload: Workload, seed: int) -> dict:
    start = time.perf_counter()
    workload.setup(seed)
    calls = time.perf_counter() - start
    return {"imported_at": IMPORTED_AT, "setup_calls_s": calls,
            "scale": speed_scale(workload.probe_width)}


def mode_run(workload: Workload, seed: int, seconds: float, out: Path) -> dict:
    """Repeat the workload while another repetition still fits in ``seconds``."""
    _probe_pass(workload.probe_width)  # warm
    start = time.perf_counter()
    reps, scales, longest = [], [speed_scale(workload.probe_width)], 0.0
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(workload, seed, out, scales))
        longest = max(longest, time.perf_counter() - rep_start)
        if time.perf_counter() - start + longest > seconds:
            break
    result = summarize(reps)
    result["scales"] = scales
    return result


def mode_trace(workload: Workload, seed: int, out: Path) -> dict:
    tracer = tracing.Tracer()
    _probe_pass(workload.probe_width)  # warm
    scales = [speed_scale(workload.probe_width)]
    patches = tracing.install(tracer)
    try:
        rep = run_rep(workload, seed, out, scales)
    finally:
        patches.restore()
    result = summarize([rep])
    result.update(
        scales=scales,
        calls=dict(tracer.calls),
        self_s=dict(tracer.self_s),
        counts=dict(tracer.counts),
        absent=patches.absent,
        leftover_wrappers=tracing.leftover_wrappers(),
        micro=micro_timings(seed),
    )
    return result


# -- layer micro-timings through public calls ---------------------------------


def per_call_s(fn, budget_s: float = 0.2, batches: int = 7) -> float:
    """Median per-call time over ``batches`` batches sized to fill the budget."""
    fn()  # warm
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    loops = max(1, int(budget_s / batches / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def micro_timings(seed: int) -> dict:
    """Per-call cost of the layer operations the ROADMAP's baseline table lists.

    ``n1`` predicts ``lyapunov-step`` (one-element calls per step), ``n60``
    predicts ``paper-sweeps`` (60-element batches) and ``n6000`` predicts
    ``wide-sweep`` (6000-element batches).
    """
    from critical_esn.reservoir import Reservoir, anchored_reservoir, random_orthogonal
    from critical_esn.transfer import MorphableTransfer, Variant

    rng = np.random.default_rng(seed)
    bridge = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    xs = {n: rng.uniform(-3.0, 3.0, n) for n in (1, 60, 6000, 1_000_000)}
    one_neuron = anchored_reservoir(1.0)
    eight = Reservoir(random_orthogonal(8, seed), rng.normal(0.0, 0.5, (8, 1)), bridge,
                      require_orthogonal=True)
    us = 1e6
    return {
        "transfer.eval_us.n1": per_call_s(lambda: bridge.eval(xs[1])) * us,
        "transfer.eval_us.n60": per_call_s(lambda: bridge.eval(xs[60])) * us,
        "transfer.eval_us.n6000": per_call_s(lambda: bridge.eval(xs[6000])) * us,
        "transfer.eval_us.n1e6": per_call_s(lambda: bridge.eval(xs[1_000_000]), 0.5) * us,
        "transfer.slope_us.n1": per_call_s(lambda: bridge.slope(xs[1])) * us,
        "transfer.slope_us.n60": per_call_s(lambda: bridge.slope(xs[60])) * us,
        "transfer.build_us.bridge":
            per_call_s(lambda: MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)) * us,
        "transfer.build_us.plateau":
            per_call_s(lambda: MorphableTransfer((-1.0, 1.0), Variant.PLATEAU)) * us,
        "transfer.validate_ms": per_call_s(lambda: bridge.validate(1e-2), 0.3) * 1e3,
        "reservoir.step_us.k1": per_call_s(lambda: one_neuron.step(1.0)) * us,
        "reservoir.step_us.k8": per_call_s(lambda: eight.step(1.0)) * us,
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = mode_setup(workload, seed)
    elif mode == "run":
        result = mode_run(workload, seed, float(argv[3]), Path(argv[4]))
    elif mode == "trace":
        result = mode_trace(workload, seed, Path(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.update(module=cli.__file__, package=getattr(critical_esn, "__version__", None),
                  numpy=np.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
