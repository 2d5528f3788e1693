"""Command-line harness for the sweep and forgetting experiments.

Every command writes deterministic CSV (LF line endings, header row,
17-significant-digit decimals, exact float round-trip) into the output
directory, so repeating an invocation with the same seed reproduces the
files byte for byte.  Configuration precedence is flags over config file
over built-in defaults; the config file is a flat ``key=value`` text
format.  Each option's default, type and choices are stated once, in
:func:`build_parser`; a config value becomes the default of every parser
that has its key, so argparse casts it like a flag.  :func:`main` checks
the size caps and the seed and makes the output directory for every
command.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

import numpy as np

from . import readout, signals
from .analysis import (
    _check_d0,
    classify_decay,
    expected_orbit_rate,
    loglog_bend,
    lyapunov_derivative_product,
    lyapunov_renormalized,
    renormalized_scalar_batch,
    solve_critical_b,
)
from .reservoir import (
    _BASELINE_AMPLITUDE,
    Reservoir,
    config_text,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from .signals import InputSequence, alternating, generate, iid_plus_minus, rng_stream, scaled
from .transfer import MorphableTransfer, Variant

TANH1 = math.tanh(1.0)

#: Largest accepted ``--horizon``, ``--washout``, ``--length`` and ``--n``,
#: and most points of a ``--grid`` range: each sizes an array that a
#: command makes (an input, a dumped table or a grid), while the estimators
#: keep no per-step buffer.
_MAX_HORIZON = 1_000_000

#: Largest accepted ``readout-demo --k``: ``random_orthogonal``'s k
#: Householder updates cost O(k**3), 3.7 s at k = 1,000.
_MAX_K = 1000

#: Largest accepted ``forgetting --replicates``: each replicate writes a
#: CSV file of its own.
_MAX_REPLICATES = 1000

#: Largest accepted ``--k`` x ``--length`` of ``readout-demo``, the cells
#: of its ``(T, k)`` state matrix, and ``--replicates`` x ``--horizon`` of
#: ``forgetting``, the steps and CSV rows of all its runs.  The default
#: replicate count, at most 8, times the horizon cap stays below it.
_MAX_WORK = 10_000_000


#: Rows formatted and written per chunk by :func:`write_csv`.  At 1024
#: rows a chunk of ``(t, d)`` rows holds about 0.15 MiB and formats as fast
#: as at 4096, which held 0.9 MiB and raised the benchmark's
#: ``wide-sweep`` peak RSS by 0.7 MiB.
_CSV_CHUNK = 1024


def _cell_format(kind: type) -> str:
    """Format of a CSV cell of type ``kind``: see :func:`fmt`."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def fmt(value) -> str:
    """CSV cell: floats at 17 significant digits (exact round-trip).

    Strings are written verbatim and integers as ``str(int)``.
    """
    return _cell_format(type(value)) % (value,)


def _column_rows(*columns):
    """Rows of equal-length numpy columns as Python scalars, one ``_CSV_CHUNK`` slice at a time.

    ``%`` formats a Python scalar faster than a numpy one, and converting
    one slice of each column at a time, never a whole column, keeps
    :func:`write_csv`'s memory within a chunk.
    """
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        yield from zip(*(column[lo:lo + _CSV_CHUNK].tolist() for column in columns))


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows``, every cell as :func:`fmt` writes it.

    Rows are formatted a chunk of ``_CSV_CHUNK`` at a time, so memory
    stays bounded whatever the row count.  A chunk's cells are flattened
    into one list; a column of one type in the chunk takes one format for
    all its cells, a mixed column is formatted cell by cell, and the whole
    chunk is one ``%`` of the line format repeated once per row.  A row
    whose width differs from the header's is rejected.
    """
    rows = iter(rows)
    width = len(header)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CSV_CHUNK)):
            if set(map(len, chunk)) != {width}:
                raise ValueError(f"{Path(path).name}: a row's width differs from the header's")
            cells = list(chain.from_iterable(chunk))
            formats = []
            for i in range(width):
                kinds = set(map(type, cells[i::width]))
                if len(kinds) == 1:
                    formats.append(_cell_format(kinds.pop()))
                else:
                    formats.append("%s")
                    cells[i::width] = list(map(fmt, cells[i::width]))
            line = ",".join(formats) + "\n"
            fh.write((line * len(chunk)) % tuple(cells))


_LYAPUNOV_CSV_HEADER = ("lambda", "stderr", "method", "steps_used", "washout", "d0")
_DECAY_CSV_HEADER = ("law", "c_a", "c_b", "r2_loglog", "r2_semilog",
                     "window_lo", "window_hi", "truncated_at")


def _render_decay(fit) -> str:
    lines = [f"decay law: {fit.law}"]
    if fit.c_a is not None:
        lines.append(f"power-law exponent c_a = {fit.c_a:.6g}")
    if fit.c_b is not None:
        lines.append(f"exponential base c_b = {fit.c_b:.6g} per step")
    lines.append(f"r2 log-log  = {fit.r2_loglog:.6f}")
    lines.append(f"r2 semi-log = {fit.r2_semilog:.6f}")
    lines.append(f"fit window  = [{fit.window[0]}, {fit.window[1]}]")
    if fit.truncated_at is not None:
        lines.append(f"distance reached exact zero at step {fit.truncated_at}")
    return "\n".join(lines)


def _render_lyapunov(est) -> str:
    lines = [
        f"lambda = {est.lam:.9g} nats/step (stderr {est.stderr:.3g})",
        f"method = {est.method}",
        f"steps used = {est.steps_used} after washout {est.washout}",
    ]
    if est.d0 is not None:
        lines.append(f"initial separation d0 = {est.d0:g}")
    return "\n".join(lines)


def read_config(path: str) -> dict:
    """The ``key=value`` lines of a config file; blank and ``#`` lines are skipped.

    A line without ``=``, a key given twice and a ``config`` key (a
    config file cannot name another) are errors.
    """
    cfg = {}
    with open(path, "r") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {number} is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"config key {key} given twice (line {number})")
            if key == "config":
                raise ValueError("config key config: a config file cannot name another")
            cfg[key] = value
    return cfg


def _parse_with_config(parser: argparse.ArgumentParser, argv, cfg: dict) -> argparse.Namespace:
    """Parse ``argv`` again with the config's raw strings as option defaults.

    Each value becomes the default of every parser that has its key, so
    argparse casts it with that option's own type and a flag on the
    command line still wins.  Keys of other commands are accepted, so one
    file can serve several commands; a key that no command knows, a key
    that names a flag and a value outside an option's choices are
    rejected.  A value that does not cast raises ``argparse.ArgumentError``.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *commands.choices.values()]
    options = [(p, a) for p in parsers for a in p._actions if a.option_strings]
    unknown = sorted(set(cfg) - {a.dest for _, a in options})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for p, action in options:
        if action.dest not in cfg:
            continue
        raw = cfg[action.dest]
        if action.nargs == 0:
            raise ValueError(f"config key {action.dest} names a flag; "
                             f"pass {action.option_strings[-1]} on the command line")
        # Every option with choices takes strings, so the raw value is its cast.
        if action.choices is not None and raw not in action.choices:
            raise ValueError(f"config key {action.dest}: invalid choice {raw!r} "
                             f"(choose from {', '.join(action.choices)})")
        p.set_defaults(**{action.dest: raw})
    for p in parsers:
        p.exit_on_error = False
    return parser.parse_args(argv)


def parse_grid(text: str) -> np.ndarray:
    """Grid flag: ``start:stop:step`` or a comma-separated value list.

    A range's last point is snapped back onto ``stop`` when rounding in
    ``start + i * step`` overshoots it by less than 1e-9 of a step; no
    other point moves.  Non-finite values and a range of more than 1e6
    points are rejected, the range before its grid is made; so is any
    other text, with a message that names both forms.
    """
    sep = ":" if ":" in text else ","
    try:
        values = [float(p) for p in text.split(sep)]
        if sep == ":" and len(values) != 3:
            raise ValueError
    except ValueError:
        raise ValueError(f"--grid {text!r} is neither start:stop:step nor a comma-separated "
                         "list of numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if sep == ",":
        return np.array(values)
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid range {text!r}")
    span = (stop - start) / step + 1e-9  # the points after the first, before rounding down
    if span >= _MAX_HORIZON:
        raise ValueError(f"--grid {text!r} has more than 1e6 points")
    count = int(math.floor(span)) + 1
    grid = start + step * np.arange(count)
    if stop < grid[-1] < stop + 1e-9 * step:
        grid[-1] = stop
    return grid


# -- commands ------------------------------------------------------------------


_PLOT_SCRIPT = """\
# Plain-text companion script: renders the transfer-dump CSV files.
# Run with any Python that has matplotlib; the package itself never
# imports a plotting library.
import csv
import sys

import matplotlib.pyplot as plt

curve = list(csv.DictReader(open(sys.argv[1] if len(sys.argv) > 1 else "transfer.csv")))
x = [float(r["x"]) for r in curve]
theta = [float(r["theta"]) for r in curve]
plt.plot(x, theta, label="morphed transfer")
plt.plot(x, [__import__("math").tanh(v) for v in x], "--", label="tanh")
plt.legend()
plt.xlabel("linear response")
plt.ylabel("activation")
plt.show()
"""


def cmd_transfer_dump(args) -> None:
    ecps = [float(p) for p in args.ecps.split(",")]
    transfer = MorphableTransfer(ecps, args.variant)
    table = transfer.sample(args.lo, args.hi, args.n)

    write_csv(args.out / "transfer.csv", ["x", "theta", "slope"], table)
    write_csv(
        args.out / "transfer_ecps.csv",
        ["ecp", "theta"],
        ((p, transfer.eval(p)) for p in transfer.ecps),
    )
    if args.emit_plot_script:
        (args.out / "plot_transfer.py").write_text(_PLOT_SCRIPT)
    print(f"transfer-dump: {args.n} rows, variant {transfer.variant.value}, "
          f"ecps {','.join(format(p, 'g') for p in transfer.ecps)}")


def _sweep_lambda(args, w, w_in):
    """``(lam, stderr)`` of one-neuron lanes with gains ``(w, w_in)``, as both sweeps run them.

    Each lane is a bridge transfer anchored at (-1, 0, 1), started on the
    expected orbit at ``-tanh(1)`` under the alternating +-1 input, with
    the seeded companion sign.
    """
    base = alternating(args.washout + args.horizon, 1.0)
    transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    direction = 1.0 if rng_stream(args.seed, signals.STREAM_DIRECTION).integers(0, 2) else -1.0
    return renormalized_scalar_batch(w, w_in, base, transfer, d0=args.d0, washout=args.washout,
                                     y0=-TANH1, direction=direction)


def cmd_sweep_alpha(args) -> None:
    grid = np.array([i / 20 for i in range(1, 31)]) if args.grid is None else parse_grid(args.grid)
    if np.any(grid <= 0.0) or np.any(grid > 1.5):
        raise ValueError("alpha grid must lie in (0, 1.5]")
    lam, err = _sweep_lambda(args, -grid, 1.0 - grid * TANH1)
    write_csv(args.out / "sweep_alpha.csv", ["alpha", "lambda", "stderr"],
              _column_rows(grid, lam, err))
    print(f"sweep-alpha: {grid.size} grid points, horizon {args.horizon}")


def cmd_sweep_gamma(args) -> None:
    grid = (
        np.array([(10 + i) / 20 for i in range(21)])
        if args.grid is None
        else parse_grid(args.grid)
    )
    if np.any(grid < 0.25) or np.any(grid > 2.0):
        raise ValueError("gamma grid must lie in [0.25, 2]")
    # The base input is +-1, so scaling the input weight scales the input exactly.
    lam_ecp, _ = _sweep_lambda(args, np.full(grid.size, -1.0), (1.0 - TANH1) * grid)
    critical = solve_critical_b(_BASELINE_AMPLITUDE)
    lam_tanh = np.array([expected_orbit_rate(critical, _BASELINE_AMPLITUDE, g) for g in grid])

    write_csv(args.out / "sweep_gamma.csv", ["gamma", "lambda_ecp", "lambda_tanh"],
              _column_rows(grid, lam_ecp, lam_tanh))
    print(f"sweep-gamma: {grid.size} grid points, critical b = {critical.b_star:.6f}")


def _forgetting_states(mode: str, d0: float, seed: int, replicate: int):
    if mode == "fixed-delta":
        ref = anchored_orbit_state()
        if np.array_equal(twin := ref + d0, ref):
            raise ValueError(f"--d0 {d0:g} rounds away: the twin would start on the reference")
        return ref, twin
    rng = rng_stream(seed + replicate, signals.STREAM_INIT)
    draw = rng.integers(0, 2, size=2) * 2.0 - 1.0
    ref = np.array([draw[0] * TANH1])
    return ref, ref + draw[1] * TANH1


def cmd_forgetting(args) -> None:
    replicates = args.replicates
    if replicates is None:
        replicates = 8 if args.input == "iid" else 1
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    if not math.isfinite(args.d0):
        raise ValueError("--d0 must be finite")
    if args.d0 == 0.0:
        raise ValueError("--d0 must be nonzero: the twin would start on the reference")

    res = anchored_reservoir(args.alpha, variant=args.variant)
    report_lines: list[str] = []
    fit_rows: list[list] = []

    for rep in range(replicates):
        spec = InputSequence(args.input, args.horizon, 1.0, args.seed + rep)
        x0, y0 = _forgetting_states(args.init, args.d0, args.seed, rep)
        series = run_pair(res, x0, y0, spec)
        fit = classify_decay(series)

        name = "forgetting.csv" if replicates == 1 else f"forgetting_r{rep}.csv"
        write_csv(args.out / name, ["t", "d"], _column_rows(series.t, series.d))
        fit_rows.append([rep, fit.law, "" if fit.c_a is None else fit.c_a,
                         "" if fit.c_b is None else fit.c_b, fit.r2_loglog, fit.r2_semilog,
                         *fit.window, "" if fit.truncated_at is None else fit.truncated_at])

        report_lines.append(f"[replicate {rep}] input={args.input} init={args.init}")
        report_lines.append(_render_decay(fit))
        try:
            report_lines.append(f"log-log bend (mean 2nd difference) = {loglog_bend(series):.6g}")
        except ValueError:
            report_lines.append("log-log bend: series too short")
        report_lines.append("")

    write_csv(args.out / "forgetting_fits.csv", ["replicate", *_DECAY_CSV_HEADER], fit_rows)
    (args.out / "forgetting_report.txt").write_text("\n".join(report_lines))
    (args.out / "forgetting_config.txt").write_text(config_text({**res.meta, "seed": args.seed}))
    print(f"forgetting: {replicates} run(s), input {args.input}, init {args.init}")


def cmd_critical_b(args) -> None:
    critical = solve_critical_b(args.amplitude)
    write_csv(
        args.out / "critical_b.csv",
        ["amplitude", "b_star", "s_star", "residual_orbit", "residual_tangent"],
        [(args.amplitude, critical.b_star, critical.s_star, *critical.residuals)],
    )
    print(
        f"critical-b: amplitude {fmt(args.amplitude)} -> b* = {critical.b_star:.6f}, "
        f"orbit amplitude s* = {critical.s_star:.6f}\n"
        f"residuals: orbit {critical.residuals[0]:.3g}, "
        f"tangency {critical.residuals[1]:.3g}"
    )


def cmd_lyapunov(args) -> None:
    total = args.washout + args.horizon

    if args.preset == "anchored":
        res = anchored_reservoir(args.alpha)
        amplitude = 1.0
        state = anchored_orbit_state()
    else:
        if args.b == "critical":
            critical = solve_critical_b(_BASELINE_AMPLITUDE)
            b = critical.b_star
            state = baseline_orbit_state(critical.s_star)
        else:
            b = float(args.b)
            state = np.zeros(1)
        res = baseline_reservoir(b)
        amplitude = _BASELINE_AMPLITUDE

    res.state = state
    spec = scaled(InputSequence(args.input, total, amplitude, args.seed), args.gamma)
    _check_d0(args.d0)  # whatever the method, so a bad value is never silently ignored
    if args.method == "derivative_product":
        est = lyapunov_derivative_product(res, spec, washout=args.washout)
    else:
        est = lyapunov_renormalized(res, spec, d0=args.d0, washout=args.washout, seed=args.seed)

    write_csv(args.out / "lyapunov.csv", _LYAPUNOV_CSV_HEADER,
              [(est.lam, est.stderr, est.method, est.steps_used, est.washout,
                "" if est.d0 is None else est.d0)])
    (args.out / "lyapunov.txt").write_text(
        _render_lyapunov(est) + "\n" + config_text({**res.meta, "gamma": args.gamma, "seed": args.seed})
    )
    print(_render_lyapunov(est))


def cmd_readout_demo(args) -> None:
    if args.delay < 0:
        raise ValueError("delay must be nonnegative")
    if args.delay >= args.length:
        raise ValueError(f"delay {args.delay} must be below length {args.length}")
    split = int(0.7 * (args.length - args.delay))  # training rows
    if split < args.washout + args.k + 1:
        raise ValueError(
            f"too few training rows: the 70% split of --length {args.length} minus --delay "
            f"{args.delay} is {split} rows, below --washout {args.washout} + --k {args.k} + 1"
        )
    weights = random_orthogonal(args.k, args.seed)
    w_in = rng_stream(args.seed, signals.STREAM_INIT).normal(0.0, 0.5, size=(args.k, 1))
    transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    res = Reservoir(weights, w_in, transfer, require_orthogonal=True)

    u = generate(iid_plus_minus(args.length, 1.0, seed=args.seed))
    states = np.array([rec.y for rec in res.run(u)])
    xs = states[args.delay :]
    ys = u[: args.length - args.delay]

    model = readout.train(xs[:split], ys[:split], ridge_lambda=args.ridge, washout=args.washout)
    pred = readout.predict_all(model, xs[split:])
    target = ys[split:]
    rmse = float(np.sqrt(np.mean((pred - target) ** 2)))
    base_rmse = float(np.sqrt(np.mean((target - ys[:split].mean()) ** 2)))
    nrmse = rmse / base_rmse if base_rmse > 0 else float("inf")

    write_csv(
        args.out / "readout_demo.csv",
        ["k", "delay", "nrmse", "rmse", "baseline_rmse", "ridge_lambda"],
        [(args.k, args.delay, nrmse, rmse, base_rmse, args.ridge)],
    )
    (args.out / "readout_demo.txt").write_text(
        f"delayed recall of u[t-{args.delay}] from a k={args.k} critical reservoir\n"
        f"test NRMSE = {nrmse:.6f} (baseline 1.0 = predicting the mean)\n"
        + readout.model_to_text(model)
    )
    print(f"readout-demo: k={args.k} delay={args.delay} NRMSE={nrmse:.4f}")


# -- argument plumbing ---------------------------------------------------------


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help line.

    A ``None`` default means the command computes the value; the option's
    own help text says how.
    """

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critical-esn",
        description="Experiments on truly critical echo state networks",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--out", type=Path, default=".", help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    input_option = dict(type=str, choices=list(signals.KINDS), default="alternating",
                        help="driving input")
    variant_option = dict(type=str, choices=[v.value for v in Variant], default="bridge",
                          help="gluing between anchors")

    def command(name, func, help):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.set_defaults(func=func)
        return p

    p = command("transfer-dump", cmd_transfer_dump, "dump a transfer-function curve as CSV")
    p.add_argument("--ecps", type=str, default="-1,0,1", help="comma list of anchors")
    p.add_argument("--variant", **variant_option)
    p.add_argument("--lo", type=float, default=-3.0, help="first x")
    p.add_argument("--hi", type=float, default=3.0, help="last x")
    p.add_argument("--n", type=int, default=601, help="row count")
    p.add_argument("--emit-plot-script", action="store_true",
                   help="also write plot_transfer.py")

    for name, func, help, grid in (
        ("sweep-alpha", cmd_sweep_alpha, "Lyapunov exponent over the recurrent gain grid",
         "0.05..1.50"),
        ("sweep-gamma", cmd_sweep_gamma, "Lyapunov exponents over the input-amplitude grid",
         "0.50..1.50"),
    ):
        p = command(name, func, help)
        p.add_argument("--grid", type=str, default=None,
                       help=f"start:stop:step or comma list (default: {grid} in steps of 0.05)")
        p.add_argument("--horizon", type=int, default=100_000, help="steps after the washout")
        p.add_argument("--washout", type=int, default=1000, help="steps left out of the mean")
        p.add_argument("--d0", type=float, default=1e-9, help="companion separation")

    p = command("forgetting", cmd_forgetting, "distance decay between twin trajectories")
    p.add_argument("--input", **input_option)
    p.add_argument("--alpha", type=float, default=1.0, help="recurrent gain")
    p.add_argument("--init", type=str, choices=["fixed-delta", "bit-scale"],
                   default="fixed-delta", help="how the twin start states are drawn")
    p.add_argument("--d0", type=float, default=1.0,
                   help="fixed-delta separation (default: %(default)s), finite, nonzero and "
                        "above about 5.6e-17 in size; bit-scale checks it but ignores its "
                        "magnitude; a negative one starts the twin below and is written "
                        "--d0=-1e-3, since argparse reads a separate -1e-3 as an option")
    p.add_argument("--horizon", type=int, default=100_000, help="steps per run")
    p.add_argument("--variant", **variant_option)
    p.add_argument("--replicates", type=int, default=None,
                   help="run count (default: 8 for iid input, else 1)")

    p = command("critical-b", cmd_critical_b, "critical recurrent gain of the tanh baseline")
    p.add_argument("--amplitude", type=float, default=_BASELINE_AMPLITUDE,
                   help="expected input amplitude")

    p = command("lyapunov", cmd_lyapunov, "single Lyapunov estimate for one configuration")
    p.add_argument("--preset", type=str, choices=["anchored", "baseline"], required=True,
                   help="anchored network or tanh baseline")
    p.add_argument("--alpha", type=float, default=1.0, help="recurrent gain (anchored)")
    p.add_argument("--b", type=str, default="critical", help="gain or 'critical' (baseline)")
    p.add_argument("--gamma", type=float, default=1.0, help="input scale factor")
    p.add_argument("--input", **input_option)
    p.add_argument("--method", type=str, choices=["renormalized", "derivative_product"],
                   default="renormalized", help="estimator")
    p.add_argument("--horizon", type=int, default=100_000, help="steps after the washout")
    p.add_argument("--washout", type=int, default=1000, help="steps left out of the mean")
    p.add_argument("--d0", type=float, default=1e-9,
                   help="companion separation (renormalized); checked with either method")

    p = command("readout-demo", cmd_readout_demo, "train a delayed-recall linear readout")
    p.add_argument("--k", type=int, default=8, help="reservoir size")
    p.add_argument("--delay", type=int, default=3, help="recall delay in steps")
    p.add_argument("--length", type=int, default=3000, help="input length")
    p.add_argument("--ridge", type=float, default=1e-8, help="ridge regularization")
    p.add_argument("--washout", type=int, default=100, help="training rows left out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(parser, argv, read_config(args.config))
        # Every cap and the seed are checked before any output is written.
        for name in ("horizon", "washout", "length", "n"):
            if getattr(args, name, 0) > _MAX_HORIZON:
                raise ValueError(f"{name} above the 1e6 cap")
        for names, cap in ((("k",), _MAX_K), (("replicates",), _MAX_REPLICATES),
                           (("k", "length"), _MAX_WORK), (("replicates", "horizon"), _MAX_WORK)):
            if math.prod(getattr(args, name, None) or 0 for name in names) > cap:
                raise ValueError(f"{' x '.join(names)} above the {cap:,} cap")
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
