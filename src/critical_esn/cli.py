"""Command-line harness for the sweep and forgetting experiments.

Every command writes deterministic CSV (LF line endings, header row,
17-significant-digit decimals, exact float round-trip) into the output
directory, so repeating an invocation with the same seed reproduces the
files byte for byte.  Configuration precedence is flags over config file
over built-in defaults; the config file is a flat ``key=value`` text
format.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import readout, signals
from .analysis import (
    classify_decay,
    decay_csv_header,
    decay_csv_row,
    expected_orbit_rate,
    loglog_bend,
    lyapunov_csv_header,
    lyapunov_csv_row,
    lyapunov_derivative_product,
    lyapunov_renormalized,
    render_decay,
    render_lyapunov,
    renormalized_scalar_batch,
    solve_critical_b,
)
from .reservoir import (
    Reservoir,
    config_text,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from .signals import alternating, constant, generate, iid_plus_minus, rng_stream, scaled
from .transfer import MorphableTransfer, Variant

TANH1 = math.tanh(1.0)

#: Largest accepted horizon of the sweeps and of ``forgetting``; a sweep
#: holds a horizon x grid-size float64 log matrix.
_MAX_HORIZON = 1_000_000

_CAST = {
    "seed": int,
    "threads": int,
    "horizon": int,
    "washout": int,
    "n": int,
    "replicates": int,
    "k": int,
    "delay": int,
    "length": int,
    "d0": float,
    "alpha": float,
    "b": str,
    "gamma": float,
    "amplitude": float,
    "ridge": float,
    "lo": float,
    "hi": float,
    "grid": str,
    "ecps": str,
    "variant": str,
    "input": str,
    "init": str,
    "method": str,
    "out": str,
}


def fmt(value) -> str:
    """CSV cell: floats at 17 significant digits (exact round-trip)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_trajectory_csv(path: Path, records) -> None:
    """Trajectory dump: header ``t,y_lin_0..,y_0..``, one row per step."""
    if not records:
        raise ValueError("no records to write")
    k = records[0].y.size
    header = ["t"] + [f"y_lin_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)]
    rows = ([r.t, *r.y_lin, *r.y] for r in records)
    write_csv(path, header, rows)


def write_input_csv(path: Path, values) -> None:
    write_csv(path, ["t", "u"], ((t, u) for t, u in enumerate(values)))


def read_config(path: str) -> dict:
    cfg = {}
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _merge_config(args: argparse.Namespace, cfg: dict) -> None:
    """Fill unset options from a config; keys of other commands are ignored.

    A key that no command knows is rejected, so a typo cannot silently
    fall back to a default.
    """
    unknown = sorted(k for k in cfg if k not in _CAST and not hasattr(args, k))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, raw in cfg.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        cast = _CAST.get(key, str)
        setattr(args, key, cast(raw))


def _default(args, name, value):
    if getattr(args, name) is None:
        setattr(args, name, value)


def parse_grid(text: str) -> np.ndarray:
    """Grid flag: ``start:stop:step`` or a comma-separated value list.

    A range's last point is snapped back onto ``stop`` when rounding in
    ``start + i * step`` overshoots it by less than 1e-9 of a step; no
    other point moves.  Non-finite values are rejected.
    """
    sep = ":" if ":" in text else ","
    values = [float(p) for p in text.split(sep)]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if sep == ",":
        return np.array(values)
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid range {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
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


def cmd_transfer_dump(args) -> list[Path]:
    _default(args, "ecps", "-1,0,1")
    _default(args, "variant", Variant.BRIDGE.value)
    _default(args, "lo", -3.0)
    _default(args, "hi", 3.0)
    _default(args, "n", 601)
    ecps = [float(p) for p in str(args.ecps).split(",")]
    transfer = MorphableTransfer(ecps, args.variant)
    table = transfer.sample(args.lo, args.hi, args.n)

    out = Path(args.out)
    curve_path = out / "transfer.csv"
    write_csv(curve_path, ["x", "theta", "slope"], table)
    markers_path = out / "transfer_ecps.csv"
    write_csv(
        markers_path,
        ["ecp", "theta"],
        ((p, transfer.eval(p)) for p in transfer.ecps),
    )
    written = [curve_path, markers_path]
    if args.emit_plot_script:
        script = out / "plot_transfer.py"
        script.write_text(_PLOT_SCRIPT)
        written.append(script)
    print(f"transfer-dump: {args.n} rows, variant {transfer.variant.value}, "
          f"ecps {','.join(format(p, 'g') for p in transfer.ecps)}")
    return written


def cmd_sweep_alpha(args) -> list[Path]:
    _default(args, "grid", None)
    _default(args, "horizon", 100_000)
    _default(args, "washout", 1000)
    _default(args, "d0", 1e-9)
    grid = np.array([i / 20 for i in range(1, 31)]) if args.grid is None else parse_grid(args.grid)
    if np.any(grid <= 0.0) or np.any(grid > 1.5):
        raise ValueError("alpha grid must lie in (0, 1.5]")
    if args.horizon < 1000:
        raise ValueError("horizon too short: need at least 1000 steps")
    if args.horizon > _MAX_HORIZON:
        raise ValueError("horizon above the 1e6 cap")

    total = args.washout + args.horizon
    base = generate(alternating(total, 1.0))
    transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    direction = 1.0 if rng_stream(args.seed, signals.STREAM_DIRECTION).integers(0, 2) else -1.0

    lam, err = renormalized_scalar_batch(
        -grid,
        1.0 - grid * TANH1,
        base,
        transfer,
        d0=args.d0,
        washout=args.washout,
        y0=-TANH1,
        direction=direction,
    )

    path = Path(args.out) / "sweep_alpha.csv"
    write_csv(path, ["alpha", "lambda", "stderr"], zip(grid, lam, err))
    print(f"sweep-alpha: {grid.size} grid points, horizon {args.horizon}")
    return [path]


def cmd_sweep_gamma(args) -> list[Path]:
    _default(args, "grid", None)
    _default(args, "horizon", 100_000)
    _default(args, "washout", 1000)
    _default(args, "d0", 1e-9)
    grid = (
        np.array([(10 + i) / 20 for i in range(21)])
        if args.grid is None
        else parse_grid(args.grid)
    )
    if np.any(grid < 0.25) or np.any(grid > 2.0):
        raise ValueError("gamma grid must lie in [0.25, 2]")
    if args.horizon < 1000:
        raise ValueError("horizon too short: need at least 1000 steps")
    if args.horizon > _MAX_HORIZON:
        raise ValueError("horizon above the 1e6 cap")

    total = args.washout + args.horizon
    base = generate(alternating(total, 1.0))
    transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    direction = 1.0 if rng_stream(args.seed, signals.STREAM_DIRECTION).integers(0, 2) else -1.0

    lam_ecp, _ = renormalized_scalar_batch(
        np.full(grid.size, -1.0),
        1.0 - TANH1,
        base[:, None] * grid[None, :],
        transfer,
        d0=args.d0,
        washout=args.washout,
        y0=-TANH1,
        direction=direction,
    )

    critical = solve_critical_b(math.pi / 4.0)
    lam_tanh = np.array([expected_orbit_rate(critical, math.pi / 4.0, g) for g in grid])

    path = Path(args.out) / "sweep_gamma.csv"
    write_csv(path, ["gamma", "lambda_ecp", "lambda_tanh"], zip(grid, lam_ecp, lam_tanh))
    print(f"sweep-gamma: {grid.size} grid points, critical b = {critical.b_star:.6f}")
    return [path]


def _forgetting_states(mode: str, d0: float, seed: int, replicate: int):
    if mode == "fixed-delta":
        ref = anchored_orbit_state()
        return ref, ref + d0
    if mode == "bit-scale":
        rng = rng_stream(seed + replicate, signals.STREAM_INIT)
        draw = rng.integers(0, 2, size=2) * 2.0 - 1.0
        ref = np.array([draw[0] * TANH1])
        return ref, ref + draw[1] * TANH1
    raise ValueError(f"unknown init mode {mode!r}")


def cmd_forgetting(args) -> list[Path]:
    _default(args, "input", "alternating")
    _default(args, "alpha", 1.0)
    _default(args, "init", "fixed-delta")
    _default(args, "d0", 1.0)
    _default(args, "horizon", 100_000)
    _default(args, "variant", Variant.BRIDGE.value)
    _default(args, "replicates", 8 if args.input == "iid" else 1)
    if args.horizon > _MAX_HORIZON:
        raise ValueError("horizon above the 1e6 cap")

    res = anchored_reservoir(args.alpha, variant=args.variant)
    out = Path(args.out)
    written: list[Path] = []
    report_lines: list[str] = []
    fit_rows: list[list] = []

    for rep in range(args.replicates):
        if args.input == "alternating":
            spec = alternating(args.horizon, 1.0)
        elif args.input == "constant":
            spec = constant(args.horizon, 1.0)
        elif args.input == "iid":
            spec = iid_plus_minus(args.horizon, 1.0, seed=args.seed + rep)
        else:
            raise ValueError(f"unknown input kind {args.input!r}")
        x0, y0 = _forgetting_states(args.init, args.d0, args.seed, rep)
        series = run_pair(res, x0, y0, spec)
        fit = classify_decay(series)

        name = "forgetting.csv" if args.replicates == 1 else f"forgetting_r{rep}.csv"
        path = out / name
        write_csv(path, ["t", "d"], zip(series.t, series.d))
        written.append(path)
        fit_rows.append([rep] + decay_csv_row(fit))

        report_lines.append(f"[replicate {rep}] input={args.input} init={args.init}")
        report_lines.append(render_decay(fit))
        try:
            report_lines.append(f"log-log bend (mean 2nd difference) = {loglog_bend(series):.6g}")
        except ValueError:
            report_lines.append("log-log bend: series too short")
        report_lines.append("")

    fits_path = out / "forgetting_fits.csv"
    write_csv(fits_path, ["replicate"] + decay_csv_header(), fit_rows)
    written.append(fits_path)
    report = out / "forgetting_report.txt"
    report.write_text("\n".join(report_lines))
    written.append(report)
    config = out / "forgetting_config.txt"
    config.write_text(config_text({**res.meta, "seed": args.seed}))
    written.append(config)
    print(f"forgetting: {args.replicates} run(s), input {args.input}, init {args.init}")
    return written


def cmd_critical_b(args) -> list[Path]:
    _default(args, "amplitude", math.pi / 4.0)
    critical = solve_critical_b(args.amplitude)
    path = Path(args.out) / "critical_b.csv"
    write_csv(
        path,
        ["amplitude", "b_star", "s_star", "residual_orbit", "residual_tangent"],
        [(args.amplitude, critical.b_star, critical.s_star, *critical.residuals)],
    )
    print(
        f"critical-b: amplitude {fmt(args.amplitude)} -> b* = {critical.b_star:.6f}, "
        f"orbit amplitude s* = {critical.s_star:.6f}\n"
        f"residuals: orbit {critical.residuals[0]:.3g}, "
        f"tangency {critical.residuals[1]:.3g}"
    )
    return [path]


def cmd_lyapunov(args) -> list[Path]:
    _default(args, "gamma", 1.0)
    _default(args, "input", "alternating")
    _default(args, "method", "renormalized")
    _default(args, "horizon", 100_000)
    _default(args, "washout", 1000)
    _default(args, "d0", 1e-9)
    if args.horizon < 1000:
        raise ValueError("horizon too short: need at least 1000 steps")
    total = args.washout + args.horizon

    if args.preset == "anchored":
        _default(args, "alpha", 1.0)
        res = anchored_reservoir(args.alpha)
        amplitude = 1.0
        state = anchored_orbit_state()
    else:
        if args.b is None or args.b == "critical":
            critical = solve_critical_b(math.pi / 4.0)
            b = critical.b_star
            state = baseline_orbit_state(critical.s_star)
        else:
            b = float(args.b)
            state = np.zeros(1)
        res = baseline_reservoir(b)
        amplitude = math.pi / 4.0

    res.state = state
    if args.input == "alternating":
        spec = scaled(alternating(total, amplitude), args.gamma)
    elif args.input == "constant":
        spec = scaled(constant(total, amplitude), args.gamma)
    elif args.input == "iid":
        spec = scaled(iid_plus_minus(total, amplitude, seed=args.seed), args.gamma)
    else:
        raise ValueError(f"unknown input kind {args.input!r}")

    if args.method in ("renormalized", "renorm"):
        est = lyapunov_renormalized(res, spec, d0=args.d0, washout=args.washout, seed=args.seed)
    elif args.method in ("derivative_product", "derivprod"):
        est = lyapunov_derivative_product(res, spec, washout=args.washout)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    out = Path(args.out)
    csv_path = out / "lyapunov.csv"
    write_csv(csv_path, lyapunov_csv_header(), [lyapunov_csv_row(est)])
    txt_path = out / "lyapunov.txt"
    txt_path.write_text(
        render_lyapunov(est) + "\n" + config_text({**res.meta, "gamma": args.gamma, "seed": args.seed})
    )
    print(render_lyapunov(est))
    return [csv_path, txt_path]


def cmd_readout_demo(args) -> list[Path]:
    _default(args, "k", 8)
    _default(args, "delay", 3)
    _default(args, "length", 3000)
    _default(args, "ridge", 1e-8)
    _default(args, "washout", 100)

    weights = random_orthogonal(args.k, args.seed)
    w_in = rng_stream(args.seed, signals.STREAM_INIT).normal(0.0, 0.5, size=(args.k, 1))
    transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    res = Reservoir(weights, w_in, transfer, require_orthogonal=True)

    u = generate(iid_plus_minus(args.length, 1.0, seed=args.seed))
    states = np.array([rec.y for rec in res.run(u)])
    xs = states[args.delay :]
    ys = u[: args.length - args.delay]

    split = int(0.7 * len(xs))
    model = readout.train(xs[:split], ys[:split], ridge_lambda=args.ridge, washout=args.washout)
    pred = readout.predict_all(model, xs[split:])
    target = ys[split:]
    rmse = float(np.sqrt(np.mean((pred - target) ** 2)))
    base_rmse = float(np.sqrt(np.mean((target - ys[:split].mean()) ** 2)))
    nrmse = rmse / base_rmse if base_rmse > 0 else float("inf")

    out = Path(args.out)
    csv_path = out / "readout_demo.csv"
    write_csv(
        csv_path,
        ["k", "delay", "nrmse", "rmse", "baseline_rmse", "ridge_lambda"],
        [(args.k, args.delay, nrmse, rmse, base_rmse, args.ridge)],
    )
    txt_path = out / "readout_demo.txt"
    txt_path.write_text(
        f"delayed recall of u[t-{args.delay}] from a k={args.k} critical reservoir\n"
        f"test NRMSE = {nrmse:.6f} (baseline 1.0 = predicting the mean)\n"
        + readout.model_to_text(model)
    )
    print(f"readout-demo: k={args.k} delay={args.delay} NRMSE={nrmse:.4f}")
    return [csv_path, txt_path]


# -- argument plumbing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critical-esn",
        description="Experiments on truly critical echo state networks",
    )
    parser.add_argument("--seed", type=int, default=None, help="experiment seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory (default .)")
    parser.add_argument("--threads", type=int, default=None,
                        help="ignored; accepted so older command lines still run")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer-dump", help="dump a transfer-function curve as CSV")
    p.add_argument("--ecps", type=str, default=None, help="comma list of anchors (default -1,0,1)")
    p.add_argument("--variant", type=str, choices=["plateau", "bridge"], default=None)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="row count (default 601)")
    p.add_argument("--emit-plot-script", action="store_true")
    p.set_defaults(func=cmd_transfer_dump)

    p = sub.add_parser("sweep-alpha", help="Lyapunov exponent over the recurrent gain grid")
    p.add_argument("--grid", type=str, default=None, help="start:stop:step or comma list")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--washout", type=int, default=None)
    p.add_argument("--d0", type=float, default=None)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("sweep-gamma", help="Lyapunov exponents over the input-amplitude grid")
    p.add_argument("--grid", type=str, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--washout", type=int, default=None)
    p.add_argument("--d0", type=float, default=None)
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("forgetting", help="distance decay between twin trajectories")
    p.add_argument("--input", type=str, choices=["alternating", "constant", "iid"], default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--init", type=str, choices=["fixed-delta", "bit-scale"], default=None)
    p.add_argument("--d0", type=float, default=None, help="fixed-delta separation (default 1.0)")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--variant", type=str, choices=["plateau", "bridge"], default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_forgetting)

    p = sub.add_parser("critical-b", help="critical recurrent gain of the tanh baseline")
    p.add_argument("--amplitude", type=float, default=None)
    p.set_defaults(func=cmd_critical_b)

    p = sub.add_parser("lyapunov", help="single Lyapunov estimate for one configuration")
    p.add_argument("--preset", type=str, choices=["anchored", "baseline"], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--b", type=str, default=None, help="gain or 'critical' (baseline)")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--input", type=str, choices=["alternating", "constant", "iid"], default=None)
    p.add_argument("--method", type=str, default=None,
                   help="renormalized (default) or derivative_product")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--washout", type=int, default=None)
    p.add_argument("--d0", type=float, default=None)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("readout-demo", help="train a delayed-recall linear readout")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delay", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--washout", type=int, default=None)
    p.set_defaults(func=cmd_readout_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _merge_config(args, read_config(args.config))
        _default(args, "seed", 0)
        _default(args, "out", ".")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
