"""The benchmark's workloads: CLI command lists, set-up calls and output checks.

Each workload is a closed loop of CLI commands run one after another in a
single process.  The checks compare every command's output files against
the pins of the acceptance suite (``tests/test_acceptance.py``).  A check
either compares a value with a pinned target inside a tolerance, which
yields a normalised error ``|value - target| / tolerance`` (at most 1 to
pass), or tests a one-sided condition, which only passes or fails.

This module imports nothing from the package at import time, so the
orchestrator can load it before it knows that the package is present.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

WASHOUT = 1000
HORIZON = 100_000
STEPS = WASHOUT + HORIZON
QPI = math.pi / 4.0


@dataclass(frozen=True)
class Check:
    """One pinned output check; ``err`` is None for one-sided conditions."""

    label: str
    ok: bool
    err: Optional[float] = None


def within(label: str, value: float, target: float, tol: float) -> Check:
    err = abs(value - target) / tol
    return Check(label, math.isfinite(err) and err <= 1.0, err)


def holds(label: str, ok: bool) -> Check:
    return Check(label, bool(ok))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _row_at(rows: list[dict], key: str, x: float) -> Optional[dict]:
    """Row whose ``key`` column equals ``x`` to 1e-9, or None."""
    for row in rows:
        if abs(float(row[key]) - x) <= 1e-9:
            return row
    return None


# -- output checks, one function per CLI command ------------------------------


def check_sweep_alpha(out: Path, expected_rows: int) -> list[Check]:
    rows = _rows(out / "sweep_alpha.csv")
    checks = [holds(f"sweep_alpha rows == {expected_rows}", len(rows) == expected_rows)]
    for row in rows:
        alpha = float(row["alpha"])
        if alpha <= 1.0:
            checks.append(within(f"lambda({alpha:g}) ~ ln alpha", float(row["lambda"]),
                                 math.log(alpha), 0.02))
    one, high = _row_at(rows, "alpha", 1.0), _row_at(rows, "alpha", 1.2)
    checks.append(holds("grid holds alpha 1 and 1.2", one is not None and high is not None))
    if one is not None:
        checks.append(within("|lambda(1)| <= 0.01", float(one["lambda"]), 0.0, 0.01))
    if high is not None:
        checks.append(holds("lambda(1.2) > 0.1", float(high["lambda"]) > 0.1))
    return checks


def check_sweep_gamma(out: Path) -> list[Check]:
    rows = _rows(out / "sweep_gamma.csv")
    checks = [holds("sweep_gamma rows == 21", len(rows) == 21)]
    checks.append(holds("lambda_ecp <= 1e-3 everywhere",
                        all(float(r["lambda_ecp"]) <= 1e-3 for r in rows)))
    checks.append(holds("lambda_tanh > 0 for gamma >= 1.05",
                        all(float(r["lambda_tanh"]) > 0.0 for r in rows
                            if float(r["gamma"]) >= 1.05)))
    one = _row_at(rows, "gamma", 1.0)
    checks.append(holds("grid holds gamma 1", one is not None))
    if one is not None:
        checks.append(within("|lambda_ecp(1)| <= 0.01", float(one["lambda_ecp"]), 0.0, 0.01))
        checks.append(within("|lambda_tanh(1)| <= 0.01", float(one["lambda_tanh"]), 0.0, 0.01))
    return checks


def check_lyapunov(out: Path) -> list[Check]:
    (row,) = _rows(out / "lyapunov.csv")
    return [within(f"|lambda| <= 0.01 ({row['method']})", float(row["lambda"]), 0.0, 0.01)]


def check_forgetting_alternating(out: Path) -> list[Check]:
    (fit,) = _rows(out / "forgetting_fits.csv")
    checks = [holds("forgetting.csv written", (out / "forgetting.csv").is_file()),
              holds("alternating decay is a power law", fit["law"] == "power_law")]
    if fit["c_a"]:
        checks.append(within("c_a ~ 0.5", float(fit["c_a"]), 0.5, 0.02))
    return checks


def check_forgetting_iid(out: Path) -> list[Check]:
    fits = _rows(out / "forgetting_fits.csv")
    written = all((out / f"forgetting_r{r}.csv").is_file() for r in range(8))
    return [holds("8 iid replicates fitted and written", len(fits) == 8 and written)]


def check_readout(out: Path) -> list[Check]:
    (row,) = _rows(out / "readout_demo.csv")
    return [holds("readout NRMSE finite", math.isfinite(float(row["nrmse"])))]


def check_critical_b(out: Path) -> list[Check]:
    (row,) = _rows(out / "critical_b.csv")
    return [
        within("b* in [2.343, 2.345]", float(row["b_star"]), 2.344, 0.001),
        within("s* in [0.756, 0.758]", float(row["s_star"]), 0.757, 0.001),
        holds("critical residuals < 1e-12",
              max(float(row["residual_orbit"]), float(row["residual_tangent"])) < 1e-12),
    ]


def check_transfer_dump(out: Path) -> list[Check]:
    curve = _rows(out / "transfer.csv")
    marks = _rows(out / "transfer_ecps.csv")
    exact = all(float(m["theta"]) == math.tanh(float(m["ecp"])) for m in marks)
    return [holds("transfer.csv has 601 rows", len(curve) == 601),
            holds("theta(ecp) == tanh(ecp) exactly", exact and len(marks) == 3)]


# -- set-up calls: what each workload builds and generates --------------------


def _setup_sweeps(count: int, steps: int):
    def setup(seed: int) -> None:
        from critical_esn.signals import alternating, generate
        from critical_esn.transfer import MorphableTransfer, Variant

        for _ in range(count):
            generate(alternating(steps, 1.0))
            MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)

    return setup


def _setup_lyapunov(seed: int) -> None:
    from critical_esn.signals import alternating, generate, scaled
    from critical_esn.transfer import MorphableTransfer, Variant

    MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    generate(scaled(alternating(STEPS, 1.0), 1.0))
    generate(scaled(alternating(STEPS, QPI), 1.0))


def _setup_forgetting_readout(seed: int) -> None:
    from critical_esn.signals import alternating, generate, iid_plus_minus
    from critical_esn.transfer import MorphableTransfer, Variant

    MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    generate(alternating(HORIZON, 1.0))
    MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    for rep in range(8):
        generate(iid_plus_minus(HORIZON, 1.0, seed=seed + rep))
    MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
    generate(iid_plus_minus(3000, 1.0, seed=seed))
    MorphableTransfer((-1.0, 0.0, 1.0), Variant.BRIDGE)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[Path], list[Check]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: Lanes advanced one step each (a lane is one state trajectory).
    lane_steps: int
    setup: Callable[[int], None]
    #: Elements per ``transfer.eval`` call, the width of the speed probe.
    probe_width: int
    #: Spans the traced run must see called at least once.
    spans: tuple[str, ...]


WIDE_GRID = "0.0005:1.5:0.0005"
WIDE_POINTS = 3000
WIDE_HORIZON = 10_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-sweeps",
            commands=(
                Command(("sweep-alpha",), lambda out: check_sweep_alpha(out, 30)),
                Command(("sweep-gamma",), check_sweep_gamma),
            ),
            lane_steps=(30 + 21) * 2 * STEPS,
            setup=_setup_sweeps(2, STEPS),
            probe_width=60,
            spans=("transfer.build", "transfer.eval", "signals.generate",
                   "analysis.renormalized_scalar_batch", "analysis.solve_critical_b",
                   "cli.write_csv", "cli.command"),
        ),
        Workload(
            name="wide-sweep",
            commands=(
                Command(("sweep-alpha", "--grid", WIDE_GRID, "--horizon", str(WIDE_HORIZON)),
                        lambda out: check_sweep_alpha(out, WIDE_POINTS)),
            ),
            lane_steps=WIDE_POINTS * 2 * (WASHOUT + WIDE_HORIZON),
            setup=_setup_sweeps(1, WASHOUT + WIDE_HORIZON),
            probe_width=6000,
            spans=("transfer.build", "transfer.eval", "signals.generate",
                   "analysis.renormalized_scalar_batch", "cli.write_csv", "cli.command"),
        ),
        Workload(
            name="lyapunov-step",
            commands=(
                Command(("lyapunov", "--preset", "anchored"), check_lyapunov),
                Command(("lyapunov", "--preset", "baseline", "--method", "derivative_product"),
                        check_lyapunov),
            ),
            lane_steps=3 * STEPS,
            setup=_setup_lyapunov,
            probe_width=2,
            spans=("transfer.build", "transfer.eval", "transfer.slope", "reservoir.step",
                   "reservoir.copy", "signals.generate", "analysis.lyapunov_renormalized",
                   "analysis.lyapunov_derivative_product", "analysis.solve_critical_b",
                   "cli.write_csv", "cli.command"),
        ),
        Workload(
            name="forgetting-readout",
            commands=(
                Command(("forgetting", "--input", "alternating"), check_forgetting_alternating),
                Command(("forgetting", "--input", "iid"), check_forgetting_iid),
                Command(("readout-demo",), check_readout),
                Command(("critical-b",), check_critical_b),
                Command(("transfer-dump",), check_transfer_dump),
            ),
            # The alternating pair and the readout run; the iid pairs stop at a
            # seed-dependent extinction step and are left out of the count.
            lane_steps=2 * HORIZON + 3000,
            setup=_setup_forgetting_readout,
            probe_width=2,
            spans=("transfer.build", "transfer.eval", "transfer.slope", "transfer.sample",
                   "reservoir.step", "reservoir.run", "reservoir.run_pair",
                   "reservoir.random_orthogonal", "signals.generate", "analysis.classify_decay",
                   "analysis.solve_critical_b", "readout.train", "readout.predict_all",
                   "cli.write_csv", "cli.command"),
        ),
    )
}
