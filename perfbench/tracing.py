"""Span timers and counters wrapped around the package's public functions.

The package itself holds no instrumentation.  :func:`install` replaces each
traced function, in every namespace of the package that holds a reference
to it (module globals such as ``cli``'s by-name imports, class attributes
such as ``MorphableTransfer.__call__``), with a wrapper that records one
span per call; :meth:`Patches.restore` puts the originals back.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated in memory per name (call count and self
time) instead of being kept one by one, because a workload makes hundreds
of thousands of calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: (span name, module, attribute path) of every traced function.  A span
#: may cover several functions; ``cmd_*`` stands for every ``cmd_``
#: function of the module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("transfer.build", "critical_esn.transfer", "MorphableTransfer.__init__"),
    ("transfer.eval", "critical_esn.transfer", "MorphableTransfer.eval"),
    ("transfer.eval", "critical_esn.transfer", "TanhTransfer.eval"),
    ("transfer.slope", "critical_esn.transfer", "MorphableTransfer.slope"),
    ("transfer.slope", "critical_esn.transfer", "TanhTransfer.slope"),
    ("transfer.sample", "critical_esn.transfer", "MorphableTransfer.sample"),
    ("reservoir.step", "critical_esn.reservoir", "Reservoir.step"),
    ("reservoir.copy", "critical_esn.reservoir", "Reservoir.copy"),
    ("reservoir.run", "critical_esn.reservoir", "Reservoir.run"),
    ("reservoir.run_pair", "critical_esn.reservoir", "run_pair"),
    ("reservoir.random_orthogonal", "critical_esn.reservoir", "random_orthogonal"),
    ("signals.generate", "critical_esn.signals", "generate"),
    ("analysis.renormalized_scalar_batch", "critical_esn.analysis", "renormalized_scalar_batch"),
    ("analysis.lyapunov_renormalized", "critical_esn.analysis", "lyapunov_renormalized"),
    ("analysis.lyapunov_derivative_product", "critical_esn.analysis",
     "lyapunov_derivative_product"),
    ("analysis.classify_decay", "critical_esn.analysis", "classify_decay"),
    ("analysis.solve_critical_b", "critical_esn.analysis", "solve_critical_b"),
    ("readout.train", "critical_esn.readout", "train"),
    ("readout.predict_all", "critical_esn.readout", "predict_all"),
    ("cli.write_csv", "critical_esn.cli", "write_csv"),
    ("cli.command", "critical_esn.cli", "cmd_*"),
)

SPANS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: Bytes each evaluated element moves: one float64 read, one written.
#: A computed figure, not a measured bandwidth.
BYTES_PER_ELEMENT = 16


# -- counters: read from a traced call's arguments and result ------------------


def _count_eval(counts, args, result, nested):
    counts["transfer.eval.elements"] += np.size(args[1])


def _count_slope(counts, args, result, nested):
    counts["transfer.slope.elements"] += np.size(args[1])


def _count_generate(counts, args, result, nested):
    if not nested:  # a scaled spec generates its base through a nested call
        counts["signals.generate.elements"] += np.size(result)


def _count_write_csv(counts, args, result, nested):
    with open(args[0], "rb") as fh:
        data = fh.read()
    counts["cli.write_csv.rows"] += data.count(b"\n") - 1  # minus the header
    counts["cli.write_csv.bytes"] += len(data)


def _count_run_pair(counts, args, result, nested):
    inputs = args[3]
    requested = inputs.length if hasattr(inputs, "length") else len(inputs)
    counts["reservoir.run_pair.steps_requested"] += requested
    counts["reservoir.run_pair.steps_run"] += len(result.t) - 1


COUNTERS = {
    "transfer.eval": _count_eval,
    "transfer.slope": _count_slope,
    "signals.generate": _count_generate,
    "cli.write_csv": _count_write_csv,
    "reservoir.run_pair": _count_run_pair,
}


class Tracer:
    """Aggregates span calls, self time and counters for one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans as [name, time covered by children].
        self._open: list[list] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = bool(open_spans) and open_spans[-1][0] == name
            span = [name, 0.0]
            open_spans.append(span)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                stop = clock()
                open_spans.pop()
                self.calls[name] += 1
                self.self_s[name] += (stop - start) - span[1]
                if ok and counter is not None:
                    counter(self.counts, args, result, nested)
                # The parent's child time also covers the counter's own work,
                # so counting never shows up as anyone's self time.
                if open_spans:
                    open_spans[-1][1] += clock() - start
            return result

        traced.__traced_span__ = name
        return traced


@dataclass
class Patches:
    """The replaced attributes, and the targets the package no longer has."""

    replaced: list[tuple[object, str, object]] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)

    def restore(self) -> None:
        for owner, key, original in reversed(self.replaced):
            setattr(owner, key, original)
        self.replaced.clear()


def _in_package(name: str) -> bool:
    return name == "critical_esn" or name.startswith("critical_esn.")


def namespaces() -> list:
    """Every loaded module of the package and every class defined in one."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not _in_package(name):
            continue
        found[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type) and _in_package(value.__module__):
                found[id(value)] = value
    return list(found.values())


def _originals(module, path: str) -> list:
    """Functions named by ``path`` in ``module``; empty when none exists."""
    if path.endswith("*"):
        prefix = path[:-1]
        return [v for k, v in vars(module).items() if k.startswith(prefix) and callable(v)]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    found = vars(owner).get(attr)
    return [] if found is None else [found]


def install(tracer: Tracer) -> Patches:
    """Wrap every target that exists, in every namespace that refers to it."""
    patches = Patches()
    all_ns = namespaces()
    for name, module_name, path in TARGETS:
        try:
            originals = _originals(importlib.import_module(module_name), path)
        except ModuleNotFoundError:
            originals = []
        if not originals:
            patches.absent.append(f"{module_name}.{path}")
        for original in originals:
            wrapper = tracer.wrap(name, original)
            for ns in all_ns:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        patches.replaced.append((ns, key, original))
    return patches


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracing wrapper."""
    return [
        f"{getattr(ns, '__name__', ns)}.{key}"
        for ns in namespaces()
        for key, value in vars(ns).items()
        if hasattr(value, "__traced_span__")
    ]
