"""Deterministic, seeded generators for the driving input sequences.

Every sequence is a pure function of its spec, so runs are reproducible
bit for bit.  Pseudo-random draws come from numpy's PCG64 generator keyed
through ``SeedSequence(seed, spawn_key=(stream,))``; the (seed, stream)
pair fully determines the stream, and distinct stream ids give
statistically independent substreams of the same experiment seed.
A spec is flat: :func:`scaled` returns its spec with the amplitude
scaled, so a spec's fields always describe the sequence it generates.
One table, :data:`KINDS`, maps each input kind to its sequence: the
spec's kind check, :func:`generate` and the CLI's ``--input`` choices
all read it.  The run gate (``analysis._run_rows``) turns a spec or an
array into checked input rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "KINDS",
    "InputSequence",
    "alternating",
    "constant",
    "iid_plus_minus",
    "scaled",
    "generate",
    "rng_stream",
]

# Stream ids used across the package; documented so sequences can be
# reproduced externally.
STREAM_INPUT = 0
STREAM_DIRECTION = 1
STREAM_WEIGHTS = 2
STREAM_INIT = 3


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, stream) pair."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))
    )


def _alternating(spec) -> np.ndarray:
    """``amplitude * (1.0 - 2.0 * (t & 1))`` at each ``t``, in one array and two strided fills."""
    out = np.empty(spec.length)
    out[0::2] = spec.amplitude * 1.0
    out[1::2] = spec.amplitude * -1.0
    return out


#: Each input kind and its sequence, a float array made from the spec, in
#: the order of the CLI's ``--input`` choices.
KINDS = {
    "alternating": _alternating,
    "constant": lambda spec: np.full(spec.length, float(spec.amplitude)),
    "iid": lambda spec: spec.amplitude * (
        rng_stream(spec.seed, STREAM_INPUT).integers(0, 2, size=spec.length) * 2.0 - 1.0),
}


@dataclass(frozen=True)
class InputSequence:
    """Spec for a finite realization of a driving input series.

    ``kind`` is one of :data:`KINDS`: ``alternating``, ``constant`` or
    ``iid``; only ``iid`` reads ``seed``.
    Element ``t`` (0-based) of the generated sequence is:

    - alternating: ``amplitude * (-1)**t`` (element 0 is +amplitude),
    - constant: ``amplitude``,
    - iid: ``amplitude`` times a seeded fair +-1 draw.

    Every element is ``+-amplitude``, so scaling the amplitude scales the
    sequence bit for bit (see :func:`scaled`).
    """

    kind: str
    length: int
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("input length must be at least 1")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")


def alternating(length: int, amplitude: float = 1.0) -> InputSequence:
    return InputSequence(kind="alternating", length=length, amplitude=amplitude)


def constant(length: int, amplitude: float = 1.0) -> InputSequence:
    return InputSequence(kind="constant", length=length, amplitude=amplitude)


def iid_plus_minus(length: int, amplitude: float = 1.0, seed: int = 0) -> InputSequence:
    return InputSequence(kind="iid", length=length, amplitude=amplitude, seed=seed)


def scaled(base: InputSequence, gamma: float) -> InputSequence:
    """``base`` with its amplitude times ``gamma``: ``gamma`` times each element, exactly."""
    if not (gamma > 0.0):
        raise ValueError("scale factor must be positive")
    return replace(base, amplitude=base.amplitude * gamma)


def generate(spec: InputSequence) -> np.ndarray:
    """Materialize the sequence described by ``spec`` as a float array."""
    return KINDS[spec.kind](spec)
