"""Shared helpers: percentiles, input digests, process memory, patching."""

from __future__ import annotations

import hashlib
import json
import math
import resource

MIB = 1024 * 1024

P90_MIN_SAMPLES = 100
"""A p90 is reported only from at least this many samples (ten beyond it)."""


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it.

    Returns 0.0 for an empty sample, which only per-layer metrics of a layer a
    workload does not use can hit.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def p90(values) -> float:
    if len(values) < P90_MIN_SAMPLES:
        raise ValueError(
            f"a p90 needs at least {P90_MIN_SAMPLES} samples, got {len(values)}"
        )
    return percentile(values, 90)


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of a workload's inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Patcher:
    """Replaces attributes of classes and modules with wrappers, and undoes it.

    A wrapper is built by ``make(original)``; static methods are unwrapped
    before and re-wrapped after, so the wrapper always sees plain calls.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(getattr(owner, attr))
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
