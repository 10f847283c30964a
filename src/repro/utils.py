"""Shared utilities: deterministic RNG handling, byte formatting, math helpers.

Everything in the repository that needs randomness receives an explicit
``random.Random`` instance derived from :func:`make_rng`, so results are
reproducible run to run.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

MB = 1024 * 1024
GB = 1024 * MB


def make_rng(*seed_parts: object) -> random.Random:
    """Build a deterministic RNG from an arbitrary tuple of seed parts.

    The parts are hashed so that ``make_rng("job", 3)`` and
    ``make_rng("job", 30)`` produce unrelated streams.
    """
    digest = hashlib.sha256(repr(seed_parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def stable_hash(value: object, buckets: int) -> int:
    """Deterministic hash of ``value`` into ``[0, buckets)``.

    Python's builtin ``hash`` is randomised per process for strings; the
    simulator needs shuffle partitioning that is stable across runs, so we
    hash the ``repr`` through sha256 instead.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    digest = hashlib.sha256(repr(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % buckets


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count, e.g. ``format_bytes(2*1024**2) == '2.0 MB'``."""
    size = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(size) < 1024.0 or unit == "TB":
            return f"{size:.1f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division; ``ceil_div(5, 2) == 3``."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (sigma, not sample s)."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def chunks(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive chunks of at most ``size`` items."""
    if size <= 0:
        raise ValueError("size must be positive")
    for start in range(0, len(items), size):
        yield items[start:start + size]


def reservoir_sample(items: Iterable[T], k: int, rng: random.Random) -> List[T]:
    """Classic reservoir sampling of ``k`` items from an iterable of unknown size."""
    if k < 0:
        raise ValueError("k must be non-negative")
    reservoir: List[T] = []
    for index, item in enumerate(items):
        if index < k:
            reservoir.append(item)
        else:
            slot = rng.randint(0, index)
            if slot < k:
                reservoir[slot] = item
    return reservoir


def argmin(pairs: Iterable[Tuple[T, float]]) -> T:
    """Return the key with the smallest value; ties break toward the first seen."""
    best_key: T
    best_value = math.inf
    found = False
    for key, value in pairs:
        if value < best_value:
            best_key, best_value = key, value
            found = True
    if not found:
        raise ValueError("argmin of empty iterable")
    return best_key


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y = a*x + b``; returns ``(a, b)``."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate fit: all x values identical")
    a = (n * sxy - sx * sy) / denom
    b = (sy - a * sx) / n
    return a, b
