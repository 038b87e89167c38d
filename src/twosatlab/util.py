"""Shared plumbing: errors, seeded RNG substreams and chunked parallel maps.

All randomized operations in the package derive their generators through
`substream`, so results depend only on the user-visible seed and a fixed
integer path, never on scheduling or worker count.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV = "TWOSATLAB_WORKERS"
# caps of the exact kernels; here, not in `formula`, so the CLI reads its
# defaults without importing numpy
ENUM_CAP = 28
COMPONENT_CAP = 2000
EXPAND_CAP = 1 << 16  # expanded tree nodes: `treebp.to_formula`, `construct-tree` text


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size cap would be exceeded."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, path); independent across paths."""
    import numpy as np  # numpy loads only for the commands that draw

    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def subseed(seed: int, *path: int) -> int:
    """Integer seed for (seed, path): the first 62-bit draw of its substream."""
    return int(substream(seed, *path).integers(0, 2**62))


def default_workers() -> int:
    """Worker count from the environment (1 when unset); ValueError unless a
    positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """Map `fn` over `items`, optionally in a process pool.

    Results come back in input order, so the output is identical for any
    worker count; `fn` must be picklable (top-level function). An explicit
    `workers` below 1 is a ValueError.
    """
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split `total` items into fixed-size chunks (last one ragged)."""
    if total < 0:
        raise ValueError("total must be >= 0")
    out = [chunk] * (total // chunk)
    if total % chunk:
        out.append(total % chunk)
    return out


def format_double(x: float) -> str:
    """17 significant digits: round-trips any IEEE double exactly."""
    return format(float(x), ".17g")
