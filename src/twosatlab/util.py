"""Shared plumbing: errors, seeded RNG substreams, chunked parallel maps,
and the environment for launched `python -m twosatlab` children.

All randomized operations in the package derive their generators through
`substream`, so results depend only on the user-visible seed and a fixed
integer path, never on scheduling or worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV = "TWOSATLAB_WORKERS"


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size cap would be exceeded."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, path); independent across paths."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """Map `fn` over `items`, optionally in a process pool.

    Results come back in input order, so the output is identical for any
    worker count; `fn` must be picklable (top-level function).
    """
    if workers is None:
        workers = default_workers()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
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


def child_env() -> dict[str, str]:
    """Environment for a launched Python child that must import this package.

    `PYTHONPATH` starts with the absolute directory holding the running
    `twosatlab`, then the inherited value, so a child started in any working
    directory imports the same code as its caller, never an installed copy.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def format_double(x: float) -> str:
    """17 significant digits: round-trips any IEEE double exactly."""
    return format(float(x), ".17g")
