"""Worker-pool helper honoring the MAXPLUS_THREADS environment variable."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """Parallelism cap: MAXPLUS_THREADS, with 0 or unset meaning 4, and
    never more than the CPU count."""
    cap = 4
    raw = os.environ.get("MAXPLUS_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw) or cap
        except ValueError:
            raise ValueError(f"MAXPLUS_THREADS must be an integer, got {raw!r}") from None
        if cap < 0:
            raise ValueError("MAXPLUS_THREADS must be nonnegative")
    return min(cap, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Map preserving order; threads only when they can actually help.

    Results are collected by index, so the reduction is deterministic no
    matter how the pool schedules the work.
    """
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
