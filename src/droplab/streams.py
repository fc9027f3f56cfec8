"""Deterministic random-stream derivation.

Every stochastic task in the library owns an independent generator derived
from a master seed plus a structured path (purpose tag, grid indices, trial
number).  Two runs with the same master seed and path always see the same
stream, no matter how work is scheduled across threads.  `map_streams`,
the one place the library starts threads, runs such tasks on as many
threads as its caller asks for and returns their results in task order.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _normalize(part) -> int:
    """Map a path component to a stable non-negative integer."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, float):
        # floats enter paths only as grid values (e.g. delta); hash their
        # exact bit pattern so 0.5 and 0.5000...1 derive distinct streams.
        return zlib.crc32(np.float64(part).tobytes())
    raise TypeError(f"unsupported stream path component: {part!r}")


def seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, *path)."""
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")
    entropy = (int(master_seed),) + tuple(_normalize(p) for p in path)
    return np.random.SeedSequence(entropy)


def make_rng(master_seed: int, *path) -> np.random.Generator:
    """Independent PCG64 generator for (master_seed, *path)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *path)))


def seed_fingerprint(master_seed: int, *path) -> int:
    """32-bit fingerprint of a derived stream, for logging in result rows."""
    return int(seed_sequence(master_seed, *path).generate_state(1)[0])


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_streams(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on min(len(items), threads) threads,
    inline when that is 1.

    Each item must own its random stream, so no result depends on the
    thread count.  Results come back in item order; the first failure in
    that order is raised once the items already running have finished.
    """
    items = list(items)
    threads = min(len(items), threads)
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
