"""Library functions of the ``serverless_mapreduce`` workload.

Shipped to the service with ``create_library`` and loaded by the
workers' library instances; the generator calls the same functions
locally to compute the values the service must return.
"""

from __future__ import annotations

import hashlib
import random


def part(seed: int, round_no: int, index: int, size: int) -> bytes:
    """The map: ``size`` seeded bytes, distinct per (seed, round, index)."""
    return random.Random(f"{seed}/{round_no}/{index}").randbytes(size)


def digest(parts: list) -> str:
    """The reduce: SHA-256 over the parts in order, plus their count."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return f"{len(parts)}:{h.hexdigest()}"
