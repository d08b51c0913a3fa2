"""A fixed reference computation that measures how fast the host is right now.

The host is shared, and for tens of seconds to minutes at a time it runs
20-60% slower.  Interference of that kind slows bfly and this kernel alike,
so the benchmark times the kernel next to bfly's work, on the same CPU, and
reports bfly's times in units of the kernel's.  A change to bfly moves the
ratio; a slow phase of the host moves both sides of it.

The kernel imports nothing from bfly, so no change to the program touches
it.  It mixes the kinds of work bfly does: numpy gathers over a group table
(as in the associativity scan), integer row reduction in object arrays (as in
the Smith normal form), and hashing of tuples in a dict (as in the caches
and searches).

    python3 perfbench/reference.py     # one cold reference process
"""

from __future__ import annotations

import time

import numpy as np

# the least work, in seconds, that the benchmark times between two reference runs
SEGMENT_S = 0.5
ORDER = 128
_rng = np.random.default_rng(20240601)
_perm = _rng.permutation(ORDER)
_x = np.arange(ORDER)
_z8z16 = (_x[:, None] % 8 + _x[None, :] % 8) % 8 + 8 * ((_x[:, None] // 8 + _x[None, :] // 8) % 16)
TABLE = np.empty_like(_z8z16)
TABLE[np.ix_(_perm, _perm)] = _perm[_z8z16]     # Z8 x Z16, relabelled
MATRIX = _rng.integers(-9, 10, size=(24, 24)).astype(object)


def _gathers() -> bool:
    ok = True
    for lo in range(0, ORDER, 32):
        block = TABLE[lo:lo + 32]
        ok &= bool((TABLE[block, :] == block[:, TABLE]).all())
    return ok


def _row_reduce() -> int:
    rows = MATRIX.copy()
    rank = 0
    for col in range(rows.shape[1]):
        while True:
            live = [r for r in range(rank, len(rows)) if rows[r][col]]
            if not live:
                break
            pivot = min(live, key=lambda r: abs(rows[r][col]))
            rows[[rank, pivot]] = rows[[pivot, rank]]
            p = rows[rank][col]
            done = True
            for r in range(rank + 1, len(rows)):
                q = rows[r][col] // p
                if q:
                    rows[r] -= q * rows[rank]
                done &= rows[r][col] == 0
            if done:
                rank += 1
                break
    return rank


def _hashing() -> int:
    seen: dict = {}
    for a in range(ORDER):
        for b in range(0, ORDER, 2):
            seen[(a, b, a ^ b)] = seen.get((b, a, a ^ b), 0) + 1
    return len(seen)


def run() -> tuple[float, float]:
    """Run the kernel once; return its wall and CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    assert _gathers()
    for _ in range(5):
        assert _row_reduce() == len(MATRIX)
    for _ in range(8):
        assert _hashing() == ORDER * ORDER // 2
    return time.perf_counter() - wall, time.process_time() - cpu


if __name__ == "__main__":
    run()
