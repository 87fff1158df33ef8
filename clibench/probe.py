"""Host-speed probe: a fixed pure-Python kernel that runs no jumploci code.

Its time is a reading of how fast this host runs the interpreter at that
moment.  It imports nothing from jumploci, so the set-up samples can run it
in a fresh interpreter right around their import, and no change to the
package can move it.
"""

import time

PROBE_MATRICES = 40
PROBE_PASSES = 8
PROBE_REF_S = 0.008  # the probe's median on the 2-core VM the bounds were set on


def _probe_rank(rows, p):
    """Rank mod p by row reduction: the kind of interpreter work a report
    does per point, written here so that no change to jumploci moves it."""
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_PROBE_INPUT = [[[(7 * i + 11 * j + 13 * k) * (i + k + 1) % 101 for j in range(6)]
                 for i in range(6)] for k in range(PROBE_MATRICES)]


def host_probe():
    """Seconds taken by the probe kernel once."""
    started = time.perf_counter()
    for _ in range(PROBE_PASSES):
        for rows in _PROBE_INPUT:
            _probe_rank(rows, 101)
    return time.perf_counter() - started
