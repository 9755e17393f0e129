"""Insertion orders for collinear points, and the matching worst-case sets.

order_line recurses on the larger half of the point set (split at the
midpoint of the two extremes) and reveals the far extreme second.  The far
extreme is then forced to attach to the first-revealed point, and because
it is strictly farther from the recursed half than that half's own diameter,
later points never prefer it.  One incoming edge is gained per level, and
halving sizes give ceil(log2 n) levels.

gen_hard_line builds the opposing extremal family: start from {0, 1} and
repeatedly union a copy shifted by 3^k.  The copies stay so far apart that
across the gap every vertex can collect at most one incoming edge, capping
the maximum indegree of every insertion order at log2 of the size.

Both work on 1-D PointSets, whose axes are exact grid ints; the doubling
sets grow like 3^k, so floats would drop low bits almost immediately.
"""

from __future__ import annotations

import numpy as np

from .core import GuardError, Order, PointSet, _on_grid

# 2^k points with coordinates near 3^k: past this, the set itself is no
# longer desk-scale, so refuse loudly instead of thrashing memory.  At k = 20
# the span (3^20 - 1) / 2 is below 2^31, so the set's squared distances
# still fit int64.
MAX_HARD_K = 20


def _line_set(x: np.ndarray) -> PointSet:
    """The 1-D PointSet of the distinct int64 coordinates x (shifted in place)."""
    return _on_grid(PointSet.__new__(PointSet), 1, x[None])


def gen_hard_line(k: int) -> PointSet:
    """The k-th doubling set: 2^k ints, diameter (3^k - 1) / 2, ids left to right."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_HARD_K:
        raise GuardError(f"k={k} exceeds the size budget (k <= {MAX_HARD_K}, set has 2^k points)")
    x = np.array([0, 1], dtype=np.int64)
    for j in range(1, k):
        x = np.concatenate((x, x + 3**j))
    return _line_set(x)


def truncate_hard_line(k: int, n: int) -> PointSet:
    """Leftmost n points of the (k+1)-th doubling set, for 2^k < n <= 2^(k+1)."""
    # n's bit length, not 2**k: k comes from the command line, unbounded
    if not (n >= 1 and (n - 1).bit_length() == k + 1):
        raise ValueError(f"need 2^{k} < n <= 2^{k + 1}, got n={n}")
    if k >= MAX_HARD_K:
        raise GuardError(f"k={k}, n={n} exceeds the size budget (n <= 2^{MAX_HARD_K} points)")
    return _line_set(gen_hard_line(k + 1).axes[0][:n].copy())


def order_line(ps: PointSet) -> tuple[Order, int]:
    """Insertion order of the 1-D set ps with max indegree >= ceil(log2 n),
    plus its center, both in ps's ids.

    Split at the midpoint of the extremes: A keeps the points strictly
    closer to the left extreme (an exact midpoint goes with the right side),
    and the larger side is recursed on, ties keeping the left.  The emitted
    list is center, far extreme, rest of the recursive order, then the
    untouched side left to right.  In sorted order each side is a range, so
    the recursion is a loop over one range [lo, hi), one bisection a level,
    and its order is the center, each level's far extreme, then each level's
    untouched side without its far extreme, deepest level first.
    """
    if ps.dim != 1:
        raise ValueError(f"order_line needs a 1-D point set, got dimension {ps.dim}")
    ids = np.argsort(ps.axes[0], kind="stable")
    x = ps.axes[0][ids]
    lo, hi = 0, ps.n
    fars, rests = [], []
    while hi - lo > 1:
        # 2x < x[lo] + x[hi - 1] iff x < ceil(s / 2): m starts the right side
        s = int(x[lo]) + int(x[hi - 1])
        m = lo + int(x[lo:hi].searchsorted(-(-s // 2)))
        if m - lo >= hi - m:
            fars.append(hi - 1)
            rests.append(np.arange(m, hi - 1))
            hi = m
        else:
            fars.append(lo)
            rests.append(np.arange(lo + 1, m))
            lo = m
    pos = np.concatenate([np.array([lo, *fars]), *reversed(rests)])
    return tuple(ids[pos].tolist()), int(ids[lo])
