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

Coordinates are exact ints or Fractions throughout; the doubling sets grow
like 3^k, so floats would drop low bits almost immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GuardError, Order, PointSet

# 2^k points with coordinates near 3^k: past this, the set itself is no
# longer desk-scale, so refuse loudly instead of thrashing memory.
MAX_HARD_K = 20


@dataclass(frozen=True)
class LinePointSet:
    """Strictly increasing exact coordinates on a line; vertex id = position."""

    coords: tuple

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("need at least one point")
        for c in self.coords:
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"coordinate {c!r} is not an exact rational")
        for a, b in zip(self.coords, self.coords[1:]):
            if not a < b:
                raise ValueError("coordinates must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_point_set(self) -> PointSet:
        return PointSet(1, tuple((c,) for c in self.coords))


def gen_hard_line(k: int) -> LinePointSet:
    """The k-th doubling set: 2^k ints, diameter (3^k - 1) / 2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_HARD_K:
        raise GuardError(f"k={k} exceeds the size budget (k <= {MAX_HARD_K}, set has 2^k points)")
    pts = [0, 1]
    for j in range(1, k):
        shift = 3**j
        pts = pts + [shift + x for x in pts]
    return LinePointSet(tuple(pts))


def truncate_hard_line(k: int, n: int) -> LinePointSet:
    """Leftmost n points of the (k+1)-th doubling set, for 2^k < n <= 2^(k+1)."""
    if not 2**k < n <= 2 ** (k + 1):
        raise ValueError(f"need 2^{k} < n <= 2^{k + 1}, got n={n}")
    return LinePointSet(gen_hard_line(k + 1).coords[:n])


def order_line(ps: LinePointSet) -> tuple[Order, int]:
    """Insertion order with max indegree >= ceil(log2 n), plus its center.

    Split at the midpoint of the extremes: A keeps the points strictly
    closer to the left extreme (an exact midpoint goes with the right side),
    and the larger side is recursed on, ties keeping the left.  The emitted
    list is center, far extreme, rest of the recursive order, then the
    untouched side left to right.
    """
    coords = ps.coords

    def rec(ids: list[int]) -> tuple[list[int], int]:
        if len(ids) == 1:
            return [ids[0]], ids[0]
        a, b = ids[0], ids[-1]
        s = coords[a] + coords[b]
        left = [i for i in ids if 2 * coords[i] < s]
        right = [i for i in ids if 2 * coords[i] >= s]
        if len(left) >= len(right):
            major, far, minor = left, b, right
        else:
            major, far, minor = right, a, left
        sub, center = rec(major)
        rest = [i for i in minor if i != far]
        return [center, far] + sub[1:] + rest, center

    order, center = rec(list(range(ps.n)))
    return tuple(order), center
