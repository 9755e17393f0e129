"""Insertion orders for point sets in R^d: diameter split plus grid clustering.

The recursion mirrors the 1-D strategy but needs a clustering step.  Take a
diameter pair (a, b), keep the half A of points at least as close to a as
to b (ordinally, so no point is ever equidistant), and cover A by a grid of
half-open cubical cells of side |ab| / (2 sqrt(d)).  Cells have diameter
strictly below |ab| / 2 while every point of A sits at distance at least
|ab| / 2 from the far endpoint, so the largest cell C can be ordered
recursively as if the far endpoint were absent.  Revealing center-of-C
first and the far endpoint second adds one incoming edge per level.

The cell count per level is at most (floor(2 sqrt(d)) + 1)^d, so the center
collects at least log(n) / log(2 (floor(2 sqrt(d)) + 1)^d) edges.

All geometry is exact: coordinates are rescaled to a common integer grid
and cell indices come from integer square roots, so the strict separation
inequalities above are real inequalities, not float approximations.  The
diameter scan reads pairs through core's scratch kernel, and only among
the points that a double sweep's lower bound and the bounding box leave
possible; one pair of scratch buffers serves every level of the recursion.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SCRATCH, Order, PointSet, scratch, sq_dist_rows

# Largest dimension for which 2 * grid_cell_bound(d) <= 16^d, keeping the
# grid guarantee at least as strong as floor(log2(n) / 4d).  First failure
# is d = 57; we advertise the comfortable range only.
PARITY_MAX_DIM = 49


def grid_cell_bound(dim: int) -> int:
    """Max number of grid cells a set of diameter <= unit can touch."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return (math.isqrt(4 * dim) + 1) ** dim


def grid_guarantee(n: int, dim: int) -> int:
    """floor(log(n) / log(2 * cells)), forced to >= 1 for n >= 2."""
    if n < 2:
        return 0
    base = 2 * grid_cell_bound(dim)
    t = 0
    while base ** (t + 1) <= n:
        t += 1
    return max(t, 1)


def log_guarantee(n: int, dim: int) -> int:
    """floor(log2(n) / (4 dim)); the classical covering-based bound."""
    if n < 2:
        return 0
    return (n.bit_length() - 1) // (4 * dim)


def _diameter_ids(xt: np.ndarray, ids: list[int], buf) -> tuple[int, int]:
    """The largest squared distance among ``ids``; among ties the
    lexicographically smallest position pair wins."""
    sub = xt[:, ids]
    # A double sweep's distance is a lower bound L on the diameter.  A point
    # whose farthest bounding-box corner is nearer than sqrt(L) lies in no
    # pair at distance >= L; the survivors keep their order, and so the
    # tie-break.
    far = int(sq_dist_rows(sub[:, :1], sub, buf).argmax())
    low = sq_dist_rows(sub[:, far : far + 1], sub, buf).max()
    reach = np.maximum(sub - sub.min(axis=1, keepdims=True), sub.max(axis=1, keepdims=True) - sub)
    reach *= reach
    keep = np.flatnonzero(reach.sum(axis=0) >= low)
    sub, kept = sub[:, keep], np.asarray(ids)[keep]
    # The row-major first maximum; a block of rows [r0, r1) scans only
    # columns >= r0: the pairs with an earlier column were rows of an
    # earlier block.
    m = len(kept)
    best, pair = -1, (-1, -1)
    r0 = 0
    while r0 < m:
        r1 = min(m, r0 + max(1, SCRATCH // (m - r0)))
        d2 = sq_dist_rows(sub[:, r0:r1], sub[:, r0:], buf)
        r, s = divmod(int(d2.argmax()), m - r0)
        if d2[r, s] > best:
            best, pair = d2[r, s], (int(kept[r0 + r]), int(kept[r0 + s]))
        r0 = r1
    return pair


def _halfspace_ids(xt: np.ndarray, ids: list[int], a: int, b: int, buf) -> tuple[list[int], list[int], int]:
    """Split ids by ordinal closeness to a vs b; returns (major, minor, far).

    Each anchor lands on its own side: its distance to itself is 0.  On a
    tie the index-pair tie-break ranks {p, a} below {p, b} exactly when
    a < b."""
    da, db = sq_dist_rows(xt[:, [a, b]], xt[:, ids], buf)
    to_a = (da < db) | ((da == db) & (a < b))
    ids = np.asarray(ids)
    near_a, near_b = ids[to_a].tolist(), ids[~to_a].tolist()
    if len(near_a) >= len(near_b):
        return near_a, near_b, b
    return near_b, near_a, a


def _cells(xt: np.ndarray, ids: list[int], unit_sq: int, dim: int) -> dict[tuple, list[int]]:
    sub = xt[:, ids]
    offsets = (sub - sub.min(axis=1, keepdims=True)).T.tolist()
    out: dict[tuple, list[int]] = {}
    for i, q in zip(ids, offsets):
        # cell index floor(2 q sqrt(d) / sqrt(unit_sq)) via exact isqrt:
        # floor(sqrt(4 q^2 d / M)) = isqrt(4 q^2 d * M) // M for M = unit_sq.
        idx = tuple(math.isqrt(4 * c**2 * dim * unit_sq) // unit_sq for c in q)
        out.setdefault(idx, []).append(i)
    return out


def diameter_pair(ps: PointSet) -> tuple[int, int]:
    """A pair realizing the maximum distance, ties broken toward the
    lexicographically smallest index pair; returns (a, b) with a < b."""
    if ps.n < 2:
        raise ValueError("need at least two points")
    xt = ps.axes
    return _diameter_ids(xt, list(range(ps.n)), scratch(xt, max(SCRATCH, ps.n)))


def halfspace_split(ps: PointSet, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition all vertices by ordinal closeness to a versus b.

    The first returned set is the larger one (>= n/2) and contains exactly
    one of {a, b}, namely its own anchor.  The strict pair order means no
    vertex is ever equidistant, so the split is total and deterministic.
    """
    if a == b or not (0 <= a < ps.n and 0 <= b < ps.n):
        raise ValueError(f"invalid anchor pair ({a}, {b})")
    xt = ps.axes
    major, minor, _far = _halfspace_ids(xt, list(range(ps.n)), a, b, scratch(xt, 2 * ps.n))
    return tuple(major), tuple(minor)


def grid_partition(ps: PointSet, members, unit_sq) -> list[tuple[int, ...]]:
    """Cover the given vertices by half-open cubical cells of side
    sqrt(unit_sq) / (2 sqrt(dim)), anchored at their coordinate-wise minimum.

    ``unit_sq`` is the squared normalizing length (kept squared so the
    computation stays in exact integers).  Each returned cluster has
    diameter strictly below sqrt(unit_sq) / 2, and there are at most
    grid_cell_bound(dim) clusters when the members span at most
    sqrt(unit_sq) per axis.  Clusters come back sorted by cell index.
    """
    ids = sorted(int(v) for v in members)
    if not ids:
        raise ValueError("cannot partition an empty vertex set")
    if not (0 <= ids[0] and ids[-1] < ps.n):
        raise ValueError("member ids out of range")
    us = int(unit_sq)
    if us <= 0:
        raise ValueError("unit_sq must be positive")
    cells = _cells(ps.axes, ids, us, ps.dim)
    return [tuple(cells[key]) for key in sorted(cells)]


def order_euclid(ps: PointSet) -> tuple[Order, int, int]:
    """Insertion order, its center, and the grid guarantee for that order.

    The center's indegree in the rebuilt ONNG is at least the returned
    guarantee, and also at least floor(log2(n) / 4d) for dim <= 49.
    """
    order, center, guarantee, _fars = _order_euclid_levels(ps)
    return order, center, guarantee


def _order_euclid_levels(ps: PointSet) -> tuple[Order, int, int, list[int]]:
    n, dim = ps.n, ps.dim
    if dim <= PARITY_MAX_DIM and 2 * grid_cell_bound(dim) > 16**dim:
        raise AssertionError(f"2 * grid_cell_bound({dim}) exceeds 16^{dim}")
    xt = ps.axes
    buf = scratch(xt, max(SCRATCH, 2 * n))  # _halfspace_ids reads two rows of n
    cell_cap = grid_cell_bound(dim)
    fars: list[int] = []

    def rec(ids: list[int]) -> tuple[list[int], int]:
        if len(ids) == 1:
            return [ids[0]], ids[0]
        if len(ids) == 2:
            u, w = sorted(ids)
            fars.append(w)
            return [u, w], u
        a, b = _diameter_ids(xt, ids, buf)
        major, _minor, far = _halfspace_ids(xt, ids, a, b, buf)
        unit_sq = sum((int(c[a]) - int(c[b])) ** 2 for c in xt)
        cells = _cells(xt, major, unit_sq, dim)
        if len(cells) > cell_cap:
            raise AssertionError("cell count exceeded the provable cap")
        cluster = max(sorted(cells), key=lambda key: len(cells[key]))
        c_ids = cells[cluster]
        sub, center = rec(sorted(c_ids))
        fars.append(far)
        in_c = set(c_ids)
        rest = sorted(i for i in ids if i not in in_c and i != far)
        return [center, far] + sub[1:] + rest, center

    order, center = rec(list(range(n)))
    fars.reverse()  # outermost level first, matching order[1:1+len(fars)]
    return tuple(order), center, grid_guarantee(n, dim), fars
