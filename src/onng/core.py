"""Ordinal distances and ordered nearest-neighbor graph construction.

An ordered nearest-neighbor graph (ONNG) is built by revealing vertices one
at a time: every vertex after the first sends a single directed edge to the
closest vertex among those already revealed.  "Closest" is purely ordinal:
a RankedMetric is a strict total order on all unordered vertex pairs, and a
point set ranks its pairs by exact squared distance, ties broken by the
index pair.  Strictness stands in for the usual general-position assumption
(no isosceles triples): every nearest-predecessor choice is unique.

A point set stores one coordinate form, its axes: exact integers on a common
grid, one row per axis, built once at construction.  One distance kernel
reads them, sq_dist_rows, which writes each block into two preallocated
scratch buffers of SCRATCH entries, grown to one row past SCRATCH points, so
no scan's memory grows with the pairs it reads.  Every comparison a strategy
makes is between two pairs that share a vertex, and between {v, a} and
{v, b} the tie-break by index pair is simply "smaller neighbour id".  So one
key source, key_source, answers them all from ranks or exact squared
distances, and build_onng, path_order and the Ramsey process, which read
only it, never rank all pairs of a point set.  metric_from_points builds the
full RankedMetric only for the exhaustive oracle and as the tests' reference.

For a point set, build_onng and path_order first ask one certified cell
grid (cell_grid), which settles a vertex from the points of the 3^d cells
around its own whenever the best of them is nearer than anything outside.
What the grid leaves, and everything for a metric, goes to the blocked
key_source scan, the one exact resolver, over the vertices in position order.

Everything here is an immutable value after construction and every operation
is a pure function of its arguments, so no locking or shared state is needed
anywhere downstream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

# An insertion order is a plain tuple: a permutation of the vertex ids 0..n-1.
Order = tuple[int, ...]


class GuardError(ValueError):
    """Raised when a request exceeds a size guard."""


# Largest point set metric_from_points ranks: it holds n(n-1)/2 pairs.
RANK_PAIRS_MAX_N = 2**13
# Entries in each of the two buffers a points distance scan writes into:
# 256 KiB of int64, which fits in L2.  A block costs only its own keys (the
# resolver reads a prefix of one table and sorts nothing), so small blocks
# are as fast as large ones.
SCRATCH = 2**15
# The cell grid: the points per cell its side aims at, the most candidates
# one chunk of its scan gathers, how many times its expected share of
# points a vertex's block may hold before the vertex is left to the kernel,
# the most axes it spans (a block holds three cells along each), and the
# block entries path_order keeps per vertex.
GRID_OCCUPANCY = 2
GRID_BUDGET = 2**12
GRID_CROWD = 4
GRID_MAX_AXES = 5
PATH_LIST = 8
# Above every int64 squared distance and every squared margin (at most 2^62).
_FAR = np.iinfo(np.int64).max
# Replaying rng.shuffle: 32-bit words drawn per getrandbits call, and the most
# steps one block of draws resolves.
SHUFFLE_WORDS = 2**16
SHUFFLE_STEPS = 2**14


def check_pair_guard(n: int) -> None:
    """Refuse, before any O(n^2) allocation, a metric on more than
    RANK_PAIRS_MAX_N vertices."""
    if n > RANK_PAIRS_MAX_N:
        raise GuardError(f"n={n} exceeds the pair-ranking guard (n <= {RANK_PAIRS_MAX_N})")


def pair_index(i: int, j: int, n: int) -> int:
    """Position of the pair {i, j}, i < j, in the lexicographic pair listing."""
    if not 0 <= i < j < n:
        raise ValueError(f"invalid vertex pair ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def iter_pairs(n: int):
    """All unordered pairs of [0, n) in lexicographic order."""
    return combinations(range(n), 2)


class RankedMetric:
    """Strict total order on the unordered vertex pairs of [0, n).

    ``rank(i, j)`` is a bijection from the n(n-1)/2 pairs onto
    0 .. n(n-1)/2 - 1; smaller rank means closer.  The metric keeps one
    form, the dense symmetric rank matrix, with the out-of-range sentinel
    n(n-1)/2 on its diagonal; the flat vector in lexicographic pair order
    is derived when asked for (pair_ranks).
    """

    __slots__ = ("n", "_matrix")
    # the rank check's error, which the metric reader's explainer raises too
    RANK_ERROR = "pair ranks must be a bijection onto 0..n(n-1)/2-1"

    def __init__(self, n: int, pair_ranks) -> None:
        if n < 1:
            raise ValueError("a metric needs at least one vertex")
        p = n * (n - 1) // 2
        flat = np.asarray(pair_ranks)
        if flat.shape != (p,):
            raise ValueError(f"expected {p} pair ranks for n={n}, got {flat.shape}")
        mat = np.full((n, n), -1, dtype=np.int32 if p < 2**31 - 1 else np.int64)
        # Row i of the upper triangle is one slice of the flat vector.  Ranks
        # past int64, or not integers, come as an object or float array, and
        # a rank out of range could wrap into range: they leave the matrix
        # unfilled.
        if not p or (flat.dtype.kind in "iu" and flat.min() >= 0 and flat.max() < p):
            off = 0
            for i in range(n - 1):
                mat[i, i + 1 :] = flat[off : off + n - i - 1]
                off += n - i - 1
        self._keep(mat)

    @classmethod
    def _of_matrix(cls, mat: np.ndarray) -> RankedMetric:
        """The metric whose rank matrix is mat, kept without a copy (_keep)."""
        m = cls.__new__(cls)
        m._keep(mat)
        return m

    def _keep(self, mat: np.ndarray) -> None:
        """The one rank check, after which mat is the metric's matrix.  mat
        is square, with -1 in any slot left unfilled above the diagonal; the
        check mirrors each row into its column, sets the diagonal to the
        sentinel p and requires each rank of 0..p-1 once above it."""
        n = len(mat)
        p = n * (n - 1) // 2
        for i in range(n - 1):
            mat[i + 1 :, i] = mat[i, i + 1 :]
        np.fill_diagonal(mat, p)
        seen = np.zeros(p + 1, dtype=bool)  # p bytes, where a bincount takes 8p
        if mat.min() >= 0 and mat.max() <= p:
            seen[mat] = True  # both triangles hold the same ranks, the diagonal p
        if not seen[:p].all():
            raise ValueError(self.RANK_ERROR)
        self.n, self._matrix = n, mat

    def rank(self, i: int, j: int) -> int:
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"invalid vertex pair ({i}, {j})")
        return int(self._matrix[i, j])

    def pair_ranks(self) -> np.ndarray:
        """Flat ranks in lexicographic pair order, as a new read-only array."""
        flat = np.concatenate([row[i + 1 :] for i, row in enumerate(self._matrix)])
        flat.flags.writeable = False
        return flat

    def matrix_rows(self) -> list[memoryview]:
        """One read-only memoryview per row of the dense rank matrix, whose
        items index as plain ints: fast lookups for hot loops, with no copy
        of the matrix."""
        return [memoryview(row).toreadonly() for row in self._matrix]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankedMetric)
            and self.n == other.n
            and np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return f"RankedMetric(n={self.n})"


class PointSet:
    """Points in R^dim with pairwise-distinct coordinate tuples, kept on one
    exact integer grid.

    Coordinates may be ints, Fractions, or floats (exact binary rationals).
    The set keeps only ``den``, their common denominator, ``origin``, each
    axis' shift as a Python int, and ``axes``, a read-only (dim, n) array
    shifted to start at 0, so coordinate k of point i is
    (origin[k] + axes[k, i]) / den.  The shift leaves every distance as it
    was, and the array is int64 whenever every squared distance fits there,
    however large the coordinates themselves are; otherwise it holds Python
    ints (object dtype).  Either way distance comparisons never round.
    """

    __slots__ = ("dim", "den", "origin", "axes")

    def __init__(self, dim: int, rows) -> None:
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if not len(rows):
            raise ValueError("need at least one point")
        q = []  # every coordinate as an exact rational, point after point
        for idx, pt in enumerate(rows):
            if len(pt) != dim:
                raise ValueError(f"point {idx} has {len(pt)} coordinates, expected {dim}")
            try:
                q.extend(map(_rational, pt))
            except (ValueError, OverflowError, TypeError) as e:
                raise ValueError(f"point {idx} has a non-finite or non-numeric coordinate") from e
        den = math.lcm(*{c.denominator for c in q})
        q = [c.numerator * (den // c.denominator) for c in q]
        # one tuple of grid ints per point is its duplicate key
        seen: dict = {}
        for idx in range(len(rows)):
            first = seen.setdefault(tuple(q[idx * dim : (idx + 1) * dim]), idx)
            if first != idx:
                raise ValueError(f"points {first} and {idx} are identical")
        del seen
        _on_grid(self, den, np.array(q, dtype=object).reshape(-1, dim).T)

    @property
    def n(self) -> int:
        return self.axes.shape[1]

    def exact(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The coordinates as exact rationals, one tuple per point: ints on
        an integer grid (den 1), Fractions otherwise."""
        if self.den == 1:
            cols = ([o + c for c in axis.tolist()] for o, axis in zip(self.origin, self.axes))
        else:
            cols = ([Fraction(o + c, self.den) for c in axis.tolist()]
                    for o, axis in zip(self.origin, self.axes))
        return tuple(zip(*cols))

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, n={self.n})"


def _rational(c):
    """An int or Fraction as it is, anything else as an exact Fraction."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _on_grid(ps: PointSet, den: int, x: np.ndarray) -> PointSet:
    """Fill ps from the grid ints x, shape (dim, n), of distinct points
    x / den: each axis shifted to start at 0, its shift kept in origin, and
    the axes read-only, in int64 whenever every squared distance fits there
    and as Python ints otherwise.  x is an int64 array whose spread fits
    int64, or an object array of Python ints; it is shifted in place."""
    lo = x.min(axis=1)
    x -= lo[:, None]
    x = x.astype(np.int64 if len(x) * int(x.max()) ** 2 < 2**62 else object, copy=False)
    x.flags.writeable = False
    ps.dim, ps.den, ps.origin, ps.axes = len(x), den, tuple(lo.tolist()), x
    return ps


def scratch(xt: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The two buffers sq_dist_rows writes into, ``size`` entries each in
    the dtype of the axes ``xt``.  A block scan takes max(SCRATCH, n): its
    blocks hold at most SCRATCH entries, or one longer row of up to n."""
    return np.empty(size, dtype=xt.dtype), np.empty(size, dtype=xt.dtype)


def sq_dist_rows(a: np.ndarray, b: np.ndarray, buf) -> np.ndarray:
    """Exact squared distances from the points ``a`` to the points ``b``
    (axis-major, shapes (dim, r) and (dim, c)) as an (r, c) view of
    ``buf[0]``, valid until the next call on the same buffers.

    Summed one axis at a time through ``buf[1]`` by ufuncs with ``out=``, so
    a block allocates nothing: int64 axes stay in int64, where PointSet
    keeps every squared distance, and object axes stay Python ints.
    """
    r, c = a.shape[1], b.shape[1]
    out = buf[0][: r * c].reshape(r, c)
    tmp = buf[1][: r * c].reshape(r, c)
    for k in range(len(a)):
        dst = tmp if k else out
        np.subtract(a[k, :, None], b[k], out=dst)
        np.multiply(dst, dst, out=dst)
        if k:
            np.add(out, tmp, out=out)
    return out


def metric_from_points(ps: PointSet) -> RankedMetric:
    """Ordinal form of a point set: pairs sorted by squared distance.

    Squared distances are exact (integer arithmetic after common rescaling)
    and are collected block by block in lexicographic pair order, so a
    pair's position is its index pair: one unstable sort, then a re-sort of
    each run of equal distances by position, breaks every exact tie by the
    index pair, smaller (min, max) first.  Distinctness of the points is
    enforced by PointSet.
    """
    n = ps.n
    check_pair_guard(n)
    xt = ps.axes
    p = n * (n - 1) // 2
    d2 = np.empty(p, dtype=xt.dtype)
    buf = scratch(xt, max(SCRATCH, n))
    pos = i0 = 0
    while i0 < n - 1:
        # rows [i0, i1) against columns [i0 + 1, n): row i keeps the columns > i
        i1 = min(n - 1, i0 + max(1, SCRATCH // (n - 1 - i0)))
        block = sq_dist_rows(xt[:, i0:i1], xt[:, i0 + 1 :], buf)
        for k in range(i1 - i0):
            d2[pos : pos + n - 1 - i0 - k] = block[k, k:]
            pos += n - 1 - i0 - k
        i0 = i1
    order = np.argsort(d2)
    d2 = d2[order]
    tie = np.concatenate(([False], d2[1:] == d2[:-1]))  # order[k] ties order[k - 1]
    del d2
    if tie.any():
        # the sorted slots of every run of equal distances, and each slot's
        # run number: sorting (run, position) keys puts each run in position
        # order and leaves the runs where they are
        at = np.flatnonzero(tie | np.append(tie[1:], False))
        run = np.cumsum(~tie[at]) * p
        keys = order[at] + run
        keys.sort()
        order[at] = keys - run
    flat = np.empty(p, dtype=np.int64)
    flat[order] = np.arange(p)
    return RankedMetric(n, flat)


def key_source(data: PointSet | RankedMetric, size: int | None = None):
    """How the pairs {v, a} and {v, b} compare, for either input: (table,
    keys, row, top).  table(ids) lays vertices out as columns, ids in row 0
    and below them what keys reads (a point set's axes), as is any slice of
    its columns.  keys(a, b) is the (len a, len b) array of exact keys of
    the pairs {a_i, b_j}: ranks, or squared distances in scratch buffers of
    ``size`` entries (by default max(SCRATCH, 2n): a block, or two rows)
    that the next call overwrites.  row(v, cols) is keys for the one vertex
    v against the columns of a table, as a 1-D array: taken from row v of
    the rank matrix, not by keys' 2-D index, or in the buffers again.
    Those rank as metric_from_points ranks them when the caller breaks a
    tie to the smaller id (the smallest id among a row's minima, or a
    strict comparison).  top exceeds every key."""
    n = data.n
    if isinstance(data, RankedMetric):
        mat, below, top = data._matrix, np.empty((0, n), dtype=np.intp), n * (n - 1) // 2

        def keys(a, b):
            return mat[a[0][:, None], b[0]]

        def row(v, cols):
            return mat[v].take(cols[0])
    else:
        below = data.axes
        buf = scratch(below, max(SCRATCH, 2 * n) if size is None else size)
        top = sum(int(c.max()) ** 2 for c in below) + 1

        def keys(a, b):
            return sq_dist_rows(a[1:], b[1:], buf)

        def row(v, cols):
            return sq_dist_rows(below[:, v : v + 1], cols[1:], buf)[0]

    def table(ids):
        return np.vstack([ids, below[:, ids]])

    return table, keys, row, top


class CellGrid:
    """A uniform grid over a point set's int64 axes: half-open cubes of
    side ``side``, point i in the cell of its axes // side, chosen so that a
    cell holds about GRID_OCCUPANCY points.  A vertex's block is the 3^d
    cells around its own (one cell along an axis the grid does not split).

    Every point outside the block is at least ``margin`` from the vertex:
    the least distance from it to a face of the block beyond which points
    can lie (none lie below cell 0 or above the last).  So a block point
    whose key is below margin^2 is nearer than every point outside; one at
    exactly margin^2 could tie an outside point of smaller id and settles
    nothing.  Margins are clipped to 2^31, which leaves their squares in
    int64 and above every squared distance PointSet keeps there.

    The cells are numbered row-major on a grid padded by one empty cell at
    both ends of each split axis, so the block of cell c is c + steps and
    never leaves the grid.  ids lists the points by cell (by id within a
    cell); cell c's points are ids[starts[c] : starts[c] + counts[c]].
    """

    __slots__ = ("axes", "side", "shape", "cell", "ids", "starts", "counts", "steps")

    def __init__(self, ps: PointSet, side: int) -> None:
        xt = ps.axes
        self.axes, self.side = xt, side
        self.shape = [int(c.max()) // side + 1 for c in xt]  # cells along each axis
        padded = [g + 2 if g > 1 else 1 for g in self.shape]
        strides = [math.prod(padded[k + 1 :]) for k in range(len(xt))]
        cell = np.zeros(ps.n, dtype=np.int64)
        for x, g, stride in zip(xt, self.shape, strides):
            if g > 1:
                cell += (x // side + 1) * stride
        self.cell = cell
        self.ids = np.argsort(cell, kind="stable")
        self.counts = np.bincount(cell, minlength=math.prod(padded))
        self.starts = np.cumsum(self.counts) - self.counts
        moves = [(-1, 0, 1) if g > 1 else (0,) for g in self.shape]
        self.steps = np.array([sum(m * s for m, s in zip(ms, strides)) for ms in product(*moves)])

    def blocks(self, verts: np.ndarray):
        """The blocks of verts, in chunks of at most GRID_BUDGET points:
        (vs, cand, key, own, seg, bound) per chunk.  vs are the chunk's
        vertices; cand every point of each one's block, the vertex itself
        included, in runs that start at seg; own the index in vs that each
        belongs to; key the exact squared distances; bound each vertex's
        squared margin.  A vertex whose block is crowded, holding more than
        GRID_CROWD times the points a block holds on average and more than
        n / 32, is in no chunk: clustered points cost the grid more than
        they cost the kernel."""
        share = len(self.steps) * GRID_OCCUPANCY
        # the kernel reads about n / 2 keys a vertex, each about a fifth of
        # the cost of a gathered point: a block of n / 32 is still cheaper
        crowd = min(GRID_BUDGET, max(GRID_CROWD * share, len(self.cell) // 32))
        per = max(1, GRID_BUDGET // share)
        for i in range(0, len(verts), per):
            vs = verts[i : i + per]
            near = self.cell[vs][:, None] + self.steps
            lens = self.counts[near]
            tot = lens.sum(axis=1)
            fit = tot <= crowd
            if not fit.all():
                vs, near, lens, tot = vs[fit], near[fit], lens[fit], tot[fit]
            ends = np.cumsum(tot)
            a = 0
            while a < len(vs):
                b = max(a + 1, int(np.searchsorted(ends, ends[a] - tot[a] + GRID_BUDGET, "right")))
                yield self._gather(vs[a:b], near[a:b].ravel(), lens[a:b].ravel(), tot[a:b])
                a = b

    def _gather(self, vs, near, lens, tot):
        seg = np.cumsum(tot) - tot
        first = self.starts[near] - (np.cumsum(lens) - lens)
        cand = self.ids[np.repeat(first, lens) + np.arange(int(tot.sum()))]
        own = np.repeat(np.arange(len(vs)), tot)
        key = np.zeros(len(cand), dtype=np.int64)
        h = self.side
        margin = np.full(len(vs), 2**31, dtype=np.int64)
        for x, g in zip(self.axes, self.shape):
            xv = x[vs]
            d = x[cand] - xv[own]
            key += d * d
            c = xv // h
            r = xv - c * h  # the block spans [(c - 1) h, (c + 2) h) on this axis
            np.minimum(margin, np.where(c <= 1, margin, r + h), out=margin)
            np.minimum(margin, np.where(c >= g - 2, margin, 2 * h - r), out=margin)
        return vs, cand, key, own, seg, margin * margin


def cell_grid(data: PointSet | RankedMetric) -> CellGrid | None:
    """The certified cell grid of a point set, or None where there is none:
    a metric, axes past int64 (object dtype), or more than GRID_MAX_AXES
    axes to split."""
    if not isinstance(data, PointSet) or data.axes.dtype == object:
        return None
    spans = [int(c.max()) for c in data.axes]
    side = _cell_side(spans, data.n)
    if sum(s >= side for s in spans) > GRID_MAX_AXES:
        return None
    return CellGrid(data, side)


def _cell_side(spans: list[int], n: int) -> int:
    """The integer side h for which the cells over the spans number about
    n / GRID_OCCUPANCY: h^m = GRID_OCCUPANCY / n times the product of the m
    spans, over the axes whose span is at least h (a shorter axis is one
    cell or two, and dropping it only raises h).  h is rounded down before
    it is compared, so an axis whose span the rounded root just exceeds
    stays in, and the largest span is never dropped.  Spans of a cell or
    two on many axes can still make far more cells than points (each such
    axis pads to four), so h doubles until the padded grid has at most 8n
    cells."""
    live = [s for s in spans if s > 0]
    h = 1
    while live:
        h = max(1, int(math.exp((sum(map(math.log, live)) + math.log(GRID_OCCUPANCY / n)) / len(live))))
        if min(live) >= h:
            break
        live = [s for s in live if s >= h]
    while math.prod(s // h + 3 for s in spans if s >= h) > 8 * n:
        h *= 2
    return h


@dataclass(frozen=True)
class OrderedNNG:
    """Result of one insertion run: each non-first vertex points at its parent."""

    n: int
    parent: dict[int, int]
    indegree: tuple[int, ...]


def as_permutation(order, n: int) -> list[int]:
    """Validate that ``order`` is a permutation of 0..n-1; report offenders."""
    seq = [int(v) for v in order]
    if len(seq) == n and sorted(seq) == list(range(n)):
        return seq
    seen: set[int] = set()
    dup = sorted({v for v in seq if v in seen or seen.add(v)})  # type: ignore[func-returns-value]
    missing = sorted(set(range(n)) - set(seq))
    alien = sorted({v for v in seq if not 0 <= v < n})
    parts = []
    if missing:
        parts.append(f"missing ids {missing}")
    if dup:
        parts.append(f"duplicate ids {dup}")
    if alien:
        parts.append(f"out-of-range ids {alien}")
    raise ValueError(f"order is not a permutation of 0..{n - 1}: " + "; ".join(parts))


def build_onng(data: PointSet | RankedMetric, order) -> OrderedNNG:
    """Replay an insertion order: each new vertex attaches to its closest
    predecessor; the choice is unique and equals the one on
    metric_from_points.

    For a point set the cell grid settles each vertex whose nearest
    predecessor in its block is below the squared margin: the first minimum
    by (key, id) over the block, the vertex and its successors masked.
    Every other position goes to the blocked scan (_nearest_predecessors).
    """
    n = data.n
    seq = np.array(as_permutation(order, n), dtype=np.intp)
    parents = np.zeros(n, dtype=np.intp)  # by position
    left = np.arange(1, n)
    grid = cell_grid(data)
    if grid is not None:
        pos = np.empty(n, dtype=np.intp)
        pos[seq] = np.arange(n)
        settled = np.zeros(n, dtype=bool)
        settled[0] = True
        for vs, cand, key, own, seg, bound in grid.blocks(seq[1:]):
            at = pos[vs]
            key[pos[cand] >= at[own]] = _FAR  # no predecessor of its vertex
            best = np.minimum.reduceat(key, seg)
            near = np.minimum.reduceat(np.where(key == best[own], cand, n), seg)
            ok = best < bound
            parents[at[ok]] = near[ok]
            settled[at[ok]] = True
        del grid, pos  # before the resolver's scratch buffers
        left = np.flatnonzero(~settled)
    if len(left):
        _nearest_predecessors(data, seq, left, parents)
    parent = dict(zip(seq[1:].tolist(), parents[1:].tolist()))
    indeg = np.bincount(parents[1:], minlength=n)
    return OrderedNNG(n, parent, tuple(indeg.tolist()))


def _nearest_predecessors(data, seq: np.ndarray, at: np.ndarray, parents: np.ndarray) -> None:
    """The exact resolver: parents[p] for each position p in ``at``
    (ascending, all >= 1), the first minimum by (key, id) over the
    predecessors, read from key_source.

    One table holds the vertices in position order, so a block of positions
    at[i0:i1] reads its prefix [0, p1), p1 = at[i1 - 1] + 1: r p1 <= SCRATCH
    keys for r = i1 - i0, or one longer row.  Each row masks its own
    position and every later one, then takes the smallest id of its minima.
    """
    table, keys, _, top = key_source(data, max(SCRATCH, len(seq)))  # a block, or one row
    t = table(seq)
    i0 = 0
    while i0 < len(at):
        ahead = at[i0 : i0 + max(1, SCRATCH // (int(at[i0]) + 1))]
        fits = np.arange(1, len(ahead) + 1) * (ahead + 1) <= SCRATCH  # r p1, rising
        i1 = i0 + max(1, int(fits.sum()))
        rows = at[i0:i1]
        p0, p1 = int(rows[0]), int(rows[-1]) + 1
        d = keys(t[:, rows], t[:, :p1])
        d[:, p0:][np.arange(p0, p1) >= rows[:, None]] = top  # no predecessor of its row
        best = d.min(axis=1)
        parents[rows] = np.where(d == best[:, None], seq[:p1], len(seq)).min(axis=1)
        i0 = i1


def max_indegree(g: OrderedNNG) -> int:
    return max(g.indegree)


def path_order(data: PointSet | RankedMetric, tail: int) -> Order:
    """Order whose ONNG is a single directed path ending at the first vertex.

    Built backwards from the chosen tail: repeatedly step to the nearest
    not-yet-chosen vertex, then reverse.  Revealed forwards, every new vertex
    is strictly closer to its chain predecessor than to anything revealed
    earlier, so indegrees never exceed 1 and the tail is the path's source.

    A step from v takes the first vertex not yet chosen on v's list of
    certified neighbours (_near_lists, points only), which begins v's list
    of all vertices by (key, id).  When there is none it scans v's keys to
    the vertices not chosen, in id order, for their first minimum.
    """
    n = data.n
    if not 0 <= tail < n:
        raise ValueError(f"tail {tail} out of range for n={n}")
    grid = cell_grid(data)
    flat, off = _near_lists(grid, n) if grid is not None else (memoryview(b""), [0] * (n + 1))
    del grid
    table, _, row, top = key_source(data, n)
    taken = bytearray(n)
    chosen = np.frombuffer(taken, dtype=bool)  # a view: it sees every step
    # The scans read a table of vertices in id order, those chosen since it
    # was last compacted masked by top; it is compacted once they are an
    # eighth of it.
    ids = np.arange(n)
    cols = table(ids)
    chain = [tail]
    v = tail
    for left in range(n - 1, 0, -1):
        taken[v] = 1
        for u in flat[off[v] : off[v + 1]]:
            if not taken[u]:
                break
        else:
            gone = chosen[ids]
            if 8 * (len(ids) - left) > len(ids):
                keep = ~gone
                ids, cols, gone = ids[keep], cols[:, keep], gone[keep]
            d = row(v, cols)
            np.putmask(d, gone, top)
            u = int(ids[d.argmin()])
        chain.append(u)
        v = u
    chain.reverse()
    return tuple(chain)


def _near_lists(grid: CellGrid, n: int) -> tuple[memoryview, memoryview]:
    """Each vertex's certified neighbours, as one flat list and each
    vertex's offsets into it: up to PATH_LIST other points of its block,
    first by (key, id), each below its squared margin.  Whatever is nearer
    or ties lower is in the block and listed first, so the list begins the
    vertex's list of all vertices by (key, id).  Both are memoryviews of
    int arrays, whose items read as plain ints, where lists would hold an
    int object per entry."""
    parts = [np.empty(0, dtype=np.intp)]
    counts = np.zeros(n, dtype=np.intp)
    for vs, cand, key, own, _, bound in grid.blocks(np.arange(n)):
        near = np.flatnonzero(key < bound[own])  # the vertex itself too, at key 0
        cand, key, own = cand[near], key[near], own[near]
        cand = cand[np.lexsort((cand, key, own))]  # own is already in runs
        first = np.searchsorted(own, own)  # each run's start
        keep = np.arange(len(cand)) - first
        keep = (keep >= 1) & (keep <= PATH_LIST)  # rank 0 is the vertex
        parts.append(cand[keep])
        counts[vs] = np.bincount(own[keep], minlength=len(vs))
    return memoryview(np.concatenate(parts)), memoryview(np.concatenate(([0], np.cumsum(counts))))


def random_rank_metric(n: int, rng: random.Random) -> RankedMetric:
    """Uniformly random strict pair order on [0, n).

    Exactly RankedMetric(n, x) for x = list(range(n(n-1)/2)) after
    rng.shuffle(x), and rng is left in the state that shuffle leaves it in:
    gen random-metric's bytes and every seeded caller depend on that draw.
    shuffle spends a Python call per pair, so shuffled_range replays it in
    numpy from the same word stream instead.
    """
    check_pair_guard(n)
    if n < 1:
        raise ValueError("a metric needs at least one vertex")
    return RankedMetric(n, shuffled_range(n * (n - 1) // 2, rng))


def shuffled_range(p: int, rng: random.Random) -> np.ndarray:
    """list(range(p)) after rng.shuffle, as an int32 array, with rng left
    where shuffle leaves it."""
    return _swap(_draws(p, rng))


def _draws(p: int, rng: random.Random) -> np.ndarray:
    """j[i] for i = p-1 down to 1: the slot rng.shuffle swaps with slot i on
    a list of p items (j[0] is 0), read from the same Mersenne Twister words.

    shuffle draws j = _randbelow(i + 1): with k = (i + 1).bit_length(), each
    32-bit word w gives r = w >> (32 - k), redrawn while r > i.  getrandbits
    of 32 * N bits returns N consecutive words, the first in the lowest bits.
    A block of steps with one k and bounds i + 1 in lo..hi accepts every word
    with r < lo and rejects every word with r >= hi, whichever step reads it;
    only the words in between are walked in order, with the step each one
    falls on.  The words come in chunks, the state before each chunk still
    unread is kept, and at the end rng is reset to the one that holds the
    first unused word and moved past the used ones.
    """
    j = np.zeros(p, dtype=np.int32)
    words = np.empty(0, dtype=np.uint32)
    pos = start = 0  # next word of `words`, and the stream index of words[0]
    saved: list = []  # (state, stream index of its first word), oldest first
    hi = p  # bound of the next step
    while hi > 1:
        k = hi.bit_length()
        lo = max(1 << (k - 1), hi + 1 - min(SHUFFLE_STEPS, max(32, (1 << k) >> 5)), 2)
        m = hi - lo + 1
        want = _window(m, k, lo)
        while True:
            if pos + want > len(words):
                while len(saved) > 1 and saved[1][1] <= start + pos:
                    del saved[0]
                saved.append((rng.getstate(), start + len(words)))
                c = max(min(SHUFFLE_WORDS, 2 * hi), want)  # about what is left, at most
                new = np.frombuffer(rng.getrandbits(32 * c).to_bytes(4 * c, "little"), dtype="<u4")
                start += pos
                words, pos = np.concatenate((words[pos:], new)), 0
            r = words[pos : pos + want] >> (32 - k)
            ok = r < lo
            near = np.flatnonzero(~ok & (r < hi))  # lo <= r < hi
            taken = 0  # words in `near` accepted so far
            for w, s, v in zip(near.tolist(), np.cumsum(ok)[near].tolist(), r[near].tolist()):
                # the word falls on step s + taken, whose bound is hi - s - taken;
                # past the block's last step that bound is below lo
                if v < hi - s - taken:
                    ok[w] = True
                    taken += 1
            used = np.flatnonzero(ok)[:m]
            if len(used) == m:
                break
            want *= 2
        j[lo - 1 : hi][::-1] = r[used]
        pos += int(used[-1]) + 1
        hi = lo - 1
    if saved:
        state, first = [s for s in saved if s[1] <= start + pos][-1]
        rng.setstate(state)
        rng.getrandbits(32 * (start + pos - first))
    return j


def _window(m: int, k: int, lo: int) -> int:
    """Words read at first for m steps of bit length k whose bounds are at
    least lo: their expected count is at most m 2^k / lo, and each step's
    count has variance below 2, so a window this long rarely falls short;
    one that does is read again twice as long."""
    return int(m * (1 << k) / lo * 1.02 + 4 * math.sqrt(m)) + 32


def _swap(j: np.ndarray) -> np.ndarray:
    """range(p) after the swaps x[i], x[j[i]] for i = p-1 down to 1.

    Slot i is final after its own swap, and then holds what slot j[i] held
    just before it.  If an earlier swap s (s > i) also had j[s] = j[i], the
    latest such s put there what slot s held before its own swap; otherwise
    slot j[i] still held j[i].  What slot s held before its swap is likewise
    what the first swap t with j[t] = s put there, and s itself when none
    did: the end of a chain of rising links, found by pointer jumping.  Such
    an s has j[s] < s (or is 0), so no swap t = s has j[t] = s, and t > s.
    """
    p = len(j)
    x = np.arange(p, dtype=np.int32)
    if p < 2:
        return x
    # the swaps grouped by j and, within a group, in rising i
    key = j[1:].astype(np.int64)
    key <<= 32
    key |= np.arange(1, p)
    key.sort()
    sj = (key >> 32).astype(np.int32)
    si = key.astype(np.int32)  # the low 32 bits
    del key
    same = sj[:-1] == sj[1:]
    # link[q]: the first swap t with j[t] = q, or q itself; t = q when
    # j[q] = q, a link no chain reads
    head = np.flatnonzero(np.concatenate(([True], ~same)))
    live = sj[head]
    link = x.copy()
    link[live] = si[head]
    while len(live):
        a = link[live]
        b = link[a]
        link[live] = b
        live = live[a != b]
    at = np.flatnonzero(same)
    sj[at] = link[si[at + 1]]
    x[si] = sj
    x[0] = link[0]
    return x
