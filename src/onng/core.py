"""Ordinal distances and ordered nearest-neighbor graph construction.

An ordered nearest-neighbor graph (ONNG) is built by revealing vertices one
at a time: every vertex after the first sends a single directed edge to the
closest vertex among those already revealed.  "Closest" is purely ordinal:
a RankedMetric is a strict total order on all unordered vertex pairs, and a
point set ranks its pairs by exact squared distance, ties broken by the
index pair.  Strictness stands in for the usual general-position assumption
(no isosceles triples): every nearest-predecessor choice is unique.

A point set stores one coordinate form, its axes: exact integers on a
common grid, one row per axis, built once at construction.  One distance
kernel reads them, sq_dist_rows, which writes each block into two
preallocated scratch buffers of about SCRATCH entries, so no scan's memory
grows with its length.  Every comparison a strategy makes is between two
pairs that share a vertex, and between {v, a} and {v, b} the tie-break by
index pair is simply "smaller neighbour id".  So one key source,
key_source, answers them all from ranks or exact squared distances, and
build_onng, path_order and the Ramsey process, which read only it, never
rank all pairs of a point set.  metric_from_points builds the full
RankedMetric only for the exhaustive oracle and as the tests' reference.

Everything here is an immutable value after construction and every operation
is a pure function of its arguments, so no locking or shared state is needed
anywhere downstream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

# An insertion order is a plain tuple: a permutation of the vertex ids 0..n-1.
Order = tuple[int, ...]


class GuardError(ValueError):
    """Raised when a request exceeds a size guard."""


# Largest point set metric_from_points ranks: it holds n(n-1)/2 pairs.
RANK_PAIRS_MAX_N = 2**13
# Entries in each of the two buffers a points distance scan writes into.
SCRATCH = 2**18
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
    blocks hold about SCRATCH entries, and at least one row of n."""
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


def key_source(data: PointSet | RankedMetric):
    """How the pairs {v, a} and {v, b} compare, for either input: (table,
    keys, top).  table(ids) lays vertices out as columns, ids in row 0 and
    below them what keys reads (a point set's axes).  keys(a, b) is the
    (len a, len b) array of exact keys of the pairs {a_i, b_j}: ranks, or
    squared distances in scratch buffers of max(SCRATCH, 2n) that the next
    call overwrites.  Those rank as metric_from_points ranks them when the
    caller breaks a tie to the smaller id (the first minimum over ascending
    ids, or a strict comparison).  top exceeds every key."""
    n = data.n
    if isinstance(data, RankedMetric):
        mat, below, top = data._matrix, np.empty((0, n), dtype=np.intp), n * (n - 1) // 2

        def keys(a, b):
            return mat[a[0][:, None], b[0]]
    else:
        below, buf = data.axes, scratch(data.axes, max(SCRATCH, 2 * n))
        top = sum(int(c.max()) ** 2 for c in below) + 1

        def keys(a, b):
            return sq_dist_rows(a[1:], b[1:], buf)

    def table(ids):
        return np.vstack([ids, below[:, ids]])

    return table, keys, top


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
    predecessor, read from key_source; the choice is unique and equals the
    one on metric_from_points.

    A block of positions [p0, p1) reads only the vertices at positions
    [0, p1), in id order, r (p0 + r) <= SCRATCH keys for r = p1 - p0; only
    the block's own vertices are masked, each from its own position on.
    """
    n = data.n
    seq = np.array(as_permutation(order, n), dtype=np.intp)
    table, keys, top = key_source(data)
    parents = np.zeros(n, dtype=np.intp)
    p0 = 1
    while p0 < n:
        p1 = min(n, p0 + max(1, (math.isqrt(p0 * p0 + 4 * SCRATCH) - p0) // 2))
        cols = np.sort(seq[:p1])  # in id order: a row's first minimum breaks ties
        d = keys(table(seq[p0:p1]), table(cols))
        for j, c in enumerate(np.searchsorted(cols, seq[p0:p1]).tolist()):
            d[: j + 1, c] = top  # position p0 + j is no predecessor of p0..p0 + j
        parents[p0:p1] = cols[d.argmin(axis=1)]
        p0 = p1
    parent = dict(zip(seq[1:].tolist(), parents[1:].tolist()))
    indeg = np.bincount(parents[1:], minlength=n)
    return OrderedNNG(n, parent, tuple(indeg.tolist()))


def max_indegree(g: OrderedNNG) -> int:
    return max(g.indegree)


def path_order(data: PointSet | RankedMetric, tail: int) -> Order:
    """Order whose ONNG is a single directed path ending at the first vertex.

    Built backwards from the chosen tail: repeatedly step to the nearest
    not-yet-chosen vertex, then reverse.  Revealed forwards, every new vertex
    is strictly closer to its chain predecessor than to anything revealed
    earlier, so indegrees never exceed 1 and the tail is the path's source.
    """
    n = data.n
    if not 0 <= tail < n:
        raise ValueError(f"tail {tail} out of range for n={n}")
    # The unchosen vertices stay compacted in id order in a copy of the
    # table of all, so a row's first minimum is the smaller id on equal
    # distances.
    table, keys, _ = key_source(data)
    every = table(np.arange(n))
    alive = every.copy()
    alive[:, tail:-1] = alive[:, tail + 1 :]
    chain = [tail]
    for m in range(n - 1, 0, -1):
        v = chain[-1]
        k = int(keys(every[:, v : v + 1], alive[:, :m]).argmin())
        chain.append(int(alive[0, k]))
        alive[:, k : m - 1] = alive[:, k + 1 : m]
    chain.reverse()
    return tuple(chain)


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
