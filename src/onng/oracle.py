"""Exhaustive ground truth: all insertion orders, and all rank metrics.

Two guards keep the factorials honest: order questions are capped at
n <= 10 and rank-metric enumeration at n <= 5 ((n(n-1)/2)! pair orders,
3,628,800 at n=5).  Callers beyond the guard get a GuardError, never a
silent truncation.

Every order question is answered by one fact.  For a vertex v, let G_v be
the graph on the other vertices in which {a, b} is an edge iff {a, b} is the
strictly shortest side of the triangle (v, a, b).  Then d(v), the largest
indegree any order can force on v, is alpha(G_v), the independence number
of G_v.  The leaves of v are independent: of two G_v-neighbours, whichever
is revealed second has the other nearer than v.  And alpha(G_v) is
reachable: reveal v, then an independent set in decreasing rank to v.  The
same argument, once a set S is revealed, gives the most extra indegree v
can still collect as g(S, v) = alpha(G_v[W]), where W holds the unrevealed
vertices whose nearest member of S + {v} is v; the best-order rebuild reads
g from there.  Each G_v is one integer code, read from packed rank rows
at the slots core.pair_index gives, so a batch of metrics needs one alpha
per distinct graph, and the single-metric oracle and the full-scan search
share that engine.

The full-scan search computes, for every rank metric, the profile
d(v) = max over all insertion orders of the indegree of v, and the exact
dyadic sum over v of 2^(-d(v)), with all arithmetic in integers: sums are
scaled by 2^(n-1), so "sum > 1" is an integer comparison and the reported
values are exact Fractions.

The scan splits into independent lexicographic blocks by the rank assigned
to the pair {0, 1}; blocks are merged in block order, so the result is
identical at every parallelism degree.  One generator, ``_rank_rows``,
yields a block's rank vectors in lexicographic order, a chunk at a time:
one lexicographic head followed by one lexicographic permutation table of
at most 6! = 720 rows, so a chunk's memory is small and bounded (the
canonical scan runs in the calling process, whose peak RSS a 5,040-row
chunk's profiles raised by about 0.5 MiB).  The block scan and
``enumerate_rank_metrics`` both read their rows from it.  For n >= 3 no
relabeling but the identity fixes a strict pair order (one that moves i to
j != i moves {i, k} for any k outside {i, j}), so every relabeling class
has n! members, and exactly 2(n-2)! of them give {0, 1} rank 0: those that
carry the class's closest pair onto {0, 1}.  One rule, ``_representatives``,
keeps one of these: {0, 2} also has the least rank of the 2(n-2) pairs
{a, x} with a in {0, 1} and x >= 2, and r{0,3} < ... < r{0,n-1}.  The
relabelings that fix {0, 1} move {0, 2} onto each of those pairs, and only
those of {3, ..., n-1} fix {0, 2} too, so exactly one member of each class
qualifies.  It is also the class's lexicographic minimum: a minimum lies in
block 0, puts the least of those 2(n-2) ranks in the next flat slot,
{0, 2}, and the ranks of {0, 3}, ..., {0, n-1} rising in the slots after.
So the canonical scan and the canonical enumeration read block 0 alone,
skip every head whose ranks of {0, 2}, ..., {0, n-1} do not rise, mask
each other chunk by that rule first, and count only the representatives
evaluated.  For n <= 2 a class is a single metric, the rule
keeps every row, and the canonical scan is the full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

import numpy as np

from .core import GuardError, Order, RankedMetric, pair_index

ORDER_ENUM_MAX_N = 10
METRIC_ENUM_MAX_N = 5


def _check_order_guard(n: int) -> None:
    if n > ORDER_ENUM_MAX_N:
        raise GuardError(f"n={n} exceeds the order-enumeration guard (n <= {ORDER_ENUM_MAX_N})")


def _check_metric_guard(n: int) -> None:
    if n > METRIC_ENUM_MAX_N:
        raise GuardError(f"n={n} exceeds the metric-enumeration guard (n <= {METRIC_ENUM_MAX_N})")


@lru_cache(maxsize=None)
def _side_pairs(n: int, v: int) -> np.ndarray:
    """The pairs {a, c} of vertices other than v, in lexicographic order, as
    a read-only (5, C(n-1, 2)) index array: column i holds a, c and the
    slots of {a, c}, {v, a} and {v, c} in a packed rank row (pair_index);
    pair i is bit i of G_v's code."""
    cols = [(a, c, *(pair_index(min(x, y), max(x, y), n) for x, y in ((a, c), (v, a), (v, c))))
            for a, c in combinations([u for u in range(n) if u != v], 2)]
    pairs = np.array(cols, dtype=np.intp).reshape(-1, 5).T
    pairs.flags.writeable = False
    return pairs


def _graph_codes(r: np.ndarray, n: int) -> np.ndarray:
    """G_v for a batch of packed rank rows r, shape (B, n(n-1)/2), as one
    integer code per (metric, v), shape (B, n), read at the slots
    _side_pairs gives."""
    if (bits := (n - 1) * (n - 2) // 2) > 63:
        raise OverflowError(f"n={n}: G_v has {bits} possible edges, more than an int64 code holds")
    codes = np.empty((r.shape[0], n), dtype=np.int64)
    for v in range(n):
        side, va, vc = (r[:, slots] for slots in _side_pairs(n, v)[2:])
        edge = (side < va) & (side < vc)
        codes[:, v] = (edge.astype(np.int64) << np.arange(bits)).sum(axis=1)
    return codes


def _graph(code: int, n: int, v: int) -> list[int]:
    """G_v decoded from its code: one neighbour bitmask per vertex label."""
    adj = [0] * n
    for i, (a, c) in enumerate(_side_pairs(n, v)[:2].T.tolist()):
        if code >> i & 1:
            adj[a] |= 1 << c
            adj[c] |= 1 << a
    return adj


def _alpha(adj: list[int], cand: int) -> int:
    """Independence number of the graph induced on the bitmask cand: branch
    on a vertex of largest degree, leaving it out or taking it."""
    if not cand:
        return 0
    deg, u = max(((adj[u] & cand).bit_count(), u) for u in range(len(adj)) if cand >> u & 1)
    if deg == 0:
        return cand.bit_count()
    rest = cand & ~(1 << u)
    return max(_alpha(adj, rest), 1 + _alpha(adj, rest & ~adj[u]))


@lru_cache(maxsize=1 << 12)
def _code_alpha(code: int, n: int) -> int:
    """alpha of the graph a code names, read with v = n - 1 (labels 0..n-2);
    memoised, since a scan meets the same few codes in every chunk."""
    return _alpha(_graph(code, n, n - 1), (1 << n - 1) - 1)


def _profiles(r: np.ndarray, n: int) -> np.ndarray:
    """d(v) = alpha(G_v) for a batch of flat rank vectors r, shape (B, n).

    One alpha serves every (metric, v) whose G_v has the same code."""
    codes, inverse = np.unique(_graph_codes(r, n), return_inverse=True)
    alphas = np.array([_code_alpha(int(c), n) for c in codes], dtype=np.int64)
    return alphas[inverse].reshape(r.shape[0], n)


def _g(rows: list[list[int]], adj: list[int], s: int, v: int) -> int:
    """g(S, v) = alpha(G_v[W]) for the revealed set S (a non-empty bitmask)
    and G_v's adjacency adj: W holds the vertices outside S + {v} whose
    nearest member of S + {v} is v."""
    t = [u for u in range(len(rows)) if (s | 1 << v) >> u & 1]
    w = sum(1 << x for x in range(len(rows)) if x not in t and min(t, key=rows[x].__getitem__) == v)
    return _alpha(adj, w)


def best_order_exhaustive(m: RankedMetric) -> tuple[Order, int]:
    """The first order (in lexicographic enumeration) achieving the maximum
    possible max indegree, together with that value.

    Rebuilt greedily from g: reveal the smallest vertex that keeps max over
    v of (indegree so far + g) at the optimum."""
    _check_order_guard(m.n)
    n = m.n
    codes = _graph_codes(m.pair_ranks()[None], n)[0].tolist()
    best = max(_code_alpha(c, n) for c in codes)
    adj = [_graph(c, n, v) for v, c in enumerate(codes)]
    rows = [[m.rank(a, b) if a != b else 0 for b in range(n)] for a in range(n)]  # diagonal never read
    order: list[int] = []
    indeg = [0] * n
    mask = 0
    for _ in range(n):
        for w in range(n):
            if mask >> w & 1:
                continue
            step = indeg[:]
            if order:
                step[min(order, key=rows[w].__getitem__)] += 1
            if max(d + _g(rows, adj[v], mask | 1 << w, v) for v, d in enumerate(step)) == best:
                break
        else:
            raise RuntimeError(f"no vertex after the prefix {tuple(order)} keeps the optimum {best}")
        order.append(w)
        indeg = step
        mask |= 1 << w
    return tuple(order), best


def degree_profile_exhaustive(m: RankedMetric) -> tuple[int, ...]:
    """d(v) = max over all insertion orders of the indegree of v."""
    _check_order_guard(m.n)
    return tuple(_profiles(m.pair_ranks()[None], m.n)[0].tolist())


def problem1_sum(m: RankedMetric) -> Fraction:
    """Exact dyadic sum over v of 2^(-d(v)); floats never enter."""
    profile = degree_profile_exhaustive(m)
    return sum((Fraction(1, 2**d) for d in profile), Fraction(0))


# ---------------------------------------------------------------- metrics --


@dataclass(frozen=True)
class Problem1Report:
    """Outcome of a full scan.  ``orderings_scanned`` counts the pair
    orderings evaluated: all of them, or one representative per relabeling
    class, and ``witnesses_at_one`` counts among those alike.
    Counterexamples carry the flat rank vector verbatim and the offending
    exact sum, in lexicographic order; a canonical one is its class's
    lexicographic minimum."""

    n: int
    canonical: bool
    orderings_scanned: int
    max_sum: Fraction
    witnesses_at_one: int
    counterexamples: tuple[tuple[tuple[int, ...], Fraction], ...]


@lru_cache(maxsize=None)
def _perm_table(k: int) -> np.ndarray:
    """Every permutation of range(k) in lexicographic order, one read-only
    int8 row each: the permutations of range(m - 1) are extended by each
    head f, with the values f and above shifted up by one."""
    t = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, k + 1):
        heads = np.repeat(np.arange(m, dtype=np.int8), len(t))
        tails = np.tile(t, (m, 1))
        t = np.column_stack((heads, tails + (tails >= heads[:, None])))
    t.flags.writeable = False
    return t


def _representatives(r: np.ndarray, n: int) -> np.ndarray:
    """Which flat rank vectors of a batch r, shape (B, n(n-1)/2), n >= 2,
    represent their relabeling class: r{0,1} = 0, r{0,2} is the least rank
    of the pairs {a, x} with a in {0, 1} and x >= 2 (flat slots 1 .. 2n-4,
    {0, 2} first), and r{0,3} < ... < r{0,n-1} (slots 2 .. n-2)."""
    side = r[:, 1 : 2 * n - 3]
    rising = r[:, 3 : n - 1] > r[:, 2 : n - 2]
    return (r[:, 0] == 0) & (side[:, 1:] > side[:, :1]).all(axis=1) & rising.all(axis=1)


def _rank_rows(n: int, prefix: tuple[int, ...], canonical: bool = False) -> Iterator[np.ndarray]:
    """The flat rank vectors whose leading ranks are prefix, in lexicographic
    order, as int8 chunks of shape (B, n(n-1)/2): for each head of the first
    unused ranks, the other k <= 6 permuted by the table.  With ``canonical``
    (n >= 2, prefix (0,)) a head whose ranks of {0, 2}, {0, 3}, ... do not
    rise is skipped, as ``_representatives`` keeps none of its rows; a chunk
    keeps only the rows it marks, and a chunk left empty is skipped."""
    p = n * (n - 1) // 2
    rest = [v for v in range(p) if v not in prefix]
    k = min(len(rest), 6)
    table = _perm_table(k)
    for head in permutations(rest, len(rest) - k):
        if canonical and any(a > b for a, b in zip(head, head[1 : n - 2])):
            continue
        r = np.empty((len(table), p), dtype=np.int8)
        r[:, : len(prefix)] = prefix
        r[:, len(prefix) : p - k] = head
        r[:, p - k :] = np.array([v for v in rest if v not in head], dtype=np.int8)[table]
        if canonical:
            r = r[_representatives(r, n)]
        if len(r):
            yield r


def enumerate_rank_metrics(n: int, canonical: bool = False) -> Iterator[RankedMetric]:
    """All (n(n-1)/2)! rank metrics in lexicographic order of their flat rank
    vectors; with ``canonical`` only the lexicographically minimal
    representative of each vertex-relabeling class, in the same order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_metric_guard(n)
    if n == 1:
        yield RankedMetric(1, ())  # no pair: one metric, its own class
        return
    # a class minimum gives its closest pair rank 0, so it lies in block 0
    for rows in _rank_rows(n, (0,) if canonical else (), canonical):
        yield from (RankedMetric(n, t) for t in rows)


def _scan_block(args, canonical: bool = False) -> tuple[int, int, int, list]:
    """Scan the lexicographic block whose leading flat ranks (pair {0, 1},
    then {0, 2}, ...) are the given prefix, chunk by chunk from
    ``_rank_rows``.  With ``canonical`` only the block's class
    representatives are evaluated.

    Returns (evaluated, max_scaled, witnesses, counterexamples); sums are
    scaled by 2^(n-1) so everything stays in integers.
    """
    n, prefix = args
    target = 2 ** (n - 1)
    lut = np.array([2 ** (n - 1 - t) if t <= n - 1 else 0 for t in range(n + 1)], dtype=np.int64)
    evaluated = 0
    max_scaled = -1
    witnesses = 0
    cex: list[tuple[tuple[int, ...], Fraction]] = []
    for rows in _rank_rows(n, prefix, canonical):
        evaluated += rows.shape[0]
        scaled = lut[_profiles(rows, n)].sum(axis=1)
        max_scaled = max(max_scaled, int(scaled.max()))
        witnesses += int((scaled == target).sum())
        for idx in np.flatnonzero(scaled > target):
            cex.append((tuple(int(x) for x in rows[idx]), Fraction(int(scaled[idx]), target)))
    return evaluated, max_scaled, witnesses, cex


def problem1_search(n: int, canonical: bool = False, jobs: int = 1) -> Problem1Report:
    """Scan every rank metric on n vertices, or with ``canonical`` one
    representative per relabeling class, and report the maximum of the
    exact dyadic sum over v of 2^(-d(v)), all equality witnesses, and any
    counterexample exceeding 1.

    The full scan is one lexicographic block per rank of {0, 1}; the
    canonical scan is block 0 alone, masked, so it starts no process pool.
    The result is identical for every ``jobs`` value; parallelism only
    distributes the blocks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_metric_guard(n)
    if n == 1:
        return Problem1Report(1, canonical, 1, Fraction(1), 1, ())
    prefixes = [(0,)] if canonical else [(r,) for r in range(n * (n - 1) // 2)]
    args = [((n, prefix), canonical) for prefix in prefixes]
    if jobs > 1 and len(args) > 1:
        import multiprocessing  # only here: every other command skips its import

        with multiprocessing.Pool(processes=min(jobs, len(args))) as pool:
            results = pool.starmap(_scan_block, args)
    else:
        results = [_scan_block(*a) for a in args]
    return Problem1Report(
        n=n,
        canonical=canonical,
        orderings_scanned=sum(r[0] for r in results),
        max_sum=Fraction(max(r[1] for r in results), 2 ** (n - 1)),
        witnesses_at_one=sum(r[2] for r in results),
        counterexamples=tuple(c for r in results for c in r[3]),
    )
