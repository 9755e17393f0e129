"""Exhaustive ground truth: all insertion orders, and all rank metrics.

Two guards keep the factorials honest: order questions are capped at
n <= 10 and rank-metric enumeration at n <= 5 ((n(n-1)/2)! pair orders,
3,628,800 at n=5).  Callers beyond the guard get a GuardError, never a
silent truncation.

Every order question is answered by one subset DP in the style of
Held & Karp (1962): the completion table g(S, v), the most extra indegree
v can still collect once the vertex set S is revealed, covers all n!
orders in O(2^n n^2) work.  It is vectorized over batches of metrics, so
the single-metric oracle and the full-scan search share it.

The full-scan search computes, for every rank metric, the profile
d(v) = max over all insertion orders of the indegree of v, and the exact
dyadic sum over v of 2^(-d(v)), with all arithmetic in integers: sums are
scaled by 2^(n-1), so "sum > 1" is an integer comparison and the reported
values are exact Fractions.

The scan splits into independent lexicographic blocks by the rank assigned
to the pair {0, 1}; blocks are merged in block order, so the result is
identical at every parallelism degree.  A canonical scan needs only the
blocks where {0, 1} has rank 0, split further by the rank of {0, 2}.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, islice, permutations
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
def _layer_tables(n: int):
    """Index tables for the subset DP, one entry per popcount k = n-1 .. 1.

    For the L sets S of size k (``masks``) and the n-k vertices w outside
    each: ``sups`` holds S | {w}, ``cols`` the flat pair index of {w, u} for
    every member u of S, and ``members`` those u.
    """
    layers = []
    for k in range(n - 1, 0, -1):
        sets = list(combinations(range(n), k))
        masks = [sum(1 << u for u in s) for s in sets]
        outs = [[w for w in range(n) if w not in s] for s in sets]
        sups = [[mask | 1 << w for w in o] for mask, o in zip(masks, outs)]
        cols = [[[pair_index(min(u, w), max(u, w), n) for u in s] for w in o] for s, o in zip(sets, outs)]
        layers.append(
            (np.array(masks), np.array(sups), np.array(cols), np.array(sets, dtype=np.int8))
        )
    return layers


def _completion_tables(r: np.ndarray, n: int) -> np.ndarray:
    """Completion tables for a batch of flat rank vectors r, shape (B, p).

    g[b, S, v] is the most extra indegree v can still collect once the
    vertex set S (a bitmask) is revealed: g(all) = 0, and
    g(S) = max over w not in S of [nn(w, S) = v] + g(S | {w}).  The last
    vertex revealed attaches to its nearest already-revealed vertex whatever
    order those came in, so one pass over the subsets covers all n! orders.
    Only non-empty S are filled.
    """
    b = r.shape[0]
    g = np.zeros((b, 1 << n, n), dtype=np.int8)
    vs = np.arange(n, dtype=np.int8)
    for masks, sups, cols, members in _layer_tables(n):
        amin = r[:, cols].argmin(axis=3)  # (B, L, n-k); ranks are distinct
        nn = members[np.arange(len(masks))[:, None], amin]  # (B, L, n-k)
        cand = g[:, sups] + (nn[..., None] == vs)  # (B, L, n-k, n)
        g[:, masks] = cand.max(axis=2)
    return g


def _profiles(r: np.ndarray, n: int) -> np.ndarray:
    """d(v) = max over first vertices u of g({u}, v), shape (B, n)."""
    return _completion_tables(r, n)[:, [1 << u for u in range(n)]].max(axis=1)


def best_order_exhaustive(m: RankedMetric) -> tuple[Order, int]:
    """The first order (in lexicographic enumeration) achieving the maximum
    possible max indegree, together with that value.

    Rebuilt greedily from the completion table: reveal the smallest vertex
    that keeps max over v of (indegree so far + g) at the optimum."""
    _check_order_guard(m.n)
    n = m.n
    g = _completion_tables(np.array([m.pair_rank_list()]), n)[0].tolist()
    best = max(max(g[1 << u]) for u in range(n))
    rows = m.matrix_rows()
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
            if max(d + e for d, e in zip(step, g[mask | 1 << w])) == best:
                break
        order.append(w)
        indeg = step
        mask |= 1 << w
    return tuple(order), best


def degree_profile_exhaustive(m: RankedMetric) -> tuple[int, ...]:
    """d(v) = max over all insertion orders of the indegree of v."""
    _check_order_guard(m.n)
    return tuple(_profiles(np.array([m.pair_rank_list()]), m.n)[0].tolist())


def problem1_sum(m: RankedMetric) -> Fraction:
    """Exact dyadic sum over v of 2^(-d(v)); floats never enter."""
    profile = degree_profile_exhaustive(m)
    return sum((Fraction(1, 2**d) for d in profile), Fraction(0))


# ---------------------------------------------------------------- metrics --


@lru_cache(maxsize=None)
def _relabel_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """For each non-identity vertex relabeling s, the index map M with
    relabeled[q] = t[M[q]] for flat rank vectors t."""
    p = n * (n - 1) // 2
    maps = []
    for sigma in permutations(range(n)):
        if sigma == tuple(range(n)):
            continue
        m = [0] * p
        for i in range(n):
            for j in range(i + 1, n):
                si, sj = sigma[i], sigma[j]
                if si > sj:
                    si, sj = sj, si
                m[pair_index(si, sj, n)] = pair_index(i, j, n)
        maps.append(tuple(m))
    return tuple(maps)


def enumerate_rank_metrics(n: int, canonical: bool = False) -> Iterator[RankedMetric]:
    """All (n(n-1)/2)! rank metrics in lexicographic order of their flat rank
    vectors; with ``canonical`` only the lexicographically minimal
    representative of each vertex-relabeling class is yielded."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_metric_guard(n)
    it = permutations(range(n * (n - 1) // 2))
    while chunk := list(islice(it, 4096)):
        if canonical:
            chunk = compress(chunk, _canonical_mask(np.array(chunk, dtype=np.int8), n))
        yield from (RankedMetric(n, t) for t in chunk)


@dataclass(frozen=True)
class Problem1Report:
    """Outcome of a full scan.  ``orderings_scanned`` counts the pair
    orderings whose profile was evaluated (all of them, or one canonical
    representative per relabeling class).  Counterexamples carry the flat
    rank vector verbatim and the offending exact sum."""

    n: int
    canonical: bool
    orderings_scanned: int
    max_sum: Fraction
    witnesses_at_one: int
    counterexamples: tuple[tuple[tuple[int, ...], Fraction], ...]


def _canonical_mask(r: np.ndarray, n: int) -> np.ndarray:
    maps = _relabel_maps(n)
    b = r.shape[0]
    alive = np.ones(b, dtype=bool)
    rows = np.arange(b)
    for m in maps:
        perm_t = r[:, np.asarray(m)]
        neq = perm_t != r
        has = neq.any(axis=1)
        first = neq.argmax(axis=1)
        smaller = has & (perm_t[rows, first] < r[rows, first])
        alive &= ~smaller
        if not alive.any():
            break
    return alive


def _scan_block(args) -> tuple[int, int, int, list]:
    """Scan the lexicographic block whose leading flat ranks (pair {0, 1},
    then {0, 2}, ...) are the given prefix.

    Returns (evaluated, max_scaled, witnesses, counterexamples); sums are
    scaled by 2^(n-1) so everything stays in integers.
    """
    n, prefix, canonical = args
    p = n * (n - 1) // 2
    rest = [v for v in range(p) if v not in prefix]
    target = 2 ** (n - 1)
    lut = np.array([2 ** (n - 1 - t) if t <= n - 1 else 0 for t in range(n + 1)], dtype=np.int64)
    batch = max(1024, 8_000_000 // (n << n))  # ~8 MB of int8 completion table
    evaluated = 0
    max_scaled = -1
    witnesses = 0
    cex: list[tuple[tuple[int, ...], Fraction]] = []
    it = permutations(rest)
    while True:
        chunk = list(islice(it, batch))
        if not chunk:
            break
        r = np.empty((len(chunk), p), dtype=np.int8)
        r[:, : len(prefix)] = prefix
        if rest:
            r[:, len(prefix) :] = np.array(chunk, dtype=np.int8)
        if canonical:
            alive = _canonical_mask(r, n)
            r = r[alive]
            if r.shape[0] == 0:
                continue
        evaluated += r.shape[0]
        d = _profiles(r, n)
        scaled = lut[d].sum(axis=1)
        mx = int(scaled.max())
        if mx > max_scaled:
            max_scaled = mx
        witnesses += int((scaled == target).sum())
        for idx in np.flatnonzero(scaled > target):
            cex.append((tuple(int(x) for x in r[idx]), Fraction(int(scaled[idx]), target)))
    return evaluated, max_scaled, witnesses, cex


def problem1_search(n: int, canonical: bool = False, jobs: int = 1) -> Problem1Report:
    """Scan every rank metric on n vertices and report the maximum of the
    exact dyadic sum over v of 2^(-d(v)), all equality witnesses, and any
    counterexample exceeding 1.

    The result is identical for every ``jobs`` value; parallelism only
    distributes the lexicographic blocks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_metric_guard(n)
    if n == 1:
        return Problem1Report(1, canonical, 1, Fraction(1), 1, ())
    p = n * (n - 1) // 2
    if canonical:
        # A canonical representative is lexicographically minimal over all
        # relabelings, and relabeling its closest pair onto {0, 1} gives
        # that pair rank 0, so only blocks starting with rank 0 can hold
        # one.  They are split by the rank of {0, 2} to keep the jobs busy.
        prefixes = [(0, r) for r in range(1, p)] or [(0,)]
    else:
        prefixes = [(r,) for r in range(p)]
    args = [(n, prefix, canonical) for prefix in prefixes]
    if jobs > 1 and len(args) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(args))) as pool:
            results = pool.map(_scan_block, args)
    else:
        results = [_scan_block(a) for a in args]
    evaluated = sum(r[0] for r in results)
    max_scaled = max(r[1] for r in results)
    witnesses = sum(r[2] for r in results)
    cex: list = []
    for r in results:
        cex.extend(r[3])
    return Problem1Report(
        n=n,
        canonical=canonical,
        orderings_scanned=evaluated,
        max_sum=Fraction(max_scaled, 2 ** (n - 1)),
        witnesses_at_one=witnesses,
        counterexamples=tuple(cex),
    )
