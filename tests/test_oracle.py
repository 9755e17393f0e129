"""Exhaustive enumeration: guards, frozen small cases, and the dual-route
checks that the independent-set oracle agrees with a plain sweep over all
orders and with the frozen subset DP of tests/conftest.py."""

import math
import multiprocessing
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onng import (
    GuardError,
    PointSet,
    RankedMetric,
    best_order_exhaustive,
    build_onng,
    degree_profile_exhaustive,
    enumerate_rank_metrics,
    gen_hard_line,
    max_indegree,
    metric_from_points,
    oracle,
    pair_index,
    problem1_search,
    problem1_sum,
    random_rank_metric,
)
from onng.oracle import _g, _graph, _graph_codes, _perm_table, _profiles, _representatives, _scan_block

from conftest import (
    dense_ranks,
    reference_best_order,
    reference_completion_table,
    reference_canonical_search,
    reference_profile,
    reference_scan_block,
    relabel_class,
    relabel_classes,
)


def _reference(m):
    """(profile, first best order, value) by building every order's ONNG."""
    profile = [0] * m.n
    best_order, best = None, -1
    for order in permutations(range(m.n)):
        g = build_onng(m, order)
        profile = [max(a, b) for a, b in zip(profile, g.indegree)]
        if max_indegree(g) > best:
            best_order, best = order, max_indegree(g)
    return tuple(profile), best_order, best


def test_guards_refuse_oversize():
    with pytest.raises(GuardError):
        degree_profile_exhaustive(random_rank_metric(11, random.Random(0)))
    with pytest.raises(GuardError):
        best_order_exhaustive(random_rank_metric(11, random.Random(0)))
    with pytest.raises(GuardError):
        list(enumerate_rank_metrics(6))
    with pytest.raises(GuardError):
        problem1_search(6)
    with pytest.raises(ValueError):
        problem1_search(0)


def test_profile_and_best_line_three_points():
    m = metric_from_points(PointSet(1, ((0,), (1,), (3,))))
    assert degree_profile_exhaustive(m) == (2, 2, 1)
    order, val = best_order_exhaustive(m)
    assert val == 2
    assert order == (0, 2, 1)  # first maximizer in lexicographic order
    assert max_indegree(build_onng(m, order)) == 2
    assert problem1_sum(m) == Fraction(1)


def test_profile_singleton_and_pair():
    assert degree_profile_exhaustive(RankedMetric(1, ())) == (0,)
    assert problem1_sum(RankedMetric(1, ())) == Fraction(1)
    assert degree_profile_exhaustive(RankedMetric(2, (0,))) == (1, 1)
    assert problem1_sum(RankedMetric(2, (0,))) == Fraction(1)


def test_enumerate_counts_and_canonical_reduction():
    assert sum(1 for _ in enumerate_rank_metrics(3)) == 6
    assert sum(1 for _ in enumerate_rank_metrics(4)) == 720
    canon3 = list(enumerate_rank_metrics(3, canonical=True))
    assert len(canon3) == 1
    canon4 = list(enumerate_rank_metrics(4, canonical=True))
    assert len(canon4) == 30  # 720 metrics / 24 relabelings, the action is free
    # every canonical representative puts the closest pair at {0, 1}
    assert all(m.rank(0, 1) == 0 for m in canon4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerations_are_lexicographic(n):
    # the full enumeration is every pair order in lexicographic order; the
    # canonical one is each class's least member, classes by that member
    full = [tuple(m.pair_ranks().tolist()) for m in enumerate_rank_metrics(n)]
    assert full == list(permutations(range(n * (n - 1) // 2)))
    canon = [tuple(m.pair_ranks().tolist()) for m in enumerate_rank_metrics(n, canonical=True)]
    assert canon == [members[0] for members in relabel_classes(n)]


def test_canonical_representative_is_orbit_minimum():
    # the full orbit: all n! relabelings, not only those that fix {0, 1}
    n = 4
    for m in enumerate_rank_metrics(n, canonical=True):
        t = tuple(m.pair_ranks().tolist())
        for sigma in permutations(range(n)):
            relabeled = [0] * len(t)
            for i in range(n):
                for j in range(i + 1, n):
                    relabeled[pair_index(*sorted((sigma[i], sigma[j])), n)] = m.rank(i, j)
            assert t <= tuple(relabeled)


def test_profiles_batch_matches_python_oracle_n4():
    metrics = list(enumerate_rank_metrics(4))
    flat = np.array([m.pair_ranks().tolist() for m in metrics], dtype=np.int8)
    batch = _profiles(flat, 4)
    for row, m in zip(batch, metrics):
        assert tuple(int(x) for x in row) == _reference(m)[0]


def test_profiles_batch_matches_python_oracle_n5_sample():
    rng = random.Random(31)
    metrics = [random_rank_metric(5, rng) for _ in range(40)]
    flat = np.array([m.pair_ranks().tolist() for m in metrics], dtype=np.int8)
    batch = _profiles(flat, 5)
    for row, m in zip(batch, metrics):
        assert tuple(int(x) for x in row) == _reference(m)[0]


@st.composite
def _small_metrics(draw):
    """Random rank metrics, and tie-heavy integer lattices whose ties are
    broken by the index pair, on at most 7 vertices."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return random_rank_metric(n, random.Random(draw(st.integers(0, 2**32))))
    dim = draw(st.integers(1 if n <= 3 else 2, 3))
    coord = st.tuples(*[st.integers(0, 2)] * dim)
    rows = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    return metric_from_points(PointSet(dim, tuple(rows)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_metrics())
def test_dp_oracle_matches_order_sweep(m):
    profile, order, value = _reference(m)
    assert degree_profile_exhaustive(m) == profile
    assert best_order_exhaustive(m) == (order, value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_small_metrics())
def test_completion_closed_form_matches_dp_table(m):
    # g(S, v) = alpha(G_v[W]) for every non-empty revealed set S and every v
    n = m.n
    table = reference_completion_table(m)
    rows = dense_ranks(m)
    codes = _graph_codes(np.array([rows]))[0]
    adj = [_graph(int(c), n, v) for v, c in enumerate(codes)]
    for s in range(1, 1 << n):
        assert [_g(rows, adj[v], s, v) for v in range(n)] == table[s], s


@st.composite
def _larger_metrics(draw):
    """Random rank metrics, and tie-heavy sets on a 4x4 lattice or a 4x4x4
    lattice whose ties are broken by the index pair, on 8 to 10 vertices."""
    n = draw(st.integers(8, 10))
    if draw(st.booleans()):
        return random_rank_metric(n, random.Random(draw(st.integers(0, 2**32))))
    coord = st.tuples(*[st.integers(0, 3)] * draw(st.integers(2, 3)))
    rows = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    return metric_from_points(PointSet(len(rows[0]), tuple(rows)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_larger_metrics())
@example(metric_from_points(gen_hard_line(1)))
@example(metric_from_points(gen_hard_line(2)))
@example(metric_from_points(gen_hard_line(3)))
def test_oracle_matches_frozen_dp(m):
    # past n = 7 an n! sweep is too slow; the subset DP is the reference
    assert degree_profile_exhaustive(m) == reference_profile(m)
    assert best_order_exhaustive(m) == reference_best_order(m)


def test_problem1_search_tiny_cases():
    r1 = problem1_search(1)
    assert (r1.orderings_scanned, r1.max_sum, r1.witnesses_at_one) == (1, Fraction(1), 1)
    r2 = problem1_search(2)
    assert (r2.orderings_scanned, r2.max_sum, r2.witnesses_at_one) == (1, Fraction(1), 1)
    r3 = problem1_search(3)
    assert (r3.orderings_scanned, r3.max_sum, r3.witnesses_at_one) == (6, Fraction(1), 6)
    assert r3.counterexamples == ()


def test_problem1_search_n4_full_and_canonical():
    full = problem1_search(4)
    assert full.orderings_scanned == 720
    assert full.max_sum == Fraction(1)
    assert full.counterexamples == ()
    assert full.witnesses_at_one == 336
    canon = problem1_search(4, canonical=True)
    assert canon.orderings_scanned == 30
    assert canon.max_sum == Fraction(1)
    assert canon.witnesses_at_one == 14


def test_problem1_search_is_jobs_invariant():
    assert problem1_search(4, jobs=3) == problem1_search(4, jobs=1)
    assert problem1_search(3, canonical=True, jobs=2) == problem1_search(3, canonical=True)


def test_canonical_search_starts_no_pool(monkeypatch):
    # the canonical scan is one block, so --jobs has nothing to spread
    want = {n: problem1_search(n, canonical=True) for n in range(2, 6)}

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    for n in range(2, 6):
        assert problem1_search(n, canonical=True, jobs=3) == want[n], n
    with pytest.raises(AssertionError, match="pool was started"):
        problem1_search(3, jobs=3)  # the full scan still spreads its blocks


def test_problem1_search_agrees_with_object_route_n3():
    # the vectorized scan and the per-metric Fraction oracle must agree
    sums = [problem1_sum(m) for m in enumerate_rank_metrics(3)]
    assert all(s == Fraction(1) for s in sums)
    r = problem1_search(3)
    assert r.witnesses_at_one == len(sums)


def test_hard_line_metric_is_an_equality_witness():
    m = metric_from_points(gen_hard_line(2))
    assert problem1_sum(m) == Fraction(1)


def test_scan_block_covers_its_slice():
    # one lexicographic block of n=3: metrics whose {0,1} rank is fixed
    evaluated, max_scaled, witnesses, cex = _scan_block((3, (1,)))
    assert evaluated == 2
    assert max_scaled == 4  # scaled by 2^(n-1)
    assert witnesses == 2
    assert cex == []


def test_canonical_search_matches_canonical_enumeration():
    # the search evaluates one representative per class; the enumeration
    # yields each class's lexicographic minimum
    for n in (1, 2, 3, 4):
        sums = [problem1_sum(m) for m in enumerate_rank_metrics(n, canonical=True)]
        rep = problem1_search(n, canonical=True)
        assert rep.orderings_scanned == len(sums)
        assert rep.witnesses_at_one == sum(s == 1 for s in sums)
        assert rep.max_sum == max(sums)


def test_graph_codes_refuse_more_bits_than_int64_holds():
    # G_v has C(n-1, 2) possible edges: 55 at n = 12, 66 at n = 13
    r12, r13 = (np.array([dense_ranks(random_rank_metric(n, random.Random(5)))]) for n in (12, 13))
    assert _graph_codes(r12).shape == (1, 12)
    with pytest.raises(OverflowError, match="66 possible edges"):
        _graph_codes(r13)


def test_best_order_raises_when_no_vertex_keeps_the_optimum(monkeypatch):
    # a g that falls short everywhere leaves the greedy rebuild no candidate
    m = random_rank_metric(5, random.Random(3))
    monkeypatch.setattr(oracle, "_g", lambda rows, adj, s, v: -1)
    with pytest.raises(RuntimeError, match="keeps the optimum"):
        best_order_exhaustive(m)


def test_perm_table_is_lexicographic():
    for k in range(8):
        table = _perm_table(k)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert [tuple(row) for row in table.tolist()] == list(permutations(range(k)))


def _blocks(n):
    """Every block problem1_search scans at n >= 2, full and canonical."""
    p = n * (n - 1) // 2
    return [(n, (r,)) for r in range(p)] + [(n, (0, r)) for r in range(1, p)]


def test_scan_block_matches_frozen_scan():
    blocks = [b for n in range(2, 5) for b in _blocks(n)] + [(5, (0, 1)), (5, (0, 9)), (5, (4,))]
    for block in blocks:
        assert _scan_block(block) == reference_scan_block(block), block


def test_scan_counterexamples_keep_their_order(monkeypatch):
    # no rank metric on n <= 5 exceeds 1, so lower d(v) on a third of the
    # rows: the counterexamples must come out of both scans alike, in order
    profiles = oracle._profiles

    def short(r, n):
        d = profiles(r, n)
        return np.where((r[:, -2:-1] + r[:, -1:]) % 3 == 0, np.maximum(d - 1, 0), d)

    monkeypatch.setattr(oracle, "_profiles", short)
    for block in _blocks(4) + [(5, (0, 9))]:
        new = _scan_block(block)
        assert new[3], block
        assert new == reference_scan_block(block), block
    for canonical in (False, True):
        rep = problem1_search(4, canonical=canonical)
        assert rep.counterexamples and rep.max_sum > 1
        assert problem1_search(4, canonical=canonical, jobs=3) == rep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_search_matches_frozen_block0_search(n):
    want = reference_canonical_search(n)
    for jobs in (1, 3):
        assert problem1_search(n, canonical=True, jobs=jobs) == want, jobs
    if n == 5:
        assert (want.orderings_scanned, want.witnesses_at_one, want.max_sum) == (30_240, 2_544, Fraction(1))


@pytest.mark.parametrize(
    "n, lowered", [(4, (1, 2, 3, 3)), (4, (2, 2, 2, 2)), (5, (2, 2, 2, 4, 4)), (5, (1, 3, 3, 3, 3))]
)
def test_canonical_counterexamples_match_frozen_search(monkeypatch, n, lowered):
    # no rank metric on n <= 5 exceeds 1, so lower every d(v) by one on the
    # rows whose sorted profile is `lowered`: a relabeling permutes the
    # profile, so every member of a class is lowered or none is, and each
    # class must be reported once, by its lexicographic minimum, in order
    profiles = oracle._profiles

    def short(r, n):
        d = profiles(r, n)
        return d - (np.sort(d, axis=1) == lowered).all(axis=1)[:, None]

    monkeypatch.setattr(oracle, "_profiles", short)
    want = reference_canonical_search(n)
    assert want.counterexamples and want.max_sum > 1
    for jobs in (1, 3):
        assert problem1_search(n, canonical=True, jobs=jobs) == want, jobs


@pytest.mark.parametrize("n", [3, 4])
def test_every_class_has_one_representative(n):
    classes = relabel_classes(n)
    assert len(classes) == math.factorial(n * (n - 1) // 2) // math.factorial(n)
    for members in classes:
        assert len(members) == math.factorial(n)
        # the one representative is the class's least member, as the scan
        # reports a counterexample
        keep = _representatives(np.array(members, dtype=np.int8), n)
        assert keep.tolist() == [True] + [False] * (len(members) - 1), members[0]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.permutations(range(10)))
def test_every_n5_class_has_one_representative(t):
    members = sorted(relabel_class(tuple(t), 5))
    assert len(members) == 120
    keep = _representatives(np.array(members, dtype=np.int8), 5)
    assert keep.tolist() == [True] + [False] * 119


def test_canonical_scan_evaluates_one_row_per_class(monkeypatch):
    # the scan schedules block 0 alone, where every class minimum lies, and
    # hands _profiles one row per class, each counted once
    scan, profiles = oracle._scan_block, oracle._profiles
    blocks, rows = [], []
    monkeypatch.setattr(oracle, "_scan_block", lambda args, canonical: blocks.append(args[1]) or scan(args, canonical))
    monkeypatch.setattr(oracle, "_profiles", lambda r, n: rows.append(len(r)) or profiles(r, n))
    for n, classes in ((2, 1), (3, 1), (4, 30), (5, 30_240)):
        blocks.clear()
        rows.clear()
        rep = problem1_search(n, canonical=True)
        assert rep.orderings_scanned == sum(rows) == classes
        assert blocks == [(0,)], n


def test_scan_block_peak_memory_is_bounded():
    # a chunk is at most 6! = 720 rows, so its codes, masks and shifted
    # bits stay near 0.25 MiB however large the block; 5,040-row chunks
    # took 1.3 MiB, which the canonical scan added to the caller's peak
    _scan_block((5, (0, 1)))  # fill the tables and alpha caches first
    tracemalloc.start()
    try:
        result = _scan_block((5, (4,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[0] == 362_880
    assert peak < 2**20, peak
