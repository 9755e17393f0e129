"""Line point sets: the doubling hard family and the halving order."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from onng import (
    PointSet,
    build_onng,
    gen_hard_line,
    line,
    max_indegree,
    metric_from_points,
    order_line,
    truncate_hard_line,
)
from onng.line import MAX_HARD_K
from onng.oracle import best_order_exhaustive, degree_profile_exhaustive

from conftest import lattice_point_sets, rand_line_set, reference_metric


def _line(*coords) -> PointSet:
    return PointSet(1, tuple((c,) for c in coords))


def _coords(ps: PointSet) -> tuple:
    return tuple(c for (c,) in ps.exact())


def test_hard_line_recurrence():
    assert _coords(gen_hard_line(1)) == (0, 1)
    assert _coords(gen_hard_line(2)) == (0, 1, 3, 4)
    assert _coords(gen_hard_line(3)) == (0, 1, 3, 4, 9, 10, 12, 13)
    for k in range(1, 7):
        pk = _coords(gen_hard_line(k))
        pk1 = _coords(gen_hard_line(k + 1))
        assert pk1 == pk + tuple(3**k + c for c in pk)
        assert len(pk) == 2**k
        assert pk[-1] - pk[0] == (3**k - 1) // 2


def test_hard_line_gap_dominates_previous_diameter():
    # the copy offset leaves a gap wider than everything to its left,
    # which is what caps the indegree
    for k in range(2, 7):
        pk = _coords(gen_hard_line(k))
        half = 2 ** (k - 1)
        gap = pk[half] - pk[half - 1]
        assert gap > pk[half - 1] - pk[0]


def test_hard_line_size_guard():
    with pytest.raises(ValueError):
        gen_hard_line(0)
    with pytest.raises(ValueError, match="size budget"):
        gen_hard_line(21)


def test_truncate_hard_line():
    assert _coords(truncate_hard_line(2, 6)) == (0, 1, 3, 4, 9, 10)
    assert _coords(truncate_hard_line(1, 3)) == (0, 1, 3)
    with pytest.raises(ValueError):
        truncate_hard_line(2, 4)
    with pytest.raises(ValueError):
        truncate_hard_line(2, 9)


def test_order_line_examples():
    order, center = order_line(gen_hard_line(2))
    assert order == (0, 3, 1, 2)
    assert center == 0
    m = metric_from_points(gen_hard_line(2))
    assert build_onng(m, order).indegree == (2, 0, 0, 1)

    order, center = order_line(_line(0, 1, 3))
    assert order == (0, 2, 1)
    assert center == 0
    m = metric_from_points(_line(0, 1, 3))
    assert build_onng(m, order).indegree == (2, 0, 0)


def test_order_line_singleton_and_pair():
    assert order_line(_line(5)) == ((0,), 0)
    order, center = order_line(_line(2, 7))
    assert order == (center, 1 - center)


def test_order_line_achieves_ceil_log2():
    rng = random.Random(20260819)
    for _ in range(60):
        n = rng.randint(2, 200)
        ps = rand_line_set(rng, n)
        order, center = order_line(ps)
        assert order[0] == center
        m = metric_from_points(ps)
        g = build_onng(m, order)
        assert max_indegree(g) >= (n - 1).bit_length()
        assert g.indegree[center] == max(g.indegree)


def test_hard_line_caps_indegree_exhaustively():
    # for the doubling sets no order at all beats k, and k is attainable
    for k in (1, 2):
        m = metric_from_points(gen_hard_line(k))
        profile = degree_profile_exhaustive(m)
        assert max(profile) <= k
        _, best = best_order_exhaustive(m)
        assert best == k


def test_order_line_center_is_leftmost_on_all_ties():
    # equally spaced points: every midpoint split ties and keeps the left half
    ps = _line(*range(8))
    order, center = order_line(ps)
    assert center == 0
    assert order[0] == 0
    m = metric_from_points(ps)
    assert max_indegree(build_onng(m, order)) >= 3


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice_point_sets(max_dim=1))
def test_order_line_bound_on_tie_heavy_lattices(ps):
    order, center = order_line(ps)
    assert order[0] == center
    g = build_onng(reference_metric(ps), order)
    assert g.indegree[center] >= (ps.n - 1).bit_length()


@pytest.mark.parametrize("kind", ["ints", "fractions", "negative", "past_2_31"])
def test_order_line_follows_the_ids_of_a_shuffled_set(kind):
    # the same points under other ids get the same order, mapped through the ids
    rng = random.Random(f"shuffle-{kind}")
    for _ in range(40):
        n = rng.randint(1, 120)
        if kind == "ints":
            coords = sorted(rng.sample(range(10**6), n))
        elif kind == "fractions":
            q = rng.randint(2, 1000)
            coords = sorted(Fraction(p, q) for p in rng.sample(range(10**6), n))
        elif kind == "negative":
            coords = sorted(rng.sample(range(-(10**6), 10), n))
        else:
            coords = sorted(rng.sample(range(-(2**40), 2**40), n))
        perm = list(range(n))
        rng.shuffle(perm)  # point i of the shuffled set is point perm[i] of the sorted one
        shuffled = _line(*(coords[j] for j in perm))
        if kind == "past_2_31" and n > 1:
            assert shuffled.axes.dtype == object
        new_id = {j: i for i, j in enumerate(perm)}
        order, center = order_line(_line(*coords))
        assert order_line(shuffled) == (tuple(new_id[j] for j in order), new_id[center])


def test_order_line_needs_one_dimension():
    with pytest.raises(ValueError, match="1-D"):
        order_line(PointSet(2, ((0, 0), (1, 2))))


def test_hard_line_doubling_up_to_the_size_budget():
    # built in int64: a slip at the top k would break the shifted copy
    for k in range(1, MAX_HARD_K + 1):
        ps = gen_hard_line(k)
        x, half = ps.axes[0], 2 ** (k - 1)
        assert (ps.n, ps.den, ps.origin) == (2**k, 1, (0,))
        assert np.array_equal(x[half:], x[:half] + 3 ** (k - 1))
        assert int(x[-1]) == (3**k - 1) // 2


def test_truncate_hard_line_is_a_prefix():
    for k in range(1, 8):
        full = _coords(gen_hard_line(k + 1))
        for n in range(2**k + 1, 2 ** (k + 1) + 1):
            assert _coords(truncate_hard_line(k, n)) == full[:n]
    with pytest.raises(ValueError, match=r"k=20, n=1048577 exceeds the size budget"):
        truncate_hard_line(20, 2**20 + 1)


def test_truncate_hard_line_range_check_matches_the_powers(monkeypatch):
    # the bit-length check accepts exactly 2^k < n <= 2^(k+1), k < 0 too
    class Passed(Exception):
        pass

    def passed(k):
        raise Passed

    monkeypatch.setattr(line, "gen_hard_line", passed)
    for k in range(-4, 14):
        for n in range(-4, 2**14 + 3):
            try:
                truncate_hard_line(k, n)
            except Passed:
                ok = True
            except ValueError as e:
                assert str(e) == f"need 2^{k} < n <= 2^{k + 1}, got n={n}"
                ok = False
            assert ok == (2**k < n <= 2 ** (k + 1)), (k, n)


def test_truncate_hard_line_huge_k_allocates_no_power():
    # k comes from the command line: 2^(10^7) alone would be 1.2 MiB
    tracemalloc.start()
    try:
        truncate_hard_line(10**7, 5)
    except ValueError as e:
        peak = tracemalloc.get_traced_memory()[1]
        assert str(e) == "need 2^10000000 < n <= 2^10000001, got n=5"
    finally:
        tracemalloc.stop()
    assert peak < 2**12, peak
