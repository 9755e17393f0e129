"""Line point sets: the doubling hard family and the halving order."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from onng import (
    LinePointSet,
    build_onng,
    gen_hard_line,
    max_indegree,
    metric_from_points,
    order_line,
    truncate_hard_line,
)
from onng.oracle import best_order_exhaustive, degree_profile_exhaustive

from conftest import lattice_point_sets, rand_line_set, reference_metric


def test_hard_line_recurrence():
    assert gen_hard_line(1).coords == (0, 1)
    assert gen_hard_line(2).coords == (0, 1, 3, 4)
    assert gen_hard_line(3).coords == (0, 1, 3, 4, 9, 10, 12, 13)
    for k in range(1, 7):
        pk = gen_hard_line(k).coords
        pk1 = gen_hard_line(k + 1).coords
        assert pk1 == pk + tuple(3**k + c for c in pk)
        assert len(pk) == 2**k
        assert pk[-1] - pk[0] == (3**k - 1) // 2


def test_hard_line_gap_dominates_previous_diameter():
    # the copy offset leaves a gap wider than everything to its left,
    # which is what caps the indegree
    for k in range(2, 7):
        pk = gen_hard_line(k).coords
        half = 2 ** (k - 1)
        gap = pk[half] - pk[half - 1]
        assert gap > pk[half - 1] - pk[0]


def test_hard_line_size_guard():
    with pytest.raises(ValueError):
        gen_hard_line(0)
    with pytest.raises(ValueError, match="size budget"):
        gen_hard_line(21)


def test_truncate_hard_line():
    assert truncate_hard_line(2, 6).coords == (0, 1, 3, 4, 9, 10)
    assert truncate_hard_line(1, 3).coords == (0, 1, 3)
    with pytest.raises(ValueError):
        truncate_hard_line(2, 4)
    with pytest.raises(ValueError):
        truncate_hard_line(2, 9)


def test_line_point_set_validation():
    with pytest.raises(ValueError):
        LinePointSet((3, 1))
    with pytest.raises(ValueError):
        LinePointSet((1, 1))
    with pytest.raises(ValueError, match="exact rational"):
        LinePointSet((0.5, 1.5))
    LinePointSet((Fraction(-1, 2), 0, Fraction(1, 3)))


def test_order_line_examples():
    order, center = order_line(gen_hard_line(2))
    assert order == (0, 3, 1, 2)
    assert center == 0
    m = metric_from_points(gen_hard_line(2).to_point_set())
    assert build_onng(m, order).indegree == (2, 0, 0, 1)

    order, center = order_line(LinePointSet((0, 1, 3)))
    assert order == (0, 2, 1)
    assert center == 0
    m = metric_from_points(LinePointSet((0, 1, 3)).to_point_set())
    assert build_onng(m, order).indegree == (2, 0, 0)


def test_order_line_singleton_and_pair():
    assert order_line(LinePointSet((5,))) == ((0,), 0)
    order, center = order_line(LinePointSet((2, 7)))
    assert order == (center, 1 - center)


def test_order_line_achieves_ceil_log2():
    rng = random.Random(20260819)
    for _ in range(60):
        n = rng.randint(2, 200)
        lps = rand_line_set(rng, n)
        order, center = order_line(lps)
        assert order[0] == center
        m = metric_from_points(lps.to_point_set())
        g = build_onng(m, order)
        assert max_indegree(g) >= (n - 1).bit_length()
        assert g.indegree[center] == max(g.indegree)


def test_hard_line_caps_indegree_exhaustively():
    # for the doubling sets no order at all beats k, and k is attainable
    for k in (1, 2):
        m = metric_from_points(gen_hard_line(k).to_point_set())
        profile = degree_profile_exhaustive(m)
        assert max(profile) <= k
        _, best = best_order_exhaustive(m)
        assert best == k


def test_order_line_center_is_leftmost_on_all_ties():
    # equally spaced points: every midpoint split ties and keeps the left half
    lps = LinePointSet(tuple(range(8)))
    order, center = order_line(lps)
    assert center == 0
    assert order[0] == 0
    m = metric_from_points(lps.to_point_set())
    assert max_indegree(build_onng(m, order)) >= 3


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice_point_sets(max_dim=1))
def test_order_line_bound_on_tie_heavy_lattices(ps):
    lps = LinePointSet(tuple(sorted(c for (c,) in ps.exact())))
    order, center = order_line(lps)
    assert order[0] == center
    g = build_onng(reference_metric(lps.to_point_set()), order)
    assert g.indegree[center] >= (lps.n - 1).bit_length()
