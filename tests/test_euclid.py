"""Euclidean order synthesis: diameter, halfspace, grid clustering."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from onng import (
    PointSet,
    build_onng,
    diameter_pair,
    grid_cell_bound,
    grid_guarantee,
    halfspace_split,
    log_guarantee,
    max_indegree,
    metric_from_points,
    order_euclid,
    path_order,
)
from onng.core import SCRATCH, scratch
from onng.euclid import PARITY_MAX_DIM, _diameter_ids, _order_euclid_levels, grid_partition

from conftest import circle_points, lattice_point_sets, rand_point_set, reference_metric


def sq_dist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def exact_grid(ps):
    """ps.exact() times its common denominator, as Python ints, and that
    denominator: reference coordinates that never read the axes they check."""
    pts = ps.exact()
    den = math.lcm(*(c.denominator for p in pts for c in p))
    return [tuple(int(c * den) for c in p) for p in pts], den


def test_grid_cell_bound_values():
    assert grid_cell_bound(1) == 3
    assert grid_cell_bound(2) == 9
    assert grid_cell_bound(3) == 64
    # the shortcut 2M <= 16^d holds through the supported parity range
    for d in range(1, PARITY_MAX_DIM + 1):
        assert 2 * grid_cell_bound(d) <= 16**d


def test_guarantee_formulas():
    assert grid_guarantee(1, 2) == 0
    assert grid_guarantee(2, 2) == 1
    assert grid_guarantee(17, 2) == 1
    # 2M = 18 in the plane: level count steps at powers of 18
    assert grid_guarantee(18**2 - 1, 2) == 1
    assert grid_guarantee(18**2, 2) == 2
    assert grid_guarantee(18**3, 2) == 3
    assert log_guarantee(4096, 3) == 1
    assert log_guarantee(1024, 2) == 1
    assert log_guarantee(15, 2) == 0
    assert log_guarantee(2**16, 2) == 2


def test_diameter_pair_square_tie():
    ps = PointSet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    assert diameter_pair(ps) == (0, 3)


def test_diameter_pair_matches_brute_force():
    rng = random.Random(5)
    for trial in range(20):
        n = rng.randint(2, 40)
        d = rng.randint(1, 3)
        ps = rand_point_set(rng, n, d)
        grid, _ = exact_grid(ps)
        best = max(
            ((sq_dist(grid[i], grid[j]), i, j) for i in range(n) for j in range(i + 1, n)),
            key=lambda t: (t[0], -t[1], -t[2]),
        )
        assert diameter_pair(ps) == (best[1], best[2])


def test_diameter_pair_numpy_path_agrees():
    rng = random.Random(6)
    ps = rand_point_set(rng, 200, 2)
    grid, _ = exact_grid(ps)
    best = max(
        ((sq_dist(grid[i], grid[j]), i, j) for i in range(200) for j in range(i + 1, 200)),
        key=lambda t: (t[0], -t[1], -t[2]),
    )
    assert diameter_pair(ps) == (best[1], best[2])


def test_diameter_pair_ties_across_blocks():
    # a 34 x 34 lattice has 1156 points and ties its diameter between the
    # two diagonals; ids are shuffled so the winning pair lands anywhere.
    # The box bound keeps only the four corners, so the scan is one block:
    # test_diameter_ids_matches_all_pairs_scan covers several
    rng = random.Random(8)
    rows = [(x, y) for x in range(34) for y in range(34)]
    for trial in range(4):
        rng.shuffle(rows)
        ps = PointSet(2, tuple(rows))
        x = np.array(rows, dtype=np.int64)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        ties = np.argwhere(np.triu(d2 == d2.max(), 1))
        assert diameter_pair(ps) == min(map(tuple, ties.tolist()))


def _all_pairs_diameter(ps, ids):
    # every pair of positions: the largest squared distance, then the
    # lexicographically smallest position pair
    x = np.array(exact_grid(ps)[0], dtype=object)[ids]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    i, j = min(map(tuple, np.argwhere(np.triu(d2 == d2.max(), 1)).tolist()))
    return ids[i], ids[j]


def _rational_circle(rng, n):
    # t -> ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)): distinct rational points
    # on the unit circle, whose common denominator is far past int64
    ts = [Fraction(k, 7) for k in rng.sample(range(-300, 300), n)]
    return PointSet(2, tuple(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts))


def test_diameter_ids_matches_all_pairs_scan():
    # the box bound prunes nothing on points spread round a circle, so those
    # run the full scan; the lattices tie their diameter many times over, and
    # past SCRATCH // n points the scan takes more than one block of rows
    rng = random.Random(23)
    sets = [_rational_circle(rng, n) for n in (2, 3, 17, 60)]
    sets += [circle_points(rng, n) for n in (5, 40, 700)]
    sets += [rand_point_set(rng, n, d) for n, d in ((2, 1), (50, 1), (300, 2), (600, 3))]
    for dim, side in ((1, 40), (2, 5), (2, 24), (3, 7)):
        rows = list(product(range(side), repeat=dim))
        rng.shuffle(rows)
        sets.append(PointSet(dim, tuple(rows)))
    assert any(ps.n > SCRATCH // ps.n for ps in sets)
    for ps in sets:
        xt = ps.axes
        subsets = [list(range(ps.n))]
        subsets += [sorted(rng.sample(range(ps.n), rng.randint(2, ps.n))) for _ in range(2)]
        for ids in subsets:
            got = _diameter_ids(xt, ids, scratch(xt, max(SCRATCH, ps.n)))
            assert got == _all_pairs_diameter(ps, ids), (ps.n, ps.dim, len(ids))


def test_point_kernels_peak_memory_is_bounded():
    # each scan writes into two scratch buffers of about SCRATCH entries,
    # 512 KiB of int64 in all; with the grid's chunks and the resolver's
    # position table no call may peak at 2 MiB (buffers of 2^18 entries
    # would peak at 4.2-4.7 MiB here)
    cap = 2 * 2**20
    rng = random.Random(29)
    for ps in (rand_point_set(rng, 4096, 2), circle_points(rng, 4096)):
        order = list(range(ps.n))
        rng.shuffle(order)
        for run in (lambda: build_onng(ps, order), lambda: path_order(ps, 0), lambda: order_euclid(ps)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap, (ps.n, peak)


def test_halfspace_split_properties():
    rng = random.Random(9)
    sets = [rand_point_set(rng, rng.randint(2, 30), 2) for _ in range(20)]
    # lattices: many points equidistant from both anchors, split by index pair
    for side in (3, 4, 5):
        rows = [(x, y) for x in range(side) for y in range(side)]
        rng.shuffle(rows)
        sets.append(PointSet(2, tuple(rows)))
    for ps in sets:
        n = ps.n
        a, b = diameter_pair(ps)
        major, minor = halfspace_split(ps, a, b)
        assert sorted(major + minor) == list(range(n))
        assert len(major) >= len(minor)
        assert (a in major) != (b in major)
        # every vertex sits on the side of the anchor it is ordinally closer to
        grid, _ = exact_grid(ps)
        for side in (major, minor):
            anchor = a if a in side else b
            other = b if a in side else a
            for v in side:
                ka = (sq_dist(grid[v], grid[anchor]), min(v, anchor), max(v, anchor))
                kb = (sq_dist(grid[v], grid[other]), min(v, other), max(v, other))
                assert ka < kb


def test_halfspace_split_validates_anchors():
    ps = PointSet(1, ((0,), (1,)))
    with pytest.raises(ValueError):
        halfspace_split(ps, 0, 0)
    with pytest.raises(ValueError):
        halfspace_split(ps, 0, 5)


def test_grid_partition_cell_diameter_strictly_small():
    # same-cell pairs sit strictly closer than half the normalizing length
    rng = random.Random(13)
    for trial in range(15):
        n = rng.randint(3, 50)
        d = rng.randint(1, 3)
        ps = rand_point_set(rng, n, d)
        a, b = diameter_pair(ps)
        # grid_partition takes unit_sq in the point set's own grid units
        unit_sq = sq_dist(*(ps.axes[:, v].tolist() for v in (a, b)))
        grid, den = exact_grid(ps)
        clusters = grid_partition(ps, range(n), unit_sq)
        assert sorted(v for c in clusters for v in c) == list(range(n))
        assert len(clusters) <= grid_cell_bound(d)
        for c in clusters:
            for i in c:
                for j in c:
                    if i < j:
                        assert 4 * sq_dist(grid[i], grid[j]) * ps.den**2 < unit_sq * den**2


def test_grid_partition_validates():
    ps = PointSet(1, ((0,), (1,)))
    with pytest.raises(ValueError):
        grid_partition(ps, [], 4)
    with pytest.raises(ValueError):
        grid_partition(ps, [0, 2], 4)
    with pytest.raises(ValueError):
        grid_partition(ps, [0, 1], 0)


def test_order_euclid_collinear_example():
    ps = PointSet(2, ((0, 0), (1, 0), (3, 0), (4, 0)))
    order, center, guarantee = order_euclid(ps)
    assert order == (0, 3, 1, 2)
    assert center == 0
    assert guarantee == 1
    g = build_onng(metric_from_points(ps), order)
    assert g.indegree == (2, 0, 0, 1)


def test_order_euclid_small_bases():
    assert order_euclid(PointSet(2, ((5, 5),))) == ((0,), 0, 0)
    order, center, guarantee = order_euclid(PointSet(2, ((0, 0), (3, 4))))
    assert order == (0, 1)
    assert center == 0
    assert guarantee == 1


def test_order_euclid_far_chain_targets_center():
    # the outer insertions are exactly the per-level far points, revealed
    # right after the center, and each one attaches to the center
    rng = random.Random(17)
    for trial in range(10):
        n = rng.randint(3, 120)
        d = rng.choice((1, 2, 3))
        ps = rand_point_set(rng, n, d)
        order, center, guarantee, fars = _order_euclid_levels(ps)
        assert list(order[1 : 1 + len(fars)]) == fars
        assert len(fars) >= guarantee
        g = build_onng(metric_from_points(ps), order)
        for far in fars:
            assert g.parent[far] == center
        assert g.indegree[center] >= len(fars)


def test_order_euclid_meets_both_bounds():
    rng = random.Random(21)
    for trial in range(12):
        n = rng.randint(16, 600)
        d = rng.choice((1, 2, 3))
        ps = rand_point_set(rng, n, d)
        order, center, guarantee = order_euclid(ps)
        assert guarantee == grid_guarantee(n, d)
        g = build_onng(metric_from_points(ps), order)
        assert max_indegree(g) >= guarantee
        assert max_indegree(g) >= log_guarantee(n, d)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice_point_sets())
def test_order_euclid_bounds_on_tie_heavy_lattices(ps):
    order, center, guarantee = order_euclid(ps)
    assert order[0] == center
    assert guarantee == grid_guarantee(ps.n, ps.dim)
    g = build_onng(reference_metric(ps), order)
    assert g.indegree[center] >= guarantee
    if ps.dim <= PARITY_MAX_DIM:
        assert g.indegree[center] >= log_guarantee(ps.n, ps.dim)
