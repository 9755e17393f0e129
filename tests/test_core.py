"""Ranked metrics, ONNG construction, and the path order."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onng import (
    PointSet,
    RankedMetric,
    as_permutation,
    build_onng,
    max_indegree,
    metric_from_points,
    pair_index,
    path_order,
    random_rank_metric,
)
import onng.core as core
from onng.core import iter_pairs, shuffled_range
from onng.fileio import parse_points, write_points

from conftest import lattice_point_sets, rand_point_set, reference_metric


def test_pair_index_is_bijective():
    for n in (2, 3, 5, 9):
        seen = [pair_index(i, j, n) for i, j in iter_pairs(n)]
        assert sorted(seen) == list(range(n * (n - 1) // 2))
        # iter_pairs enumerates in exactly pair_index order
        assert seen == list(range(len(seen)))


def test_ranked_metric_validates_bijection():
    RankedMetric(3, (2, 0, 1))
    with pytest.raises(ValueError):
        RankedMetric(3, (0, 0, 1))
    with pytest.raises(ValueError):
        RankedMetric(3, (0, 1))
    with pytest.raises(ValueError):
        RankedMetric(3, (0, 1, 3))
    # ranks must be integers: no truncation of 0.5 to 0, no overflow past int64
    with pytest.raises(ValueError, match="bijection"):
        RankedMetric(3, (0.5, 1, 2))
    with pytest.raises(ValueError, match="bijection"):
        RankedMetric(3, (0, 1, 2**70))
    with pytest.raises(ValueError, match="bijection"):
        RankedMetric(3, (0, 1, 2**63))


def test_rank_is_symmetric():
    rng = random.Random(7)
    metrics = [RankedMetric(4, (5, 1, 0, 2, 4, 3))]
    metrics += [random_rank_metric(n, rng) for n in (1, 2, 3, 9)]
    for m in metrics:
        p, rows = m.n * (m.n - 1) // 2, m.matrix_rows()
        assert [rows[v][v] for v in range(m.n)] == [p] * m.n  # the sentinel
        for i, j in iter_pairs(m.n):
            assert m.rank(i, j) == m.rank(j, i) == rows[i][j] == rows[j][i]
            assert m.rank(i, j) == m.pair_rank_list()[pair_index(i, j, m.n)]
        # the rows are views of the metric's own matrix, so they refuse writes
        if m.n > 1:
            r01 = m.rank(0, 1)
            with pytest.raises(TypeError):
                rows[0][1] = r01 + 1
            assert m.rank(0, 1) == r01


def test_unit_square_tie_break_is_lexicographic():
    # four side pairs tie at length 1, two diagonal pairs tie at sqrt(2);
    # within a tie the smaller (i, j) gets the smaller rank
    ps = PointSet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    m = metric_from_points(ps)
    assert m.rank(0, 1) == 0
    assert m.rank(0, 2) == 1
    assert m.rank(1, 3) == 2
    assert m.rank(2, 3) == 3
    assert m.rank(0, 3) == 4
    assert m.rank(1, 2) == 5


def test_duplicate_points_rejected_naming_both():
    with pytest.raises(ValueError, match="points 1 and 3"):
        PointSet(2, ((0, 0), (2, 5), (1, 1), (2, 5)))
    # one point spelled two ways; the first duplicate pair is named
    half, big = (0.5, Fraction(1, 2)), (2**70 + 1, Fraction(2**71 + 2, 2))
    for a, b in (half, big):
        with pytest.raises(ValueError, match=r"^points 1 and 3 are identical$"):
            PointSet(1, ((7,), (a,), (-3,), (b,), (a,), (b,)))
    with pytest.raises(ValueError, match=r"^points 0 and 2 are identical$"):
        PointSet(2, ((half[0], big[0]), (half[0], 0), (half[1], big[1]), (1, 1), (half[0], 0)))


def test_point_set_accepts_mixed_exact_coordinates():
    ps = PointSet(1, ((Fraction(1, 3),), (1,), (Fraction(7, 2),)))
    assert ps.n == 3
    with pytest.raises(ValueError):
        PointSet(1, ((float("nan"),), (0.0,)))


def test_point_errors_come_in_index_order_before_duplicates():
    nan = float("nan")
    # a ragged or non-numeric point wins over a duplicate before or after it
    for rows, msg in (
        (((1, 2), (0.5,), (Fraction(1, 2),)), r"^point 0 has 2 coordinates, expected 1$"),
        (((nan,), (0.5,), (Fraction(1, 2),)), r"^point 0 has a non-finite or non-numeric coordinate$"),
        (((0.5,), (Fraction(1, 2),), (1, 2), (nan,)), r"^point 2 has 2 coordinates, expected 1$"),
        (((0.5,), (Fraction(1, 2),), ("x",), (1, 2)), r"^point 2 has a non-finite or non-numeric coordinate$"),
    ):
        with pytest.raises(ValueError, match=msg):
            PointSet(1, rows)
    with pytest.raises(ValueError, match="at least one point"):
        PointSet(2, ())
    with pytest.raises(ValueError, match="dimension"):
        PointSet(0, ((),))


_coords = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def _mixed_rows(draw):
    """Distinct rows of ints, Fractions and floats, negatives included."""
    dim = draw(st.integers(1, 3))
    return dim, draw(st.lists(
        st.tuples(*[_coords] * dim), min_size=1, max_size=20,
        unique_by=lambda r: tuple(map(Fraction, r)),
    ))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_mixed_rows())
def test_exact_and_points_file_round_trip(dim_rows):
    # the rows as drawn, shifted by 2^70 (coordinates past int64), and
    # scaled by 2^32
    dim, rows = dim_rows
    for variant in (
        rows,
        [tuple(Fraction(c) + 2**70 for c in r) for r in rows],
        [tuple(c * 2**32 for c in r) for r in rows],
    ):
        ps = PointSet(dim, variant)
        assert ps.exact() == tuple(tuple(Fraction(c) for c in r) for r in variant)
        again = parse_points(write_points(ps))
        assert (again.den, again.origin, again.axes.dtype) == (ps.den, ps.origin, ps.axes.dtype)
        assert np.array_equal(again.axes, ps.axes)


def test_rank_paths_agree_numpy_vs_python():
    # metric_from_points has one path for every size; check it against the
    # plain Fraction sort on both sides of 64 points and off the int64 range
    rng = random.Random(42)
    for n, d in ((70, 2), (90, 3), (65, 1), (2, 1), (10, 2), (40, 3), (63, 2)):
        rows = [tuple(rng.randrange(1000) for _ in range(d)) for _ in range(n)]
        ps = PointSet(d, tuple(dict.fromkeys(rows)))
        assert metric_from_points(ps) == reference_metric(ps), (n, d)
    wide = PointSet(2, tuple((x * 2**32, y) for x, y in ((0, 0), (1, 5), (1000, 7), (3, 3))))
    assert wide.axes.dtype == object
    assert metric_from_points(wide) == reference_metric(wide)
    # coordinates past int64 whose squared distances fit it: same ranks as
    # the set shifted to 0
    squares = [i * i for i in range(70)]
    far = PointSet(1, tuple((2**70 + c,) for c in squares))
    near = PointSet(1, tuple((c,) for c in squares))
    assert far.axes.dtype != object
    assert metric_from_points(far) == metric_from_points(near) == reference_metric(near)


def test_metric_from_points_single_point():
    m = metric_from_points(PointSet(3, ((1, 2, 3),)))
    assert m.n == 1
    assert m.pair_rank_list() == []


def _naive_build(m, order):
    parent = {}
    indeg = [0] * m.n
    for p in range(1, len(order)):
        v = order[p]
        u = min(order[:p], key=lambda w: m.rank(v, w))
        parent[v] = u
        indeg[u] += 1
    return parent, tuple(indeg)


def test_build_onng_matches_naive_scan():
    rng = random.Random(7)
    for n in (2, 5, 30, 100):
        m = random_rank_metric(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        g = build_onng(m, tuple(order))
        parent, indeg = _naive_build(m, order)
        assert g.parent == parent
        assert g.indegree == indeg
        assert max_indegree(g) == max(indeg)


def test_as_permutation_reports_defects():
    as_permutation((2, 0, 1), 3)
    with pytest.raises(ValueError, match="missing"):
        as_permutation((0, 1), 3)
    with pytest.raises(ValueError, match="duplicate"):
        as_permutation((0, 1, 1), 3)
    with pytest.raises(ValueError, match="out-of-range"):
        as_permutation((0, 1, 5), 3)


def test_path_order_line_example():
    m = metric_from_points(PointSet(1, ((0,), (1,), (3,))))
    assert path_order(m, 2) == (0, 1, 2)
    g = build_onng(m, (0, 1, 2))
    assert g.indegree == (1, 1, 0)


def test_path_order_every_tail_is_directed_path():
    rng = random.Random(11)
    for n in (2, 6, 17, 150):
        m = random_rank_metric(n, rng)
        for tail in (0, n // 2, n - 1):
            order = path_order(m, tail)
            assert order[-1] == tail
            g = build_onng(m, order)
            assert max_indegree(g) == 1
            for p in range(1, n):
                assert g.parent[order[p]] == order[p - 1]


def test_path_order_validates_tail():
    m = random_rank_metric(4, random.Random(0))
    with pytest.raises(ValueError):
        path_order(m, 4)
    with pytest.raises(ValueError):
        path_order(m, -1)


def test_random_rank_metric_is_seed_deterministic():
    a = random_rank_metric(9, random.Random(123))
    b = random_rank_metric(9, random.Random(123))
    c = random_rank_metric(9, random.Random(124))
    assert a == b
    assert a != c
    assert sorted(a.pair_rank_list()) == list(range(36))


def _replays_shuffle(p: int, rng: random.Random) -> None:
    """shuffled_range(p, rng) against the interpreter's own shuffle, run on
    a copy of rng: the same permutation, and rng left in the same state."""
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    ref = list(range(p))
    ref_rng.shuffle(ref)
    got = shuffled_range(p, rng)
    assert got.dtype == np.int32 and got.tolist() == ref, p
    assert rng.getstate() == ref_rng.getstate(), p


def test_shuffled_range_replays_shuffle_around_powers_of_two():
    # every bit length's first and last bound; one rng shared by all calls
    rng = random.Random(41)
    for p in [0, 1, 2] + sorted({2**k + d for k in range(1, 17) for d in (-1, 0, 1)}):
        _replays_shuffle(p, rng)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5000), min_size=1, max_size=4), st.integers(0, 2**64))
def test_shuffled_range_replays_shuffle_calls_in_a_row(sizes, seed):
    rng = random.Random(seed)
    for p in sizes:
        _replays_shuffle(p, rng)


def test_shuffled_range_keeps_gauss_next():
    rng = random.Random(7)
    rng.gauss(0.0, 1.0)  # leaves the second normal deviate in the state
    assert rng.getstate()[2] is not None
    _replays_shuffle(3000, rng)
    assert rng.getstate()[2] is not None


@pytest.mark.parametrize("window", [lambda m, k, lo: m // 2 + 1, lambda m, k, lo: (4 * m + 8) << max(0, 13 - k)])
def test_shuffled_range_with_windows_off_and_small_chunks(monkeypatch, window):
    # chunks of exactly one window: windows of half a block fall short every
    # time, and windows far too long, doubling at each smaller bit length,
    # leave the first unused word several chunks before the last one drawn
    monkeypatch.setattr(core, "_window", window)
    monkeypatch.setattr(core, "SHUFFLE_WORDS", 1)
    monkeypatch.setattr(core, "SHUFFLE_STEPS", 40)
    rng = random.Random(43)
    for p in (2, 3, 64, 65, 1000, 4097):
        _replays_shuffle(p, rng)


def test_random_rank_metric_is_the_shuffled_pair_listing():
    # metrics in a row from one rng, as acceptance criterion 5 draws them
    rng, ref = random.Random(105), random.Random(105)
    for n in (1, 2, 3, 16, 64, 256, 1):
        flat = list(range(n * (n - 1) // 2))
        ref.shuffle(flat)
        assert random_rank_metric(n, rng) == RankedMetric(n, flat), n
        assert rng.getstate() == ref.getstate(), n


def test_integer_grid_scales_to_common_denominator():
    ps = PointSet(1, ((Fraction(1, 2),), (Fraction(1, 3),), (2,)))
    # 1/2, 1/3, 2 over denominator 6 -> 3, 2, 12, shifted by 2 to start at 0
    assert ps.den == 6
    assert ps.origin == (2,)
    assert ps.axes.dtype != object
    assert ps.axes.tolist() == [[1, 0, 10]]
    with pytest.raises(ValueError):
        ps.axes[0, 0] = 9
    assert repr(ps) == "PointSet(dim=1, n=3)"


@st.composite
def _point_sets(draw):
    """Tie-heavy integer lattices (d <= 5, n <= 80), random rationals, and
    lattices scaled by 2^32 (squared distances overflow int64) or shifted
    by 2^70 (they do not, but the coordinates do)."""
    kind = draw(st.sampled_from(["lattice", "rational", "scaled", "shifted"]))
    if kind == "rational":
        dim = draw(st.integers(1, 3))
        coord = st.fractions(min_value=-10, max_value=10, max_denominator=50)
        rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=80, unique=True))
        return PointSet(dim, tuple(rows))
    ps = draw(lattice_point_sets(max_dim=5 if kind == "lattice" else 3))
    if kind == "lattice":
        return ps
    if kind == "scaled":
        ps = PointSet(ps.dim, tuple(tuple(c * 2**32 for c in r) for r in ps.exact()))
        assert ps.n == 1 or ps.axes.dtype == object
        return ps
    return PointSet(ps.dim, tuple(tuple(c + 2**70 for c in r) for r in ps.exact()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_point_rebuild_matches_metric_rebuild(data):
    ps = data.draw(_point_sets())
    m = metric_from_points(ps)
    assert m == reference_metric(ps)
    order = data.draw(st.permutations(range(ps.n)))
    assert build_onng(ps, order) == build_onng(m, order)
    tail = data.draw(st.integers(0, ps.n - 1))
    assert path_order(ps, tail) == path_order(m, tail)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice_point_sets(min_n=2), st.data())
def test_path_order_on_lattices_is_a_path_to_the_tail(ps, data):
    tail = data.draw(st.integers(0, ps.n - 1))
    order = path_order(ps, tail)
    assert order[-1] == tail
    g = build_onng(reference_metric(ps), order)
    assert max_indegree(g) == 1
    for p in range(1, ps.n):
        assert g.parent[order[p]] == order[p - 1]


def _multi_block_point_set(kind, rng):
    """513 to 1200 points, so build_onng scans more than one block (its
    first is positions 1..511): shuffled tie-heavy lattices, the same scaled
    by 2^32 (object dtype), or random points."""
    dim, n = rng.randint(1, 3), rng.randint(513, 1200)
    if kind == "random":
        return rand_point_set(rng, n, dim)
    side = {1: 1200, 2: 35, 3: 11}[dim]
    rows = rng.sample(list(product(range(side), repeat=dim)), n)
    if kind == "scaled":
        rows = [tuple(c * 2**32 for c in r) for r in rows]
    return PointSet(dim, tuple(rows))


@pytest.mark.parametrize("kind", ["lattice", "scaled", "random"])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_multi_block_rebuild_matches_metric_rebuild(kind, seed):
    # a drawn seed, not st.randoms: a set of 1200 random points would be
    # too large an input for hypothesis to draw call by call
    rng = random.Random(seed)
    ps = _multi_block_point_set(kind, rng)
    assert kind != "scaled" or ps.axes.dtype == object
    m = metric_from_points(ps)
    order = list(range(ps.n))
    rng.shuffle(order)
    assert build_onng(ps, order) == build_onng(m, order)
    tail = rng.randrange(ps.n)
    assert path_order(ps, tail) == path_order(m, tail)
