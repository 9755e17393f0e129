"""Ranked metrics, ONNG construction, and the path order."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

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
    order_line,
    pair_index,
    path_order,
    random_rank_metric,
)
import onng.core as core
import onng.fileio as fileio
from onng.core import iter_pairs, shuffled_range
from onng.euclid import order_euclid
from onng.fileio import parse_metric, parse_points, write_metric, write_points

from conftest import lattice_point_sets, rand_point_set, reference_metric, run_cli


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


def test_rank_is_symmetric(monkeypatch):
    # every file below is read by the acceptor: one it declined would reach
    # _explain
    monkeypatch.setattr(fileio, "_explain", mock.Mock(side_effect=AssertionError("declined")))
    rng = random.Random(7)
    metrics = [RankedMetric(4, (5, 1, 0, 2, 4, 3))]
    metrics += [random_rank_metric(n, rng) for n in (1, 2, 3, 9)]
    for m in metrics:
        p, rows, flat = m.n * (m.n - 1) // 2, m.matrix_rows(), m.pair_ranks()
        assert [rows[v][v] for v in range(m.n)] == [p] * m.n  # the sentinel
        for i, j in iter_pairs(m.n):
            assert m.rank(i, j) == m.rank(j, i) == rows[i][j] == rows[j][i]
            assert m.rank(i, j) == flat[pair_index(i, j, m.n)]
        # the flat vector is derived, and rebuilds the same metric
        again = RankedMetric(m.n, flat)
        assert again == m and hash(again) == hash(m)
        # the rows are views of the metric's own matrix, and the flat vector
        # is read-only too, so both refuse writes
        with pytest.raises(ValueError, match="read-only"):
            flat[:1] = 0
        if m.n > 1:
            r01 = m.rank(0, 1)
            with pytest.raises(TypeError):
                rows[0][1] = r01 + 1
            assert m.rank(0, 1) == r01
        # the acceptor fills the matrix it hands over, from a plain file and
        # from one split into lines, and equals the metric of the same ranks
        text = write_metric(m)
        for read in (parse_metric(text), parse_metric("# c\n" + text)):
            assert read == RankedMetric(m.n, flat.tolist()) and hash(read) == hash(m)


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
    assert m.pair_ranks().tolist() == []


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
    assert sorted(a.pair_ranks().tolist()) == list(range(36))


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
    """Tie-heavy integer lattices (d <= 5, n <= 80), random rationals,
    lattices scaled by 2^32 (squared distances overflow int64) or shifted
    by 2^70 (they do not, but the coordinates do), collinear 2-D points, and
    a lattice in one cell of the grid beside a far outlier."""
    kind = draw(st.sampled_from(["lattice", "rational", "scaled", "shifted", "collinear", "outlier"]))
    if kind == "collinear":
        ts = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=80, unique=True))
        a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (2, -3)]))
        return PointSet(2, tuple((a * t, b * t + 5) for t in ts))
    if kind == "outlier":
        ps = draw(lattice_point_sets(max_dim=3))
        return PointSet(ps.dim, ps.exact() + ((10**9,) * ps.dim,))
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
    for order in (order_euclid(ps)[0], order[::-1]):
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
    """513 to 1200 points in d = 1..5, so build_onng scans more than one
    block (its first is positions 1..511) and the cell grid more than one
    chunk: shuffled tie-heavy lattices, the same scaled by 2^32 (object
    dtype), or random points."""
    dim, n = rng.randint(1, 5), rng.randint(513, 1200)
    if kind == "random":
        return rand_point_set(rng, n, dim)
    side = {1: 1200, 2: 35, 3: 11, 4: 6, 5: 5}[dim]
    rows = rng.sample(list(product(range(side), repeat=dim)), n)
    if kind == "scaled":
        rows = [tuple(c * 2**32 for c in r) for r in rows]
    return PointSet(dim, tuple(rows))


def _orders(ps, m, rng) -> dict:
    """The orders a point rebuild is checked in: euclid, line (1-D only),
    path on the metric, random and reversed."""
    n = ps.n
    orders = {"euclid": order_euclid(ps)[0], "path": path_order(m, rng.randrange(n)),
              "reversed": list(range(n))[::-1]}
    orders["random"] = list(range(n))
    rng.shuffle(orders["random"])
    if ps.dim == 1:
        orders["line"] = order_line(ps)[0]
    return orders


def _assert_points_match_metric(ps, rng) -> None:
    """build_onng and path_order on ps equal them on its metric, in every
    order of _orders and from three tails."""
    m = metric_from_points(ps)
    for name, order in _orders(ps, m, rng).items():
        assert build_onng(ps, order) == build_onng(m, order), name
    for tail in {0, ps.n - 1, rng.randrange(ps.n)}:
        assert path_order(ps, tail) == path_order(m, tail), tail


@pytest.mark.parametrize("kind", ["lattice", "scaled", "random"])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_multi_block_rebuild_matches_metric_rebuild(kind, seed):
    # a drawn seed, not st.randoms: a set of 1200 random points would be
    # too large an input for hypothesis to draw call by call
    rng = random.Random(seed)
    ps = _multi_block_point_set(kind, rng)
    assert kind != "scaled" or ps.axes.dtype == object
    _assert_points_match_metric(ps, rng)


@pytest.mark.parametrize("scratch", [37, 512, 4096])
def test_resolver_across_block_edges(scratch, monkeypatch):
    # small scratch blocks hold one row or a few, and a row longer than
    # SCRATCH is a block of its own in buffers grown to that row; the
    # references are taken at the default SCRATCH, the metric's by the
    # naive scan
    rng = random.Random(scratch)
    lattice = rng.sample(list(product(range(30), repeat=2)), 600)
    sets = [
        PointSet(2, tuple((rng.randrange(10**9), rng.randrange(10**9)) for _ in range(600))),
        PointSet(2, tuple(lattice)),
        PointSet(2, tuple((x * 2**32, y * 2**32) for x, y in lattice)),
    ]
    assert sets[2].axes.dtype == object
    cases = []
    for ps in sets:
        m = metric_from_points(ps)
        orders = [order_euclid(ps)[0], list(range(ps.n))[::-1], rng.sample(range(ps.n), ps.n)]
        cases += [(ps, m, order, build_onng(m, order)) for order in orders]
    m = random_rank_metric(300, rng)
    for order in (list(range(m.n))[::-1], rng.sample(range(m.n), m.n)):
        parent, indeg = _naive_build(m, order)
        cases.append((m, m, order, core.OrderedNNG(m.n, parent, indeg)))
    monkeypatch.setattr(core, "SCRATCH", scratch)
    for data, m, order, want in cases:
        assert data is m or metric_from_points(data) == m
        assert build_onng(data, order) == want, (data, scratch)


def _spy_resolver(monkeypatch) -> list:
    """The positions each build_onng call leaves to the blocked scan."""
    left = []
    resolve = core._nearest_predecessors

    def spy(data, seq, at, parents):
        left.append(at.tolist())
        return resolve(data, seq, at, parents)

    monkeypatch.setattr(core, "_nearest_predecessors", spy)
    return left


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_grid_on_cell_boundaries(dim, seed):
    # points at multiples of the cell side and one unit either side, so
    # many lie exactly on a cell's lower face or one unit inside its upper
    # one; the span and n fix the side the grid takes
    rng = random.Random(seed)
    n, span = {1: (40, 1000), 2: (200, 1000), 3: (300, 600)}[dim]
    h = core._cell_side([span] * dim, n)
    marks = [c for k in range(span // h + 1) for c in (k * h - 1, k * h, k * h + 1) if 0 < c < span]
    corners = [(0,) * dim, (span,) * dim]
    pool = [r for r in product(marks, repeat=dim) if r not in corners]
    ps = PointSet(dim, tuple(corners + rng.sample(pool, n - 2)))
    assert core.cell_grid(ps).side == h
    _assert_points_match_metric(ps, rng)


def test_grid_leaves_a_tie_at_the_margin_to_the_kernel(monkeypatch):
    # q = 3h - 1 sits in cell 2, whose block is cells 1..3; its margin is
    # h + 1, to the block's upper face.  b in cell 1 and a = 4h outside the
    # block are both h + 1 away, and a has the smaller id: only the kernel
    # may settle q
    span, n = 1000, 10
    h = core._cell_side([span], n)
    q, a, b = 3 * h - 1, 4 * h, 2 * h - 2
    rows = [0, 1, a, 2, b, 3, 4, 5, span, q]
    assert len(set(rows)) == n and max(rows) == span
    ps = PointSet(1, tuple((c,) for c in rows))
    grid = core.cell_grid(ps)
    assert grid.side == h
    _, cand, key, _, _, bound = next(grid.blocks(np.array([9])))
    assert bound[0] == (h + 1) ** 2 and sorted(key.tolist())[1] == (h + 1) ** 2
    assert 2 not in cand.tolist() and 4 in cand.tolist()  # the ids of a and b
    m = metric_from_points(ps)
    left = _spy_resolver(monkeypatch)
    g = build_onng(ps, range(n))
    assert 9 in left[0]  # q's position
    assert g.parent[9] == 2 and g == build_onng(m, range(n))
    assert path_order(ps, 9) == path_order(m, 9)
    assert path_order(ps, 9)[-2] == 2  # the step from q goes to a


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_crowded_blocks_fall_back_entirely(dim, monkeypatch):
    # every point but one in a single cell, the last far away: each
    # cluster vertex's block is crowded and the outlier's holds no
    # predecessor, so the grid settles nothing
    rng = random.Random(dim)
    side = {1: 400, 2: 20, 3: 7}[dim]
    rows = rng.sample(list(product(range(side), repeat=dim)), 299) + [(10**9,) * dim]
    rng.shuffle(rows)
    ps = PointSet(dim, tuple(rows))
    left = _spy_resolver(monkeypatch)
    order = list(range(ps.n))
    rng.shuffle(order)
    g = build_onng(ps, order)
    assert left == [list(range(1, ps.n))]
    assert g == build_onng(metric_from_points(ps), order)
    _assert_points_match_metric(ps, rng)


@pytest.mark.parametrize("line", [(1, 2), (0, 1), (1, 0), (3, -1)])
def test_grid_on_collinear_points(line):
    # one axis or none split; on a diagonal the blocks are crowded with
    # the points of the few cells the line crosses
    rng = random.Random(sum(line))
    ts = rng.sample(range(10**6), 1000)
    ps = PointSet(2, tuple((line[0] * t, line[1] * t + 10**6) for t in ts))
    _assert_points_match_metric(ps, rng)


def test_grid_settles_most_of_a_random_set(monkeypatch):
    # the grid is not idle where it should work: on 4096 random 2-D points
    # in a random order it leaves under a fifth of the positions
    rng = random.Random(7)
    ps = rand_point_set(rng, 4096, 2)
    left = _spy_resolver(monkeypatch)
    order = list(range(ps.n))
    rng.shuffle(order)
    build_onng(ps, order)
    assert len(left) == 1 and len(left[0]) < ps.n // 5


def test_grid_rebuild_and_path_peak_memory_stay_at_the_parents():
    # tracemalloc peaks on `gen random-points --n 4096 --d 3 --seed 1`, in
    # the euclid order, before the cell grid (the blocked scan over all
    # pairs): build_onng 4,805,232 B and path_order 4,646,056 B.  The
    # grid's chunks of GRID_BUDGET candidates may add at most 0.1 MiB
    code, text, _ = run_cli(["gen", "random-points", "--n", "4096", "--d", "3", "--seed", "1"])
    assert code == 0
    ps = parse_points(text)
    order = order_euclid(ps)[0]
    for run, parent in ((lambda: build_onng(ps, order), 4_805_232), (lambda: path_order(ps, 0), 4_646_056)):
        run()  # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent + 0.1 * 2**20, (peak, parent)
