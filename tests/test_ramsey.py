"""Triple coloring, the deletion process, and order synthesis from witnesses."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onng
from onng import (
    MonoStructure,
    PointSet,
    RankedMetric,
    StructureKind,
    TripleColor,
    build_onng,
    color_triple,
    coloring_from_metric,
    max_indegree,
    metric_from_points,
    order_metric,
    pair_index,
    random_rank_metric,
    run_process,
    run_process_traced,
    synthesize_order,
    verify_structure,
)
from onng.ramsey import _red_green

from conftest import circle_points, dense_ranks, lattice_point_sets, packed_metrics, reference_run_process


def _line_metric(*coords):
    return metric_from_points(PointSet(1, tuple((c,) for c in coords)))


def test_color_triple_cases():
    # shortest side decides: {i2,i3} -> Red, {i1,i3} -> Green, {i1,i2} -> Blue
    m = _line_metric(0, 10, 11)  # closest pair is {1, 2}
    assert color_triple(m, 0, 1, 2) is TripleColor.RED
    m = _line_metric(0, 1, 100)  # closest pair is {0, 1}
    assert color_triple(m, 0, 1, 2) is TripleColor.BLUE
    # a metric where {i1,i3} is shortest cannot come from the line; use ranks
    m = RankedMetric(3, (1, 0, 2))  # rank({0,2}) = 0
    assert color_triple(m, 0, 1, 2) is TripleColor.GREEN


def test_color_triple_requires_ascending():
    m = _line_metric(0, 1, 3)
    with pytest.raises(ValueError):
        color_triple(m, 1, 0, 2)
    with pytest.raises(ValueError):
        color_triple(m, 0, 1, 1)


def test_coloring_from_metric_agrees():
    rng = random.Random(3)
    m = random_rank_metric(12, rng)
    col = coloring_from_metric(m)
    for i in range(12):
        for j in range(i + 1, 12):
            for k in range(j + 1, 12):
                assert col(i, j, k) is color_triple(m, i, j, k)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(packed_metrics(max_n=16))
def test_coloring_from_metric_matches_color_triple_on_packed_metrics(m):
    # the closure reads the pair vector at base[i] + j; color_triple reads
    # rank, and the dense reference gives the shortest side
    rows, col = dense_ranks(m), coloring_from_metric(m)
    for i, j, k in combinations(range(m.n), 3):
        want = color_triple(m, i, j, k)
        assert col(i, j, k) is want
        shortest = min((rows[j][k], TripleColor.RED), (rows[i][k], TripleColor.GREEN),
                       (rows[i][j], TripleColor.BLUE))
        assert want is shortest[1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice_point_sets(max_n=24, min_n=3))
def test_red_green_on_squared_distances_is_color_triple_on_the_ranks(ps):
    # a tie of squared distances in a triple i < j < k ranks {i, j} before
    # {i, k} before {j, k}, and the predicate's comparisons must follow that
    # order, on ints and on numpy arrays alike
    pts, m = ps.exact(), metric_from_points(ps)
    triples = list(combinations(range(ps.n), 3))
    sides = [[sum((x - y) ** 2 for x, y in zip(pts[a], pts[b])) for a, b in ((i, j), (i, k), (j, k))]
             for i, j, k in triples]
    reds, greens = _red_green(*np.array(sides).T)
    for t, keys, red, green in zip(triples, sides, reds.tolist(), greens.tolist()):
        want = color_triple(m, *t)
        assert _red_green(*keys) == (red, green) == (want is TripleColor.RED, want is TripleColor.GREEN), t


def test_verify_structure():
    m = _line_metric(0, 10, 11, 100)
    col = coloring_from_metric(m)
    assert verify_structure(col, MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 2)))
    # {0,1,3}: closest pair is {0,1} -> Blue, so not a red triple
    assert not verify_structure(col, MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 3)))
    assert verify_structure(col, MonoStructure(StructureKind.BLUE_STAR, (0, 1, 3)))


def test_mono_structure_validation():
    with pytest.raises(ValueError):
        MonoStructure(StructureKind.RED_CLIQUE, (3,))
    with pytest.raises(ValueError):
        MonoStructure(StructureKind.RED_CLIQUE, (3, 1, 2))
    assert MonoStructure(StructureKind.RED_CLIQUE, (1, 2, 5)).hub == 5
    assert MonoStructure(StructureKind.GREEN_STAR, (1, 2, 5)).hub == 1
    assert MonoStructure(StructureKind.BLUE_STAR, (1, 2, 5)).hub == 1


def test_run_process_finds_red_clique_on_clustered_line():
    m = _line_metric(0, 10, 11)
    found = run_process(m, 3, 3)
    assert found == MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 2))


def test_run_process_validates():
    m = _line_metric(0, 1, 3)
    with pytest.raises(ValueError):
        run_process(m, 3, 2)
    with pytest.raises(ValueError):
        run_process(m, 0, 3)
    with pytest.raises(ValueError):
        run_process(m, 4, 3)


def _span_metric(n, key):
    """The RankedMetric ranking the pairs (i, j), i < j, by key(i, j)."""
    pairs = sorted(combinations(range(n), 2), key=lambda p: key(*p))
    flat = [0] * len(pairs)
    for r, (i, j) in enumerate(pairs):
        flat[pair_index(i, j, n)] = r
    return RankedMetric(n, flat)


def test_run_process_counters_on_synthetic_drains():
    # constant colorings drive the process into specific drain shapes:
    # lexicographic pair ranks make every triple Blue, and ranks by
    # descending span j - i make every triple Green
    for const, key in ((TripleColor.GREEN, lambda i, j: (i - j, i)),
                       (TripleColor.BLUE, lambda i, j: (i, j))):
        for n in (1, 5, 17, 60):
            m = _span_metric(n, key)
            col = coloring_from_metric(m)
            assert all(col(*t) is const for t in combinations(range(n), 3))
            for k in (3, 4, 5):
                found, stats = run_process_traced(m, n, k)
                if found is None:
                    assert stats.picked < k + 2 * (k - 1) ** 2
                    assert stats.green_edges + stats.blue_edges < 2 * (k - 1) ** 2
                    assert 2 * stats.red_edges < k * (k - 1) ** 2
                else:
                    assert found.kind in (StructureKind.GREEN_STAR, StructureKind.BLUE_STAR)


def test_run_process_counters_on_random_drains():
    rng = random.Random(77)
    drains = 0
    for trial in range(60):
        n = rng.randint(3, 48)
        m = random_rank_metric(n, rng)
        col = coloring_from_metric(m)
        for k in (3, 4, 5, 6):
            found, stats = run_process_traced(m, n, k)
            assert stats.picked <= n
            if found is None:
                drains += 1
                assert stats.picked < k + 2 * (k - 1) ** 2
                assert stats.green_edges + stats.blue_edges < 2 * (k - 1) ** 2
                assert 2 * stats.red_edges < k * (k - 1) ** 2
            else:
                assert verify_structure(col, found)
                assert len(found.vertices) == k
    assert drains > 0


@st.composite
def _ramsey_point_sets(draw):
    """Tie-heavy lattices, co-circular points, and lattices scaled by 2^32
    and shifted by 2^70 (object dtype: coordinates and squared distances
    both past int64)."""
    kind = draw(st.sampled_from(["lattice", "circle", "huge"]))
    if kind == "circle":
        return circle_points(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(3, 80)))
    ps = draw(lattice_point_sets(max_dim=5 if kind == "lattice" else 3, min_n=3))
    if kind == "lattice":
        return ps
    ps = PointSet(ps.dim, tuple(tuple(c * 2**32 + 2**70 for c in r) for r in ps.exact()))
    assert ps.axes.dtype == object
    return ps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ramsey_point_sets())
def test_process_on_points_equals_process_on_their_metric(ps):
    # the strict comparisons of exact squared distances inside a triple
    # u < v < w color it as the index-pair tie-break of metric_from_points
    # does: same structure and every ProcessStats field, for every k
    m = metric_from_points(ps)
    for k in range(3, 7):
        assert run_process_traced(ps, ps.n, k) == run_process_traced(m, ps.n, k), k
    assert order_metric(ps) == order_metric(m)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_process_matches_the_triple_coloring_reference(seed, on_lattice):
    # the vectorised process against the closure it replaced, on random
    # metrics and on the metrics of tie-heavy lattices
    rng = random.Random(seed)
    n = rng.randint(1, 90)
    if on_lattice:
        side = rng.randint(2, 6)
        rows = rng.sample([(x, y) for x in range(side) for y in range(side)], min(n, side * side))
        m = metric_from_points(PointSet(2, tuple(rows)))
    else:
        m = random_rank_metric(n, rng)
    col = coloring_from_metric(m)
    for k in range(3, 8):
        assert run_process_traced(m, m.n, k) == reference_run_process(col, m.n, k), k


def test_synthesize_order_shapes():
    red = MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 2))
    assert synthesize_order(red, 4) == (2, 0, 1, 3)
    blue = MonoStructure(StructureKind.BLUE_STAR, (0, 1, 2))
    assert synthesize_order(blue, 3) == (0, 2, 1)
    green = MonoStructure(StructureKind.GREEN_STAR, (0, 1, 2))
    assert synthesize_order(green, 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        synthesize_order(red, 2)


def test_synthesized_orders_pump_the_hub():
    # each witness kind forces indegree len-1 onto its hub when the triples
    # really carry its color; check against hand-built line metrics
    m = _line_metric(0, 10, 13, 14)  # inside {1,2,3} each later gap is tighter
    col = coloring_from_metric(m)
    red = MonoStructure(StructureKind.RED_CLIQUE, (1, 2, 3))
    assert verify_structure(col, red)
    order = synthesize_order(red, 4)
    g = build_onng(m, order)
    assert g.indegree[red.hub] >= 2

    m = _line_metric(0, 1, 100, 10_000)  # {0,1} tight, rest spread out
    col = coloring_from_metric(m)
    blue = MonoStructure(StructureKind.BLUE_STAR, (0, 2, 3))
    assert verify_structure(col, blue)
    g = build_onng(m, synthesize_order(blue, 4))
    assert g.indegree[blue.hub] >= 2


def test_order_metric_line_cluster():
    m = _line_metric(0, 10, 11)
    order, k, witness = order_metric(m)
    assert order == (2, 0, 1)
    assert k == 3
    assert witness == MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 2))
    assert max_indegree(build_onng(m, order)) >= k - 1


def test_order_metric_pair():
    m = random_rank_metric(2, random.Random(1))
    order, k, witness = order_metric(m)
    assert k == 2
    assert witness is None
    assert max_indegree(build_onng(m, order)) >= 1


def test_order_metric_soundness_random():
    rng = random.Random(2024)
    for trial in range(30):
        n = rng.randint(2, 80)
        m = random_rank_metric(n, rng)
        order, k, witness = order_metric(m)
        assert sorted(order) == list(range(n))
        g = build_onng(m, order)
        assert max_indegree(g) >= k - 1
        if witness is not None:
            assert verify_structure(coloring_from_metric(m), witness)
            assert order[0] == witness.hub
            assert g.indegree[witness.hub] >= k - 1


def test_order_metric_rejects_singleton():
    with pytest.raises(ValueError):
        order_metric(metric_from_points(PointSet(1, ((0,),))))


def test_certificates_survive_python_O():
    # an anchor map too small for k=4 must still be refused with -O, which
    # strips plain assert statements
    script = (
        "from onng.ramsey import StructureKind, _extract_star\n"
        "try:\n"
        "    _extract_star({0: [1]}, 4, StructureKind.GREEN_STAR)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('no AssertionError')\n"
    )
    src = str(Path(onng.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "fewer than k-1=3" in run.stdout
