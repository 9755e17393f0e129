"""Triple coloring, the deletion process, and order synthesis from witnesses."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import onng
from onng import (
    MonoStructure,
    PointSet,
    StructureKind,
    TripleColor,
    build_onng,
    color_triple,
    coloring_from_metric,
    max_indegree,
    metric_from_points,
    order_metric,
    random_rank_metric,
    run_process,
    run_process_traced,
    synthesize_order,
    verify_structure,
)


def _line_metric(*coords):
    return metric_from_points(PointSet(1, tuple((c,) for c in coords)))


def test_color_triple_cases():
    # shortest side decides: {i2,i3} -> Red, {i1,i3} -> Green, {i1,i2} -> Blue
    m = _line_metric(0, 10, 11)  # closest pair is {1, 2}
    assert color_triple(m, 0, 1, 2) is TripleColor.RED
    m = _line_metric(0, 1, 100)  # closest pair is {0, 1}
    assert color_triple(m, 0, 1, 2) is TripleColor.BLUE
    # a metric where {i1,i3} is shortest cannot come from the line; use ranks
    from onng import RankedMetric

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
    found = run_process(coloring_from_metric(m), 3, 3)
    assert found == MonoStructure(StructureKind.RED_CLIQUE, (0, 1, 2))


def test_run_process_validates():
    col = coloring_from_metric(_line_metric(0, 1, 3))
    with pytest.raises(ValueError):
        run_process(col, 3, 2)
    with pytest.raises(ValueError):
        run_process(col, 0, 3)


def test_run_process_counters_on_synthetic_drains():
    # constant colorings drive the process into specific drain shapes
    for const in (TripleColor.GREEN, TripleColor.BLUE):
        for n in (1, 5, 17, 60):
            for k in (3, 4, 5):
                found, stats = run_process_traced(lambda a, b, c: const, n, k)
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
            found, stats = run_process_traced(col, n, k)
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
