"""Self-tests for the benchmark's checkers and span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import checks
import layers
import run
import workloads

ORDER = {"kind": "order", "strategy": "euclid", "n": 4}


def _report(**over):
    doc = {"strategy": "euclid", "n": 4, "order": [2, 0, 1, 3], "indegrees": [0, 0, 3, 0],
           "max_indegree": 3, "guarantee": 2, "center": 2}
    doc.update(over)
    return json.dumps(doc)


def _search(**over):
    doc = {"n": 4, "canonical": False, "orderings_scanned": 720, "witnesses_at_one": 336,
           "max_sum": "1/1", "counterexamples": []}
    doc.update(over)
    return json.dumps(doc)


SEARCH = {"kind": "search", "n": 4, "canonical": False}


def _counted(exit_code, stdout, expect):
    tally = run.Tally()
    tally.record("cmd", checks.check_result(exit_code, stdout, expect))
    return tally.attempted, tally.failed


def test_valid_reports_pass():
    assert checks.check_result(0, _report(), ORDER) == []
    assert checks.check_result(0, _search(), SEARCH) == []
    assert _counted(0, _report(), ORDER) == (1, 0)


def test_duplicated_id_is_a_failure():
    assert _counted(0, _report(order=[2, 0, 2, 3]), ORDER) == (1, 1)


def test_max_indegree_below_guarantee_is_a_failure():
    assert _counted(0, _report(guarantee=4), ORDER) == (1, 1)


def test_path_order_must_have_max_indegree_one():
    expect = {"kind": "order", "strategy": "path", "n": 4}
    path = {"strategy": "path", "order": [3, 2, 1, 0], "guarantee": 1, "center": None}
    assert checks.check_result(0, _report(**path, indegrees=[0, 1, 1, 1], max_indegree=1), expect) == []
    assert checks.check_result(0, _report(**path), expect) != []


def test_indegrees_must_sum_to_n_minus_one():
    assert _counted(0, _report(indegrees=[0, 1, 3, 0]), ORDER) == (1, 1)


def test_nonempty_counterexamples_is_a_failure():
    cex = [{"pairs": [[0, 1, 0]], "sum": "9/8"}]
    assert _counted(0, _search(counterexamples=cex), SEARCH) == (1, 1)


def test_search_counts_and_max_sum_are_checked():
    assert checks.check_result(0, _search(witnesses_at_one=335), SEARCH) != []
    assert checks.check_result(0, _search(max_sum="7/8"), SEARCH) != []
    canonical = {"kind": "search", "n": 5, "canonical": True}
    good = _search(n=5, canonical=True, orderings_scanned=30_240, witnesses_at_one=2_544)
    assert checks.check_result(0, good, canonical) == []


def test_nonzero_exit_is_a_failure():
    assert _counted(1, _report(), ORDER) == (1, 1)
    assert _counted(3, _search(), SEARCH) == (1, 1)
    assert _counted(2, "", {"kind": "gen"}) == (1, 1)


def test_eval_must_report_the_given_order():
    expect = {"kind": "eval", "n": 4, "order": [2, 0, 1, 3]}
    ev = {"strategy": "eval", "guarantee": None, "center": None}
    assert checks.check_result(0, _report(**ev), expect) == []
    assert checks.check_result(0, _report(**ev, order=[0, 2, 1, 3]), expect) != []


def test_stdout_that_is_not_a_report_is_a_failure():
    assert checks.check_result(0, "", ORDER) != []
    assert checks.check_result(0, "[]", ORDER) != []


def test_changed_stdout_is_a_failure():
    assert checks.same_stdout("ab", "ab") == []
    assert checks.same_stdout("ab", "ac") != []


def _span(i, name, start, end, parent=None, **counts):
    return {"id": i, "name": name, "cmd": "c", "parent": parent, "start": start, "end": end, "counts": counts}


def test_self_time_excludes_child_spans():
    spans = [_span(0, "cli.main", 0.0, 10.0), _span(1, "core.build_onng", 1.0, 4.0, 0),
             _span(2, "core.path_order", 5.0, 6.0, 0)]
    assert layers.self_times(spans) == [6.0, 3.0, 1.0]
    assert layers.layer_self_times([{"spans": spans}]) == {"cli": 6.0, "core": 4.0}


def test_per_layer_counts_from_public_results():
    search = _span(1, "oracle.problem1_search", 1.0, 3.0, 0, n=5, canonical=1, jobs=2,
                   enumerated=3_628_800, scanned=30_240)
    ramsey = _span(2, "ramsey.order_metric", 3.0, 3.5, 0, n=1024, k=4, witness=1)
    doc = {"cmd": "s", "spans": [_span(0, "cli.main", 0.0, 4.0), search, ramsey]}
    ref = {"cmd": "s.jobs1", "spans": [_span(0, "oracle.problem1_search", 0.0, 3.6)]}
    m = layers.per_layer([doc], [], {}, {"s": 4.5}, {"s": ref}, 5.0, 4.0)
    assert set(m) == {name for name, *_ in layers.PER_LAYER}
    assert m["oracle.canonical_yield"] == 30_240 / 3_628_800
    assert abs(m["oracle.parallel_efficiency"] - 0.9) < 1e-12
    assert m["ramsey.k_attempts"] == 7 and m["ramsey.hit_ratio"] == 1 / 7
    assert m["oracle.problem1_search_s"] == 2.0 and m["cli.uncovered_s"] == 0.5
    assert m["trace.overhead_s"] == 1.0


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7, "d") == workloads.build(name, 7, "d")
    assert workloads.build("points", 7, "d") != workloads.build("points", 8, "d")
    assert workloads.build("metric", 7, "d").order_files != workloads.build("metric", 8, "d").order_files


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
