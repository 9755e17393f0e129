"""Acceptance suite: one test per shipped criterion, seeds and budgets pinned.

Each test prints a single PASS line on success so a -s run reads as a
checklist; the test name states the criterion.  Criterion 6's n=5 leg scans
all 3,628,800 metrics on every run; it takes a few seconds.
"""

import json
import random
import time
from fractions import Fraction

from onng import (
    best_order_exhaustive,
    build_onng,
    coloring_from_metric,
    degree_profile_exhaustive,
    gen_hard_line,
    grid_guarantee,
    log_guarantee,
    max_indegree,
    metric_from_points,
    order_euclid,
    order_line,
    order_metric,
    path_order,
    problem1_sum,
    random_rank_metric,
    run_process_traced,
    verify_structure,
)

from conftest import rand_line_set, rand_point_set, run_cli


def test_criterion_1_line_lower_bound_200_random_sets():
    rng = random.Random(101)
    worst = 0.0
    for trial in range(200):
        n = min(1024, max(2, int(2 ** rng.uniform(1, 10))))
        lps = rand_line_set(rng, n)
        t0 = time.monotonic()
        order, center = order_line(lps)
        g = build_onng(metric_from_points(lps.to_point_set()), order)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert max_indegree(g) >= (n - 1).bit_length(), (trial, n)
        assert dt < 1.0, (trial, n, dt)
    print(f"\nACCEPTANCE 1 PASS: 200/200 line sets hit ceil(log2 n); worst {worst:.3f}s")


def test_criterion_2_hard_line_upper_bound_exhaustive():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        m = metric_from_points(gen_hard_line(k).to_point_set())
        profile = degree_profile_exhaustive(m)
        assert max(profile) <= k, (k, profile)
        _, best = best_order_exhaustive(m)
        assert best == k, (k, best)
    dt = time.monotonic() - t0
    assert dt < 10.0, dt
    print(f"\nACCEPTANCE 2 PASS: P_1,P_2,P_3 capped at k and attain k ({dt:.2f}s)")


def test_criterion_3_path_order_all_tails():
    rng = random.Random(103)
    checked = 0
    for trial in range(100):
        n = rng.randint(2, 64)
        m = random_rank_metric(n, rng)
        for tail in range(n):
            order = path_order(m, tail)
            g = build_onng(m, order)
            assert max_indegree(g) == 1, (trial, tail)
            assert order[-1] == tail
            for p in range(1, n):
                assert g.parent[order[p]] == order[p - 1], (trial, tail, p)
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: {checked} (metric, tail) runs all yield directed paths")


def test_criterion_4_euclid_bounds_both_dimensions():
    rng = random.Random(104)
    worst = 0.0
    for d in (2, 3):
        for trial in range(100):
            n = min(4096, max(16, int(2 ** rng.uniform(4, 12))))
            ps = rand_point_set(rng, n, d)
            t0 = time.monotonic()
            order, center, guarantee = order_euclid(ps)
            g = build_onng(metric_from_points(ps), order)  # independent rebuild
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            assert guarantee == grid_guarantee(n, d)
            assert max_indegree(g) >= guarantee, (d, trial, n)
            assert max_indegree(g) >= log_guarantee(n, d), (d, trial, n)
            assert g.indegree[center] >= guarantee
            assert dt < 5.0, (d, trial, n, dt)
    print(f"\nACCEPTANCE 4 PASS: 200/200 point sets meet grid and log bounds; worst {worst:.2f}s")


def test_criterion_5_ramsey_witnesses_and_counters():
    rng = random.Random(105)
    witnessed = 0
    drained_runs = 0
    for n in (16, 64, 256, 512):
        for trial in range(100):
            m = random_rank_metric(n, rng)
            order, k, witness = order_metric(m)
            g = build_onng(m, order)
            assert max_indegree(g) >= k - 1, (n, trial, k)
            col = coloring_from_metric(m)
            if witness is not None:
                witnessed += 1
                assert verify_structure(col, witness), (n, trial)
            # replay every failed process run and check its counters
            k_max = max(3, (n - 1).bit_length())
            stop = k if witness is not None else 2
            for kk in range(k_max, stop, -1):
                found, stats = run_process_traced(m, n, kk)
                assert found is None
                assert stats.picked < kk + 2 * (kk - 1) ** 2, (n, trial, kk)
                assert stats.green_edges + stats.blue_edges < 2 * (kk - 1) ** 2
                assert 2 * stats.red_edges < kk * (kk - 1) ** 2, (n, trial, kk)
                drained_runs += 1
    assert witnessed > 0
    print(
        f"\nACCEPTANCE 5 PASS: 400/400 runs verified ({witnessed} witnesses; "
        f"{drained_runs} drained runs kept all counters)"
    )


def test_criterion_6_search_n4_reproduces_claim():
    t0 = time.monotonic()
    code, out, _ = run_cli(["search-problem1", "--n", "4"])
    dt = time.monotonic() - t0
    assert code == 0
    rep = json.loads(out)
    assert rep["orderings_scanned"] == 720
    assert rep["max_sum"] == "1/1"
    assert rep["counterexamples"] == []
    assert rep["witnesses_at_one"] >= 1
    # the doubling line set's metric is one of the equality witnesses
    m = metric_from_points(gen_hard_line(2).to_point_set())
    assert problem1_sum(m) == Fraction(1)
    assert dt < 30.0, dt
    print(f"\nACCEPTANCE 6 PASS: n=4 scan = 720 metrics, max 1, no counterexamples ({dt:.1f}s)")


def test_criterion_6_search_n5_full_scan():
    t0 = time.monotonic()
    code, out, _ = run_cli(["search-problem1", "--n", "5", "--yes", "--jobs", "8"])
    dt = time.monotonic() - t0
    assert code == 0
    rep = json.loads(out)
    assert rep["orderings_scanned"] == 3_628_800
    assert rep["max_sum"] == "1/1"
    assert rep["counterexamples"] == []
    assert rep["witnesses_at_one"] == 305_280
    assert dt < 3600.0, dt
    print(f"\nACCEPTANCE 6 PASS (n=5): 3,628,800 metrics, no counterexamples ({dt:.0f}s)")


def test_criterion_7_no_strategy_beats_the_oracle():
    rng = random.Random(107)
    from onng import LinePointSet

    for trial in range(50):
        n = rng.randint(2, 7)
        if trial % 2 == 0:
            lps = rand_line_set(rng, n)
            m = metric_from_points(lps.to_point_set())
            geometric = lps
        else:
            m = random_rank_metric(n, rng)
            geometric = None
        _, best = best_order_exhaustive(m)
        achieved = {}
        achieved["path"] = max_indegree(build_onng(m, path_order(m, 0)))
        order, k, _ = order_metric(m)
        achieved["ramsey"] = max_indegree(build_onng(m, order))
        if geometric is not None:
            order, _ = order_line(geometric)
            achieved["line"] = max_indegree(build_onng(m, order))
            order, _, _ = order_euclid(geometric.to_point_set())
            achieved["euclid"] = max_indegree(build_onng(m, order))
        for name, val in achieved.items():
            assert val <= best, (trial, name, val, best)
    print("\nACCEPTANCE 7 PASS: 50/50 corpora, every strategy <= exhaustive optimum")


def test_criterion_8_fixed_seed_byte_determinism(tmp_path):
    pts = tmp_path / "p.txt"
    met = tmp_path / "m.txt"
    ordf = tmp_path / "ord.txt"
    run_cli(["gen", "random-points", "--n", "40", "--d", "2", "--seed", "8", "-o", str(pts)])
    run_cli(["gen", "random-metric", "--n", "12", "--seed", "8", "-o", str(met)])
    run_cli(["order", "--strategy", "path", "--input", str(met), "--save-order", str(ordf)])
    commands = [
        ["gen", "hard-line", "--k", "3"],
        ["gen", "random-points", "--n", "40", "--d", "2", "--seed", "8"],
        ["gen", "random-metric", "--n", "12", "--seed", "8"],
        ["order", "--strategy", "line", "--input", str(pts), "--input-format", "points"],
        ["order", "--strategy", "euclid", "--input", str(pts)],
        ["order", "--strategy", "ramsey", "--input", str(met)],
        ["order", "--strategy", "path", "--tail", "3", "--input", str(met)],
        ["order", "--strategy", "euclid", "--input", str(pts), "--format", "dot"],
        ["eval", "--input", str(met), "--order", str(ordf)],
        ["search-problem1", "--n", "4", "--jobs", "2"],
    ]
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv
    print(f"\nACCEPTANCE 8 PASS: {len(commands)} commands byte-identical across reruns")
