"""Checks on each command's exit code and stdout.

Every check returns a list of problems; an empty list means the command
passed.  A command with any problem counts once in ``failed``.
"""

from __future__ import annotations

import json

# (n, canonical) -> (orderings_scanned, witnesses_at_one): the exhaustive
# Problem-1 scans whose counts the paper's n <= 5 answer rests on.
SEARCH_COUNTS = {(4, False): (720, 336), (5, True): (30_240, 2_544)}


def check_result(exit_code: int, stdout: str, expect: dict) -> list[str]:
    """Problems with one command run; ``expect`` comes from its ``Command``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if expect["kind"] == "gen":
        return []
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return [f"stdout is not a JSON report: {e}"]
    if not isinstance(doc, dict):
        return ["stdout is not a JSON object"]
    if expect["kind"] == "search":
        return check_search(doc, expect)
    return check_order(doc, expect)


def check_order(doc: dict, expect: dict) -> list[str]:
    """An ``order`` or ``eval`` report: the order is a permutation of 0..n-1,
    the indegrees form a forest on n vertices, and the strategy met its
    guarantee (path: exactly one)."""
    n = expect["n"]
    strategy = expect.get("strategy", "eval")
    problems = []
    if doc.get("n") != n:
        problems.append(f"n is {doc.get('n')!r}, expected {n}")
    if doc.get("strategy") != strategy:
        problems.append(f"strategy is {doc.get('strategy')!r}, expected {strategy!r}")
    order = doc.get("order")
    if not _int_list(order) or sorted(order) != list(range(n)):
        problems.append("order is not a permutation of 0..n-1")
    elif "order" in expect and order != list(expect["order"]):
        problems.append("eval reported another order than the one given")
    indeg = doc.get("indegrees")
    if not _int_list(indeg) or len(indeg) != n or sum(indeg) != n - 1:
        problems.append("indegrees are not n values summing to n-1")
        return problems
    top = doc.get("max_indegree")
    if top != max(indeg):
        problems.append(f"max_indegree {top!r} is not the largest indegree {max(indeg)}")
    guarantee = doc.get("guarantee")
    if strategy == "path":
        if top != 1:
            problems.append(f"path order has max_indegree {top!r}, expected 1")
    elif strategy != "eval":
        if not isinstance(guarantee, int) or not isinstance(top, int) or top < guarantee:
            problems.append(f"max_indegree {top!r} is below the guarantee {guarantee!r}")
    return problems


def check_search(doc: dict, expect: dict) -> list[str]:
    """A ``search-problem1`` report: no counterexample, maximum sum exactly 1,
    and the scan and witness counts the full scan is known to give."""
    problems = []
    if doc.get("counterexamples") != []:
        problems.append("counterexamples is not empty")
    if doc.get("max_sum") != "1/1":
        problems.append(f"max_sum is {doc.get('max_sum')!r}, expected '1/1'")
    key = (expect["n"], expect["canonical"])
    if (doc.get("n"), doc.get("canonical")) != key:
        problems.append(f"report is for (n, canonical) = {(doc.get('n'), doc.get('canonical'))}, expected {key}")
    if key in SEARCH_COUNTS:
        got = (doc.get("orderings_scanned"), doc.get("witnesses_at_one"))
        if got != SEARCH_COUNTS[key]:
            problems.append(f"orderings_scanned / witnesses_at_one are {got}, expected {SEARCH_COUNTS[key]}")
    return problems


def _int_list(v) -> bool:
    return isinstance(v, list) and all(type(x) is int for x in v)


def same_stdout(first_digest: str, digest: str) -> list[str]:
    """The CLI is byte-deterministic: every run of a command must print what
    its first run printed."""
    if digest != first_digest:
        return ["stdout differs from the command's first run"]
    return []
