"""Shared generators and an in-process CLI runner for the test suite."""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import strategies as st

from onng import LinePointSet, PointSet, RankedMetric, pair_index
from onng.cli import main as cli_main


def rand_line_set(rng: random.Random, n: int) -> LinePointSet:
    """Strictly increasing rationals with one common denominator <= 1e6 and
    numerators < 1e7; small enough that squared spans stay inside int64."""
    q = rng.randint(1, 10**6)
    nums = sorted(rng.sample(range(10**7), n))
    return LinePointSet(tuple(Fraction(p, q) for p in nums))


def rand_point_set(rng: random.Random, n: int, d: int) -> PointSet:
    """Points on the 1e-9 grid in the unit cube, duplicates redrawn; same
    scheme the CLI generator uses."""
    seen = set()
    rows = []
    while len(rows) < n:
        row = tuple(rng.randrange(10**9) for _ in range(d))
        if row in seen:
            continue
        seen.add(row)
        rows.append(tuple(Fraction(c, 10**9) for c in row))
    return PointSet(d, tuple(rows))


def reference_metric(ps: PointSet) -> RankedMetric:
    """metric_from_points written out plainly: every pair's squared distance
    over the exact Fractions, sorted with the index pair as the tie-break."""
    pts = ps.exact()
    keyed = sorted(
        (sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])), i, j)
        for i, j in combinations(range(ps.n), 2)
    )
    flat = [0] * len(keyed)
    for r, (_, i, j) in enumerate(keyed):
        flat[pair_index(i, j, ps.n)] = r
    return RankedMetric(ps.n, flat)


@st.composite
def lattice_point_sets(draw, max_dim: int = 5, max_n: int = 80, min_n: int = 1):
    """n distinct points of a small integer lattice (d <= max_dim, n drawn
    uniformly up to max_n <= 80, ids shuffled): so many equal distances that
    the index-pair tie-break decides often."""
    dim = draw(st.integers(1, max_dim))
    side = {1: 80, 2: 8, 3: 4}.get(dim, 2)
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.permutations(list(product(range(side + 1), repeat=dim))))
    return PointSet(dim, tuple(rows[:n]))


# The metric reader as it was before it was vectorised, kept verbatim as the
# reference the vectorised fileio.sniff_format and fileio.parse_metric must
# match, error text and line number included.


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def reference_parse_metric(text: str) -> RankedMetric:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("metric file has no data lines")
    lineno, header = lines[0]
    try:
        n = int(header)
    except ValueError as e:
        raise ValueError(f"line {lineno}: header must be the vertex count") from e
    if n < 1:
        raise ValueError(f"line {lineno}: vertex count must be positive")
    p = n * (n - 1) // 2
    body = lines[1:]
    if len(body) != p:
        raise ValueError(f"expected {p} pair lines for n={n}, got {len(body)}")
    flat: list[int | None] = [None] * p
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j rank'")
        try:
            i, j, r = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad integer: {e}") from e
        if i == j or not (0 <= i < n) or not (0 <= j < n):
            raise ValueError(f"line {lineno}: bad pair ({i}, {j}) for n={n}")
        k = pair_index(min(i, j), max(i, j), n)
        if flat[k] is not None:
            raise ValueError(f"line {lineno}: pair {(min(i, j), max(i, j))} given twice")
        flat[k] = r
    return RankedMetric(n, flat)


def reference_sniff_format(text: str) -> str:
    """Guess 'metric' or 'points'.  Metric requires the full shape: a lone
    positive integer header n, then exactly n(n-1)/2 three-field lines.
    Anything else is points.  The one ambiguous case, a single 1-D point
    written as a bare positive integer, sniffs as the (trivial) n=1 metric;
    pass the format explicitly to override."""
    lines = _data_lines(text)
    if not lines:
        raise ValueError("input has no data lines")
    parts = lines[0][1].split()
    if len(parts) == 1:
        try:
            n = int(parts[0])
        except ValueError:
            return "points"
        if n >= 1 and len(lines) - 1 == n * (n - 1) // 2:
            if all(len(line.split()) == 3 for _, line in lines[1:]):
                return "metric"
    return "points"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse error path
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()
