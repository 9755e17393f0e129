"""Plain-text formats for point sets, rank metrics, and insertion orders.

All three are line-oriented, whitespace-delimited, with '#' comments and
blank lines ignored.  Coordinates are parsed as exact rationals (decimal
strings go through Fraction), so reading back a written file reproduces the
metric bit for bit.

points file: one point per line, one coordinate per column; every line must
have the dimension of the first.

metric file: a header line "n", then exactly n(n-1)/2 lines "i j rank" in
any line order, giving a bijection onto 0..n(n-1)/2-1.  Each rank goes
straight to its pair's slot; the ranks are checked once, by RankedMetric.

order file: one vertex id per line, a permutation of 0..n-1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Order, OrderedNNG, PointSet, RankedMetric, iter_pairs, pair_index


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_points(text: str) -> PointSet:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("points file has no data lines")
    rows: list[tuple[Fraction, ...]] = []
    dim = None
    for lineno, line in lines:
        parts = line.split()
        if dim is None:
            dim = len(parts)
        elif len(parts) != dim:
            raise ValueError(
                f"line {lineno}: expected {dim} coordinates, got {len(parts)}"
            )
        try:
            rows.append(tuple(Fraction(p) for p in parts))
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"line {lineno}: bad coordinate: {e}") from e
    return PointSet(dim, tuple(rows))


def write_points(ps: PointSet) -> str:
    out = []
    for row in ps.exact():
        out.append(" ".join(_format_coord(c) for c in row))
    return "\n".join(out) + "\n"


def _format_coord(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def parse_metric(text: str) -> RankedMetric:
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


def write_metric(m: RankedMetric) -> str:
    out = [str(m.n)]
    for (i, j), r in zip(iter_pairs(m.n), m.pair_rank_list()):
        out.append(f"{i} {j} {r}")
    return "\n".join(out) + "\n"


def parse_order(text: str, n: int | None = None) -> Order:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("order file has no data lines")
    ids = []
    for lineno, line in lines:
        parts = line.split()
        for p in parts:
            try:
                ids.append(int(p))
            except ValueError as e:
                raise ValueError(f"line {lineno}: bad vertex id: {e}") from e
    if n is not None and len(ids) != n:
        raise ValueError(f"order has {len(ids)} ids, expected {n}")
    return tuple(ids)


def write_order(order: Iterable[int]) -> str:
    return "".join(f"{v}\n" for v in order)


def sniff_format(text: str) -> str:
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


def render_dot(g: OrderedNNG) -> str:
    """The graph in DOT syntax: every vertex declared, one edge per
    non-first vertex pointing at its parent, sorted by child id."""
    out = ["digraph onng {"]
    for v in range(g.n):
        out.append(f"  v{v};")
    for child in sorted(g.parent):
        out.append(f"  v{child} -> v{g.parent[child]};")
    out.append("}")
    return "\n".join(out) + "\n"
