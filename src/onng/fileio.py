"""Plain-text formats for point sets, rank metrics, and insertion orders.

All three are line-oriented, whitespace-delimited, with '#' comments and
blank lines ignored.  Lines break wherever str.splitlines breaks them, and a
comment runs from '#' to the end of its line.  A text is split into lines
once (Lines); the CLI reads a file as a Text, which keeps that split and
the plain scan below, so sniff_format and the parse after it share them.
Coordinates are parsed as exact rationals (decimal strings go through
Fraction), so reading back a written points file reproduces the point set
bit for bit.

points file: one point per line, one coordinate per column; every line must
have the dimension of the first.

metric file: a header line "n", then exactly n(n-1)/2 lines "i j rank" in
any line order, giving a bijection onto 0..n(n-1)/2-1.  Every field is read
as a Python int (so "+5", "007", "1_0" are integers and "1.0" is not).
parse_metric has two tokenizers, one acceptor and one explainer.  A plain
file, as write_metric writes it, is tokenized by one byte scan that never
splits it into lines (plain_fields): only ASCII digits, spaces, tabs and
"\n", no field longer than 18 digits (so every field is exact in int64),
one field on the first line that has any, then three on every other line
that has any.  Every other spelling (comments, other line breaks, signs,
underscores, other scripts' digits, longer fields) is tokenized from Lines,
a block of lines per numpy call, into one int64 vector.  Either vector goes
to one array acceptor, which checks the header, the pair count and the
pairs and hands the ranks to RankedMetric; no tuple or list is kept per
line.  Only a file the acceptor declines (or neither tokenizer reads) is
read again line by line, in file order, and its first defective line is
reported by the first check it fails: field count, integers, pair range,
repeated pair.  The ranks are checked once, by RankedMetric.

order file: one vertex id per line, a permutation of 0..n-1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import (
    RANK_PAIRS_MAX_N,
    GuardError,
    Order,
    OrderedNNG,
    PointSet,
    RankedMetric,
    iter_pairs,
    pair_index,
)

# Exactly the characters str.splitlines breaks at ("\r\n" is "\r" then "\n").
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Compiled on first use (re caches it): compiling a class with characters
# past U+00FF allocates about 130 KB, which a file without comments never
# needs.
_COMMENT = f"#[^{_LINE_BREAKS}]*"
# Metric lines converted to integers per numpy call: bounds the field list.
_BLOCK_LINES = 2**15
# The bytes of a plain metric file, and its longest field: every integer of
# 18 digits fits in int64, and 10**18 <= 2**63 - 1 < 10**19.
_PLAIN_BYTES = b"0123456789 \t\n"
_PLAIN_DIGITS = 18


class Lines:
    """A text split into lines once: ``lines`` with comments blanked out,
    ``fields`` the whitespace-separated field count of each (0 for a blank
    or comment line), and ``data`` the indexes of the lines with fields."""

    def __init__(self, text: str) -> None:
        # A comment becomes one space, so "\r#x\n" stays two line breaks.
        if "#" in text:
            text = re.sub(_COMMENT, " ", text)
        self.lines = text.splitlines()
        self.fields = np.fromiter(
            map(len, map(str.split, self.lines)), dtype=np.int32, count=len(self.lines)
        )
        self.data = np.flatnonzero(self.fields)


def plain_fields(text: str) -> np.ndarray | None:
    """Every field of a plain metric file as int64, from one scan over its
    bytes; None if the text is not plain, which sends the reader to Lines.

    Plain means: ASCII digits, spaces, tabs and "\n" only; no field longer
    than _PLAIN_DIGITS digits; one field on the first line with any, three
    on every later line with any.  The scan never raises.
    """
    if not text.isascii():
        return None
    # "\n" on both ends: every field has a non-digit before and after it
    raw = f"\n{text}\n".encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):
        return None
    # Each byte-sized temporary is dropped as soon as it is used: together
    # they, not the fields, set the reader's peak memory.
    b = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(b == ord("\n"))
    digit = b >= ord("0")  # the other plain bytes all sort below "0"
    del b, raw
    starts = np.flatnonzero(digit[1:] > digit[:-1])  # each field's first digit - 1
    ends = np.flatnonzero(digit[:-1] > digit[1:])  # each field's last digit
    del digit
    if not starts.size:
        return None
    ends -= starts  # each field's length
    if ends.max() > _PLAIN_DIGITS:
        return None
    del ends
    fields = np.diff(np.searchsorted(starts, breaks))  # per line
    fields = fields[fields != 0]
    if fields[0] != 1 or np.any(fields[1:] != 3):
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


class Text(str):
    """A file's text that is scanned (plain_fields) and split into Lines at
    most once each, however many readers ask for them."""

    @cached_property
    def split_lines(self) -> Lines:
        return Lines(self)

    @cached_property
    def plain_fields(self) -> np.ndarray | None:
        return plain_fields(self)


def _lines(text: str) -> Lines:
    return text.split_lines if isinstance(text, Text) else Lines(text)


def _plain(text: str) -> np.ndarray | None:
    return text.plain_fields if isinstance(text, Text) else plain_fields(text)


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every data line, for the point and order parsers."""
    t = _lines(text)
    return [(k + 1, t.lines[k]) for k in t.data.tolist()]


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
    return PointSet(dim, rows)


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
    fields, lines = _plain(text), None
    if fields is None:
        lines = _lines(text)
        fields = _line_fields(lines)
    m = None if fields is None else _metric(fields)
    if m is not None:
        return m
    return _explain(_lines(text) if lines is None else lines)


def _line_fields(t: Lines) -> np.ndarray | None:
    """Every field of a metric-shaped Lines as int64: one field on the first
    data line, three on every other.  None for any other shape, a field
    int() rejects, or a value past int64."""
    f = t.fields[t.data]
    if not f.size or f[0] != 1 or np.any(f[1:] != 3):
        return None
    fields = np.empty(int(f.sum()), dtype=np.int64)
    pos = 0
    for a in range(0, len(t.lines), _BLOCK_LINES):
        block = " ".join(t.lines[a : a + _BLOCK_LINES]).split()
        try:
            fields[pos : pos + len(block)] = np.array(block, dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        pos += len(block)
        # one block's field strings at a time: they set the reader's peak
        del block
    return fields


def _metric(fields: np.ndarray) -> RankedMetric | None:
    """The metric of a file's fields (header, then "i j rank" triples), or
    None if the header, the pair count or a pair fails a check: _explain
    then reports the first defect.  A non-bijective rank vector raises
    here, as RankedMetric raises it."""
    n = int(fields[0])
    p = n * (n - 1) // 2
    if not 1 <= n <= RANK_PAIRS_MAX_N or fields.size != 1 + 3 * p:
        return None
    i, j, ranks = fields[1:].reshape(p, 3).T
    if p and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n or np.any(i == j)):
        return None
    # k = pair_index(lo, hi, n), built in place in hi; ids below n fit int32
    lo, hi = np.minimum(i, j, dtype=np.int32), np.maximum(i, j, dtype=np.int32)
    hi -= lo
    hi -= 1
    lo *= 2 * n - 1 - lo
    lo //= 2
    hi += lo
    if p and np.bincount(hi).max() > 1:
        return None
    flat = np.empty(p, dtype=np.int64)
    flat[hi] = ranks
    return RankedMetric(n, flat)


def _explain(t: Lines) -> RankedMetric:
    """A metric file read line by line in file order, for a file _metric
    declined: raises the first defect, checking each line for its field
    count, integers, pair range and a repeated pair, in that order.  A file
    with no such defect ends in RankedMetric's rank check."""
    if not t.data.size:
        raise ValueError("metric file has no data lines")
    h, *body = t.data.tolist()
    try:
        n = int(t.lines[h].strip())
    except ValueError as e:
        raise ValueError(f"line {h + 1}: header must be the vertex count") from e
    if n < 1:
        raise ValueError(f"line {h + 1}: vertex count must be positive")
    if n > RANK_PAIRS_MAX_N:
        raise GuardError(f"n={n} exceeds the pair-ranking guard (n <= {RANK_PAIRS_MAX_N})")
    p = n * (n - 1) // 2
    if len(body) != p:
        raise ValueError(f"expected {p} pair lines for n={n}, got {len(body)}")
    flat: list[int | None] = [None] * p
    for k in body:
        parts = t.lines[k].split()
        if len(parts) != 3:
            raise ValueError(f"line {k + 1}: expected 'i j rank'")
        try:
            i, j, r = map(int, parts)
        except ValueError as e:
            raise ValueError(f"line {k + 1}: bad integer: {e}") from e
        if i == j or not (0 <= i < n) or not (0 <= j < n):
            raise ValueError(f"line {k + 1}: bad pair ({i}, {j}) for n={n}")
        pair = min(i, j), max(i, j)
        key = pair_index(*pair, n)
        if flat[key] is not None:
            raise ValueError(f"line {k + 1}: pair {pair} given twice")
        flat[key] = r
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
    fields = _plain(text)
    if fields is not None:
        n = int(fields[0])
        return "metric" if n >= 1 and fields.size == 1 + 3 * (n * (n - 1) // 2) else "points"
    t = _lines(text)
    if not t.data.size:
        raise ValueError("input has no data lines")
    if t.fields[t.data[0]] == 1:
        try:
            n = int(t.lines[t.data[0]].strip())
        except ValueError:
            return "points"
        if n >= 1 and t.data.size - 1 == n * (n - 1) // 2:
            if np.all(t.fields[t.data[1:]] == 3):
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
