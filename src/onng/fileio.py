"""Plain-text formats for point sets, rank metrics, and insertion orders.

All three are line-oriented, whitespace-delimited, with '#' comments and
blank lines ignored.  Lines break wherever str.splitlines breaks them, and a
comment runs from '#' to the end of its line.  Files are read in binary
(Source): the plain scans read runs of whole lines of about _PLAIN_CHUNK
bytes (_runs) and find their fields alike (_tokens); only a reader that
falls back to Lines decodes the file whole.  A Source keeps each scan and
the split, for sniff_format and the parse after it; a str gets one too.
Coordinates are read as exact rationals, so reading back a written points
file reproduces the point set bit for bit.

points file: one point per line, one coordinate per column; every line must
have the dimension of the first.  A plain file, as gen random-points and gen
hard-line write it, is read run by run onto the integer grid (points_scan),
never split into lines: only ASCII digits, "-", ".", spaces, tabs and "\n"
or "\r\n", every field -?digits(.digits)? of at most 18 digits at the file's
largest decimal count, the same field count on every line, and no two points
equal.  Every other spelling (comments, other line breaks, "+", "1/3", ".5",
"1e3", longer fields) and every defective file goes through Lines and one
Fraction per field, which words the error.

metric file: a header line "n", then exactly n(n-1)/2 lines "i j rank" in
any line order, giving a bijection onto 0..n(n-1)/2-1.  Every field is read
as a Python int (so "+5", "007", "1_0" are integers and "1.0" is not).
parse_metric has two tokenizers, one acceptor and one explainer.  A plain
file, as write_metric writes it, is read in one pass over the runs
(plain_scan) and never decoded or split into lines: only ASCII digits,
spaces, tabs and "\n" or "\r\n", no field longer than 18 digits (so every
field is exact in int64), one field on the first line that has any, then
three on every other line that has any.  Every other spelling (comments,
other line breaks, signs, underscores, other scripts' digits, longer fields)
is tokenized from Lines, a block of lines per numpy call.  Either tokenizer
hands its int64 blocks to one acceptor, which checks the header, the pair
count and the pairs and writes each rank into its pair's slot above the
diagonal of the n×n rank matrix, which the metric mirrors and keeps without
a copy; no vector of all the fields or of all the ranks, and no tuple or
list per line, is kept.  The matrix is allocated only once the header passes
the pair-ranking guard and the file is long enough to hold its pairs, so a
short file with a huge header allocates nothing of that size.  Only a file
the acceptor declines (or neither tokenizer reads) is read again line by
line, in file order, and its first defective line is reported by the first
check it fails: field count, integers, pair range, repeated pair (one byte
per pair).  A file with no such defect gets RankedMetric's rank error.

order file: one vertex id per line, a permutation of 0..n-1.
"""

from __future__ import annotations

import io
import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from .core import (
    RANK_PAIRS_MAX_N,
    Order,
    OrderedNNG,
    PointSet,
    RankedMetric,
    _on_grid,
    check_pair_guard,
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
# Bytes of a plain file read and scanned per numpy pass (_runs): bounds the
# scans' byte-sized temporaries.
_PLAIN_CHUNK = 2**18
# Pair lines write_metric formats per numpy pass: bounds its byte table.
_WRITE_LINES = 2**16
# The bytes of a plain metric file, and its longest field: every integer of
# 18 digits fits in int64, and 10**18 <= 2**63 - 1 < 10**19.
_PLAIN_BYTES = b"0123456789 \t\n"
_PLAIN_DIGITS = 18
# The bytes of a plain points file: the metric file's, a sign and a point.
_POINT_BYTES = _PLAIN_BYTES + b"-."


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


def _runs(fh: BinaryIO) -> Iterator[bytes]:
    """fh from its start in runs of whole lines: _PLAIN_CHUNK bytes and the rest of a line."""
    fh.seek(0)
    while run := fh.read(_PLAIN_CHUNK):
        if not run.endswith(b"\n"):
            run += fh.readline()  # whole lines: no "\r\n" is split
        yield run


def _tokens(run: bytes, allowed: bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray] | None:
    """The fields of a run of whole lines, or None if it holds a byte not in
    allowed (separators and bytes above " "): the run, "\r\n" read as "\n",
    the offsets in it of each field's first byte and of the byte after its
    last, and each data line's field count."""
    if b"\r" in run:  # "in" is far faster than replace
        run = run.replace(b"\r\n", b"\n")
    if run.translate(None, allowed):
        return None
    b = np.frombuffer(run, dtype=np.uint8)
    # field[k + 1]: byte k is in a field; a separator on both ends, with no
    # copy of the run, so every field starts and ends inside the mask
    field = np.zeros(b.size + 2, dtype=bool)
    np.greater(b, ord(" "), out=field[1:-1])  # tab and "\n" sort below " "
    starts = np.flatnonzero(field[1:] > field[:-1])
    ends = np.flatnonzero(field[:-1] > field[1:])
    upto = np.searchsorted(starts, np.flatnonzero(b == ord("\n")))  # fields before each "\n"
    fields = np.diff(upto, prepend=0, append=starts.size)
    return run, starts, ends, fields[fields != 0]


class PlainScan(NamedTuple):
    """What the one scan of a plain metric file found: its header n,
    whether it holds exactly the 1 + 3 n(n-1)/2 fields of a metric, and the
    metric the acceptor read from it (None if it declined)."""

    n: int
    shaped: bool
    metric: RankedMetric | None


class Source:
    """One input, read in binary and decoded only for Lines; len() is its
    byte count.  Each scan and the split are made at most once, however many
    readers ask.  fh must stay open while they do; one that cannot seek (a
    pipe) is read whole first.  A str is read as UTF-8 and is its own text."""

    def __init__(self, fh: BinaryIO | str) -> None:
        if isinstance(fh, str):
            self.text = fh
            fh = io.BytesIO(fh.encode("utf-8", "surrogatepass"))
        elif not fh.seekable():
            fh = io.BytesIO(fh.read())
        self._fh, self._size = fh, fh.seek(0, io.SEEK_END)

    def __len__(self) -> int:
        return self._size

    @cached_property
    def text(self) -> str:
        """The file as open(path, "r", encoding="utf-8").read() reads it."""
        self._fh.seek(0)
        wrapper = io.TextIOWrapper(self._fh, encoding="utf-8")
        try:
            return wrapper.read()
        finally:
            wrapper.detach()  # fh stays open

    @cached_property
    def split_lines(self) -> Lines:
        return Lines(self.text)

    @cached_property
    def plain_scan(self) -> PlainScan | None:
        """A plain metric file (see the module docstring) read in one pass
        over its runs, each run's int64 fields handed to the acceptor; None
        if the file is not plain, which sends it to Lines.  Never raises."""
        header, count, plain = None, 0, True

        def blocks() -> Iterator[np.ndarray]:
            nonlocal header, count, plain
            for run in _runs(self._fh):
                tok = _tokens(run, _PLAIN_BYTES)
                if tok is None:
                    plain = False
                    return
                run, starts, ends, fields = tok
                if not starts.size:
                    continue
                if ((ends - starts).max() > _PLAIN_DIGITS
                        or fields[0] != (1 if header is None else 3) or np.any(fields[1:] != 3)):
                    plain = False
                    return
                block = np.fromstring(run, dtype=np.int64, sep=" ")
                del tok, run, starts, ends, fields  # not held while the acceptor reads
                if header is None:
                    header = int(block[0])
                count += block.size
                yield block

        it = blocks()
        # every field is at least one byte, with a space or "\n" after it
        m = _metric(it, (self._size + 1) // 2)
        # a declined file is still read to its end: is it plain, how many fields
        for _ in it:
            pass
        if not plain or header is None:
            return None
        return PlainScan(header, count == 1 + 3 * (header * (header - 1) // 2), m)

    @cached_property
    def points_scan(self) -> PointSet | None:
        """A plain points file (see the module docstring) on the integer
        grid, or None, which sends it to Lines; never raises.  Each run is
        scaled to the largest decimal count D so far, and again at the end,
        after the most integer digits plus D are checked against _PLAIN_DIGITS."""
        dim, d, most, runs = 0, 0, 0, []
        for run in _runs(self._fh):
            tok = _tokens(run, _POINT_BYTES)
            if tok is None:
                return None
            run, starts, ends, fields = tok
            if not starts.size:
                continue
            dim = dim or int(fields[0])
            b = np.frombuffer(run, dtype=np.uint8)
            # digit[k + 1]: byte k is a digit (the other plain bytes sort
            # below "0"); a separator on both ends, as in _tokens
            digit = np.zeros(b.size + 2, dtype=bool)
            np.greater_equal(b, ord("0"), out=digit[1:-1])
            # "-" only after no digit and before one, "." only between
            # digits and once a field: "--", "-.", ".-" and ".." all fail
            minus = np.flatnonzero(b == ord("-"))
            dots = np.flatnonzero(b == ord("."))
            at = np.searchsorted(starts, dots, side="right") - 1  # each "."'s field
            if (np.any(fields != dim) or np.any(digit[minus]) or np.any(at[1:] == at[:-1])
                    or not np.all(digit[np.concatenate((minus + 2, dots, dots + 2))])):
                return None
            # a field's decimals are the digits after its "."
            decimals = np.zeros(starts.size, dtype=np.int64)
            decimals[at] = ends[at] - dots - 1
            d = max(d, int(decimals.max()))
            whole = ends - starts - (b[starts] == ord("-")) - (decimals > 0) - decimals
            most = max(most, int(whole.max()))
            if most + d > _PLAIN_DIGITS:
                return None
            v = np.fromstring(run.replace(b".", b""), dtype=np.int64, sep=" ")
            v *= 10 ** (d - decimals)
            runs.append((v, d))
        if not runs:
            return None
        v = np.concatenate([v * 10 ** (d - d0) for v, d0 in runs])
        del runs
        x = v.reshape(-1, dim).T
        # equal points are adjacent once sorted
        order = np.lexsort(x)
        same = np.ones(order.size - 1, dtype=bool)
        for axis in x:
            col = axis[order]
            same &= col[1:] == col[:-1]
        if same.any():
            return None
        g = math.gcd(10**d, int(np.gcd.reduce(v)))
        v //= g
        return _on_grid(PointSet.__new__(PointSet), 10**d // g, x)


def _source(text: str | Source) -> Source:
    return text if isinstance(text, Source) else Source(text)


def _data_lines(t: Lines) -> list[tuple[int, str]]:
    """(line number, line) of every data line, for the point and order parsers."""
    return [(k + 1, t.lines[k]) for k in t.data.tolist()]


def parse_points(text: str | Source) -> PointSet:
    src = _source(text)
    if src.points_scan is not None:
        return src.points_scan
    lines = _data_lines(src.split_lines)
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


def parse_metric(text: str | Source) -> RankedMetric:
    src = _source(text)
    scan = src.plain_scan
    if scan is not None and scan.metric is not None:
        return scan.metric
    lines = src.split_lines
    m = None if scan is not None else _metric(_line_blocks(lines), int(lines.fields.sum()))
    return m if m is not None else _explain(lines)


def _line_blocks(t: Lines) -> Iterator[np.ndarray]:
    """The fields of a metric-shaped Lines as int64, _BLOCK_LINES lines per
    numpy call: one field on the first data line, three on every other.
    Nothing for any other shape; stops at a block with a field int()
    rejects or a value past int64, so the acceptor gets too few pairs."""
    f = t.fields[t.data]
    if not f.size or f[0] != 1 or np.any(f[1:] != 3):
        return
    for a in range(0, len(t.lines), _BLOCK_LINES):
        block = " ".join(t.lines[a : a + _BLOCK_LINES]).split()
        if not block:
            continue
        try:
            values = np.array(block, dtype=np.int64)
        except (ValueError, OverflowError):
            return
        # one block's field strings at a time: they set the reader's peak
        del block
        yield values


def _metric(blocks: Iterator[np.ndarray], most: int) -> RankedMetric | None:
    """The metric of a file's fields, read block by block (the header
    first, then "i j rank" triples, each block holding whole triples), or
    None if the header, the pair count, a pair or a rank fails a check:
    _explain then reports the first defect.  Each rank goes straight into
    its pair's slot above the diagonal of the rank matrix, which the metric
    mirrors and keeps.
    most bounds the fields the file can hold, so a header the file is too
    short for allocates nothing of size n(n-1)/2.  Never raises."""
    head = next(blocks, None)
    if head is None:
        return None
    n = int(head[0])
    p = n * (n - 1) // 2
    if not 1 <= n <= RANK_PAIRS_MAX_N or 1 + 3 * p > most:
        return None
    # -1 marks an unfilled slot: p triples that fill every slot name every
    # pair once.  Ranks below p < 2**31 fit int32, as RankedMetric keeps them.
    mat = np.full((n, n), -1, dtype=np.int32)
    got = 0
    for block in chain((head[1:],), blocks):
        i, j, ranks = block.reshape(-1, 3).T
        got += ranks.size
        if not ranks.size:
            continue
        if (got > p or min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n
                or np.any(i == j) or ranks.min() < 0 or ranks.max() >= p):
            return None
        mat[np.minimum(i, j), np.maximum(i, j)] = ranks
    try:
        return RankedMetric._of_matrix(mat)
    except ValueError:  # a slot left unfilled (a pair repeated or missing), or a repeated rank
        return None


def _explain(t: Lines) -> NoReturn:
    """A metric file read line by line in file order, for a file _metric
    declined: raises the first defect, checking each line for its field
    count, integers, pair range and a repeated pair, in that order.  The
    acceptor checks nothing else, so a file with no such defect is at fault
    in its ranks alone, and gets the rank check's error."""
    if not t.data.size:
        raise ValueError("metric file has no data lines")
    h, *body = t.data.tolist()
    try:
        n = int(t.lines[h].strip())
    except ValueError as e:
        raise ValueError(f"line {h + 1}: header must be the vertex count") from e
    if n < 1:
        raise ValueError(f"line {h + 1}: vertex count must be positive")
    check_pair_guard(n)
    p = n * (n - 1) // 2
    if len(body) != p:
        raise ValueError(f"expected {p} pair lines for n={n}, got {len(body)}")
    seen = bytearray(p)  # one byte per pair
    for k in body:
        parts = t.lines[k].split()
        if len(parts) != 3:
            raise ValueError(f"line {k + 1}: expected 'i j rank'")
        try:
            i, j, _ = map(int, parts)
        except ValueError as e:
            raise ValueError(f"line {k + 1}: bad integer: {e}") from e
        if i == j or not (0 <= i < n) or not (0 <= j < n):
            raise ValueError(f"line {k + 1}: bad pair ({i}, {j}) for n={n}")
        pair = min(i, j), max(i, j)
        key = pair_index(*pair, n)
        if seen[key]:
            raise ValueError(f"line {k + 1}: pair {pair} given twice")
        seen[key] = 1
    raise ValueError(RankedMetric.RANK_ERROR)


def write_metric(m: RankedMetric) -> str:
    """Header n, then "i j rank" for every pair i < j in lexicographic order."""
    return "".join(metric_blocks(m.n, m.pair_ranks()))


def metric_blocks(n: int, ranks: np.ndarray) -> Iterator[str]:
    """write_metric's text for n vertices and their flat pair ranks, one
    block at a time: the header, then blocks of about _WRITE_LINES lines of
    whole rows, each one byte table with a line per row: right-aligned digit
    columns padded with NUL, whose non-NUL bytes, row after row, are its text."""
    wi, wr = len(str(n - 1)), len(str(max(len(ranks) - 1, 0)))
    rows = np.arange(n)
    ids = _digits(rows, wi)
    off = rows * (2 * n - rows - 1) // 2  # off[i]: flat index of the pair (i, i + 1)
    yield f"{n}\n"
    i0 = 0
    while i0 < n - 1:
        # rows i0..i1-1: as many as fit in _WRITE_LINES lines, at least one
        i1 = max(i0 + 1, int(np.searchsorted(off, off[i0] + _WRITE_LINES, "right")) - 1)
        f0, f1 = int(off[i0]), int(off[i1])
        count = n - 1 - rows[i0:i1]
        tab = np.zeros((f1 - f0, 2 * wi + wr + 3), dtype=np.uint8)
        tab[:, :wi] = ids[np.repeat(rows[i0:i1], count)]
        # j = f - off[i] + i + 1 for the pair (i, j) at flat index f
        tab[:, wi + 1 : 2 * wi + 1] = ids[np.arange(f0, f1) - np.repeat(off[i0:i1] - rows[i0:i1] - 1, count)]
        tab[:, 2 * wi + 2 : -1] = _digits(ranks[f0:f1], wr)
        tab[:, [wi, 2 * wi + 1]] = ord(" ")
        tab[:, -1] = ord("\n")
        yield tab[tab != 0].tobytes().decode("ascii")
        i0 = i1


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """The decimal digits of the non-negative ints v, each below
    10**width, as ASCII, one row each, right-aligned in ``width`` columns,
    with NUL in the columns a shorter number leaves empty."""
    tab = np.zeros((len(v), width), dtype=np.uint8)
    for c in range(width - 1, -1, -1):
        q, d = np.divmod(v, 10)
        d += ord("0")
        if c < width - 1:
            d[v == 0] = 0  # past the number's first digit
        tab[:, c] = d
        v = q
    return tab


def parse_order(text: str, n: int | None = None) -> Order:
    lines = _data_lines(Lines(text))
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


def sniff_format(text: str | Source) -> str:
    """Guess 'metric' or 'points'.  Metric requires the full shape: a lone
    positive integer header n, then exactly n(n-1)/2 three-field lines.
    Anything else is points.  The one ambiguous case, a single 1-D point
    written as a bare positive integer, sniffs as the (trivial) n=1 metric;
    pass the format explicitly to override."""
    src = _source(text)
    scan = src.plain_scan
    if scan is not None:
        return "metric" if scan.n >= 1 and scan.shaped else "points"
    # every line of a plain points file has the same field count, so it is
    # metric-shaped only as one line holding a positive int: digits alone,
    # which plain_scan has read
    if src.points_scan is not None:
        return "points"
    t = src.split_lines
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
