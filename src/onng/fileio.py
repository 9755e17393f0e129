"""Plain-text formats for point sets, rank metrics, and insertion orders.

All three are line-oriented, whitespace-delimited, with '#' comments and
blank lines ignored.  Lines break wherever str.splitlines breaks them, and
a comment runs from '#' to the end of its line.  Files are read in binary
(Source), only ever in runs of whole lines of about _PLAIN_CHUNK bytes,
each ending at the last ASCII line break read (_runs).  The plain scans
find each run's fields (_tokens), reading any ASCII run as the line split
does ("\r\n" and every other ASCII line break as "\n", "\x1f" as a space,
comments blanked), and never decode it; every other reader walks the runs
line by line (_walk), and no file is decoded whole.  A Source keeps each
scan and the data line count, for sniff_format and the parse after it; a
str is read as its UTF-8 bytes.  Coordinates are read as exact rationals,
so reading back a written points file reproduces the point set bit for
bit.

points file: one point per line, one coordinate per column; every line must
have the dimension of the first.  A plain file, as gen random-points and gen
hard-line write it, is read run by run onto the integer grid (points_scan),
never split into lines: ASCII, and read as scanned only digits, "-", ".",
spaces, tabs and "\n", every field -?digits(.digits)? of at most 18 digits
at the file's largest decimal count, the same field count on every line,
and no two points equal.  Every other spelling (non-ASCII text, "+", "1/3",
".5", "1e3", longer fields) and every defective file is walked, with one
Fraction per field, which words the error.

metric file: a header line "n", then exactly n(n-1)/2 lines "i j rank" in
any line order, giving a bijection onto 0..n(n-1)/2-1.  Every field is read
as a Python int (so "+5", "007", "1_0" are integers and "1.0" is not).
parse_metric has one run scan and one line walker.  A plain file, as
write_metric writes it, is read and accepted in one loop over the runs
(plain_scan) and never decoded or split into lines: ASCII, and read as
scanned only digits, spaces, tabs and "\n", no field longer than 18 digits
(so every field is exact in int64), one field on the first line that has
any, then three on every other line that has any.  The scan reads each
run's int64 fields, checks the header, the pair count and the pairs, and
writes each rank into its pair's slot of the int32 pair-rank vector, which
the metric keeps without a copy; no vector of all the fields, no n×n
matrix, and no tuple or list per line, is kept.  The vector is allocated
only once the header passes the pair-ranking guard and the file is long
enough to hold its pairs, so a short file with a huge header allocates
nothing of that size.  Every other file (non-ASCII text, signs,
underscores, other scripts' digits, longer fields) and every file the scan
declines is walked line by line in file order (_explain): its first
defective line is reported by the first check it fails (field count,
integers, pair range, repeated pair), and a file with none gets its
metric, or RankedMetric's rank error.  Its pair-line count is checked
before the vector is allocated, from the pass that counted the lines.

order file: one vertex id per line, a permutation of 0..n-1.
"""

from __future__ import annotations

import io
import math
import re
from fractions import Fraction
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    RANK_PAIRS_MAX_N,
    Order,
    OrderedNNG,
    PointSet,
    RankedMetric,
    _on_grid,
    check_pair_guard,
    pair_base,
)

# Exactly the characters str.splitlines breaks at ("\r\n" is "\r" then "\n").
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Compiled on first use (re caches it): compiling a class with characters
# past U+00FF allocates about 130 KB, which a file without comments never
# needs.
_COMMENT = f"#[^{_LINE_BREAKS}]*"
# How _tokens reads an ASCII run past the plain bytes: every ASCII line break
# as "\n", and "\x1f", the one other ASCII byte str.split splits at, as " ".
_ASCII_BREAKS = "".join(filter(str.isascii, _LINE_BREAKS)).encode()
_ASCII_SPELLING = bytes.maketrans(_ASCII_BREAKS + b"\x1f", b"\n" * len(_ASCII_BREAKS) + b" ")
# Bytes of a plain file read and scanned per numpy pass (_runs): bounds the
# scans' byte-sized temporaries.  At n = 1024 a metric load takes about a
# fifth longer in runs of 2^14 bytes, and no less time in runs of 2^18,
# whose temporaries peak 2.2 MiB higher.
_PLAIN_CHUNK = 2**16
# Pair lines write_metric formats per numpy pass: bounds its byte table.
_WRITE_LINES = 2**16
# The bytes of a plain metric file, and its longest field: every integer of
# 18 digits fits in int64, and 10**18 <= 2**63 - 1 < 10**19.
_PLAIN_BYTES = b"0123456789 \t\n"
_PLAIN_DIGITS = 18
# The bytes of a plain points file: the metric file's, a sign and a point.
_POINT_BYTES = _PLAIN_BYTES + b"-."


def _runs(fh: BinaryIO) -> Iterator[bytes]:
    """fh from its start in runs of whole lines, read _PLAIN_CHUNK bytes at
    a time: each run ends at the last ASCII line break read so far, or at
    the end of the file.  A "\r" that ends a read ends a run only once the
    next read does not begin with "\n", so no "\r\n" is split; a read
    with no line break joins the next."""
    fh.seek(0)
    held: list[bytes] = []
    while chunk := fh.read(_PLAIN_CHUNK):
        if held and held[-1].endswith(b"\r") and not chunk.startswith(b"\n"):
            yield b"".join(held)
            held = []
        end = len(chunk) - chunk.endswith(b"\r")
        cut = chunk.rfind(b"\n", 0, end)
        for c in _ASCII_BREAKS[1:]:  # past the last "\n" only
            cut = max(cut, chunk.rfind(c, cut + 1, end))
        if cut < 0:
            held.append(chunk)
            continue
        yield b"".join(held + [chunk[: cut + 1]])
        held = [chunk[cut + 1 :]]
    if any(held):
        yield b"".join(held)


def _tokens(run: bytes, allowed: bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray] | None:
    """The fields of a run of whole lines, or None if it holds a non-ASCII
    byte, or an ASCII byte not in allowed (separators and bytes above " ")
    once "\r\n" is read as "\n", comments as " ", every other ASCII line
    break as "\n" and "\x1f" as " ": the run so read, the offsets in it of
    each field's first byte and of the byte after its last, and each data
    line's field count."""
    if b"\r" in run:  # "in" is far faster than replace
        run = run.replace(b"\r\n", b"\n")
    if run.translate(None, allowed):
        if not run.isascii():
            return None
        run = re.sub(rb"#[^\n]*", b" ", run.translate(_ASCII_SPELLING))
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
    """What the one scan of a plain metric file found: its header n and the
    metric it read (None if it declined)."""

    n: int
    metric: RankedMetric | None


class Source:
    """One input, read in binary through _runs; len() is its byte count,
    lines its data line count once a pass has counted them.  Each scan is
    made at most once, however many readers ask.  fh must stay open while
    they do; one that cannot seek (a pipe) is read whole first."""

    def __init__(self, fh: BinaryIO) -> None:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        self._fh, self._size = fh, fh.seek(0, io.SEEK_END)
        self.lines: int | None = None

    def __len__(self) -> int:
        return self._size

    @cached_property
    def plain_scan(self) -> PlainScan | None:
        """A plain metric file (see the module docstring) read and accepted
        in one loop over its runs, and its data lines counted; None if the
        file is not plain, which sends it to the walker.  The first block
        holds the header; every block's triples are checked (pair count,
        pairs, ranks) and each rank goes straight into its pair's slot,
        base[min(i, j)] + max(i, j) (pair_base).  A failed check drops the
        vector, and the file is still read to its end: is it plain, how many
        lines.  The metric is None if the vector was dropped or the rank
        check fails: _explain then reports the first defect.  Never raises."""
        n, lines, ranks = None, 0, None
        for run in _runs(self._fh):
            tok = _tokens(run, _PLAIN_BYTES)
            if tok is None:
                return None
            run, starts, ends, fields = tok
            if not starts.size:
                continue
            if ((ends - starts).max() > _PLAIN_DIGITS
                    or fields[0] != (1 if n is None else 3) or np.any(fields[1:] != 3)):
                return None
            block = np.fromstring(run, dtype=np.int64, sep=" ")
            lines += fields.size
            del tok, run, starts, ends, fields  # not held while the ranks are written
            if n is None:
                n, block = int(block[0]), block[1:]
                p = n * (n - 1) // 2
                # every field is at least one byte, with a space or "\n" after it
                if 1 <= n <= RANK_PAIRS_MAX_N and 1 + 3 * p <= (self._size + 1) // 2:
                    # -1 marks an unfilled slot: p triples that fill every slot
                    # name every pair once.  Ranks below p < 2**31 fit int32,
                    # as RankedMetric keeps them.
                    ranks, base = np.full(p, -1, dtype=np.int32), pair_base(n)
            if ranks is None or not block.size:
                continue
            i, j, r = block.reshape(-1, 3).T
            # every line but the header holds one pair, and no field is negative
            if lines - 1 > p or max(i.max(), j.max()) >= n or np.any(i == j) or r.max() >= p:
                ranks = None
                continue
            ranks[base[np.minimum(i, j)] + np.maximum(i, j)] = r
        self.lines = lines
        if n is None:
            return None
        try:
            return PlainScan(n, None if ranks is None else RankedMetric._of_ranks(n, ranks))
        except ValueError:  # a slot left unfilled (a pair repeated or missing), or a repeated rank
            return PlainScan(n, None)

    @cached_property
    def points_scan(self) -> PointSet | None:
        """A plain points file (see the module docstring) on the integer
        grid, or None, which sends it to the walker; never raises.  Each run
        is scaled to the largest decimal count D so far, and again at the end,
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
    return text if isinstance(text, Source) else Source(io.BytesIO(text.encode()))


def _walk(src: Source) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every data line of src in file order; a
    walk that ends sets src.lines.  Each run is decoded as UTF-8 on its own
    (it ends after an ASCII line break, so no character or line spans two),
    its comments blanked, and split into lines and each line into fields
    once.  Every run is decoded first, so a file that is not UTF-8 gets the
    decoder's error, at its offset in the file, before any line defect."""
    at = 0
    for run in _runs(src._fh):
        try:
            run.decode("utf-8")
        except UnicodeDecodeError as e:
            # the message reads the bad byte at its offset in the object
            raise UnicodeDecodeError(e.encoding, bytes(at) + run, at + e.start, at + e.end,
                                     e.reason) from None
        at += len(run)
    lineno = count = 0
    for run in _runs(src._fh):
        text = run.decode("utf-8")
        # a comment becomes one space, so "\r#x\n" stays two line breaks
        if "#" in text:
            text = re.sub(_COMMENT, " ", text)
        for lineno, fields in enumerate(map(str.split, text.splitlines()), lineno + 1):
            if fields:
                count += 1
                yield lineno, fields
    src.lines = count


def parse_points(text: str | Source) -> PointSet:
    src = _source(text)
    if src.points_scan is not None:
        return src.points_scan
    rows: list[tuple[Fraction, ...]] = []
    dim = None
    for lineno, parts in _walk(src):
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
    if not rows:
        raise ValueError("points file has no data lines")
    return PointSet(dim, rows)


def write_points(ps: PointSet) -> str:
    # str spells an int "3" and a Fraction "-1/2", as parse_points reads them
    return "\n".join(" ".join(map(str, row)) for row in ps.exact()) + "\n"


def parse_metric(text: str | Source) -> RankedMetric:
    """The metric of a file: read and accepted by the run scan, or else
    walked line by line (_explain), which words the first defect."""
    src = _source(text)
    scan = src.plain_scan
    if scan is not None and scan.metric is not None:
        return scan.metric
    return _explain(src)


def _explain(src: Source) -> RankedMetric:
    """A metric file walked line by line in file order, for a file the run
    scan declined: raises the first defect, checking each line for its
    field count, integers, pair range and a repeated pair, in that order,
    after the pair-line count, which a pass that counted the lines
    (plain_scan, the sniff's walk, or else a walk of its own) gives before
    anything of size n(n-1)/2 is allocated.  Otherwise each rank goes
    into its pair's slot of the pair-rank vector, as in the run scan (a rank
    out of range as p, which no bijection holds), and the metric's rank
    check words a fault in the ranks alone."""
    if src.lines is None:
        for _ in _walk(src):
            pass
    walk = _walk(src)
    h, header = next(walk, (0, None))
    if header is None:
        raise ValueError("metric file has no data lines")
    try:
        (n,) = map(int, header)
    except ValueError as e:
        raise ValueError(f"line {h}: header must be the vertex count") from e
    if n < 1:
        raise ValueError(f"line {h}: vertex count must be positive")
    check_pair_guard(n)
    p = n * (n - 1) // 2
    if src.lines - 1 != p:
        raise ValueError(f"expected {p} pair lines for n={n}, got {src.lines - 1}")
    ranks = np.full(p, -1, dtype=np.int32)
    slots = memoryview(ranks)  # items as plain ints
    base = pair_base(n).tolist()
    for k, fields in walk:
        try:
            i, j, r = fields
        except ValueError:
            raise ValueError(f"line {k}: expected 'i j rank'") from None
        try:
            i, j, r = int(i), int(j), int(r)
        except ValueError as e:
            raise ValueError(f"line {k}: bad integer: {e}") from e
        a, b = (i, j) if i < j else (j, i)
        if not 0 <= a < b < n:
            raise ValueError(f"line {k}: bad pair ({i}, {j}) for n={n}")
        if slots[base[a] + b] >= 0:
            raise ValueError(f"line {k}: pair {(a, b)} given twice")
        slots[base[a] + b] = r if 0 <= r < p else p
    return RankedMetric._of_ranks(n, ranks)


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
    base = pair_base(n)
    off = base + rows + 1  # off[i]: flat index of the pair (i, i + 1)
    yield f"{n}\n"
    i0 = 0
    while i0 < n - 1:
        # rows i0..i1-1: as many as fit in _WRITE_LINES lines, at least one
        i1 = max(i0 + 1, int(np.searchsorted(off, off[i0] + _WRITE_LINES, "right")) - 1)
        f0, f1 = int(off[i0]), int(off[i1])
        count = n - 1 - rows[i0:i1]
        tab = np.zeros((f1 - f0, 2 * wi + wr + 3), dtype=np.uint8)
        tab[:, :wi] = ids[np.repeat(rows[i0:i1], count)]
        # j = f - base[i] for the pair (i, j) at flat index f
        tab[:, wi + 1 : 2 * wi + 1] = ids[np.arange(f0, f1) - np.repeat(base[i0:i1], count)]
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


def parse_order(text: str | Source, n: int | None = None) -> Order:
    ids = []
    for lineno, fields in _walk(_source(text)):
        for f in fields:
            try:
                ids.append(int(f))
            except ValueError as e:
                raise ValueError(f"line {lineno}: bad vertex id: {e}") from e
    if not ids:
        raise ValueError("order file has no data lines")
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
        return "metric" if scan.n >= 1 and src.lines - 1 == scan.n * (scan.n - 1) // 2 else "points"
    # every line of a plain points file has the same field count, so it is
    # metric-shaped only as one line holding a positive int: digits alone,
    # which plain_scan has read
    if src.points_scan is not None:
        return "points"
    # walked to the end only if metric-shaped so far, so the count is kept
    # for _explain
    walk = _walk(src)
    _, header = next(walk, (0, None))
    if header is None:
        raise ValueError("input has no data lines")
    try:
        (n,) = map(int, header)
    except ValueError:
        return "points"
    if n < 1 or any(len(fields) != 3 for _, fields in walk):
        return "points"
    return "metric" if src.lines - 1 == n * (n - 1) // 2 else "points"


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
