"""File formats and the CLI surface: round trips, schemas, exit codes."""

import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onng import PointSet, RankedMetric, build_onng, metric_from_points, random_rank_metric
from onng.core import iter_pairs
from onng.fileio import (
    Source,
    parse_metric,
    parse_order,
    parse_points,
    render_dot,
    sniff_format,
    write_metric,
    write_order,
    write_points,
)
import onng.cli as cli
import onng.core as core
import onng.fileio as fileio
import onng.oracle as oracle

from conftest import (
    Lines,
    reference_parse_metric,
    reference_parse_points,
    reference_sniff_format,
    reference_write_metric,
    run_cli,
)


# ------------------------------------------------------------- file formats


def test_points_round_trip_exact():
    ps = PointSet(2, ((0, 0), (Fraction(1, 3), Fraction(-7, 2)), (1, 2)))
    again = parse_points(write_points(ps))
    assert again.exact() == ps.exact()
    assert metric_from_points(again) == metric_from_points(ps)


def test_points_parser_rejects_ragged_lines():
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        parse_points("1 2\n3\n")
    with pytest.raises(ValueError, match="bad coordinate"):
        parse_points("1 x\n")
    with pytest.raises(ValueError, match="no data lines"):
        parse_points("# only a comment\n")


def test_points_parser_handles_comments_and_decimals():
    ps = parse_points("# corner\n0.5 -2   # inline note\n\n1/3 4\n")
    assert ps.exact() == ((Fraction(1, 2), Fraction(-2)), (Fraction(1, 3), Fraction(4)))


def test_metric_round_trip():
    m = RankedMetric(4, (5, 1, 0, 2, 4, 3))
    assert parse_metric(write_metric(m)) == m


def test_metric_parser_accepts_any_line_order():
    text = "3\n1 2 0\n0 1 1\n0 2 2\n"
    m = parse_metric(text)
    assert m.rank(1, 2) == 0
    assert m.rank(0, 1) == 1


@pytest.mark.parametrize("line", ["2 2 2", "0 0 2"])
def test_self_pair_is_refused_where_its_slot_is_the_missing_pair(line):
    # base[a] + a is the slot of another pair, here the one the line replaced
    # ({1, 2}, for a = 0 through the index -1), so every slot fills and only
    # the self-pair check stops a metric being read
    with pytest.raises(ValueError, match=rf"^line 4: bad pair \({line[0]}, {line[0]}\) for n=3$"):
        parse_metric(f"3\n0 1 0\n0 2 1\n{line}\n")


def test_metric_parser_rejects_defects():
    with pytest.raises(ValueError, match="header"):
        parse_metric("x\n")
    with pytest.raises(ValueError, match="expected 3 pair lines"):
        parse_metric("3\n0 1 0\n")
    with pytest.raises(ValueError, match="given twice"):
        parse_metric("3\n0 1 0\n1 0 1\n1 2 2\n")
    with pytest.raises(ValueError, match="bad pair"):
        parse_metric("3\n0 0 0\n0 2 1\n1 2 2\n")
    with pytest.raises(ValueError, match="bijection"):
        parse_metric("3\n0 1 0\n0 2 0\n1 2 2\n")
    with pytest.raises(ValueError, match="expected 'i j rank'"):
        parse_metric("3\n0 1 0\n0 2\n1 2 2\n")
    with pytest.raises(ValueError, match="bad integer"):
        parse_metric("3\n0 1 0\n0 2 1.0\n1 2 2\n")
    for rank in (-1, 2**70):
        with pytest.raises(ValueError, match="bijection"):
            parse_metric(f"3\n0 1 0\n0 2 {rank}\n1 2 2\n")
    # "\r#c\n" is a comment line between two line breaks, not one "\r\n"
    with pytest.raises(ValueError, match="^line 5: bad integer"):
        parse_metric("3\r#c\n0 1 0\n0 2 1\n1 2 x\n")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_metric_parse_round_trip(n, rng):
    # lines shuffled, pairs flipped at random, comments and blanks mixed in
    m = random_rank_metric(n, rng)
    header, *pairs = write_metric(m).splitlines()
    noise = ("", "   ", "# note", "\t# another")
    body = []
    for line in pairs:
        i, j, r = line.split()
        line = f"{j} {i} {r}" if rng.random() < 0.5 else line
        body.append(line + "  # inline" if rng.random() < 0.2 else line)
    body += [rng.choice(noise) for _ in range(rng.randint(0, 5))]
    rng.shuffle(body)
    text = "\n".join([rng.choice(noise), header, *body]) + "\n"
    assert sniff_format(text) == "metric"
    assert parse_metric(text) == m


_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_SPACES = (" ", "  ", "\t", " \t ", "\x1f", "\u00a0", "\u3000")
_SCRIPTS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
            "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")  # fullwidth
_HUGE = (2**63, 2**70, -(2**63) - 1)
_NOT_INTS = ("1.0", "x", "0x10", "1__0", "_1", "1e3", "--1", "\u00bd")
_DEFECTS = ("short", "long", "not_int", "self_pair", "out_of_range", "repeat",
            "line_count", "bad_header", "n_zero", "huge", "bad_rank")


def _spell(rng: random.Random, v) -> str:
    """An int as int() reads it: sign, leading zeros, underscores, other
    scripts' digits.  Strings are spelled as they are."""
    if isinstance(v, str):
        return v
    digits, style = str(abs(v)), rng.choice(("plain", "plus", "zeros", "underscore", "script"))
    if style == "zeros":
        digits = "00" + digits
    elif style == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif style == "script":
        digits = digits.translate(str.maketrans("0123456789", rng.choice(_SCRIPTS)))
    return ("-" if v < 0 else "+" if style == "plus" else "") + digits


def _inject(rng: random.Random, kind: str, n: int, header: list, rows: list) -> None:
    """Plant one defect.  Defects repeat, so a row may have lost fields to
    an earlier "short": every index stays inside the row, and a rank is a
    row's last field."""
    if kind == "bad_header":
        header[:] = [rng.choice(("x", f"{n}.0", f"{n} {n}", "0x3", "#"))]
    elif kind == "n_zero":
        header[:] = [rng.choice((0, -1))]
    elif kind == "line_count":
        if rows and rng.random() < 0.5:
            rows.pop(rng.randrange(len(rows)))
        else:
            rows.insert(rng.randrange(len(rows) + 1), [0, 1, 0])
    elif rows:
        row = rng.choice(rows)
        if kind == "short":
            row.pop(rng.randrange(len(row)))
        elif kind == "long":
            row.append(rng.randrange(5))
        elif kind == "not_int":
            row[rng.randrange(len(row))] = rng.choice(_NOT_INTS)
        elif kind == "self_pair":
            row[min(1, len(row) - 1)] = row[0]
        elif kind == "out_of_range":
            row[rng.randrange(min(2, len(row)))] = rng.choice((n, n + 3, -1))
        elif kind == "repeat":
            other = rng.choice(rows)
            row[:2] = other[:2] if rng.random() < 0.5 else other[1::-1]
        elif kind == "bad_rank":
            row[-1] = rng.choice((-1, n * (n - 1) // 2, rng.choice(rows)[-1]))
        else:  # huge: past int64, as an id or as a rank
            row[rng.randrange(len(row))] = rng.choice(_HUGE)


@st.composite
def metric_texts(draw):
    """Metric files with n <= 12: any line order, flipped pairs, every
    str.splitlines break, odd whitespace, comments, blank lines and odd
    integer spellings, with zero to three injected defects."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 12)  # a drawn n would mostly be 1
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=3))
    ranks = list(range(n * (n - 1) // 2))
    rng.shuffle(ranks)
    rows = [[i, j, r] if rng.random() < 0.5 else [j, i, r]
            for (i, j), r in zip(iter_pairs(n), ranks)]
    rng.shuffle(rows)
    header = [n]
    for kind in defects:
        _inject(rng, kind, n, header, rows)
    out = []
    for row in [header, *rows]:
        while rng.random() < 0.15:
            out.append(rng.choice(("", " ", "# note", "\t# 0 1 2", "#")))
        line = rng.choice(_SPACES).join(_spell(rng, v) for v in row)
        if rng.random() < 0.2:
            line = rng.choice(("", " ")) + line + rng.choice(_SPACES)
        if rng.random() < 0.2:
            line += rng.choice(("# inline", "#", " #1 2 3"))
        out.append(line)
    return "".join(line + rng.choice(_BREAKS) for line in out)


def _outcome(fn, text):
    try:
        return fn(text)
    except ValueError as e:
        return "ValueError", str(e)


@contextlib.contextmanager
def _on_disk(text: str):
    """text written to a file as UTF-8, its line breaks as they are, and
    opened as the CLI opens its input.  Yields the open file and the text
    open(path, "r", encoding="utf-8") reads from it, which is what the CLI
    parsed before it read files in binary."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, "r", encoding="utf-8") as fh:
            decoded = fh.read()
        with open(path, "rb") as fh:
            yield fh, decoded


def _refuse_walks(order_path: str | None = None):
    """A patch under which walking an input line by line fails, not only in
    the benchmark: a generated file is never decoded or split into lines.
    eval's order file, opened from order_path, is walked, as every order
    file is."""
    walk = fileio._walk

    def refuse(src):
        if order_path is None or getattr(src._fh, "name", None) != order_path:
            raise AssertionError("a generated file was walked line by line")
        return walk(src)

    return mock.patch.object(fileio, "_walk", refuse)


def _parse_outcome(text, want, plain):
    """parse_metric's outcome on text; a valid file (want is a metric) that
    is plain must be read without the line walker."""
    with mock.patch.object(fileio, "_explain", wraps=fileio._explain) as explain:
        got = _outcome(parse_metric, text)
    if plain and isinstance(want, RankedMetric):
        explain.assert_not_called()
    return got


def _as_scanned(text: str) -> str | None:
    """text as the run scan reads it, or None if it is not ASCII: "\r\n"
    read as "\n", each comment blanked to the next ASCII line break, then
    every ASCII line break read as "\n" and "\x1f" as a space."""
    if not text.isascii():
        return None
    text = re.sub("#[^\n\r\v\f\x1c\x1d\x1e]*", " ", text.replace("\r\n", "\n"))
    return re.sub("[\r\v\f\x1c\x1d\x1e]", "\n", text).replace("\x1f", " ")


def _is_plain_metric(text: str) -> bool:
    """What the metric run scan must read, written out plainly: ASCII, and
    once read as scanned, only digits, spaces, tabs and "\n", no field past
    18 digits, one field on the first line that has any and three on every
    other."""
    text = _as_scanned(text)
    if text is None or set(text) - set("0123456789 \t\n"):
        return False
    rows = [row for row in (line.split() for line in text.split("\n")) if row]
    return (bool(rows) and len(rows[0]) == 1 and all(len(row) == 3 for row in rows[1:])
            and all(len(f) <= 18 for row in rows for f in row))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(metric_texts(), st.sampled_from([1, 3, 8, 32, fileio._PLAIN_CHUNK]))
def test_metric_reader_matches_reference(text, chunk):
    # small runs put the defects and repeated pairs across their joins; read
    # from a str, and from a file on disk whose one Source the sniff and the
    # parse share, as in the CLI
    plain = _is_plain_metric(text)
    with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
        assert _outcome(sniff_format, text) == _outcome(reference_sniff_format, text)
        want = _outcome(reference_parse_metric, text)
        assert _parse_outcome(text, want, plain) == want
        with _on_disk(text) as (fh, decoded):
            shared = Source(fh)
            assert _outcome(sniff_format, shared) == _outcome(reference_sniff_format, decoded)
            want = _outcome(reference_parse_metric, decoded)
            assert _parse_outcome(shared, want, plain) == want


_PLAIN_SPACES = (" ", "  ", "\t", " \t ", "\t\t")
_PLAIN_HUGE = (10**18 - 1, 10**18, 2**63, 2**70, "0" * 19 + "1")
_PLAIN_DEFECTS = ("short", "long", "self_pair", "out_of_range", "repeat",
                  "line_count", "n_zero", "huge", "bad_rank")
# One character planted in a plain file: the run scan reads the ASCII ones
# (a comment may blank fields) and declines the rest.
_PLANTS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "#", "+", "\x85", "\u3000")


def _inject_plain(rng: random.Random, kind: str, n: int, header: list, rows: list) -> None:
    """_inject with no negative value: every field stays a run of digits.
    A row may have lost a field to "short", so ranks are its last field."""
    if kind == "n_zero":
        header[:] = [0]
    elif kind in ("out_of_range", "bad_rank", "huge") and rows:
        row = rng.choice(rows)
        if kind == "out_of_range":
            row[rng.randrange(2)] = rng.choice((n, n + 3))
        elif kind == "bad_rank":
            row[-1] = rng.choice((n * (n - 1) // 2, rng.choice(rows)[-1]))
        else:  # 18 digits, 19 or more, and a 20-digit spelling of 1
            row[rng.randrange(len(row))] = rng.choice(_PLAIN_HUGE)
    else:
        _inject(rng, kind, n, header, rows)


def _plain_spell(rng: random.Random, v) -> str:
    """An int in digits only: plain, with leading zeros, or zero-padded to
    18 digits, the longest field the scan reads."""
    if isinstance(v, str):
        return v
    style = rng.random()
    if style < 0.02:
        return str(v).zfill(18)
    return "0" * (style < 0.2) * rng.randint(1, 3) + str(v)


@st.composite
def plain_metric_texts(draw):
    """Metric files with n <= 12 in ASCII digits, spaces, tabs and "\n":
    any line order, flipped pairs, runs of blanks, blank lines, leading
    zeros, with or without a final "\n", and zero to three injected
    defects.  A quarter of them get one ASCII line break, "\x1f", "#", "+"
    or non-ASCII space planted anywhere.
    Returns the text and whether the plain scan should read it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 12)
    defects = draw(st.lists(st.sampled_from(_PLAIN_DEFECTS), max_size=3, unique=True))
    ranks = list(range(n * (n - 1) // 2))
    rng.shuffle(ranks)
    rows = [[i, j, r] if rng.random() < 0.5 else [j, i, r]
            for (i, j), r in zip(iter_pairs(n), ranks)]
    rng.shuffle(rows)
    header = [n]
    for kind in defects:
        _inject_plain(rng, kind, n, header, rows)
    lines = []
    for row in [header, *rows]:
        while rng.random() < 0.15:
            lines.append(rng.choice(("", " ", "\t", " \t ")))
        fields = [_plain_spell(rng, v) for v in row]
        line = rng.choice(_PLAIN_SPACES).join(fields)
        if rng.random() < 0.2:
            line = rng.choice(_PLAIN_SPACES) + line
        if rng.random() < 0.2:
            line += rng.choice(_PLAIN_SPACES)
        lines.append(line)
    while rng.random() < 0.15:
        lines.append(rng.choice(("", " ", "\t")))
    text = "\n".join(lines) + rng.choice(("\n", ""))
    if rng.random() < 0.25:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_PLANTS) + text[at:]
    return text, _is_plain_metric(text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(plain_metric_texts(), st.sampled_from([1, 3, 8, 32, fileio._PLAIN_CHUNK]))
def test_plain_metric_scan_matches_reference(case, chunk):
    # the plain scan reads what it should and declines the rest, whatever
    # its run length, from a str and from a file on disk; either way the
    # sniff and the parse, sharing one Source, answer as the reference
    text, plain = case
    with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
        _check_plain_source(fileio._source(text), text, plain)
        with _on_disk(text) as (fh, decoded):
            _check_plain_source(Source(fh), decoded, plain)


def _check_plain_source(shared, text, plain):
    # a lone "\r" is a line break to the plain scan, as to the decoder
    assert (shared.plain_scan is not None) == plain
    assert _outcome(sniff_format, shared) == _outcome(reference_sniff_format, text)
    want = _outcome(reference_parse_metric, text)
    assert _parse_outcome(shared, want, plain) == want


@pytest.mark.parametrize("text, plain", [
    ("\n\n 3\n\n\n0 1 0\n \t\n2 0 1\n\n\n1 2 2", True),  # no final "\n"
    ("3\n0 1 0\n\n\n\n0 2 1\n1 2 2\n\n\n", True),
    ("3\n0 1 0\n0 1 1\n1 2 2\n", True),  # a repeated pair
    ("3\n0 1 0\n0 2 1\n", True),  # a pair line short
    ("2\n\n\n0 1 0\n0 1 0\n", True),  # a pair line too many
    ("3\n0 1 0\n0 2 1\n1 2 2\n\n\r", True),  # a lone "\r", in its last run only
    ("3\n0 1 0\n0 2 1\n1 2 2\n\n+", False),  # not plain, in its last run only
    ("3\r\n0 1 0\r\n\r\n0 2 1\r\n1 2 2", True),  # no read splits a "\r\n"
    ("3\n0 1 0\n0 2 1\n1 2 " + "0" * 19 + "2\n", False),  # a field past 18 digits
    ("# n\n3 #\n0 1 0# x y\n#\n0 2 1\n1 2 2 # 1 2\n#", True),  # comments
    ("3\n0 1 0\n0 2 1 #\u00e9\n1 2 2\n", False),  # a non-ASCII comment
    ("3\n0 1 0\n0 2 1\n1 2\u30002\n", False),  # a non-ASCII space
    ("3\n0 1 0\r#\n0 2 1\n1 2 2\n", True),  # "\r#\n": two line breaks
    ("3\n0 1 0\n0 2 1\r#\r\n1 2 2\n", True),  # "\r#\r\n": two line breaks
    ("3\n0\x1f1\x1f0\n0 2\x1f1\n\x1f1 2 2\x1f\n", True),  # "\x1f" between fields
    ("3\n0 1 0\n0 2 1 \x1f 1 2 2\n", False),  # "\x1f" breaks no line
    *((f"3{b}0 1 0\n{b}0 2 1{b}\n1 2 2{b}", True) for b in "\r\v\f\x1c\x1d\x1e"),
    ("3\n0 1 0 # x\r0 2 1\n1 2 2\n", True),  # a comment ends at a lone "\r"
    ("3\n0 1 0 #\x1c0 2 1\v# c\f1 2 2 #\x1d\x1e", True),  # and at each other break
])
def test_plain_scan_runs_join_anywhere(text, plain):
    # every run length from one byte up, from a str and from a file on disk,
    # so a read ends mid-line, and a join falls after the header, inside
    # each blank-line run and comment, and before a missing final "\n"
    assert _is_plain_metric(text) == plain
    whole = fileio._source(text).plain_scan
    assert (whole is not None) == plain
    with _on_disk(text) as (fh, decoded):
        for chunk in range(1, len(text) + 2):
            with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
                assert fileio._source(text).plain_scan == whole, chunk
                assert Source(fh).plain_scan == whole, chunk
        shared = Source(fh)
        assert _outcome(sniff_format, shared) == _outcome(reference_sniff_format, decoded)
        want = _outcome(reference_parse_metric, decoded)
        assert _parse_outcome(shared, want, plain) == want
    assert _outcome(sniff_format, text) == _outcome(reference_sniff_format, text)
    want = _outcome(reference_parse_metric, text)
    assert _parse_outcome(text, want, plain) == want


_ASCII_LINE_ENDS = re.compile(rb"[^\n\r\v\f\x1c-\x1e]*(?:\r\n|[\n\r\v\f\x1c-\x1e])?")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"1", b" ", b"#", b"\n", b"\r", b"\r\n", b"\v", b"\f", b"\x1c",
                                 b"\x1d", b"\x1e", b"\x1f", b"\xc2\x85"]), max_size=80).map(b"".join),
       st.integers(1, 12))
def test_runs_end_at_the_last_ascii_line_break(data, chunk):
    # the runs are the file, each but the last ends at an ASCII line break
    # and none splits a "\r\n"; a run holds at most one read past its
    # longest line, so a lone-"\r" file is read in runs, not as one
    with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
        runs = list(fileio._runs(io.BytesIO(data)))
    assert b"".join(runs) == data and all(runs)
    for run, after in zip(runs, runs[1:]):
        assert run[-1] in fileio._ASCII_BREAKS, runs
        assert not (run.endswith(b"\r") and after.startswith(b"\n")), runs
    longest = max(map(len, _ASCII_LINE_ENDS.findall(data)), default=0)
    assert all(len(run) <= chunk + longest for run in runs), runs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"1", b"+2", b" ", b"\t", b"#", b"\n", b"\r", b"\r\n", b"\v", b"\x1c",
                                 b"\x1f", b"\xc2\x85", b"\xe2\x80\xa8", b"\xe3\x80\x80", b"\xef\xbb\xbf",
                                 b"\xff", b"\xe2\x82", b"\xc2"]), max_size=60).map(b"".join),
       st.integers(1, 12))
def test_walk_reads_the_runs_as_the_whole_file_decodes(data, chunk):
    # the walk decodes run by run what a decode of the whole file decodes:
    # the data lines Lines finds in the decoded text, with their numbers,
    # and their count once it ends; a file that is not UTF-8 gets the
    # whole-file decode's error, its offsets in the file
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        want = "UnicodeDecodeError", str(e)
    else:
        t = Lines(text)
        want = [(k + 1, t.lines[k].split()) for k in t.data.tolist()]
    src = Source(io.BytesIO(data))
    with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
        try:
            got = list(fileio._walk(src))
        except UnicodeDecodeError as e:
            got = "UnicodeDecodeError", str(e)
    assert got == want
    assert src.lines == (len(want) if isinstance(want, list) else None)


@pytest.mark.parametrize("text", [
    "3 3\n0 1 +0\n0 2 1\n1 2 2\n",  # header
    "3\n0 1 +0\n0 2\n1 2 2\n",  # field count
    "3\n0 1 +0\n0 2 1.0\n1 2 2\n",  # bad integer
    "3\n0 1 +0\n0 3 1\n1 2 2\n",  # pair range
    "3\n0 1 +0\n# \u00e9\n1 0 1\n1 2 2\n",  # repeated pair
    "3\n0 1 +0\n0 2 0\n1 2 2\n",  # rank fault
    "3\n0 1 +0\n0 2 1\n1 2 2\n0 1 +1\n",  # pair-count mismatch
    "\ufeff3\n0 1 0\n0 2 1\n1 2 2\n",  # byte order mark
    "3\n0 1 +0\x850 2 1\u20281 0 2\u2029\n",  # non-ASCII line breaks
    "3\r\n0 1 +0\r\n0 2 1\r1 2 2 # \u00e9\r\n",  # no defect
])
def test_walked_defects_at_run_joins_match_the_references(text):
    # every run length from one byte up puts a run join before, inside and
    # after each defect of a walked file: the sniff and each parse answer
    # as the references do on the decoded text, the metric parse both after
    # the sniff, on its Source as the CLI shares it, and alone
    data = text.encode()
    metric = _outcome(reference_parse_metric, text)
    want = (_outcome(reference_sniff_format, text), metric, metric,
            _points_outcome(reference_parse_points, text))
    for chunk in range(1, len(data) + 2):
        with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
            shared = Source(io.BytesIO(data))
            got = (_outcome(sniff_format, shared), _outcome(parse_metric, shared),
                   _outcome(parse_metric, Source(io.BytesIO(data))),
                   _points_outcome(parse_points, Source(io.BytesIO(data))))
        assert got == want, chunk


def test_write_metric_matches_reference_writer(monkeypatch):
    # ids and ranks cross decimal widths at n = 5, 11, 15, 46, 100, 142, 448,
    # 1000; n = 1024 spans several blocks of lines
    rng = random.Random(64)
    for n in [*range(1, 65), 99, 100, 101, 1000, 1024]:
        m = random_rank_metric(n, rng)
        assert write_metric(m) == reference_write_metric(m), n
    # blocks of one row when a row is longer than a block
    monkeypatch.setattr(fileio, "_WRITE_LINES", 5)
    for n in (1, 2, 7, 30):
        m = random_rank_metric(n, rng)
        assert write_metric(m) == reference_write_metric(m), n


def test_metric_reader_peak_memory_is_bounded(tmp_path):
    # the plain scan holds one run of lines at a time, so the rank matrix
    # the acceptor fills and the metric keeps, and the seen mask of its rank
    # check (4 and 0.5 MiB at n = 1024) set the peak, and no temporary the
    # size of the 7.3 MB file shows
    _check_metric_read_peak(tmp_path / "m.txt", write_metric(random_rank_metric(1024, random.Random(31))))


def test_commented_metric_reader_peak_memory_is_bounded(tmp_path):
    # the run scan blanks a run's comments, so a commented file is read run
    # by run as a plain one is, under the same cap, and never walked
    code, text, _ = run_cli(["gen", "random-metric", "--n", "1024", "--seed", "1"])
    assert code == 0
    lines = text.splitlines(keepends=True)
    lines[::1000] = [line.replace("\n", "  # note\n") for line in lines[::1000]]
    _check_metric_read_peak(tmp_path / "m.txt", "# a random metric\n" + "".join(lines))


def _check_metric_read_peak(src, text):
    """sniff_format and parse_metric of text, read from the file src as the
    CLI reads it and never walked line by line, stay under 16 MiB of traced
    memory."""
    cap = 16 * 2**20
    src.write_text(text)
    with open(src, "rb") as fh, _refuse_walks():
        shared = Source(fh)
        tracemalloc.start()
        try:
            fmt = sniff_format(shared)
            m = parse_metric(shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (fmt, m.n) == ("metric", 1024)
    assert peak < cap, peak


def test_load_input_metric_peak_memory_is_bounded(tmp_path):
    # the whole command's read, from the path: no copy of the 7.3 MB file's
    # bytes or text is held, so the rank vector sets the peak; once the read
    # returns, that 2 MiB vector is all the metric holds
    cap, held_cap = 10 * 2**20, int(4.5 * 2**20)
    src = tmp_path / "m.txt"
    assert run_cli(["gen", "random-metric", "--n", "1024", "--seed", "31", "-o", str(src)])[0] == 0
    tracemalloc.start()
    try:
        m = cli._load_input(str(src), "auto")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n == 1024
    assert peak < cap, peak
    assert held <= held_cap, held


def test_load_input_metric_peak_is_the_pair_vector(tmp_path):
    # the read holds the 2 MiB pair-rank vector, its p-byte rank check and
    # one run's temporaries: no n×n matrix, and the same bound for the file
    # rewritten with lone "\r", which the runs end at
    cap = int(3.5 * 2**20)
    plain, cr = tmp_path / "m.txt", tmp_path / "cr.txt"
    assert run_cli(["gen", "random-metric", "--n", "1024", "--seed", "1", "-o", str(plain)])[0] == 0
    cr.write_bytes(plain.read_bytes().replace(b"\n", b"\r"))
    metrics = []
    for src in (plain, cr):
        tracemalloc.start()
        try:
            metrics.append(cli._load_input(str(src), "auto"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap, (src, peak)
    assert metrics[0].n == 1024 and metrics[1] == metrics[0]


def test_load_input_walked_metric_peak_is_bounded(tmp_path):
    # a metric file the run scan or the acceptor declines is walked run by
    # run, never decoded whole or split into lines all at once: the pair-rank
    # vector and one run's lines set the peak.  "+" on every field (the walk
    # reads the metric) and a last line that repeats the pair before it (the
    # walk words the defect), both from the n = 1024 file
    cap = 4 * 2**20
    plain, plus, declined = tmp_path / "m.txt", tmp_path / "plus.txt", tmp_path / "declined.txt"
    assert run_cli(["gen", "random-metric", "--n", "1024", "--seed", "1", "-o", str(plain)])[0] == 0
    data = plain.read_bytes()
    plus.write_bytes(re.sub(rb"([0-9]+)", rb"+\1", data))
    lines = data.splitlines(keepends=True)
    lines[-1] = b" ".join(lines[-2].split()[:2] + lines[-1].split()[2:]) + b"\n"
    declined.write_bytes(b"".join(lines))
    for src in (plus, declined):
        tracemalloc.start()
        try:
            try:
                got = cli._load_input(str(src), "auto")
            except cli.UsageError as e:
                got = str(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap, (src, peak)
        if src == plus:
            assert got == cli._load_input(str(plain), "auto")
        else:
            assert got == f"{declined}: line 523777: pair (1021, 1023) given twice"


@pytest.mark.parametrize("data, fmt", [
    (b"3\n0 1 0\n0 2 1\n1 2 2\n", "auto"),  # plain metric
    (b"0.5 1\n-2 3.25\n", "auto"),  # plain points
    (b"# c\n3\n0 1 0\n0 2 1\n1 2 2\n", "auto"),  # a comment, scanned
    (b"3\n0 1 +0\n0 2 1\n1 2 2\n", "auto"),  # walked line by line
    (b"3\n0 1 0\n0 1 1\n1 2 2\n", "metric"),  # declined, then explained
    (b"3\n0 1 0\xff\n", "auto"),  # not UTF-8
    (b"8193\n0 1 0\n", "metric"),  # past the pair guard
])
def test_load_input_closes_its_file(tmp_path, data, fmt):
    # whatever the reader does with the file, and whether it returns or
    # raises, the file is closed when _load_input is done with it: an
    # unclosed file's ResourceWarning counts as an error
    src = tmp_path / "f.txt"
    src.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            cli._load_input(str(src), fmt)
        except (cli.UsageError, ValueError):
            pass
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    if leaks:
        raise AssertionError(f"unclosed: {leaks[0].message}")


def test_load_input_reads_a_pipe_whole(tmp_path):
    # a FIFO cannot seek: it is read once, whole, and reads as the same
    # bytes in a regular file do
    text = write_metric(random_rank_metric(30, random.Random(5)))
    reg, fifo = tmp_path / "m.txt", tmp_path / "m.fifo"
    reg.write_text(text)
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    argv = ["order", "--strategy", "ramsey", "--input"]
    got = run_cli(argv + [str(fifo)])
    writer.join(timeout=10)
    if writer.is_alive():
        raise AssertionError("the FIFO was never read")
    assert got[0] == 0, got
    assert got == run_cli(argv + [str(reg)])


def test_huge_header_allocates_nothing_per_pair(tmp_path):
    # n = 8192 passes the guard, but three pair lines cannot hold its
    # 33550336 pairs: refused before any vector of that size is made
    text = "8192\n0 1 0\n0 2 1\n1 2 2\n"
    src = tmp_path / "h.txt"
    src.write_text(text)
    code, out, err = run_cli(["order", "--strategy", "ramsey", "--input-format", "metric",
                              "--input", str(src)])
    assert (code, out) == (1, "")
    assert err == f"onng: error: {src}: expected 33550336 pair lines for n=8192, got 3\n"
    shared = fileio._source(text)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expected 33550336 pair lines for n=8192, got 3"):
            parse_metric(shared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_generated_metric_files_are_never_split_into_lines(tmp_path):
    # a silent fall-back to the line walker, which decodes what it walks,
    # fails here; warnings are errors, so a numpy deprecation shows here too
    # also once rewritten with CRLF line breaks
    src, crlf, ordf = tmp_path / "m.txt", tmp_path / "crlf.txt", tmp_path / "o.txt"
    assert run_cli(["gen", "random-metric", "--n", "40", "--seed", "3", "-o", str(src)])[0] == 0
    crlf.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    ordf.write_text(write_order(range(39, -1, -1)))
    with _refuse_walks(str(ordf)), warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["order", "--strategy", "ramsey"],
                     ["order", "--strategy", "path", "--tail", "0"],
                     ["eval", "--order", str(ordf)]):
            code, out, err = run_cli(argv + ["--input", str(src)])
            assert (code, err) == (0, ""), (argv, err)
            assert json.loads(out)["n"] == 40
            assert run_cli(argv + ["--input", str(crlf)]) == (code, out, err), argv


def test_defective_str_is_split_into_lines_once():
    # a str the acceptor declines is walked line by line once, by
    # _explain: the plain scan has counted its lines
    text = "3\r0 1 0\r0 2 1\r1 0 2\r"
    with mock.patch.object(fileio, "_walk", wraps=fileio._walk) as walk:
        with pytest.raises(ValueError, match=r"line 4: pair \(0, 1\) given twice"):
            parse_metric(text)
    assert walk.call_count == 1


@pytest.mark.parametrize("text", [
    "3\n0 1 0\n0 2 0\n1 2 2\n",  # a repeated rank, in a plain file
    "2\n0 1 99999999999999999999999\n",  # a rank past int64, read from lines
])
def test_explainer_words_a_rank_defect_without_a_metric(monkeypatch, text):
    # every line of these files passes, so their fault is in the ranks: the
    # walker's matrix gets the rank check's error, with no flat rank vector
    # handed to RankedMetric's constructor
    def refuse(*args):
        raise AssertionError("the walker built a metric from flat ranks")

    monkeypatch.setattr(core.RankedMetric, "__init__", refuse)
    with pytest.raises(ValueError) as e:
        parse_metric(text)
    assert str(e.value) == RankedMetric.RANK_ERROR


_POINT_FIELD = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_POINT_DEFECTS = ("ragged", "duplicate", "lead_dot", "trail_dot", "double_minus",
                  "inner_minus", "double_dot", "long")


def _is_plain_points(text: str) -> bool:
    """What the points scan must read, written out plainly: ASCII, and once
    read as scanned (_as_scanned), the plain bytes, every field
    -?digits(.digits)? of at most 18 digits at the file's largest decimal
    count, one field count on every line, distinct points."""
    text = _as_scanned(text)
    if text is None or set(text) - set("0123456789-. \t\n"):
        return False
    rows = [row for row in (line.split() for line in text.split("\n")) if row]
    fields = [f for row in rows for f in row]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return False
    if not all(map(_POINT_FIELD.fullmatch, fields)):
        return False
    d = max(len(f.partition(".")[2]) for f in fields)
    if any(len(f.lstrip("-").replace(".", "")) + d - len(f.partition(".")[2]) > 18 for f in fields):
        return False
    return len({tuple(map(Fraction, row)) for row in rows}) == len(rows)


def _point_field(rng: random.Random, d: int) -> str:
    """-?digits(.digits)? with up to d decimals: leading zeros, "-0", trailing
    zeros, and now and then the full 18 digits at scale 10**d."""
    decimals = rng.randint(0, d)
    width = 18 - d if rng.random() < 0.1 else rng.randint(1, 3)
    whole = str(rng.randrange(10**width)).zfill(width if rng.random() < 0.3 else 1)
    frac = "".join(rng.choice("0123456789") for _ in range(decimals))
    return ("-" if rng.random() < 0.3 else "") + whole + ("." + frac if frac else "")


def _respell(rng: random.Random, f: str) -> str:
    """The same number spelled another way: 0.5 as 0.50, 3 as 3.0 or 03."""
    if "." in f:
        return f + "0"
    sign, digits = ("-", f[1:]) if f.startswith("-") else ("", f)
    return f + ".0" if rng.random() < 0.5 else sign + "0" + digits


def _inject_point(rng: random.Random, kind: str, rows: list) -> None:
    """Plant one defect in a random row of field strings."""
    row = rng.choice(rows)
    k = rng.randrange(len(row))
    if kind == "ragged":
        if len(row) > 1 and rng.random() < 0.5:
            row.pop(k)
        else:
            row.append("7")
    elif kind == "duplicate":
        row[:] = [_respell(rng, f) if rng.random() < 0.5 else f for f in rng.choice(rows)]
    elif kind == "long":  # 19 digits, or 20 that spell a small number
        row[k] = rng.choice(("1" * 19, "0" * 19 + "5", "-" + "9" * 19))
    else:
        digits = str(rng.randrange(100))
        row[k] = {"lead_dot": "." + digits, "trail_dot": digits + ".",
                  "double_minus": "--" + digits, "inner_minus": digits + "-2",
                  "double_dot": digits + "..2"}[kind]


@st.composite
def plain_points_texts(draw):
    """Points files with d <= 4 and n <= 80 in ASCII digits, "-", ".",
    spaces, tabs and "\n": mixed decimal counts, negatives, "-0", leading
    zeros, 18-digit fields, runs of blanks, blank lines, with or without a
    final "\n", and zero to three injected defects.  A quarter of them get
    one of _PLANTS or "/" planted anywhere."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim, n, d = rng.randint(1, 4), rng.randint(1, 80), rng.randint(0, 6)
    rows = [[_point_field(rng, d) for _ in range(dim)] for _ in range(n)]
    for kind in draw(st.lists(st.sampled_from(_POINT_DEFECTS), max_size=3)):
        _inject_point(rng, kind, rows)
    lines = []
    for row in rows:
        while rng.random() < 0.1:
            lines.append(rng.choice(("", " ", "\t", " \t ")))
        line = rng.choice(_PLAIN_SPACES).join(row)
        if rng.random() < 0.2:
            line = rng.choice(_PLAIN_SPACES) + line
        if rng.random() < 0.2:
            line += rng.choice(_PLAIN_SPACES)
        lines.append(line)
    text = "\n".join(lines) + rng.choice(("\n", ""))
    if rng.random() < 0.25:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice((*_PLANTS, "/")) + text[at:]
    return text


def _points_outcome(fn, text):
    got = _outcome(fn, text)
    if isinstance(got, PointSet):
        return got.dim, got.den, got.origin, got.axes.dtype, got.axes.tolist()
    return got


@settings(derandomize=True, max_examples=400, deadline=None)
@given(plain_points_texts(), st.sampled_from([1, 3, 8, 32, fileio._PLAIN_CHUNK]))
def test_plain_points_scan_matches_reference(text, chunk):
    # the points scan reads exactly the plain files and declines the rest,
    # whatever its run length (small runs put joins inside the file, between
    # lines of other decimal counts); either way the sniff and the parse,
    # sharing one Source, answer as the reference, and a plain file is never
    # split into lines
    plain = _is_plain_points(text)
    shared = fileio._source(text)
    with (mock.patch.object(fileio, "_walk", wraps=fileio._walk) as walk,
          mock.patch.object(fileio, "_PLAIN_CHUNK", chunk)):
        sniffed = _outcome(sniff_format, shared)
        got = _points_outcome(parse_points, shared)
    assert (shared.points_scan is not None) == plain
    assert sniffed == _outcome(reference_sniff_format, text)
    assert got == _points_outcome(reference_parse_points, text)
    if plain:
        walk.assert_not_called()


@pytest.mark.parametrize("text, plain", [
    ("1" * 17 + "\n0.5\n", True),  # 18 digits once scaled to one decimal
    ("1" * 18 + "\n0.5\n", False),  # 19, the decimal in a later run
    ("0.5\n" + "1" * 18 + "\n", False),  # 19, the decimal in an earlier run
    ("-" + "9" * 16 + ".25\n0\n", True),
])
def test_points_scan_digit_limit_spans_runs(text, plain):
    # the 18-digit limit counts a field's integer digits against the whole
    # file's decimal count, whichever run each is in, so no run's scaling
    # leaves int64
    assert _is_plain_points(text) == plain
    for chunk in (1, 4, fileio._PLAIN_CHUNK):
        with mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
            shared = fileio._source(text)
            assert (shared.points_scan is not None) == plain, chunk
            assert _points_outcome(parse_points, shared) == _points_outcome(reference_parse_points, text)


def test_generated_points_files_are_never_split_into_lines(tmp_path):
    # a silent fall-back to the line walker, which decodes what it walks,
    # fails here; warnings are errors, so a numpy deprecation shows here too
    # also once rewritten with CRLF line breaks
    pts, hl, ordf = tmp_path / "p.txt", tmp_path / "h.txt", tmp_path / "o.txt"
    for argv in (["gen", "random-points", "--n", "40", "--d", "3", "--seed", "3", "-o", str(pts)],
                 ["gen", "hard-line", "--k", "5", "--n", "40", "-o", str(hl)]):
        assert run_cli(argv)[0] == 0
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(pts.read_bytes().replace(b"\n", b"\r\n"))
    ordf.write_text(write_order(range(39, -1, -1)))
    with _refuse_walks(str(ordf)), warnings.catch_warnings():
        warnings.simplefilter("error")
        for src, argv in ((pts, ["order", "--strategy", "euclid"]),
                          (pts, ["order", "--strategy", "path", "--tail", "0"]),
                          (hl, ["order", "--strategy", "line"]),
                          (hl, ["order", "--strategy", "path", "--tail", "0"]),
                          (pts, ["eval", "--order", str(ordf)]),
                          (hl, ["eval", "--order", str(ordf)]),
                          (crlf, ["order", "--strategy", "euclid"])):
            code, out, err = run_cli(argv + ["--input", str(src)])
            assert (code, err) == (0, ""), (argv, err)
            assert json.loads(out)["n"] == 40


def _respell_ascii(rng: random.Random, text: str) -> str:
    """text spelled another way the run scan reads: each space a run of
    spaces, tabs and "\x1f", comments and comment lines, and each line
    break any ASCII one."""
    out = []
    for line in text.splitlines():
        line = re.sub(" ", lambda _: rng.choice((" ", "\t", "\x1f", " \x1f\t")), line)
        if rng.random() < 0.3:
            line += rng.choice(("#", " # note", "\t#0 1 2", "\x1f# -.5"))
        out.append(line)
        while rng.random() < 0.1:
            out.append(rng.choice(("# c", "", "\x1f#\x1f")))
    return "".join(line + rng.choice([b for b in _BREAKS if b.isascii()]) for line in out)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(("metric", "points")), st.integers(1, 40), st.integers(0, 2**16),
       st.sampled_from([8, 64, fileio._PLAIN_CHUNK]))
def test_ascii_spellings_are_scanned(kind, n, seed, chunk):
    # a generated file respelled with ASCII comments, line breaks and "\x1f"
    # is read by the run scan, never walked line by line (which decodes),
    # into the plain file's metric or point set
    argv = (["gen", "random-metric", "--n", str(n)] if kind == "metric" else
            ["gen", "random-points", "--n", str(n), "--d", str(1 + seed % 3)])
    code, text, _ = run_cli(argv + ["--seed", str(seed)])
    assert code == 0
    spelt = _respell_ascii(random.Random(seed), text).encode()
    parse = parse_metric if kind == "metric" else parse_points
    want = _points_outcome(parse, text)
    with _refuse_walks(), mock.patch.object(fileio, "_PLAIN_CHUNK", chunk):
        shared = Source(io.BytesIO(spelt))
        assert sniff_format(shared) == kind
        assert _points_outcome(parse, shared) == want


def test_points_reader_peak_memory_is_bounded():
    # one scan of the bytes and a few vectors per field: no Fraction or
    # line string per field, and no copy of the points beyond the axes
    cap = int(2.5 * 2**20)
    code, out, _ = run_cli(["gen", "random-points", "--n", "4096", "--d", "3", "--seed", "17"])
    assert code == 0
    shared = fileio._source(out)
    tracemalloc.start()
    try:
        fmt = sniff_format(shared)
        ps = parse_points(shared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fmt, ps.n, ps.dim) == ("points", 4096, 3)
    assert peak < cap, peak


def test_points_reader_reads_large_files_in_runs(tmp_path):
    # the 2^17-point hard line is a 1.1 MB file: it is read in runs of
    # lines like a metric file, so only the parsed points' vectors (1 MiB
    # each) grow with it, and no temporary per byte of the whole file shows
    cap = 6 * 2**20
    src = tmp_path / "h.txt"
    assert run_cli(["gen", "hard-line", "--k", "17", "-o", str(src)])[0] == 0
    with open(src, "rb") as fh:
        shared = Source(fh)
        tracemalloc.start()
        try:
            fmt = sniff_format(shared)
            ps = parse_points(shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (fmt, ps.n, ps.dim) == ("points", 2**17, 1)
    assert peak < cap, peak


def test_order_round_trip():
    assert parse_order(write_order((2, 0, 1))) == (2, 0, 1)
    with pytest.raises(ValueError):
        parse_order("1\nx\n")
    with pytest.raises(ValueError, match="expected 3"):
        parse_order("0\n1\n", n=3)


def test_sniff_format():
    assert sniff_format("3\n0 1 0\n0 2 1\n1 2 2\n") == "metric"
    assert sniff_format("0\n1\n3\n4\n") == "points"
    assert sniff_format("1.5 2\n") == "points"
    assert sniff_format("4\n") == "points"  # header without enough pair lines
    assert sniff_format("1\n") == "metric"  # trivial single-vertex metric


def test_render_dot_lists_every_vertex_and_edge():
    m = metric_from_points(PointSet(1, ((0,), (1,), (3,))))
    g = build_onng(m, (0, 2, 1))
    assert render_dot(g) == (
        "digraph onng {\n"
        "  v0;\n"
        "  v1;\n"
        "  v2;\n"
        "  v1 -> v0;\n"
        "  v2 -> v0;\n"
        "}\n"
    )


# --------------------------------------------------------------------- CLI


def test_gen_hard_line_bytes():
    code, out, err = run_cli(["gen", "hard-line", "--k", "2"])
    assert code == 0
    assert out == "0\n1\n3\n4\n"


def test_gen_hard_line_truncated(tmp_path):
    target = tmp_path / "pts.txt"
    code, out, _ = run_cli(["gen", "hard-line", "--k", "1", "--n", "3", "-o", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "0\n1\n3\n"


def test_gen_hard_line_truncation_refusal_names_the_given_k_and_n(tmp_path):
    target = tmp_path / "pts.txt"
    code, out, err = run_cli(["gen", "hard-line", "--k", "20", "--n", "1048577", "-o", str(target)])
    assert (code, out) == (2, "")
    assert err == "onng: refused: k=20, n=1048577 exceeds the size budget (n <= 2^20 points)\n"
    assert not target.exists()


def test_gen_hard_line_huge_k_is_refused_by_its_range(tmp_path):
    # the range is checked on n's bit length: no 2^k is ever computed
    target = tmp_path / "pts.txt"
    code, out, err = run_cli(["gen", "hard-line", "--k", "100000000000", "--n", "5", "-o", str(target)])
    assert (code, out) == (1, "")
    assert err == "onng: error: need 2^100000000000 < n <= 2^100000000001, got n=5\n"
    assert not target.exists()


def test_gen_commands_are_seed_deterministic():
    for argv in (
        ["gen", "random-points", "--n", "12", "--d", "3", "--seed", "99"],
        ["gen", "random-metric", "--n", "9", "--seed", "99"],
    ):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2
    _, changed, _ = run_cli(["gen", "random-metric", "--n", "9", "--seed", "100"])
    assert changed != out2


def test_gen_random_points_grid_format():
    code, out, _ = run_cli(["gen", "random-points", "--n", "3", "--d", "2", "--seed", "1"])
    assert code == 0
    for token in out.split():
        assert token.startswith("0.") and len(token) == 11


def test_gen_random_points_refuses_more_points_than_its_grid_holds(tmp_path, monkeypatch):
    # d coordinates of 9 digits hold 10^(9d) distinct points: a larger --n
    # once drew duplicates forever.  It is refused before any draw and
    # before -o is made; at the limit, and for a --d whose 10^(9d) is too
    # large to compute, drawing starts
    class Drew(Exception):
        pass

    def draw(self, *args):
        raise Drew

    monkeypatch.setattr(random.Random, "randrange", draw)
    target = tmp_path / "pts.txt"

    def gen(n, d):
        return run_cli(["gen", "random-points", "--n", str(n), "--d", str(d), "--seed", "1", "-o", str(target)])

    for n, d in ((10**9 + 1, 1), (10**18 + 1, 2), (10**27 + 5, 3)):
        code, out, err = gen(n, d)
        assert (code, out) == (1, ""), (n, d)
        assert err == f"onng: error: random-points --d {d} draws from 10^{9 * d} points: --n is too large\n"
        assert not target.exists()
    for n, d in ((10**9, 1), (10**18, 2), (2, 10**15)):
        with pytest.raises(Drew):
            gen(n, d)


def test_order_line_report_schema(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("0\n1\n3\n4\n")
    code, out, _ = run_cli(["order", "--strategy", "line", "--input", str(src)])
    assert code == 0
    assert json.loads(out) == {
        "center": 0,
        "guarantee": 2,
        "indegrees": [2, 0, 0, 1],
        "max_indegree": 2,
        "n": 4,
        "order": [0, 3, 1, 2],
        "strategy": "line",
    }
    # keys arrive sorted for byte stability
    assert out.index('"center"') < out.index('"guarantee"') < out.index('"indegrees"')


@pytest.mark.parametrize("strategy", ["path", "line", "euclid", "ramsey", "brute", "eval"])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(n=st.one_of(st.just(1), st.just(2), st.integers(3, 300)),
       guarantee=st.one_of(st.none(), st.integers(0, 40)),
       center=st.one_of(st.none(), st.integers(0, 299)), seed=st.integers(0, 2**32))
@example(n=1, guarantee=None, center=None, seed=0)
@example(n=2, guarantee=1, center=0, seed=1)
def test_report_writer_is_json_dumps_with_indent(strategy, n, guarantee, center, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    indegrees = [rng.randrange(n) for _ in range(n)]
    report = {
        "strategy": strategy,
        "n": n,
        "order": order,
        "indegrees": indegrees,
        "max_indegree": max(indegrees),
        "guarantee": guarantee,
        "center": center,
    }
    assert cli._report_text(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_order_line_maps_ids_through_sorting(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("4\n0\n3\n1\n" )  # same set, scrambled ids
    code, out, _ = run_cli(["order", "--strategy", "line", "--input", str(src),
                            "--input-format", "points"])
    assert code == 0
    rep = json.loads(out)
    assert rep["center"] == 1  # the point at coordinate 0
    assert rep["max_indegree"] == 2
    assert sorted(rep["order"]) == [0, 1, 2, 3]


def test_order_path_and_save_order_round_trip(tmp_path):
    src = tmp_path / "m.txt"
    run_cli(["gen", "random-metric", "--n", "12", "--seed", "5", "-o", str(src)])
    saved = tmp_path / "ord.txt"
    code, out, _ = run_cli(["order", "--strategy", "path", "--tail", "7",
                            "--input", str(src), "--save-order", str(saved)])
    assert code == 0
    rep = json.loads(out)
    assert rep["max_indegree"] == 1
    assert rep["guarantee"] == 1
    assert rep["order"][-1] == 7
    code, out2, _ = run_cli(["eval", "--input", str(src), "--order", str(saved)])
    assert code == 0
    rep2 = json.loads(out2)
    assert rep2["indegrees"] == rep["indegrees"]
    assert rep2["strategy"] == "eval"
    assert rep2["guarantee"] is None


def test_order_brute_on_hard_line(tmp_path):
    src = tmp_path / "p.txt"
    run_cli(["gen", "hard-line", "--k", "3", "-o", str(src)])
    code, out, _ = run_cli(["order", "--strategy", "brute", "--input", str(src)])
    assert code == 0
    rep = json.loads(out)
    assert rep["max_indegree"] == 3
    assert rep["guarantee"] == 3


def test_order_ramsey_reports_hub_as_center(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("0\n10\n11\n")
    code, out, _ = run_cli(["order", "--strategy", "ramsey", "--input", str(src),
                            "--input-format", "points"])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == [2, 0, 1]
    assert rep["center"] == 2
    assert rep["guarantee"] == 2
    assert rep["max_indegree"] >= 2


def test_order_euclid_dot_output(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("0 0\n1 0\n3 0\n4 0\n")
    code, out, _ = run_cli(["order", "--strategy", "euclid", "--input", str(src),
                            "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph onng {")
    assert "v3 -> v0;" in out


def test_eval_rejects_non_permutation(tmp_path):
    # the order is validated once, where the graph is built, and its error
    # is the whole stderr line: missing, duplicate and out-of-range ids
    src = tmp_path / "p.txt"
    src.write_text("0\n1\n3\n")
    bad = tmp_path / "ord.txt"
    for ids, offenders in (("0\n1\n1\n", "missing ids [2]; duplicate ids [1]"),
                           ("0\n1\n", "missing ids [2]"),
                           ("0\n1\n5\n", "missing ids [2]; out-of-range ids [5]"),
                           ("0\n2\n7\n7\n", "missing ids [1]; duplicate ids [7]; out-of-range ids [7]")):
        bad.write_text(ids)
        got = run_cli(["eval", "--input", str(src), "--order", str(bad), "--input-format", "points"])
        assert got == (1, "", f"onng: error: order is not a permutation of 0..2: {offenders}\n"), ids


def test_usage_errors_exit_1(tmp_path):
    assert run_cli(["gen", "random-points", "--n", "0", "--d", "2", "--seed", "1"])[0] == 1
    assert run_cli(["order", "--strategy", "warp", "--input", "x"])[0] == 1
    assert run_cli(["nope"])[0] == 1
    assert run_cli(["order", "--strategy", "path", "--input", str(tmp_path / "missing")])[0] == 1
    src = tmp_path / "m.txt"
    run_cli(["gen", "random-metric", "--n", "4", "--seed", "1", "-o", str(src)])
    assert run_cli(["order", "--strategy", "euclid", "--input", str(src)])[0] == 1
    assert run_cli(["order", "--strategy", "path", "--tail", "9", "--input", str(src)])[0] == 1
    code, _, err = run_cli(["order", "--strategy", "line", "--input", str(src)])
    assert code == 1 and "1-D points" in err


def test_unwritable_output_is_an_input_error(tmp_path):
    # a named output that cannot be opened or written is worded as an
    # unreadable input is, with exit 1 and no traceback; stdout is not named
    src = tmp_path / "m.txt"
    assert run_cli(["gen", "random-metric", "--n", "4", "--seed", "1", "-o", str(src)])[0] == 0
    missing = tmp_path / "absent" / "x.txt"
    order = ["order", "--strategy", "path", "--input", str(src)]
    for argv, bad in [
        (["gen", "random-metric", "--n", "4", "--seed", "1", "-o", str(tmp_path)], tmp_path),
        (["gen", "hard-line", "--k", "2", "-o", str(missing)], missing),
        (order + ["-o", str(tmp_path)], tmp_path),
        (order + ["--save-order", str(missing)], missing),
        (order + ["-o", str(tmp_path / "r.json"), "--save-order", str(tmp_path)], tmp_path),
    ]:
        code, _, err = run_cli(argv)
        assert code == 1, argv
        assert re.fullmatch(f"onng: error: cannot write {re.escape(str(bad))}: [^\n]+\n", err), err
    assert not missing.parent.exists()


def test_guard_refusals_exit_2(tmp_path):
    code, _, err = run_cli(["search-problem1", "--n", "6"])
    assert code == 2 and "guard" in err
    code, _, err = run_cli(["search-problem1", "--n", "5"])
    assert code == 2 and "--yes" in err
    big = tmp_path / "m.txt"
    run_cli(["gen", "random-metric", "--n", "11", "--seed", "1", "-o", str(big)])
    code, _, err = run_cli(["order", "--strategy", "brute", "--input", str(big)])
    assert code == 2
    code, _, err = run_cli(["gen", "hard-line", "--k", "21"])
    assert code == 2 and "size budget" in err
    # refused at the header, before the pair lines are counted
    huge = tmp_path / "h.txt"
    huge.write_text("8193\n0 1 0\n")
    code, out, err = run_cli(["order", "--strategy", "ramsey", "--input-format", "metric",
                              "--input", str(huge)])
    assert (code, out) == (2, "")
    assert err == "onng: refused: n=8193 exceeds the pair-ranking guard (n <= 8192)\n"


def test_gen_random_metric_refuses_past_the_pair_guard(tmp_path):
    # refused before any per-pair allocation: n = 10^6 would hold 5 * 10^11
    code, out, err = run_cli(["gen", "random-metric", "--n", "8193", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "onng: refused: n=8193 exceeds the pair-ranking guard (n <= 8192)\n"
    # and before the output file is made
    dest = tmp_path / "m.txt"
    assert run_cli(["gen", "random-metric", "--n", "8193", "--seed", "1", "-o", str(dest)])[0] == 2
    assert not dest.exists()
    tracemalloc.start()
    try:
        code, out, err = run_cli(["gen", "random-metric", "--n", str(10**6), "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "") and "pair-ranking guard" in err
    assert peak < 2**20, peak


def test_closed_stdout_pipe_exits_1_quietly():
    # onng ... | head -1: the reader leaves after one line of a 0.5 MB text,
    # and the command stops with exit 1 and no traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys, onng.cli; sys.exit(onng.cli.main())",
         "gen", "random-metric", "--n", "300", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"300\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


def test_gen_random_metric_is_written_block_by_block(tmp_path, monkeypatch):
    # the bytes of write_metric(random_rank_metric(n, Random(seed))), made
    # block by block from the shuffled ranks: no RankedMetric is built and
    # no whole-file str is joined
    want = write_metric(random_rank_metric(300, random.Random(9)))

    def refuse(*args):
        raise AssertionError("gen random-metric built a whole metric or text")

    monkeypatch.setattr(core.RankedMetric, "__init__", refuse)
    monkeypatch.setattr(fileio, "write_metric", refuse)
    monkeypatch.setattr(fileio, "_WRITE_LINES", 1000)  # about 45 blocks
    dest = tmp_path / "m.txt"
    assert run_cli(["gen", "random-metric", "--n", "300", "--seed", "9"]) == (0, want, "")
    assert run_cli(["gen", "random-metric", "--n", "300", "--seed", "9", "-o", str(dest)]) == (0, "", "")
    assert dest.read_text() == want


def test_cli_import_leaves_multiprocessing_out():
    # only a parallel Problem-1 search needs it; every other command would
    # pay for its import.  Nor does the import freeze the collector: only
    # main() run as the program does.
    code = ("import gc, sys, onng.cli; "
            "sys.exit('multiprocessing' in sys.modules or gc.get_freeze_count() != 0)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_points_commands_leave_numpy_ma_out(tmp_path):
    # np.isin, and np.unique without return_index, _inverse or _counts,
    # import numpy.ma (numpy 2.4): about 1 MiB of peak RSS a points command
    # need not pay
    pts, hard_line = str(tmp_path / "p.txt"), str(tmp_path / "l.txt")
    assert run_cli(["gen", "random-points", "--n", "300", "--d", "3", "--seed", "2", "-o", pts])[0] == 0
    assert run_cli(["gen", "hard-line", "--k", "6", "-o", hard_line])[0] == 0
    commands = [
        ["order", "--strategy", "euclid", "--input", pts],
        ["order", "--strategy", "line", "--input", hard_line],
        ["order", "--strategy", "path", "--tail", "0", "--input", pts],
    ]
    code = ("import sys, onng.cli\n"
            f"for argv in {commands!r}:\n"
            "    assert onng.cli.main(argv) == 0, argv\n"
            "sys.exit('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


# as the console script calls it, and as python -m onng.cli does
_ENTRY_POINTS = {
    "console_script": "sys.argv = ['onng', *ARGS]; import onng.cli; sys.exit(onng.cli.main())",
    "run_module": "sys.argv = ['onng.cli', *ARGS]; runpy.run_module('onng.cli', run_name='__main__')",
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_program_freezes_the_import_time_heap(entry):
    # the objects alive after import (mostly numpy's) are frozen, so the
    # collections at exit do not walk them
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count() > 0}\\n'))\n"
            "ARGS = ['gen', 'hard-line', '--k', '3']\n" + _ENTRY_POINTS[entry])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == run_cli(["gen", "hard-line", "--k", "3"])[:2]
    assert run.stderr.splitlines()[-1] == "frozen=True"


def test_main_in_process_leaves_the_collector_alone():
    before = gc.get_freeze_count()
    assert run_cli(["gen", "hard-line", "--k", "3"])[0] == 0
    assert gc.get_freeze_count() == before


def test_program_prints_the_in_process_bytes(tmp_path):
    # pinned digests are taken in-process, where nothing is frozen; the
    # program path must print the same bytes, its forked search pool too
    pts, hard_line, m9, order = (str(tmp_path / f) for f in ("p.txt", "l.txt", "m.txt", "o.txt"))
    gen_pts = ["gen", "random-points", "--n", "200", "--d", "2", "--seed", "3"]
    for argv in (gen_pts + ["-o", pts], ["gen", "hard-line", "--k", "5", "-o", hard_line],
                 ["gen", "random-metric", "--n", "9", "--seed", "4", "-o", m9]):
        assert run_cli(argv)[0] == 0
    (tmp_path / "o.txt").write_text("".join(f"{i}\n" for i in reversed(range(200))))
    commands = [
        gen_pts,
        ["order", "--strategy", "path", "--input", pts],
        ["order", "--strategy", "line", "--input", hard_line],
        ["order", "--strategy", "euclid", "--input", pts],
        ["order", "--strategy", "ramsey", "--input", pts],
        ["order", "--strategy", "brute", "--input", m9],
        ["eval", "--input", pts, "--order", order],
        ["search-problem1", "--n", "5", "--yes", "--canonical", "--jobs", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in commands:
        want = run_cli(argv)
        assert want[0] == 0, (argv, want[2])
        run = subprocess.run([sys.executable, "-m", "onng.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == want, argv


def test_brute_refuses_large_points_before_ranking_pairs(tmp_path, monkeypatch):
    def refuse(ps):
        raise AssertionError("brute ranked all pairs before its size guard")

    monkeypatch.setattr(cli, "metric_from_points", refuse)
    src = tmp_path / "p.txt"
    src.write_text("".join(f"{i}\n" for i in range(11)))
    code, _, err = run_cli(["order", "--strategy", "brute", "--input", str(src)])
    assert code == 2 and "guard" in err


def test_ramsey_refuses_huge_point_sets_before_ranking_pairs(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("measured distances past the pair-ranking guard")

    monkeypatch.setattr(core, "sq_dist_rows", refuse)
    src = tmp_path / "p.txt"
    assert run_cli(["gen", "hard-line", "--k", "13", "--n", "8193", "-o", str(src)])[0] == 0
    code, out, err = run_cli(["order", "--strategy", "ramsey", "--input", str(src)])
    assert (code, out) == (2, "")
    assert err == "onng: refused: n=8193 exceeds the pair-ranking guard (n <= 8192)\n"


def test_ramsey_on_points_ranks_no_pairs(tmp_path, monkeypatch):
    # the process reads exact squared distances through core.key_source,
    # and prints what it prints on the metric of the same points
    pts, met = tmp_path / "p.txt", tmp_path / "m.txt"
    run_cli(["gen", "random-points", "--n", "300", "--d", "2", "--seed", "4", "-o", str(pts)])
    met.write_text(write_metric(metric_from_points(parse_points(pts.read_text()))))
    want = run_cli(["order", "--strategy", "ramsey", "--input", str(met)])

    def refuse(ps):
        raise AssertionError("ramsey ranked all pairs of a point set")

    monkeypatch.setattr(cli, "metric_from_points", refuse)
    monkeypatch.setattr(core, "metric_from_points", refuse)
    got = run_cli(["order", "--strategy", "ramsey", "--input", str(pts)])
    assert got[0] == 0 and got == want


def test_bad_ranks_are_input_errors(tmp_path):
    # a rank past int64 used to escape as an OverflowError traceback
    ordf = tmp_path / "o.txt"
    ordf.write_text("0\n1\n")
    for rank in ("99999999999999999999999", "-1"):
        src = tmp_path / "m.txt"
        src.write_text(f"2\n0 1 {rank}\n")
        for argv in (["order", "--strategy", "ramsey"], ["eval", "--order", str(ordf)]):
            code, out, err = run_cli(argv + ["--input", str(src)])
            assert (code, out) == (1, ""), (rank, argv)
            assert err == f"onng: error: {src}: pair ranks must be a bijection onto 0..n(n-1)/2-1\n"


def test_metric_file_spelling_does_not_change_output(tmp_path):
    clean, messy, ordf = tmp_path / "m.txt", tmp_path / "messy.txt", tmp_path / "o.txt"
    run_cli(["gen", "random-metric", "--n", "12", "--seed", "7", "-o", str(clean)])
    ordf.write_text(write_order((5, 0, 11, 3, 1, 2, 4, 6, 7, 8, 9, 10)))
    header, *pairs = clean.read_text().splitlines()
    body = []
    for idx, line in enumerate(reversed(pairs)):
        i, j, r = line.split()
        if idx % 2:
            line = f"{j}\t{i} {r}"
        if idx % 5 == 0:
            body.append("# a comment line")
        body.append(line + ("  # inline" if idx % 3 == 0 else ""))
    messy.write_bytes("\r\n".join(["# CRLF, comments, flipped pairs", header, *body, ""]).encode())
    for argv in (["order", "--strategy", "ramsey"],
                 ["order", "--strategy", "path", "--tail", "0"],
                 ["eval", "--order", str(ordf)]):
        want = run_cli(argv + ["--input", str(clean)])
        assert want[0] == 0, want
        for fmt in ("auto", "metric"):
            assert run_cli(argv + ["--input-format", fmt, "--input", str(messy)]) == want, (argv, fmt)


_DECODE_ERROR = "onng: error: 'utf-8' codec can't decode byte {byte} in position {at}: invalid start byte\n"
# 72,000 bytes of comment lines: a file that holds them spans two runs
_FILLER = b"# filler\n" * 8000


@pytest.mark.parametrize("data, errors", [
    # bytes that are not UTF-8: the decoder words the error, with no path
    # and the byte's offset in the file, past the decoder's first 8 KiB too
    (b"3\n0 1 0\n0 2 1\n1 2 2\xff\n",
     [_DECODE_ERROR.format(byte="0xff", at=19)] * 3),
    (b"3\n0 1 0\n0 2 1\n# " + b"x" * 9000 + b"\n1 2 2 \xfe\n",
     [_DECODE_ERROR.format(byte="0xfe", at=9023)] * 3),
    # a UTF-8 byte order mark is read as part of the first field
    (b"\xef\xbb\xbf3\n0 1 0\n0 2 1\n1 2 2\n",
     ["onng: error: {src}: line 1: bad coordinate: Invalid literal for Fraction: '\\ufeff3'\n",
      "onng: error: {src}: line 1: header must be the vertex count\n",
      "onng: error: {src}: line 1: bad coordinate: Invalid literal for Fraction: '\\ufeff3'\n"]),
    # CRLF and lone "\r" line breaks count one line each
    (b"3\r\n0 1 0\r\n0 2 1\r\n1 0 2\r\n",
     ["onng: error: {src}: line 4: pair (0, 1) given twice\n"] * 2
     + ["onng: error: {src}: line 2: expected 1 coordinates, got 3\n"]),
    (b"3\r0 1 0\r\r0 2 1\r1 0 2\r",
     ["onng: error: {src}: line 5: pair (0, 1) given twice\n"] * 2
     + ["onng: error: {src}: line 2: expected 1 coordinates, got 3\n"]),
    # a bad byte comes before a line defect in an earlier run: the header,
    # and a field count, each in the first run, the bad byte in the last
    pytest.param(b"x\n0 1 0\n0 2 1\n1 2 2\n" + _FILLER + b"\xff\n",
                 [_DECODE_ERROR.format(byte="0xff", at=72020)] * 3, id="bad-header-then-0xff"),
    pytest.param(b"3\n0 1 0\n0 2\n1 2 2\n" + _FILLER + b"1 2 2 \xfe\n",
                 [_DECODE_ERROR.format(byte="0xfe", at=72024)] * 3, id="short-line-then-0xfe"),
])
def test_metric_fallback_errors_are_pinned(tmp_path, data, errors):
    # the files no byte scan reads are decoded as open(path, "r",
    # encoding="utf-8") decodes them; these errors are the CLI's before the
    # reader went binary, exit code, stdout and stderr included
    src = tmp_path / "m.txt"
    src.write_bytes(data)
    for fmt, err in zip(("auto", "metric", "points"), errors):
        got = run_cli(["order", "--strategy", "ramsey", "--input-format", fmt, "--input", str(src)])
        assert got == (1, "", err.format(src=src)), fmt


@pytest.mark.parametrize("data, error", [
    pytest.param(b"0\nx\n1\n" + _FILLER + b"2\xff\n",
                 "'utf-8' codec can't decode byte 0xff in position 72007: invalid start byte",
                 id="bad-id-then-0xff"),
    ("\ufeff0\r1\x852\n".encode(), "line 1: bad vertex id: invalid literal for int() with base 10: '\\ufeff0'"),
    (b"0\n1 x\n", "line 2: bad vertex id: invalid literal for int() with base 10: 'x'"),
    (b"\n# 0\n", "order file has no data lines"),
])
def test_order_file_errors_are_pinned(tmp_path, data, error):
    # an order file is read as the inputs are, through its runs, and words
    # its errors as it did when it was decoded whole: a byte that is not
    # UTF-8 comes first, whichever line is at fault before it
    met, ordf = tmp_path / "m.txt", tmp_path / "o.txt"
    met.write_text("3\n0 1 0\n0 2 1\n1 2 2\n")
    ordf.write_bytes(data)
    got = run_cli(["eval", "--input", str(met), "--order", str(ordf)])
    assert got == (1, "", f"onng: error: {ordf}: {error}\n")


def test_points_and_their_metric_file_report_alike(tmp_path):
    pts, met, ordf = tmp_path / "p.txt", tmp_path / "m.txt", tmp_path / "ord.txt"
    run_cli(["gen", "random-points", "--n", "70", "--d", "2", "--seed", "3", "-o", str(pts)])
    met.write_text(write_metric(metric_from_points(parse_points(pts.read_text()))))
    ordf.write_text(write_order(tuple(range(69, -1, -1))))
    for argv in (["eval", "--order", str(ordf)],
                 ["eval", "--order", str(ordf), "--format", "dot"],
                 ["order", "--strategy", "path", "--tail", "5"],
                 ["order", "--strategy", "ramsey"],
                 ["order", "--strategy", "ramsey", "--format", "dot"]):
        on_points = run_cli(argv + ["--input", str(pts)])
        on_metric = run_cli(argv + ["--input", str(met)])
        assert on_points[0] == 0
        assert on_points == on_metric, argv


def test_ramsey_on_large_coordinates_matches_shifted_file(tmp_path):
    # coordinates past int64 whose squared distances fit it
    far, near = tmp_path / "far.txt", tmp_path / "near.txt"
    far.write_text("".join(f"{2**70 + i * i}\n" for i in range(64)))
    near.write_text("".join(f"{i * i}\n" for i in range(64)))
    argv = ["order", "--strategy", "ramsey", "--input-format", "points", "--input"]
    on_far = run_cli(argv + [str(far)])
    assert on_far[0] == 0, on_far[2]
    assert on_far == run_cli(argv + [str(near)])


def test_search_n4_report(tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(["search-problem1", "--n", "4", "-o", str(out_path)])
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["n"] == 4
    assert rep["orderings_scanned"] == 720
    assert rep["max_sum"] == "1/1"
    assert rep["counterexamples"] == []
    assert rep["witnesses_at_one"] == 336
    assert rep["canonical"] is False


def test_search_counterexample_exits_3(monkeypatch):
    fake = oracle.Problem1Report(
        n=3,
        canonical=False,
        orderings_scanned=6,
        max_sum=Fraction(5, 4),
        witnesses_at_one=0,
        counterexamples=(((0, 1, 2), Fraction(5, 4)),),
    )
    monkeypatch.setattr(oracle, "problem1_search", lambda n, canonical, jobs: fake)
    code, out, _ = run_cli(["search-problem1", "--n", "3"])
    assert code == 3
    rep = json.loads(out)
    assert rep["max_sum"] == "5/4"
    assert rep["counterexamples"] == [
        {"pairs": [[0, 1, 0], [0, 2, 1], [1, 2, 2]], "sum": "5/4"}
    ]


def test_search_deterministic_across_jobs():
    a = run_cli(["search-problem1", "--n", "4", "--jobs", "1"])
    b = run_cli(["search-problem1", "--n", "4", "--jobs", "2"])
    assert a == b
