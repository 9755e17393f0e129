"""Command-line surface: generate inputs, synthesize orders, evaluate them,
and run the exhaustive small-n search.

Exit codes: 0 success (and search with no counterexample), 1 usage or input
error, 2 size-guard refusal, 3 search found a counterexample.

All reports are JSON with sorted keys; graph output is DOT on request.  The
only randomness is behind explicit --seed flags, so every command is
byte-deterministic.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from fractions import Fraction
from typing import Iterable

from . import euclid, fileio, line, oracle, ramsey
from .core import (
    PointSet,
    RankedMetric,
    build_onng,
    check_pair_guard,
    metric_from_points,
    path_order,
    shuffled_range,
)

SEARCH_CONFIRM_N = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="onng", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate input files")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    hard = gen_sub.add_parser("hard-line", help="doubling line set with indegree cap k")
    hard.add_argument("--k", type=int, required=True)
    hard.add_argument("--n", type=int, default=None, help="truncate to the leftmost n points")
    hard.add_argument("-o", "--output", default=None)

    rpts = gen_sub.add_parser("random-points", help="uniform points in the unit cube")
    rpts.add_argument("--n", type=int, required=True)
    rpts.add_argument("--d", type=int, required=True)
    rpts.add_argument("--seed", type=int, required=True)
    rpts.add_argument("-o", "--output", default=None)

    rmet = gen_sub.add_parser("random-metric", help="uniform random rank metric")
    rmet.add_argument("--n", type=int, required=True)
    rmet.add_argument("--seed", type=int, required=True)
    rmet.add_argument("-o", "--output", default=None)

    order = sub.add_parser("order", help="synthesize an insertion order")
    order.add_argument("--strategy", required=True, choices=["path", "line", "euclid", "ramsey", "brute"])
    order.add_argument("--input", required=True)
    order.add_argument("--input-format", default="auto", choices=["auto", "points", "metric"])
    order.add_argument("--tail", type=int, default=0, help="path strategy: vertex inserted last")
    order.add_argument("--format", default="json", choices=["json", "dot"])
    order.add_argument("--save-order", default=None, help="also write the order file here")
    order.add_argument("-o", "--output", default=None)

    ev = sub.add_parser("eval", help="evaluate a given insertion order")
    ev.add_argument("--input", required=True)
    ev.add_argument("--input-format", default="auto", choices=["auto", "points", "metric"])
    ev.add_argument("--order", required=True, help="order file (one id per line)")
    ev.add_argument("--format", default="json", choices=["json", "dot"])
    ev.add_argument("-o", "--output", default=None)

    search = sub.add_parser("search-problem1", help="exhaustive scan of all rank metrics")
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--canonical", action="store_true", help="scan one representative per relabeling class")
    search.add_argument("--jobs", type=int, default=1)
    search.add_argument("--yes", action="store_true", help=f"confirm the full n={SEARCH_CONFIRM_N} scan (3,628,800 metrics)")
    search.add_argument("-o", "--output", default=None)

    return parser


def _emit(text: str | Iterable[str], path: str | None) -> None:
    """Write text, or each of its parts as it is made, to path or stdout.
    If stdout's reader closes the pipe (onng ... | head), exit 1 quietly."""
    parts = (text,) if isinstance(text, str) else text
    if path is None:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except BrokenPipeError:
            # fd 1 goes to devnull, so the flush at exit raises nothing more
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1) from None
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e


def _load_input(path: str, fmt: str) -> PointSet | RankedMetric:
    try:
        with open(path, "rb") as fh:
            src = fileio.Source(fh)  # scanned once, for the sniff and the parse
            if fmt == "auto":
                fmt = fileio.sniff_format(src)
            if fmt == "metric":
                return fileio.parse_metric(src)
            return fileio.parse_points(src)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except (oracle.GuardError, UnicodeDecodeError):
        # exit 2, not an input error; a file that is not UTF-8 is worded by
        # the decoder alone, with no path
        raise
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from e


def _report_json(strategy, data, order, guarantee, center):
    g = build_onng(data, order)
    report = {
        "strategy": strategy,
        "n": data.n,
        "order": list(order),
        "indegrees": list(g.indegree),
        "max_indegree": max(g.indegree) if g.indegree else 0,
        "guarantee": guarantee,
        "center": center,
    }
    return _report_text(report), g


def _report_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) plus a newline, for a
    report of scalars, None and lists of ints.  With indent, json.dumps
    runs its pure-Python encoder: about 5 ms for a 4096-vertex report, where
    joining the ints takes about 1 ms."""
    fields = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, list):
            value = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]" if value else "[]"
        else:
            value = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def cmd_gen(args) -> int:
    if args.kind == "hard-line":
        if args.n is None:
            ps = line.gen_hard_line(args.k)
        else:
            ps = line.truncate_hard_line(args.k, args.n)
        _emit(fileio.write_points(ps), args.output)
        return 0
    if args.kind == "random-points":
        if args.n < 1 or args.d < 1:
            raise UsageError("random-points needs --n >= 1 and --d >= 1")
        if len(str(args.n - 1)) > 9 * args.d:  # n > 10^(9d), not computed
            raise UsageError(f"random-points --d {args.d} draws from 10^{9 * args.d} points: --n is too large")
        rng = random.Random(args.seed)
        seen = set()
        rows = []
        while len(rows) < args.n:
            row = tuple(rng.randrange(10**9) for _ in range(args.d))
            if row in seen:
                continue
            seen.add(row)
            rows.append(row)
        text = "\n".join(" ".join(f"0.{c:09d}" for c in row) for row in rows) + "\n"
        _emit(text, args.output)
        return 0
    if args.n < 1:
        raise UsageError("random-metric needs --n >= 1")
    check_pair_guard(args.n)  # before any draw, and before -o is made
    # the ranks random_rank_metric would give, written block by block with
    # no RankedMetric and no whole-file str
    ranks = shuffled_range(args.n * (args.n - 1) // 2, random.Random(args.seed))
    _emit(fileio.metric_blocks(args.n, ranks), args.output)
    return 0


def cmd_order(args) -> int:
    data = _load_input(args.input, args.input_format)
    strategy = args.strategy
    center: int | None = None
    guarantee: int | None = None

    if strategy == "path":
        if not (0 <= args.tail < data.n):
            raise UsageError(f"--tail must be in [0, {data.n})")
        order = path_order(data, args.tail)
        guarantee = 1 if data.n >= 2 else 0
    elif strategy == "line":
        if not isinstance(data, PointSet) or data.dim != 1:
            raise UsageError("line strategy needs a 1-D points input")
        order, center = line.order_line(data)
        guarantee = (data.n - 1).bit_length()
    elif strategy == "euclid":
        if not isinstance(data, PointSet):
            raise UsageError("euclid strategy needs a points input")
        order, center, guarantee = euclid.order_euclid(data)
    elif strategy == "ramsey":
        # points rank no pairs, so this is no memory bound: past 2^13 points the
        # refusal stays until a points report there is fast enough to pin
        check_pair_guard(data.n)
        if data.n == 1:
            order, guarantee = (0,), 0
        else:
            order, k_achieved, witness = ramsey.order_metric(data)
            guarantee = k_achieved - 1
            center = witness.hub if witness is not None else None
    else:  # brute: refuse before ranking all pairs of a large point set
        oracle._check_order_guard(data.n)
        m = metric_from_points(data) if isinstance(data, PointSet) else data
        order, value = oracle.best_order_exhaustive(m)
        guarantee = value

    text, g = _report_json(strategy, data, order, guarantee, center)
    if args.format == "dot":
        text = fileio.render_dot(g)
    _emit(text, args.output)
    if args.save_order is not None:
        _emit(fileio.write_order(order), args.save_order)
    return 0


def cmd_eval(args) -> int:
    data = _load_input(args.input, args.input_format)
    try:
        with open(args.order, "rb") as fh:
            order = fileio.parse_order(fileio.Source(fh))
    except OSError as e:
        raise UsageError(f"cannot read {args.order}: {e}") from e
    except ValueError as e:
        raise UsageError(f"{args.order}: {e}") from e
    text, g = _report_json("eval", data, order, None, None)
    if args.format == "dot":
        text = fileio.render_dot(g)
    _emit(text, args.output)
    return 0


def cmd_search(args) -> int:
    oracle._check_metric_guard(args.n)
    if args.n >= SEARCH_CONFIRM_N and not args.yes:
        raise oracle.GuardError(
            f"n={args.n} scans {args.n * (args.n - 1) // 2}! rank metrics; pass --yes to confirm"
        )
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    report = oracle.problem1_search(args.n, canonical=args.canonical, jobs=args.jobs)
    doc = {
        "n": report.n,
        "canonical": report.canonical,
        "orderings_scanned": report.orderings_scanned,
        "max_sum": _frac(report.max_sum),
        "witnesses_at_one": report.witnesses_at_one,
        "counterexamples": [
            {"pairs": _pairs(report.n, flat), "sum": _frac(s)}
            for flat, s in report.counterexamples
        ],
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 3 if report.counterexamples else 0


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _pairs(n: int, flat: tuple[int, ...]) -> list[list[int]]:
    from .core import iter_pairs

    return [[i, j, flat[idx]] for idx, (i, j) in enumerate(iter_pairs(n))]


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    With ``argv`` None, as the ``onng`` console script and ``python -m
    onng.cli`` call it, the process is the program: once the parser is
    built, every object alive is frozen, the import-time heap foremost.
    ``main(argv)`` called in-process leaves the garbage collector as it
    found it.
    """
    parser = _build_parser()
    if argv is None:
        # the import-time heap (about 22,000 objects, mostly numpy's) lives
        # until exit anyway.  Frozen, no later full collection walks it, the
        # ones at interpreter exit included: about 20 ms a process on a
        # 2-vCPU host.  What the command allocates is still collected, and
        # a forked --jobs worker inherits the frozen heap.  Freezing restarts
        # the young generation's count, so it waits for the parser: the help
        # formatters argparse leaves in reference cycles are then collected
        # while the parser is built, as without the freeze; frozen first,
        # they outlived that collection and raised the command's peak RSS.
        gc.freeze()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "order":
            return cmd_order(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_search(args)
    except UsageError as e:
        print(f"onng: error: {e}", file=sys.stderr)
        return 1
    except oracle.GuardError as e:
        print(f"onng: refused: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"onng: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
