"""Run one ``onng`` command in-process with spans around each layer's calls.

    python3 perfbench/tracer.py CMD_ID SPANS_JSON STDOUT_FILE -- ONNG_ARGS...

The harness starts this in a fresh interpreter per command, as it starts the
untraced CLI.  It times the import of ``onng.cli``, wraps the public
functions listed in ``TRACED`` wherever the ``onng`` modules bind them, and
calls ``onng.cli.main``, so the command takes the CLI's own code path.  Each
call becomes a span (name, start, end, parent, command id) kept in memory
and written to SPANS_JSON when the command ends; the command's stdout goes
to STDOUT_FILE.  Times are ``time.perf_counter`` seconds (CLOCK_MONOTONIC,
shared with the harness).
"""

import sys
import time

_t0 = time.perf_counter()
import onng.cli  # noqa: E402  (timed: a fresh interpreter importing the CLI)

_t1 = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402


def _text_bytes(a, k, r):
    return {"bytes": len(a[0])}


def _parsed_metric(a, k, r):
    return {"bytes": len(a[0]), "n": r.n}


def _ranked(a, k, r):
    return {"n": r.n}


def _ramsey(a, k, r):
    return {"n": a[0].n, "k": r[1], "witness": int(r[2] is not None)}


def _brute(a, k, r):
    return {"n": a[0].n, "orders": math.factorial(a[0].n)}


def _search(a, k, r):
    bound = inspect.signature(onng.oracle.problem1_search).bind(*a, **k)
    bound.apply_defaults()
    n = bound.arguments["n"]
    return {
        "n": n,
        "canonical": int(bool(bound.arguments["canonical"])),
        "jobs": bound.arguments["jobs"],
        "enumerated": math.factorial(n * (n - 1) // 2),
        "scanned": r.orderings_scanned,
    }


# module -> [(function, span name, counter)].  Counters read only the call's
# arguments and public result, after the span has ended.
TRACED = {
    "fileio": [
        ("sniff_format", "fileio.sniff_format", None),
        ("parse_points", "fileio.parse_points", _text_bytes),
        ("parse_metric", "fileio.parse_metric", _parsed_metric),
        ("parse_order", "fileio.parse_order", _text_bytes),
        ("write_points", "fileio.write", None),
        ("write_metric", "fileio.write", None),
        ("write_order", "fileio.write", None),
    ],
    "core": [
        ("metric_from_points", "core.metric_from_points", _ranked),
        ("build_onng", "core.build_onng", None),
        ("path_order", "core.path_order", None),
    ],
    "line": [("order_line", "line.order_line", None)],
    "euclid": [("order_euclid", "euclid.order_euclid", None)],
    "ramsey": [("order_metric", "ramsey.order_metric", _ramsey)],
    "oracle": [
        ("best_order_exhaustive", "oracle.best_order_exhaustive", _brute),
        ("problem1_search", "oracle.problem1_search", _search),
    ],
    # Building and writing the report.  These are private helpers of the
    # CLI; a name that no longer exists is simply not traced.
    "cli": [
        ("_report_json", "cli.report", None),
        ("_emit", "cli.report", None),
    ],
}


class Recorder:
    """Spans of one command, in start order; parents precede children."""

    def __init__(self, cmd: str):
        self.cmd = cmd
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "cmd": self.cmd,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() if start is None else start,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict, end: float | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        self._stack.pop()

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced


def install(rec: Recorder) -> None:
    """Replace every binding of each traced function in the onng modules,
    including names the CLI imported with ``from .core import ...``."""
    modules = [m for name, m in sys.modules.items() if name == "onng" or name.startswith("onng.")]
    for mod_name, targets in TRACED.items():
        home = sys.modules[f"onng.{mod_name}"]
        for attr, span_name, count in targets:
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapped = rec.wrap(span_name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    cmd, spans_path, stdout_path, onng_args = argv[0], argv[1], argv[2], argv[4:]
    rec = Recorder(cmd)
    rec.close(rec.open("cli.import", _t0), _t1)
    install(rec)
    out = io.StringIO()
    root = rec.open("cli.main")
    try:
        with contextlib.redirect_stdout(out):
            code = onng.cli.main(onng_args)
    finally:
        rec.close(root)
    with open(stdout_path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"cmd": cmd, "exit": code, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
