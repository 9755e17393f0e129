"""The benchmark's workloads: input generation and command lists.

Every input is a pure function of the workload seed.  Inputs are produced by
``onng gen`` itself (so set-up exercises the program's write side), except the
``eval`` order file, which is a seeded permutation the harness writes.  The
program sees only the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Jobs for the parallel n = 5 search.  Fixed rather than taken from the host,
# so the command list, and with it wall_s, means the same on every machine.
SEARCH_JOBS = 2


@dataclass(frozen=True)
class Command:
    """One ``onng`` invocation and what its output must satisfy.

    ``expect`` is read by ``checks.check_result``; ``kind`` is one of
    ``gen``, ``order``, ``eval`` or ``search``.
    """

    cid: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    gens: tuple[Command, ...]  # set-up: write every input file
    order_files: dict = field(hash=False)  # file name -> permutation (harness-written)
    commands: tuple[Command, ...]


def _gen(cid: str, *argv: str) -> Command:
    return Command(cid, ("gen", *argv), {"kind": "gen"})


def _order(cid: str, strategy: str, path: str, n: int, *extra: str) -> Command:
    argv = ("order", "--strategy", strategy, *extra, "--input", path)
    return Command(cid, argv, {"kind": "order", "strategy": strategy, "n": n})


def _search(cid: str, n: int, *extra: str) -> Command:
    argv = ("search-problem1", "--n", str(n), *extra)
    return Command(cid, argv, {"kind": "search", "n": n, "canonical": "--canonical" in extra})


def points(seed: int, d: str) -> Workload:
    rng = random.Random(f"points:{seed}")
    s1, s2, s3 = (str(rng.randrange(2**31)) for _ in range(3))
    p1, p2, p3, hl = (f"{d}/pts_1024x2.txt", f"{d}/pts_4096x2.txt",
                      f"{d}/pts_4096x3.txt", f"{d}/hard_line_k12.txt")
    return Workload(
        "points",
        gens=(
            _gen("gen.pts_1024x2", "random-points", "--n", "1024", "--d", "2", "--seed", s1, "-o", p1),
            _gen("gen.pts_4096x2", "random-points", "--n", "4096", "--d", "2", "--seed", s2, "-o", p2),
            _gen("gen.pts_4096x3", "random-points", "--n", "4096", "--d", "3", "--seed", s3, "-o", p3),
            _gen("gen.hard_line_k12", "hard-line", "--k", "12", "-o", hl),
        ),
        order_files={},
        commands=(
            _order("euclid.1024x2", "euclid", p1, 1024),
            _order("euclid.4096x2", "euclid", p2, 4096),
            _order("euclid.4096x3", "euclid", p3, 4096),
            _order("line.hard_k12", "line", hl, 4096),
            _order("path.4096x2", "path", p2, 4096, "--tail", "0"),
        ),
    )


def metric(seed: int, d: str) -> Workload:
    rng = random.Random(f"metric:{seed}")
    s1 = str(rng.randrange(2**31))
    perm = list(range(1024))
    rng.shuffle(perm)
    met, ordf = f"{d}/metric_1024.txt", f"{d}/perm_1024.txt"
    ev = Command("eval.1024", ("eval", "--input", met, "--order", ordf),
                 {"kind": "eval", "n": 1024, "order": perm})
    return Workload(
        "metric",
        gens=(_gen("gen.metric_1024", "random-metric", "--n", "1024", "--seed", s1, "-o", met),),
        order_files={ordf: perm},
        commands=(
            _order("ramsey.1024", "ramsey", met, 1024),
            _order("path.1024", "path", met, 1024, "--tail", "0"),
            ev,
        ),
    )


def exhaustive(seed: int, d: str) -> Workload:
    rng = random.Random(f"exhaustive:{seed}")
    seeds = [str(rng.randrange(2**31)) for _ in range(3)]
    mets = [f"{d}/metric_9{c}.txt" for c in "abc"]
    hl = f"{d}/hard_line_k3.txt"
    gens = [_gen(f"gen.metric_9{c}", "random-metric", "--n", "9", "--seed", s, "-o", m)
            for c, s, m in zip("abc", seeds, mets)]
    gens.append(_gen("gen.hard_line_k3", "hard-line", "--k", "3", "-o", hl))
    brutes = [_order(f"brute.9{c}", "brute", m, 9) for c, m in zip("abc", mets)]
    brutes.append(_order("brute.hard_k3", "brute", hl, 8))
    return Workload(
        "exhaustive",
        gens=tuple(gens),
        order_files={},
        commands=(
            *brutes,
            _search("search.n4", 4),
            _search("search.n5c", 5, "--yes", "--canonical", "--jobs", str(SEARCH_JOBS)),
        ),
    )


WORKLOADS = {"points": points, "metric": metric, "exhaustive": exhaustive}


def build(name: str, seed: int, input_dir: str) -> Workload:
    """The workload ``name`` at ``seed``, with its inputs under ``input_dir``."""
    return WORKLOADS[name](seed, input_dir)
