"""Order synthesis for abstract ordinal metrics via triple coloring.

For an ascending vertex triple (i1, i2, i3), color by which side is the
shortest: Red when {i2, i3} wins, Green for the outer side {i1, i3}, Blue
for {i1, i2}.  A Red clique of size k (all internal triples Red) or a
Green/Blue forward star (all triples through the smallest vertex that
color) yields an insertion order with a hub of indegree k - 1:

  Red clique  v1 < ... < vk: reveal vk first, then v1 .. v(k-1); every vj
      is closer to vk than to any earlier vi because {vj, vk} is the
      shortest side of the Red triple (vi, vj, vk).
  Blue star: reveal v1 first, then vk down to v2; {v1, vj} is the shortest
      side of the Blue triple (v1, vj, vl), so everything hangs on v1.
  Green star: reveal v1 .. vk in order; {v1, vj} is the shortest side of
      the Green triple (v1, vl, vj).

run_process hunts for such a structure by picking vertices in ascending
order while pruning a waiting set W: each new vertex v walks the Red
vertices picked so far, creating one edge at a time.  An edge {u, v} is
declared Green (Blue) when at least |W| / k waiting vertices w would make
the triple (u, v, w) Green (Blue); then the non-matching waiters are
deleted and the walk stops.  Otherwise the edge is Red and the non-Red
waiters are deleted.  A vertex is colored by its last edge.  Because every
survivor of a pruning agrees with the pruned edge's color, k Red vertices
always form a Red clique and k - 1 Green (Blue) vertices anchored at one
Red vertex always form a Green (Blue) star, which is what the success
thresholds extract.

run_process reads a RankedMetric or a PointSet only through core.key_source,
one numpy comparison over the waiting set per Red u and picked v.  In a
triple u < v < w a tie of squared distances ranks {u, v} before {u, w}
before {v, w}, so strict comparisons give the colors of the ranks and no
pair is ranked; color_triple is kept as the oracle verify_structure reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .core import Order, PointSet, RankedMetric, build_onng, key_source, max_indegree

Coloring = Callable[[int, int, int], "TripleColor"]


class TripleColor(Enum):
    RED = "red"
    GREEN = "green"
    BLUE = "blue"


class StructureKind(Enum):
    RED_CLIQUE = "red-clique"
    GREEN_STAR = "green-star"
    BLUE_STAR = "blue-star"


@dataclass(frozen=True)
class MonoStructure:
    """A monochromatic witness: clique or forward star, vertices ascending.

    Size-2 structures are permitted as degenerate witnesses (no triples to
    check); the process itself only ever returns structures of size >= 3.
    """

    kind: StructureKind
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("a structure needs at least two vertices")
        if any(a >= b for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError("vertices must be strictly ascending")

    @property
    def hub(self) -> int:
        """The vertex whose indegree the synthesized order pumps up."""
        if self.kind is StructureKind.RED_CLIQUE:
            return self.vertices[-1]
        return self.vertices[0]


def color_triple(m: RankedMetric, i1: int, i2: int, i3: int) -> TripleColor:
    """Color of the ascending triple (i1, i2, i3) under the pair order."""
    if not i1 < i2 < i3:
        raise ValueError(f"triple ({i1}, {i2}, {i3}) is not ascending")
    r12 = m.rank(i1, i2)
    r13 = m.rank(i1, i3)
    r23 = m.rank(i2, i3)
    if r23 < r12 and r23 < r13:
        return TripleColor.RED
    if r13 < r12:
        return TripleColor.GREEN
    return TripleColor.BLUE


def coloring_from_metric(m: RankedMetric) -> Coloring:
    """Fast closure over the rank matrix; same classification as color_triple."""
    rows = m.matrix_rows()

    def col(i1: int, i2: int, i3: int) -> TripleColor:
        r12 = rows[i1][i2]
        r13 = rows[i1][i3]
        r23 = rows[i2][i3]
        if r23 < r12 and r23 < r13:
            return TripleColor.RED
        if r13 < r12:
            return TripleColor.GREEN
        return TripleColor.BLUE

    return col


def verify_structure(coloring: Coloring, s: MonoStructure) -> bool:
    """Check every defining triple of the witness against the oracle."""
    vs = s.vertices
    if s.kind is StructureKind.RED_CLIQUE:
        return all(coloring(a, b, c) is TripleColor.RED for a, b, c in combinations(vs, 3))
    want = TripleColor.GREEN if s.kind is StructureKind.GREEN_STAR else TripleColor.BLUE
    v1 = vs[0]
    return all(coloring(v1, a, b) is want for a, b in combinations(vs[1:], 2))


@dataclass(frozen=True)
class ProcessStats:
    """Counters of one run: sizes of the auxiliary graph it built."""

    picked: int
    red_vertices: int
    green_vertices: int
    blue_vertices: int
    red_edges: int
    green_edges: int
    blue_edges: int


def run_process(data: PointSet | RankedMetric, n: int, k: int) -> Optional[MonoStructure]:
    """Search the first n vertices for a size-k monochromatic structure;
    None when the waiting set drains first."""
    return run_process_traced(data, n, k)[0]


def run_process_traced(
    data: PointSet | RankedMetric, n: int, k: int
) -> tuple[Optional[MonoStructure], ProcessStats]:
    if k < 3:
        raise ValueError("k must be at least 3")
    if not 1 <= n <= data.n:
        raise ValueError(f"n must be in [1, {data.n}]")
    table, keys, _ = key_source(data)
    waiting = table(np.arange(n))  # ids ascending in row 0
    members: dict[TripleColor, list[int]] = {c: [] for c in TripleColor}
    anchors: dict[TripleColor, dict[int, list[int]]] = {TripleColor.GREEN: {}, TripleColor.BLUE: {}}
    edges = dict.fromkeys(TripleColor, 0)
    reds = members[TripleColor.RED]
    picked = 0
    star_need = (k - 1) ** 2

    def stats() -> ProcessStats:
        return ProcessStats(picked, *map(len, members.values()), *edges.values())

    while waiting.shape[1]:
        v, vt, waiting = int(waiting[0, 0]), waiting[:, :1], waiting[:, 1:]
        picked += 1
        vcolor, anchor = TripleColor.RED, -1
        for u in reds:
            # picks ascend, so u < v < w for every waiting w: these strict
            # comparisons are color_triple's on the pair ranks
            m = waiting.shape[1]
            d = keys(table([u, v]), np.hstack([vt, waiting]))
            uv, uw, vw = d[0, 0], d[0, 1:], d[1, 1:]
            red = (vw < uv) & (vw < uw)
            green = ~red & (uw < uv)
            for color, keep in ((TripleColor.GREEN, green), (TripleColor.BLUE, ~red & ~green)):
                if m > 0 and int(keep.sum()) * k >= m:
                    break
            else:
                color, keep = TripleColor.RED, red
            edges[color] += 1
            waiting = waiting[:, keep]
            if color is TripleColor.RED:
                # a Red edge deletes fewer than 2|W|/k waiters
                if waiting.shape[1] * k < m * (k - 2):
                    raise AssertionError("a Red edge deleted more than 2|W|/k waiters")
                continue
            if waiting.shape[1] * k < m:
                raise AssertionError(f"a {color.name.title()} edge kept fewer than |W|/k waiters")
            vcolor, anchor = color, u
            break
        members[vcolor].append(v)
        if vcolor is not TripleColor.RED:
            anchors[vcolor].setdefault(anchor, []).append(v)

        # success checks after every insertion; Red beats Green beats Blue
        if len(reds) == k:
            return MonoStructure(StructureKind.RED_CLIQUE, tuple(reds)), stats()
        for color, kind in ((TripleColor.GREEN, StructureKind.GREEN_STAR),
                            (TripleColor.BLUE, StructureKind.BLUE_STAR)):
            if len(members[color]) >= star_need:
                return _extract_star(anchors[color], k, kind), stats()

    # drained without a hit: the auxiliary graph must have stayed small
    red_edges, green_edges, blue_edges = edges.values()
    if picked >= k + 2 * (k - 1) ** 2:
        raise AssertionError(f"{picked} picks exceed the cap for k={k}")
    if green_edges + blue_edges >= 2 * (k - 1) ** 2:
        raise AssertionError(f"{green_edges + blue_edges} Green/Blue edges exceed the cap for k={k}")
    if 2 * red_edges >= k * (k - 1) ** 2:
        raise AssertionError(f"{red_edges} Red edges exceed the cap for k={k}")
    return None, stats()


def _extract_star(anchors: dict[int, list[int]], k: int, kind: StructureKind) -> MonoStructure:
    # pigeonhole: fewer than k anchors hold (k-1)^2 vertices, so one holds
    # at least k-1; ties go to the smallest anchor id
    best = max(anchors.items(), key=lambda item: (len(item[1]), -item[0]))
    u, leaves = best
    if len(leaves) < k - 1:
        raise AssertionError(f"the largest anchor holds {len(leaves)} leaves, fewer than k-1={k - 1}")
    return MonoStructure(kind, (u, *leaves[: k - 1]))


def synthesize_order(s: MonoStructure, n: int) -> Order:
    """Insertion order pumping the witness hub to indegree >= len(s) - 1.

    Vertices outside the structure are appended in ascending id order; they
    are revealed last and cannot disturb the forced attachments.
    """
    vs = s.vertices
    if vs[-1] >= n:
        raise ValueError(f"structure vertex {vs[-1]} out of range for n={n}")
    if s.kind is StructureKind.RED_CLIQUE:
        lead = [vs[-1], *vs[:-1]]
    elif s.kind is StructureKind.BLUE_STAR:
        lead = [vs[0], *reversed(vs[1:])]
    else:
        lead = list(vs)
    in_s = set(vs)
    rest = [v for v in range(n) if v not in in_s]
    return tuple(lead + rest)


def order_metric(data: PointSet | RankedMetric) -> tuple[Order, int, Optional[MonoStructure]]:
    """Adaptive search: largest k in [3, max(3, ceil(log2 n))] for which the
    process finds a witness, synthesized into an order.

    Returns (order, k_achieved, witness).  When every k fails, falls back to
    the best of the three degenerate pair orders on {0, 1} with k_achieved=2
    and no witness; the rebuilt order still has max indegree >= k_achieved-1.
    On a point set it equals order_metric(metric_from_points(data)).
    """
    n = data.n
    if n < 2:
        raise ValueError("need at least two vertices")
    k_max = max(3, (n - 1).bit_length())
    for k in range(k_max, 2, -1):
        found = run_process(data, n, k)
        if found is not None:
            return synthesize_order(found, n), k, found
    candidates = [
        synthesize_order(MonoStructure(kind, (0, 1)), n)
        for kind in (StructureKind.RED_CLIQUE, StructureKind.GREEN_STAR, StructureKind.BLUE_STAR)
    ]
    best = max(candidates, key=lambda order: max_indegree(build_onng(data, order)))
    return best, 2, None
