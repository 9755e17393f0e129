"""Shared generators and an in-process CLI runner for the test suite."""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from operator import itemgetter

import numpy as np
from hypothesis import strategies as st

from onng import PointSet, RankedMetric, oracle, pair_index
from onng.cli import main as cli_main
from onng.core import scratch
from onng.euclid import PARITY_MAX_DIM, _diameter_ids, _halfspace_ids, grid_cell_bound, grid_guarantee


def rand_line_set(rng: random.Random, n: int) -> PointSet:
    """A 1-D set, ids left to right, of rationals with one common
    denominator <= 1e6 and numerators < 1e7; small enough that squared spans
    stay inside int64."""
    q = rng.randint(1, 10**6)
    nums = sorted(rng.sample(range(10**7), n))
    return PointSet(1, tuple((Fraction(p, q),) for p in nums))


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


def circle_points(rng: random.Random, n: int) -> PointSet:
    """n of the 4860 integer points on the circle x^2 + y^2 = R^2 for
    R = 5^2 * 13 * 17 * 29 * 37 * 41, drawn by rng.  Every squared distance
    fits int64, and a set spread round the whole circle leaves the euclid
    diameter scan's box bound nothing to prune.

    Each point is a unit times a product over the primes p = a^2 + b^2 of
    (a + bi)^j (a - bi)^(2e - j), 0 <= j <= 2e, for p^e dividing R."""
    zs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for (a, b), e in (((2, 1), 2), ((3, 2), 1), ((4, 1), 1), ((5, 2), 1), ((6, 1), 1), ((5, 4), 1)):
        factors = []
        for j in range(2 * e + 1):
            w = (1, 0)
            for u, v in [(a, b)] * j + [(a, -b)] * (2 * e - j):
                w = (w[0] * u - w[1] * v, w[0] * v + w[1] * u)
            factors.append(w)
        zs = [(x * u - y * v, x * v + y * u) for x, y in zs for u, v in factors]
    return PointSet(2, tuple(rng.sample(zs, n)))


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


def dense_ranks(m: RankedMetric) -> list[list[int]]:
    """The n×n rank matrix of m, both triangles filled pair by pair from
    its pair ranks in lexicographic order, and p = n(n-1)/2, above every
    rank, on the diagonal: the dense form the packed vector is checked
    against."""
    n, flat = m.n, m.pair_ranks().tolist()
    mat = [[len(flat)] * n for _ in range(n)]
    for (i, j), r in zip(combinations(range(n), 2), flat, strict=True):
        mat[i][j] = mat[j][i] = r
    return mat


@st.composite
def packed_metrics(draw, max_n: int = 40) -> RankedMetric:
    """A metric on up to max_n vertices from a drawn permutation of its
    pair ranks."""
    n = draw(st.integers(1, max_n))
    return RankedMetric(n, draw(st.permutations(range(n * (n - 1) // 2))))


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


# The points reader as it was before plain files were scanned onto the grid:
# every file split into Lines and one Fraction per field, kept verbatim (but
# for splitting the text itself) as the reference fileio.parse_points must
# match, error text and line number included.  Lines is fileio's line split
# as it was before the readers walked the runs, kept verbatim with the
# pattern it blanks comments by.

# Exactly the characters str.splitlines breaks at ("\r\n" is "\r" then "\n").
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = f"#[^{_LINE_BREAKS}]*"


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


def _point_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every data line, for the point and order parsers."""
    t = Lines(text)
    return [(k + 1, t.lines[k]) for k in t.data.tolist()]


def reference_parse_points(text: str) -> PointSet:
    lines = _point_lines(text)
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


# The order oracle as it was before it was rebuilt on independent sets: one
# Held-Karp-style subset DP over all 2^n revealed sets, kept verbatim as the
# reference that the closed form g(S, v) = alpha(G_v[W]), the profile and the
# best-order rebuild must match.


@lru_cache(maxsize=None)
def _layer_tables(n: int):
    """Index tables for the subset DP, one entry per popcount k = n-1 .. 1.

    For the L sets S of size k (``masks``) and the n-k vertices w outside
    each: ``sups`` holds S | {w}, ``cols`` the flat pair index of {w, u} for
    every member u of S, and ``members`` those u.
    """
    layers = []
    for k in range(n - 1, 0, -1):
        sets = list(combinations(range(n), k))
        masks = [sum(1 << u for u in s) for s in sets]
        outs = [[w for w in range(n) if w not in s] for s in sets]
        sups = [[mask | 1 << w for w in o] for mask, o in zip(masks, outs)]
        cols = [[[pair_index(min(u, w), max(u, w), n) for u in s] for w in o] for s, o in zip(sets, outs)]
        layers.append(
            (np.array(masks), np.array(sups), np.array(cols), np.array(sets, dtype=np.int8))
        )
    return layers


def _completion_tables(r: np.ndarray, n: int) -> np.ndarray:
    """Completion tables for a batch of flat rank vectors r, shape (B, p).

    g[b, S, v] is the most extra indegree v can still collect once the
    vertex set S (a bitmask) is revealed: g(all) = 0, and
    g(S) = max over w not in S of [nn(w, S) = v] + g(S | {w}).  The last
    vertex revealed attaches to its nearest already-revealed vertex whatever
    order those came in, so one pass over the subsets covers all n! orders.
    Only non-empty S are filled.
    """
    b = r.shape[0]
    g = np.zeros((b, 1 << n, n), dtype=np.int8)
    vs = np.arange(n, dtype=np.int8)
    for masks, sups, cols, members in _layer_tables(n):
        amin = r[:, cols].argmin(axis=3)  # (B, L, n-k); ranks are distinct
        nn = members[np.arange(len(masks))[:, None], amin]  # (B, L, n-k)
        cand = g[:, sups] + (nn[..., None] == vs)  # (B, L, n-k, n)
        g[:, masks] = cand.max(axis=2)
    return g


def reference_completion_table(m: RankedMetric) -> list[list[int]]:
    """g[S][v] for one metric, from the subset DP."""
    return _completion_tables(np.array([m.pair_ranks().tolist()]), m.n)[0].tolist()


def reference_profile(m: RankedMetric) -> tuple[int, ...]:
    """d(v) = max over first vertices u of g({u}, v)."""
    g = reference_completion_table(m)
    return tuple(max(g[1 << u][v] for u in range(m.n)) for v in range(m.n))


def reference_best_order(m: RankedMetric) -> tuple[tuple[int, ...], int]:
    """The first optimal order and its value, rebuilt greedily from the DP
    table: reveal the smallest vertex that keeps max over v of (indegree so
    far + g) at the optimum."""
    n = m.n
    g = reference_completion_table(m)
    best = max(max(g[1 << u]) for u in range(n))
    rows = dense_ranks(m)
    order: list[int] = []
    indeg = [0] * n
    mask = 0
    for _ in range(n):
        for w in range(n):
            if mask >> w & 1:
                continue
            step = indeg[:]
            if order:
                step[min(order, key=rows[w].__getitem__)] += 1
            if max(d + e for d, e in zip(step, g[mask | 1 << w])) == best:
                break
        order.append(w)
        indeg = step
        mask |= 1 << w
    return tuple(order), best


# The Problem-1 block scan as it was before its chunks came from a
# permutation table: chunks of 2^15 tuples from itertools.permutations, kept
# verbatim (but for reading _profiles through the module, so a test can
# patch it under both scans) as the reference oracle._scan_block must match.


def reference_scan_block(args) -> tuple[int, int, int, list]:
    n, prefix = args
    p = n * (n - 1) // 2
    rest = [v for v in range(p) if v not in prefix]
    target = 2 ** (n - 1)
    lut = np.array([2 ** (n - 1 - t) if t <= n - 1 else 0 for t in range(n + 1)], dtype=np.int64)
    evaluated = 0
    max_scaled = -1
    witnesses = 0
    cex: list[tuple[tuple[int, ...], Fraction]] = []
    it = permutations(rest)
    while chunk := list(islice(it, 1 << 15)):
        r = np.empty((len(chunk), p), dtype=np.int8)
        r[:, : len(prefix)] = prefix
        if rest:
            r[:, len(prefix) :] = np.array(chunk, dtype=np.int8)
        evaluated += r.shape[0]
        scaled = lut[oracle._profiles(r, n)].sum(axis=1)
        max_scaled = max(max_scaled, int(scaled.max()))
        witnesses += int((scaled == target).sum())
        for idx in np.flatnonzero(scaled > target):
            cex.append((tuple(int(x) for x in r[idx]), Fraction(int(scaled[idx]), target)))
    return evaluated, max_scaled, witnesses, cex


# The canonical Problem-1 search as it was before it evaluated one
# representative per relabeling class: all of block 0 ({0, 1} has rank 0,
# which holds 2(n-2)! members of every class for n >= 3) through the frozen
# block scan, its counts divided by 2(n-2)!, and the counterexamples that are
# their class's lexicographic minimum, in block order.  That minimum is
# judged by the comparison the canonical enumeration made before it read
# oracle._representatives, kept verbatim: each vector against every
# relabeling that maps {0, 1} onto itself.


@lru_cache(maxsize=None)
def _relabel_maps(n: int) -> tuple[itemgetter, ...]:
    """For each vertex relabeling s other than the identity that maps {0, 1}
    onto itself, the getter M with relabeled = M(t) for flat rank vectors t.
    With at most one pair every relabeling fixes t, so none is returned
    (and an itemgetter of one index would return a scalar, not a tuple)."""
    p = n * (n - 1) // 2
    if p < 2:
        return ()
    maps = []
    for head in ((0, 1), (1, 0)):
        for sigma in ((*head, *tail) for tail in permutations(range(2, n))):
            if sigma == tuple(range(n)):
                continue
            m = [0] * p
            for i in range(n):
                for j in range(i + 1, n):
                    si, sj = sigma[i], sigma[j]
                    if si > sj:
                        si, sj = sj, si
                    m[pair_index(si, sj, n)] = pair_index(i, j, n)
            maps.append(itemgetter(*m))
    return tuple(maps)


def _is_canonical(t: tuple[int, ...], n: int) -> bool:
    """Whether a flat rank vector t with t[0] = 0 is the lexicographic minimum
    of its relabeling class.  Only relabelings that map {0, 1} onto itself
    compete: any other one moves a nonzero rank into slot 0."""
    return all(t <= relabel(t) for relabel in _relabel_maps(n))


def reference_canonical_search(n: int) -> oracle.Problem1Report:
    if n == 1:
        return oracle.Problem1Report(1, True, 1, Fraction(1), 1, ())
    evaluated, max_scaled, witnesses, cex = reference_scan_block((n, (0,)))
    orbit = 2 * math.factorial(n - 2) if n >= 3 else 1
    return oracle.Problem1Report(
        n=n,
        canonical=True,
        orderings_scanned=evaluated // orbit,
        max_sum=Fraction(max_scaled, 2 ** (n - 1)),
        witnesses_at_one=witnesses // orbit,
        counterexamples=tuple(c for c in cex if _is_canonical(c[0], n)),
    )


def relabel_class(t: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """Every relabeling of the flat rank vector t, by all n! vertex
    permutations sigma: the relabeled metric gives {sigma(i), sigma(j)} the
    rank t gives {i, j}."""
    pairs = list(combinations(range(n), 2))
    out = set()
    for sigma in permutations(range(n)):
        image = [0] * len(t)
        for (i, j), r in zip(pairs, t):
            image[pair_index(*sorted((sigma[i], sigma[j])), n)] = r
        out.add(tuple(image))
    return out


def relabel_classes(n: int) -> list[list[tuple[int, ...]]]:
    """All rank metrics on n vertices grouped into relabeling classes, each
    class sorted, the classes in order of their least member."""
    seen: set[tuple[int, ...]] = set()
    classes = []
    for t in permutations(range(n * (n - 1) // 2)):
        if t not in seen:
            members = relabel_class(t, n)
            seen |= members
            classes.append(sorted(members))
    return classes


def reference_write_metric(m: RankedMetric) -> str:
    """write_metric as it was before its numpy byte table, verbatim: one
    join per row over precomputed id strings."""
    n, ranks = m.n, m.pair_ranks().tolist()
    ids = [str(v) for v in range(n)]
    out = [str(n)]
    off = 0
    for i in range(n - 1):
        # one join per row: the pairs (i, j), j > i, in order
        k = n - 1 - i
        out.append("\n".join(map(f"{i} {{}} {{}}".format, ids[i + 1 :], ranks[off : off + k])))
        off += k
    return "\n".join(out) + "\n"


# The Ramsey deletion process as it was before it read core.key_source: one
# call of a triple-coloring closure per waiting vertex, kept as the
# reference the vectorised ramsey.run_process_traced must match, structure
# and every ProcessStats field.


def reference_run_process(coloring, n: int, k: int):
    from onng.ramsey import MonoStructure, ProcessStats, StructureKind, TripleColor, _extract_star

    waiting = list(range(n))
    reds, greens, blues = [], [], []
    anchor_g: dict = {}
    anchor_b: dict = {}
    red_edges = green_edges = blue_edges = picked = 0
    star_need = (k - 1) ** 2

    def stats():
        return ProcessStats(picked, len(reds), len(greens), len(blues),
                            red_edges, green_edges, blue_edges)

    while waiting:
        v = waiting.pop(0)
        picked += 1
        vcolor, anchor = TripleColor.RED, -1
        for u in reds:
            m = len(waiting)
            cols = [coloring(u, v, w) for w in waiting]
            cg = sum(1 for c in cols if c is TripleColor.GREEN)
            cb = sum(1 for c in cols if c is TripleColor.BLUE)
            if m > 0 and cg * k >= m:
                green_edges += 1
                vcolor, anchor = TripleColor.GREEN, u
                waiting = [w for w, c in zip(waiting, cols) if c is TripleColor.GREEN]
                break
            if m > 0 and cb * k >= m:
                blue_edges += 1
                vcolor, anchor = TripleColor.BLUE, u
                waiting = [w for w, c in zip(waiting, cols) if c is TripleColor.BLUE]
                break
            red_edges += 1
            waiting = [w for w, c in zip(waiting, cols) if c is TripleColor.RED]
        if vcolor is TripleColor.RED:
            reds.append(v)
        elif vcolor is TripleColor.GREEN:
            greens.append(v)
            anchor_g.setdefault(anchor, []).append(v)
        else:
            blues.append(v)
            anchor_b.setdefault(anchor, []).append(v)
        if len(reds) == k:
            return MonoStructure(StructureKind.RED_CLIQUE, tuple(reds)), stats()
        if len(greens) >= star_need:
            return _extract_star(anchor_g, k, StructureKind.GREEN_STAR), stats()
        if len(blues) >= star_need:
            return _extract_star(anchor_b, k, StructureKind.BLUE_STAR), stats()
    return None, stats()


# order_euclid as it was before its levels became one loop, kept verbatim
# (its per-point cell dict, recursion and per-level sets included) as the
# reference the loop must match.  Only the calls into the diameter and
# halfspace helpers convert their lists at the boundary; those helpers are
# checked against all-pairs scans of their own in test_euclid.


def _reference_cells(xt: np.ndarray, ids: list[int], unit_sq: int, dim: int) -> dict[tuple, list[int]]:
    sub = xt[:, ids]
    offsets = (sub - sub.min(axis=1, keepdims=True)).T.tolist()
    out: dict[tuple, list[int]] = {}
    for i, q in zip(ids, offsets):
        # cell index floor(2 q sqrt(d) / sqrt(unit_sq)) via exact isqrt:
        # floor(sqrt(4 q^2 d / M)) = isqrt(4 q^2 d * M) // M for M = unit_sq.
        idx = tuple(math.isqrt(4 * c**2 * dim * unit_sq) // unit_sq for c in q)
        out.setdefault(idx, []).append(i)
    return out


def reference_grid_partition(ps: PointSet, members, unit_sq: int) -> list[tuple[int, ...]]:
    ids = sorted(int(v) for v in members)
    cells = _reference_cells(ps.axes, ids, int(unit_sq), ps.dim)
    return [tuple(cells[key]) for key in sorted(cells)]


def reference_order_euclid_levels(ps: PointSet) -> tuple[tuple[int, ...], int, int, list[int]]:
    n, dim = ps.n, ps.dim
    if dim <= PARITY_MAX_DIM and 2 * grid_cell_bound(dim) > 16**dim:
        raise AssertionError(f"2 * grid_cell_bound({dim}) exceeds 16^{dim}")
    xt = ps.axes
    buf = scratch(xt)
    cell_cap = grid_cell_bound(dim)
    fars: list[int] = []

    def rec(ids: list[int]) -> tuple[list[int], int]:
        if len(ids) == 1:
            return [ids[0]], ids[0]
        if len(ids) == 2:
            u, w = sorted(ids)
            fars.append(w)
            return [u, w], u
        a, b = _diameter_ids(xt, np.array(ids), buf)
        major, _minor, far = _halfspace_ids(xt, np.array(ids), a, b, buf)
        major = major.tolist()
        unit_sq = sum((int(c[a]) - int(c[b])) ** 2 for c in xt)
        cells = _reference_cells(xt, major, unit_sq, dim)
        if len(cells) > cell_cap:
            raise AssertionError("cell count exceeded the provable cap")
        cluster = max(sorted(cells), key=lambda key: len(cells[key]))
        c_ids = cells[cluster]
        sub, center = rec(sorted(c_ids))
        fars.append(far)
        in_c = set(c_ids)
        rest = sorted(i for i in ids if i not in in_c and i != far)
        return [center, far] + sub[1:] + rest, center

    order, center = rec(list(range(n)))
    fars.reverse()  # outermost level first, matching order[1:1+len(fars)]
    return tuple(order), center, grid_guarantee(n, dim), fars


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse error path
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()
