"""Exact multi-hypergraph engine: sampling, collapse, identifiability.

A hypergraph is a multiset of vertex subsets.  Size-1 edges are patches
(the fuel of collapse), the empty edge is debris (what a fully collapsed
edge turns into).  Removing a vertex deletes it from every incident
edge, so the total edge count is conserved by every operation here; that
conservation is the bookkeeping backbone of the whole model.

This module is the ground truth the reduced chain is validated against,
so it keeps the random stream of its plain per-edge definitions: a
subset is scalar `rng.integers(N)` draws until it has enough distinct
ids, a collapse step is one `rng.integers(len(bag))` pick.  Subsets are
drawn in bulk, on the rule that `rng.integers(N, size=k)` gives the same
draws and leaves the same bit-generator state as k scalar calls (numpy
draws bounded integers one at a time from the bit generator's buffered
words either way); the patch loop runs compiled in `chain_kernel` when
it loads, on the same draws.

The patch loop has two pick rules.  `collapse_all` picks uniformly, with
its generator.  `identifiable_set` takes the last bag entry and draws
nothing: any full collapse removes the same set, so one fixed order
computes it in the same loop.

Edges are checked in bulk, by one rule that `Hypergraph`, `add_edge` and
`read_hypergraph` share; the reader parses many lines with each
`json.loads`.  A sampled hypergraph, and one read from a file that
`write_hypergraph` wrote, hold their edges in canonical order, so the sort
of `instances()` runs over a sorted list, in linear time.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import lt
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .series import BetaSeries, whole
from .serialize import _write_text


class EdgeStats(NamedTuple):
    patches: int
    debris: int
    total: int


def _vertex_id(v) -> int:
    """The one vertex-id rule: Python and numpy integers, no bool, float or str."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"a vertex id must be an integer, got {v!r}")


def _increasing(edges: list, total: int) -> bool:
    """Whether the ids of every edge, `total` ids in all and none below 0,
    strictly increase."""
    # a -1 starts each edge: no step onto it increases, every step off it does
    spaced = [(-1,)] * (2 * len(edges))
    spaced[1::2] = edges
    flat = list(chain.from_iterable(spaced))
    return sum(map(lt, flat, islice(flat, 1, None))) == total


def _canonical_edges(n: int, edges: list) -> list[tuple[int, ...]]:
    """The one edge rule, checked in bulk: each edge is a sequence of
    distinct vertex ids (`_vertex_id`) in range(n), and is stored as the
    sorted tuple of its ids.  A ValueError names an edge that breaks it."""
    ids = list(chain.from_iterable(edges))
    if not set(map(type, ids)) <= {int}:
        edges = [list(map(_vertex_id, e)) for e in edges]
        ids = list(chain.from_iterable(edges))
    if ids and (min(ids) < 0 or max(ids) >= n):
        bad = next(e for e in edges if e and (min(e) < 0 or max(e) >= n))
        raise ValueError(f"vertex id out of range in edge {list(bad)}")
    if not _increasing(edges, len(ids)):
        ordered = list(map(sorted, edges))
        if not _increasing(ordered, len(ids)):
            bad = next(e for e in edges if len(set(e)) < len(e))
            raise ValueError(f"duplicate vertex in edge {list(bad)}")
        edges = ordered
    return list(map(tuple, edges))


class Hypergraph:
    """Multiset of hyperedges over vertices 0..n_vertices-1.

    Edges are stored canonically as sorted tuples of distinct vertex ids
    with integer multiplicities, so two hypergraphs compare equal exactly
    when they are the same multiset over the same vertex count.
    """

    __slots__ = ("n_vertices", "_edges")

    def __init__(self, n_vertices: int, edges: Iterable[Iterable[int]] = ()) -> None:
        n_vertices = whole("n_vertices", n_vertices)
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        self.n_vertices = n_vertices
        self._edges: Counter = Counter()
        edges = list(map(tuple, edges))
        if edges:
            self._edges.update(_canonical_edges(n_vertices, edges))

    def add_edge(self, vertices: Iterable[int], multiplicity: int = 1) -> None:
        multiplicity = whole("multiplicity", multiplicity)
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        (edge,) = _canonical_edges(self.n_vertices, [tuple(vertices)])
        self._edges[edge] += multiplicity

    def edge_counts(self) -> dict[tuple[int, ...], int]:
        """Mapping edge -> multiplicity (a copy)."""
        return dict(self._edges)

    def instances(self) -> list[tuple[int, ...]]:
        """Edge instances expanded by multiplicity, in canonical order:
        by size, then lexicographically.  Linear time when the edges were
        added in that order."""
        out = sorted(self._edges.elements())
        out.sort(key=len)  # stable: each size keeps its lexicographic order
        return out

    def stats(self) -> EdgeStats:
        """(patches, debris, total) counted with multiplicity."""
        patches = sum(m for e, m in self._edges.items() if len(e) == 1)
        debris = self._edges.get((), 0)
        total = sum(self._edges.values())
        return EdgeStats(patches, debris, total)

    def copy(self) -> "Hypergraph":
        out = Hypergraph(self.n_vertices)
        out._edges = Counter(self._edges)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self._edges == other._edges

    def __repr__(self) -> str:
        s = self.stats()
        return (f"Hypergraph(n_vertices={self.n_vertices}, edges={s.total}, "
                f"patches={s.patches}, debris={s.debris})")


def sample_poisson(n_vertices: int, series: BetaSeries,
                   rng: np.random.Generator) -> Hypergraph:
    """Draw a Poisson(beta) hypergraph.

    For each size j the total number of j-edges is Poisson(N*bj), and each
    edge sits on an independently uniform j-subset, drawn with replacement
    across edges so repeated subsets accumulate multiplicity.  Each size's
    subsets go in sorted, so the edges are in canonical order.
    """
    h = Hypergraph(n_vertices)
    if series.degree > h.n_vertices:
        raise ValueError("series degree exceeds the vertex count")
    for j, bj in enumerate(series.coeffs):
        count = int(rng.poisson(n_vertices * bj))
        if count:
            h._edges.update(sorted(_uniform_subsets(n_vertices, j, count, rng)))
    return h


# A bulk `rng.integers(n, size=k)` costs about as much as three to four
# scalar calls (numpy's per-call checks), and more after file I/O has
# evicted it from the caches, so a few draws are cheaper one at a time.
_FEW_DRAWS = 8


def _uniform_subsets(n: int, size: int, count: int,
                     rng: np.random.Generator) -> list[tuple[int, ...]]:
    """`count` uniform `size`-subsets of range(n), sorted, in draw order.

    Each subset takes `rng.integers(n)` draws until it holds `size`
    distinct ids.  The draws come in bulk, each time the least that the
    subsets still to come must use, so the stream ends where the
    one-draw-at-a-time loop ends; when that least is `_FEW_DRAWS` or
    fewer, they come one at a time.
    """
    subsets = []
    draws: list[int] = []
    pos = 0
    for i in range(count):
        later = (count - 1 - i) * size  # what the subsets after this one must use
        picked: set[int] = set()
        while len(picked) < size:
            if pos == len(draws):
                need = size - len(picked) + later
                draws = (rng.integers(n, size=need).tolist() if need > _FEW_DRAWS
                         else [int(rng.integers(n))])
                pos = 0
            picked.add(draws[pos])
            pos += 1
        subsets.append(tuple(sorted(picked)))
    return subsets


def remove_vertex(h: Hypergraph, v: int) -> Hypergraph:
    """Delete v from every edge containing it; multiplicity merges onto the rest.

    The edge count is conserved; v carries no edges afterwards.  No patch
    is required on v here, the permitted-collapse rule lives in
    `collapse_all`.  `v` follows the vertex-id rule of the edges.
    """
    v = _vertex_id(v)
    if not 0 <= v < h.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    out = Hypergraph(h.n_vertices)
    for edge, mult in h._edges.items():
        if v in edge:
            edge = tuple(u for u in edge if u != v)
        out._edges[edge] += mult
    return out


@dataclass
class CollapseOutcome:
    """Result of a full collapse.

    ``identified`` is the removal order (the set is invariant across
    random seeds, the order is not).  ``identifiable_edge_count`` is the
    debris created by the collapse, i.e. final minus initial debris, so
    edges that started as debris are not counted.  ``trajectory`` rows are
    (removed, patches, debris) after each removal when recording was
    requested.
    """

    identified: list[int]
    stable: Hypergraph
    identifiable_edge_count: int
    trajectory: Optional[np.ndarray] = None


def collapse_all(h: Hypergraph, rng: np.random.Generator,
                 record_trajectory: bool = False) -> CollapseOutcome:
    """Collapse until no patches remain, picking uniformly among patch instances.

    The engine works on the canonical instance ordering, so equal
    hypergraph values collapse identically under the same random stream
    regardless of how they were built.  `rng` must be a
    `numpy.random.Generator` (TypeError otherwise, before any work); with
    exactly that type, the patch loop runs in the compiled loop of
    `chain_kernel` when it loads, with the same draws and results.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    from . import chain_kernel

    instances = h.instances()
    sizes = array("q", map(len, instances))
    ids = array("q", chain.from_iterable(instances))
    kernel = chain_kernel.load() if type(rng) is np.random.Generator else None
    steps = _collapse_steps if kernel is None else kernel.collapse
    identified, trajectory = steps(h.n_vertices, sizes, ids, rng, record_trajectory)

    gone = set(identified)
    stable = Hypergraph(h.n_vertices)
    stable._edges.update(e if gone.isdisjoint(e) else tuple(v for v in e if v not in gone)
                         for e in instances)
    return CollapseOutcome(identified, stable, stable._edges[()] - h._edges[()], trajectory)


def _collapse_steps(n: int, sizes: array, ids: array,
                    rng: Optional[np.random.Generator], record_trajectory: bool):
    """The patch loop of `collapse_all` and `identifiable_set`:
    (identified, trajectory).

    Edge e holds `sizes[e]` ids of `ids`, after those of the edges before
    it.  An edge keeps only its remaining size and the XOR of its
    remaining ids, which is its vertex once one is left.  Each step picks
    a bag entry: `rng.integers(len(bag))`, or the last entry when `rng` is
    None, with no draw.  The reference loop: `chain_kernel.c` runs the
    same loop with the same picks and draws; tests and the kernel's
    load-time check compare the two.
    """
    left = sizes.tolist()
    ids = ids.tolist()
    incidence: list[list[int]] = [[] for _ in range(n)]
    xor = []
    start = 0
    for eid, size in enumerate(left):
        x = 0
        for v in ids[start:start + size]:
            incidence[v].append(eid)
            x ^= v
        xor.append(x)
        start += size

    bag = [eid for eid, size in enumerate(left) if size == 1]
    patches = len(bag)
    debris = left.count(0)
    identified: list[int] = []
    trajectory = [(0, patches, debris)] if record_trajectory else None
    while bag:
        k = len(bag) - 1 if rng is None else int(rng.integers(len(bag)))
        eid = bag[k]
        if left[eid] != 1:
            # stale entry: this patch lost its vertex to an earlier removal
            bag[k] = bag[-1]
            bag.pop()
            continue
        v = xor[eid]
        for other in incidence[v]:
            xor[other] ^= v
            left[other] -= 1
            if left[other] == 1:
                bag.append(other)
                patches += 1
            elif left[other] == 0:
                # was a patch on v, now debris
                patches -= 1
                debris += 1
        identified.append(v)
        if record_trajectory:
            trajectory.append((len(identified), patches, debris))
    traj_arr = np.asarray(trajectory, dtype=np.int64) if record_trajectory else None
    return identified, traj_arr


def identifiable_set(h: Hypergraph) -> set[int]:
    """The identifiable vertices: those under a patch, and, recursively,
    every vertex of an edge whose other vertices are all identifiable.

    This is the set any full collapse removes, whatever its order and the
    edge multiplicities, so it is the patch loop of `collapse_all` run on
    the distinct edges with the fixed pick (the last bag entry, no draw),
    compiled when `chain_kernel` loads.  The empty edge is debris to the
    loop and changes nothing.
    """
    from . import chain_kernel

    sizes = array("q", map(len, h._edges))
    ids = array("q", chain.from_iterable(h._edges))
    kernel = chain_kernel.load()
    steps = _collapse_steps if kernel is None else kernel.collapse
    return set(steps(h.n_vertices, sizes, ids, None, False)[0])


def write_hypergraph(h: Hypergraph, path: str) -> None:
    """Write the line-oriented format: a {"N": n} header, then one JSON
    array of sorted vertex ids per edge instance (repeats = multiplicity)."""
    # str() of a list of ints is its json.dumps()
    lines = [json.dumps({"N": h.n_vertices}), *map(str, map(list, h.instances()))]
    _write_text(path, "\n".join(lines) + "\n")


# Characters of edge lines per json.loads: each batch's lists and strings
# are freed before the next is parsed, so a read holds little more than the
# file's text and the hypergraph, and a batch's fixed cost is microseconds.
_BATCH_CHARS = 1 << 16


def read_hypergraph(path: str) -> Hypergraph:
    """Read the format of `write_hypergraph`, in bulk.

    The first line is a JSON object whose "N" is a whole number.  Every
    other line is blank (whitespace only) or one JSON array of vertex ids,
    which `Hypergraph`'s edge rule checks; lines end in LF, CRLF or CR.
    Anything else raises ValueError naming the path and the first bad
    line.  The edge lines are parsed and checked in batches of about
    `_BATCH_CHARS` characters; a batch that fails is checked again one
    line at a time, in file order, to find that line.
    """
    first, _, body = _read_text(path).partition("\n")
    try:
        header = json.loads(first)
        if not isinstance(header, dict) or "N" not in header:
            raise ValueError("first line must be a JSON object with key 'N'")
        h = Hypergraph(whole("N", header["N"]))
    except ValueError as exc:
        raise ValueError(f"{path}, line 1: {exc}") from None
    check = partial(_edge_lines, h.n_vertices)
    lineno, start = 2, 0
    while start < len(body):
        end = body.find("\n", start + _BATCH_CHARS)
        end = len(body) if end < 0 else end
        lines = body[start:end].split("\n")
        edge_lines = list(filter(str.strip, lines))  # strip leaves nothing of a blank line
        try:
            h._edges.update(check(edge_lines))
        except ValueError:
            for no, line in enumerate(lines, lineno):
                try:
                    check([line] if line.strip() else [])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {no}: {exc}") from None
            raise AssertionError("the batch failed but none of its lines alone")
        lineno += len(lines)
        start = end + 1
    return h


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, its CRLF and CR line ends made LF as text
    mode makes them."""
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks lines where text mode does: LF, CRLF, CR
        lineno = len((data[:exc.start] + b".").splitlines())
        raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _edge_lines(n: int, lines: list[str]) -> list[tuple[int, ...]]:
    """The canonical edges of `lines`, each exactly one JSON array of ids.

    One `json.loads` parses the lines joined by ",null,".  They pass only
    if the result alternates one list per line with the null of each
    joint, and `_canonical_edges` then finds only integer ids: a string
    or nested list anywhere fails that, so each joint's null is a value
    of its own between two lines, and each line holds exactly one value.
    "[1], [2" followed by "3]" parses, but as one value too few.
    """
    if not lines:
        return []
    try:
        values = json.loads("[" + ",null,".join(lines) + "]")
    except json.JSONDecodeError as exc:
        raise ValueError(f"an edge line must be one JSON array: {exc.msg}") from None
    edges = values[::2]
    if (len(values) != 2 * len(lines) - 1 or values[1::2].count(None) != len(lines) - 1
            or not set(map(type, edges)) <= {list}):
        raise ValueError("an edge line must be one JSON array")
    return _canonical_edges(n, edges)

