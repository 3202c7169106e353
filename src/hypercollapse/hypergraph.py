"""Exact multi-hypergraph engine: sampling, collapse, identifiability.

A hypergraph is a multiset of vertex subsets.  Size-1 edges are patches
(the fuel of collapse), the empty edge is debris (what a fully collapsed
edge turns into).  Removing a vertex deletes it from every incident
edge, so the total edge count is conserved by every operation here; that
conservation is the bookkeeping backbone of the whole model.

This module is the ground truth the reduced chain is validated against,
so it keeps the random stream of its plain per-edge definitions: a subset
is scalar `rng.integers(N)` draws until it has enough distinct ids, a
collapse step one `rng.integers(len(bag))` pick.  Both are drawn by the
loops of `chain_kernel.loops()`, on the same draws: the subsets of one
edge size in one call, the picks of one collapse in another.

A `Hypergraph` on at most 2**63 - 1 vertices stores its edge instances as
the patch loop takes them: int64 arrays `sizes` (one per instance) and the
flat `ids`, in canonical order (by size, then lexicographically, ids
increasing), so equal multisets have equal arrays.  Edges from outside are
checked once where they enter, by `_flat`; every producer of edges goes
through `_canonical`, which orders them and refuses an id twice in an edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .series import BetaSeries, bit_generator_of, whole
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


def _flat(n: int, edges: list) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, ids) of `edges`, sequences of vertex ids (`_vertex_id`) in
    range(n), as int64 arrays for `_canonical`; a ValueError names the first
    edge given with an id out of range."""
    ids = list(chain.from_iterable(edges))
    if not set(map(type, ids)) <= {int}:
        ids = list(map(_vertex_id, ids))
    # min and max of a list: tiny hypergraphs pay for each numpy call
    if ids and (min(ids) < 0 or max(ids) >= n):
        bad = next(edge for edge in (list(map(_vertex_id, e)) for e in edges)
                   if edge and (min(edge) < 0 or max(edge) >= n))
        raise ValueError(f"vertex id out of range in edge {bad}")
    return np.fromiter(map(len, edges), np.int64, len(edges)), np.array(ids, dtype=np.int64)


def _size_classes(sizes: np.ndarray):
    """(size, count, start) for each edge size in `sizes`, which is sorted:
    the `count` edges of that size hold ids[start:start + count * size]."""
    start = 0
    for size, count in enumerate(np.bincount(sizes).tolist()):
        if count:
            yield size, count, start
            start += count * size


def _edge_lists(sizes: np.ndarray, ids: np.ndarray):
    """The edges of the flat arrays, in their order, each the list of its ids."""
    flat, start = ids.tolist(), 0
    for size in sizes.tolist():
        yield flat[start:start + size]
        start += size


# Up to this many edges `_canonical` sorts Python lists, to the same result: on a
# tiny hypergraph each numpy call, slower still after file I/O, outweighs the work.
_FEW_EDGES = 32


def _canonical(sizes: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the flat int64 arrays, edge e the `sizes[e]` ids after
    those of edges 0..e-1, as new read-only (sizes, ids) in canonical order;
    a ValueError names the first edge given with an id twice."""
    if len(sizes) <= _FEW_EDGES:  # sorted lexicographically, then stably by size
        edges = sorted(sorted(map(sorted, _edge_lists(sizes, ids))), key=len)
        dup = sum(map(len, map(set, edges))) < len(ids)  # a repeat is not distinct
        out_sizes = np.fromiter(map(len, edges), np.int64, len(edges))
        out = np.array(list(chain.from_iterable(edges)), dtype=np.int64)
    else:  # sorted stably by their edge's size, the ids keep each edge whole and in place
        out, out_sizes = ids[sizes.repeat(sizes).argsort(kind="stable")], np.sort(sizes)
        dup = False
        for size, count, start in _size_classes(out_sizes):
            if size:
                edges = out[start:start + count * size].reshape(count, size)
                edges.sort(axis=1)
                dup = dup or bool(np.count_nonzero(edges[:, 1:] == edges[:, :-1]))
                edges.take(np.lexsort(edges.T[::-1]), axis=0, out=edges)  # buffered: in place
    if dup:
        bad = next(e for e in _edge_lists(sizes, ids) if len(set(e)) < len(e))
        raise ValueError(f"duplicate vertex in edge {bad}")
    out_sizes.setflags(write=False)
    out.setflags(write=False)
    return out_sizes, out


_NO_EDGES = _canonical(*_flat(1, []))  # shared by every hypergraph without edges


class Hypergraph:
    """Multiset of hyperedges over vertices 0..n_vertices-1, in the read-only
    arrays `sizes` and `ids` (module docstring); equal multisets are equal.
    A vertex count must be in [1, 2**63 - 1], so that it and every id fit in int64."""

    __slots__ = ("n_vertices", "sizes", "ids")

    def __init__(self, n_vertices: int, edges: Iterable[Iterable[int]] = ()) -> None:
        n_vertices = whole("n_vertices", n_vertices)
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if n_vertices > 2**63 - 1:
            raise ValueError(f"n_vertices must be at most 2**63 - 1, got {n_vertices}")
        self.n_vertices = n_vertices
        edges = list(map(tuple, edges))
        self.sizes, self.ids = _canonical(*_flat(n_vertices, edges)) if edges else _NO_EDGES

    def add_edge(self, vertices: Iterable[int], multiplicity: int = 1) -> None:
        """Add `multiplicity` instances of `vertices`, then sort all instances again."""
        m = whole("multiplicity", multiplicity)
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        size, ids = _flat(self.n_vertices, [tuple(vertices)])
        self.sizes, self.ids = _canonical(np.append(self.sizes, size.repeat(m)),
                                          np.concatenate([self.ids, np.tile(ids, m)]))

    def edge_counts(self) -> dict[tuple[int, ...], int]:
        """Mapping edge -> multiplicity, in canonical order, where repeats are adjacent."""
        return {edge: len(list(repeats)) for edge, repeats in groupby(self.instances())}

    def instances(self) -> list[tuple[int, ...]]:
        """Edge instances expanded by multiplicity, in canonical order."""
        return list(map(tuple, _edge_lists(self.sizes, self.ids)))

    def stats(self) -> EdgeStats:
        """(patches, debris, total) counted with multiplicity."""
        debris, below_two = self.sizes.searchsorted((1, 2)).tolist()  # sizes are sorted
        return EdgeStats(below_two - debris, debris, len(self.sizes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.ids, other.ids))

    def __repr__(self) -> str:
        s = self.stats()
        return (f"Hypergraph(n_vertices={self.n_vertices}, edges={s.total}, "
                f"patches={s.patches}, debris={s.debris})")


def sample_poisson(n_vertices: int, series: BetaSeries,
                   rng: np.random.Generator) -> Hypergraph:
    """Draw a Poisson(beta) hypergraph.

    For each size j the total number of j-edges is Poisson(N*bj), and each
    edge sits on an independently uniform j-subset, drawn with replacement
    across edges so repeated subsets accumulate multiplicity.  A size above
    N must have a zero coefficient: it draws no edge and leaves the stream
    where it was.  `rng` must be a `numpy.random.Generator` (TypeError
    otherwise, before any draw), and a subclass draws as the base class.
    """
    rng = np.random.Generator(bit_generator_of(rng))
    h = Hypergraph(n_vertices)
    if any(series.coeffs[h.n_vertices + 1:]):
        raise ValueError("series degree exceeds the vertex count")
    from . import chain_kernel

    subsets = chain_kernel.loops().subsets
    sizes, ids = [], [_NO_EDGES[1]]  # np.concatenate needs an array, ids or not
    for j, bj in enumerate(series.coeffs):
        count = int(rng.poisson(n_vertices * bj))
        sizes += [j] * count
        if count and j:
            ids.append(subsets(n_vertices, j, count, rng.bit_generator))
    h.sizes, h.ids = _canonical(np.array(sizes, np.int64), np.concatenate(ids))
    return h


_NO_SUBSETS = "no such subsets: need n >= 1, 0 <= size <= n and count >= 0"


def _uniform_subsets(n: int, size: int, count: int,
                     bit_generator: np.random.BitGenerator) -> np.ndarray:
    """The ids of `count` uniform `size`-subsets of range(n), in draw order,
    as one int64 array; each subset's ids come in the order first drawn.

    Each subset takes `rng.integers(n)` draws, `rng` a `Generator` on
    `bit_generator`, until it holds `size` distinct ids.  The draws come in
    bulk, each time the least that the subsets still to come must use, so
    the stream ends where the one-draw-at-a-time loop ends:
    `rng.integers(n, size=k)` gives the draws, and leaves the bit-generator
    state, of k scalar calls.  n < 1, size < 0, size > n or count < 0
    raise ValueError before any draw: no such subsets exist, and with
    size > n the loop would not end.  The reference loop: `chain_kernel.c` draws the same
    subsets with the same draws; tests and the kernel's load-time check
    compare the two.
    """
    if n < 1 or not 0 <= size <= n or count < 0:
        raise ValueError(_NO_SUBSETS)
    rng = np.random.Generator(bit_generator)
    subsets: list[int] = []
    draws: list[int] = []
    pos = 0
    for i in range(count):
        later = (count - 1 - i) * size  # what the subsets after this one must use
        picked: dict[int, None] = {}  # a set that keeps the order first drawn
        while len(picked) < size:
            if pos == len(draws):
                draws = rng.integers(n, size=size - len(picked) + later).tolist()
                pos = 0
            picked[draws[pos]] = None
            pos += 1
        subsets += picked
    return np.array(subsets, np.int64)


def _without(h: Hypergraph, removed: list[int]) -> Hypergraph:
    """`h` with the vertices `removed` deleted from every edge."""
    out = Hypergraph(h.n_vertices)
    out.sizes, out.ids = h.sizes, h.ids  # read-only, so shared when nothing is removed
    if removed:
        gone = np.zeros(h.n_vertices, dtype=bool)
        gone[removed] = True
        keep = ~gone[h.ids]  # each edge keeps the ids of it that the mask keeps
        kept = np.bincount(np.arange(len(h.sizes)).repeat(h.sizes)[keep], minlength=len(h.sizes))
        out.sizes, out.ids = _canonical(kept, h.ids[keep])
    return out


def remove_vertex(h: Hypergraph, v: int) -> Hypergraph:
    """Delete v from every edge containing it; multiplicity merges onto the rest.

    The edge count is conserved; v carries no edges afterwards.  No patch
    is required on v here, the permitted-collapse rule lives in
    `collapse_all`.  `v` follows the vertex-id rule of the edges.
    """
    v = _vertex_id(v)
    if not 0 <= v < h.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    return _without(h, [v])


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

    The loop takes the instances in canonical order, so equal hypergraphs
    collapse alike under the same random stream.  `rng` must be a
    `numpy.random.Generator` (TypeError otherwise, before any work), and a
    subclass draws as the base class; the patch loop runs in the loops of
    `chain_kernel.loops()`.
    """
    bit_generator = bit_generator_of(rng)
    from . import chain_kernel

    identified, trajectory = chain_kernel.loops().collapse(
        h.n_vertices, h.sizes, h.ids, bit_generator, record_trajectory)
    stable = _without(h, identified)
    return CollapseOutcome(identified, stable, stable.stats().debris - h.stats().debris,
                           trajectory)


def _collapse_steps(n: int, sizes: np.ndarray, ids: np.ndarray,
                    bit_generator: Optional[np.random.BitGenerator], record_trajectory: bool):
    """The patch loop of `collapse_all` and `identifiable_set`:
    (identified, trajectory).

    Edge e holds `sizes[e]` ids of `ids`, after those of the edges before
    it.  An edge keeps only its remaining size and the XOR of its
    remaining ids, which is its vertex once one is left.  Each step picks
    a bag entry: `rng.integers(len(bag))` with `rng` a `Generator` on
    `bit_generator`, or the last entry when `bit_generator` is None, with
    no draw.  The reference loop: `chain_kernel.c` runs the same loop with
    the same picks and draws; tests and the kernel's load-time check
    compare the two.
    """
    rng = None if bit_generator is None else np.random.Generator(bit_generator)
    left = sizes.tolist()
    incidence: list[list[int]] = [[] for _ in range(n)]
    xor = [0] * len(left)
    for v, eid in zip(ids.tolist(), np.arange(len(left)).repeat(sizes).tolist()):
        incidence[v].append(eid)
        xor[eid] ^= v

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
    the edge instances with the fixed pick (the last bag entry, no draw),
    in the loops of `chain_kernel.loops()`.  The empty edge is debris to
    the loop and changes nothing.
    """
    from . import chain_kernel

    return set(chain_kernel.loops().collapse(h.n_vertices, h.sizes, h.ids, None, False)[0])


def write_hypergraph(h: Hypergraph, path: str) -> None:
    """Write the line-oriented format: a {"N": n} header, then one JSON array
    of sorted ids per edge instance, repeats for multiplicity, in canonical order."""
    lines = ['{"N": %d}' % h.n_vertices]
    ids = h.ids.tolist()
    for size, count, start in _size_classes(h.sizes):
        # "%d" of an int is its str(): each line is json.dumps() of its list
        line = "[" + ", ".join(["%d"] * size) + "]"
        lines.append("\n".join([line] * count) % tuple(ids[start:start + count * size]))
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
    `_BATCH_CHARS` characters, then ordered by one `_canonical` call; if
    that fails, each line is checked alone from line 2 to find the first
    bad one (a bad last line of a 35.6k-line file takes about 0.3 s).
    """
    first, _, body = _read_text(path).partition("\n")
    try:
        header = json.loads(first)
        if not isinstance(header, dict) or "N" not in header:
            raise ValueError("first line must be a JSON object with key 'N'")
        h = Hypergraph(whole("N", header["N"]))
    except ValueError as exc:
        raise ValueError(f"{path}, line 1: {exc}") from None
    try:
        batches, start = [], 0
        while start < len(body):
            end = body.find("\n", start + _BATCH_CHARS)
            end = len(body) if end < 0 else end
            lines = body[start:end].split("\n")  # strip leaves nothing of a blank line
            batches.append(_edge_lines(h.n_vertices, list(filter(str.strip, lines))))
            start = end + 1
        if batches:
            h.sizes, h.ids = _canonical(*map(np.concatenate, zip(*batches)))
    except ValueError:
        for no, line in enumerate(body.split("\n"), 2):
            try:
                _canonical(*_edge_lines(h.n_vertices, [line] if line.strip() else []))
            except ValueError as exc:
                raise ValueError(f"{path}, line {no}: {exc}") from None
        raise AssertionError("the file failed but none of its lines alone")
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


def _edge_lines(n: int, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The edges of `lines`, each exactly one JSON array of ids, in their
    order, as `_flat` returns them.

    One `json.loads` parses the lines joined by ",null,".  They pass only
    if the result alternates one list per line with the null of each
    joint, and `_flat` then finds only integer ids: a string or nested
    list anywhere fails that, so each joint's null is a value
    of its own between two lines, and each line holds exactly one value.
    "[1], [2" followed by "3]" parses, but as one value too few.
    """
    if not lines:
        return _NO_EDGES
    try:
        values = json.loads("[" + ",null,".join(lines) + "]")
    except json.JSONDecodeError as exc:
        raise ValueError(f"an edge line must be one JSON array: {exc.msg}") from None
    edges = values[::2]
    if (len(values) != 2 * len(lines) - 1 or values[1::2].count(None) != len(lines) - 1
            or not set(map(type, edges)) <= {list}):
        raise ValueError("an edge line must be one JSON array")
    return _flat(n, edges)

