"""Simple undirected graphs, BFS metric data, and per-edge distance partitions.

Vertices are dense indices 0..n-1; external names are kept in a label table
so reports can speak the caller's language while all algebra runs on indices.
"""
from __future__ import annotations

import binascii
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress, product, repeat
from operator import eq
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input or a violated operation precondition."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph without loops.

    `adj[v]` is the neighbor set of `v`. Connectivity is not an invariant;
    operations that need it check it and raise GraphError otherwise.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    @cached_property
    def graph6(self) -> str:
        """to_graph6(self), encoded on first use and kept; parse_graph6
        sets it from the record it decodes."""
        return to_graph6(self)

    def __getstate__(self) -> dict:
        # the kept graph6 string is not part of the graph, so a graph
        # pickles the same whether or not it was read
        return {k: v for k, v in vars(self).items() if k != "graph6"}


def make_graph(n: int, edges: Iterable[tuple[int, int]],
               labels: Optional[Iterable[str]] = None) -> Graph:
    """Build a validated Graph from index pairs. Duplicate edges collapse."""
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        label_tuple = tuple(str(x) for x in labels)
        if len(label_tuple) != n:
            raise GraphError("label count does not match vertex count")
        if len(set(label_tuple)) != n:
            raise GraphError("vertex labels must be distinct")
    return Graph(n, tuple(frozenset(s) for s in nbrs), label_tuple)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs, one edge per line.

    `#` starts a comment. Vertices are named by their tokens; the vertex set
    is the union of mentioned tokens, ordered numerically (ties such as `01`
    and `1` by the token) when every token is a decimal integer and
    lexicographically otherwise.
    """
    # each line's tokens, all checked at once, and the first bad line found
    # only when some line is bad
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    pairs = list(filter(None, rows))
    if not pairs:
        raise GraphError("no edges found")
    if set(map(len, pairs)) != {2}:
        raise _bad_line(rows)
    us, vs = zip(*pairs)
    if any(map(eq, us, vs)):
        raise _bad_line(rows)
    ordered = sorted(set(us).union(vs))
    try:
        # sorted is stable, so tokens of one value keep the order above
        ordered = sorted(ordered, key=int)
    except ValueError:
        pass   # some token is not an integer
    index = dict(zip(ordered, range(len(ordered))))
    return make_graph(len(ordered), zip(map(index.__getitem__, us),
                                        map(index.__getitem__, vs)), ordered)


def _bad_line(rows: list[list[str]]) -> GraphError:
    """The error of the first line of an edge list, given as its tokens,
    that holds neither nothing nor two distinct tokens."""
    lineno, parts = next((i, parts) for i, parts in enumerate(rows, start=1)
                         if parts and (len(parts) != 2 or parts[0] == parts[1]))
    if len(parts) != 2:
        return GraphError(f"line {lineno}: expected two vertex tokens, got {len(parts)}")
    return GraphError(f"line {lineno}: loop edge {parts[0]!r}")


# ---------------------------------------------------------------------------
# graph6 byte format (6-bit chunks offset by 63, upper triangle column-major)
# ---------------------------------------------------------------------------

# graph6 body bytes: 63 plus a 6-bit group
_GRAPH6_BODY = bytes(range(63, 127))
# each body byte's six bits, high first, as six bytes 0 or 1 (empty for a
# byte out of range, which the decoder rejects first)
_GRAPH6_BITS = tuple(bytes(b - 63 >> k & 1 for k in range(5, -1, -1))
                     if 63 <= b < 127 else b"" for b in range(256))
# the graph6 character of each base64 digit: base64 writes the 6-bit groups
# of a byte string, high bits first, as digits of this alphabet
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    _GRAPH6_BODY)
# 0/1 bytes as the binary digits int(..., 2) reads
_BITS_TO_TEXT = bytes.maketrans(b"\0\1", b"01")
# pair bits, one byte each, that to_graph6 gathers before it encodes them
_ENCODE_BLOCK = 1 << 18


def parse_graph6(data: bytes | str) -> Graph:
    """Decode a single graph6 record into a Graph.

    Supports the one-byte size header (n <= 62) and the '~' + 3 byte
    extension. Rejects bad lengths, out-of-range bytes and nonzero padding,
    reporting the byte offset. The Graph keeps its graph6 string, header
    and body as to_graph6 writes them, so it is never encoded again.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphError(f"graph6 offset {exc.start}: non-ASCII character") from None
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphError("empty graph6 input")
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            raise GraphError("graph6 offset 1: 8-byte size header not supported")
        if len(data) < 4:
            raise GraphError("graph6 offset 0: truncated extended size header")
        n = 0
        for off in range(1, 4):
            b = data[off] - 63
            if not 0 <= b < 64:
                raise GraphError(f"graph6 offset {off}: byte out of range")
            n = (n << 6) | b
        body = data[4:]
    else:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise GraphError("graph6 offset 0: size byte out of range")
        body = data[1:]
    if n < 1:
        raise GraphError("graph6 encodes an empty vertex set")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    header = len(data) - len(body)
    if len(body) != nbytes:
        raise GraphError(
            f"graph6 offset {header}: body has {len(body)} bytes, expected {nbytes}")
    bad = body.translate(None, _GRAPH6_BODY)
    if bad:
        # bad[0] is the first byte out of range, and none occurs before it
        raise GraphError(f"graph6 offset {header + body.index(bad[0])}: byte out of range")
    bits = b"".join(map(_GRAPH6_BITS.__getitem__, body))
    if bits.find(1, nbits) >= 0:
        raise GraphError(f"graph6 offset {header + nbytes - 1}: nonzero padding bits")
    # a valid body lists only pairs row < col < n, so no edge needs checking
    nbrs: list[set[int]] = [set() for _ in range(n)]
    pairs = _short_pairs(n) if n <= 62 else _column_pairs(n)
    for row, col in compress(pairs, bits):
        nbrs[row].add(col)
        nbrs[col].add(row)
    g = Graph(n, tuple(map(frozenset, nbrs)), tuple(map(str, range(n))))
    # the length and the padding are checked, so the body is the one
    # to_graph6 writes; only a '~' header of n <= 62 is not
    vars(g)["graph6"] = (_graph6_header(n) + body).decode("ascii")
    return g


def _column_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs (row, col) of n vertices in graph6 body order, column by
    column."""
    return ((row, col) for col in range(1, n) for row in range(col))


@cache
def _short_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """_column_pairs(n) as a tuple, made once for each n <= 62, the sizes
    of a one-byte header: at most 1 891 pairs."""
    return tuple(_column_pairs(n))


def _graph6_header(n: int) -> bytes:
    """The graph6 size bytes of an n-vertex graph."""
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise GraphError("graph too large for graph6 encoding")


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (inverse of parse_graph6).

    The body lists the pairs (row, col) of the upper triangle column by
    column, row 0 first, six bits to a character, high bit first, and
    zero bits fill the last character; pair (row, col) is bit
    col (col - 1) / 2 + row. A block of columns, about _ENCODE_BLOCK
    bits, is a 0/1 byte array in which each column's neighbours below it
    set their bytes, and base64 writes the 6-bit groups of the bits as
    its digits.
    """
    n, adj = g.n, g.adj
    digits = []
    bits = bytearray()
    first = 1
    while first < n:
        base = first * (first - 1) // 2
        last = first + 1
        while last < n and last * (last - 1) // 2 - base < _ENCODE_BLOCK:
            last += 1
        block = bytearray(last * (last - 1) // 2 - base)
        starts = [col * (col - 1) // 2 - base for col in range(first, last)]
        ones = [start + row for col, start in zip(range(first, last), starts)
                for row in adj[col] if row < col]
        # __setitem__ returns None, so any() runs the map to its end
        any(map(block.__setitem__, ones, repeat(1)))
        bits += block
        first = last
        if first == n:
            bits += bytes(-len(bits) % 24)
        digits.append(_base64_digits(bits, len(bits) - len(bits) % 24))
    body = b"".join(digits)[:-(-n * (n - 1) // 12)].translate(_BASE64_TO_GRAPH6)
    return (_graph6_header(n) + body).decode("ascii")


def _base64_digits(bits: bytearray, count: int) -> bytes:
    """The base64 digits of the first count bytes of bits, each 0 or 1,
    taken off bits; count is a multiple of 24, so no digit is split."""
    text = bits[:count].translate(_BITS_TO_TEXT)
    del bits[:count]
    raw = int(text or b"0", 2).to_bytes(count // 8, "big")
    return binascii.b2a_base64(raw, newline=False)


# ---------------------------------------------------------------------------
# BFS metric data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalMetric:
    """Distances from a base vertex: dist array, eccentricity, spheres, and
    paths[v], the number of geodesics from the base to v."""

    base: int
    dist: tuple[int, ...]
    ecc: int
    spheres: tuple[tuple[int, ...], ...]
    paths: tuple[int, ...]

    def sphere(self, i: int) -> tuple[int, ...]:
        if 0 <= i <= self.ecc:
            return self.spheres[i]
        return ()


def local_metric(g: Graph, x: int) -> LocalMetric:
    """BFS distances from x, one level at a time, and geodesic counts:
    paths[w] sums paths[u] over the neighbours u of w one level down.
    Raises GraphError, naming the first vertex left unreached, when g is
    disconnected."""
    if not 0 <= x < g.n:
        raise GraphError(f"base vertex {x} out of range")
    adj = g.adj
    dist = [-1] * g.n
    paths = [0] * g.n
    dist[x], paths[x] = 0, 1
    level = (x,)
    spheres = [level]
    up = 1
    while True:
        reached = []
        for u in level:
            count = paths[u]
            for w in adj[u]:
                d = dist[w]
                if d < 0:
                    dist[w] = up
                    paths[w] = count
                    reached.append(w)
                elif d == up:
                    paths[w] += count
        if not reached:
            break
        reached.sort()
        level = tuple(reached)
        spheres.append(level)
        up += 1
    if -1 in dist:
        missing = dist.index(-1)
        raise GraphError(f"graph is disconnected: vertex {g.labels[missing]} unreachable")
    return LocalMetric(x, tuple(dist), up - 1, tuple(spheres), tuple(paths))


# ---------------------------------------------------------------------------
# Rooted canonical form
# ---------------------------------------------------------------------------

def rooted_key(g: Graph, metric: LocalMetric) -> tuple[int, ...]:
    """Canonical form of the rooted graph (g, base of metric): two rooted
    graphs get equal keys exactly when an isomorphism maps one onto the
    other and base onto base.

    Individualisation-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014), seeded by the BFS levels. An ordered partition
    of the vertices, first the levels in order, is refined until it is
    equitable; then each vertex of its first smallest cell that is not a
    singleton is individualised in turn and the search goes on below it.
    At a leaf every cell is a single vertex, and the leaf's certificate is
    the graph relabelled by cell position: each vertex's neighbour set as a
    bitmask of positions, listed by position. The key is the least
    certificate. Two prunings keep the search small, both sound because an
    automorphism that fixes the current node maps the subtree below one
    candidate onto the subtree below another:
    - twins (u and v with N(u) - v = N(v) - u): swapping them is such an
      automorphism, so a candidate twin of one already explored is
      skipped; with them `complete:N` and `star:N` have one leaf;
    - a leaf whose certificate equals the first or the least one so far
      gives an automorphism that maps that earlier leaf's branch at their
      common ancestor onto this one, so the search returns to that
      ancestor.
    Each leaf costs a refinement at every node on its branch. Graphs whose
    equitable partitions keep large cells of vertices that are not twins,
    as symmetric graphs do, explore more leaves: 16 at a vertex of the
    6-cube.
    """
    n, adj = g.n, g.adj
    twin = _twin_classes(g)
    lab = [v for sphere in metric.spheres for v in sphere]
    cell = [0] * n
    size = [0] * n
    starts = []
    pos = 0
    for sphere in metric.spheres:
        starts.append(pos)
        size[pos] = len(sphere)
        for v in sphere:
            cell[v] = pos
        pos += len(sphere)
    _refine(adj, lab, cell, size, starts)

    # each reference leaf is (certificate, path of individualised vertices)
    first: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    least = first
    # one frame per inner node on the current branch: [node, position of
    # its target cell, position of its next candidate, twin classes explored]
    stack: list[list] = []
    node = (lab, cell, size, ())
    while True:
        lab, cell, size, path = node
        target = _target_cell(size, n)
        if target is not None:
            stack.append([node, target, target, set()])
        else:
            cert = _certificate(adj, lab, cell)
            if first is None:
                first = least = (cert, path)
            else:
                for ref in (first, least):
                    if cert == ref[0]:
                        common = next(i for i, (u, v) in enumerate(zip(path, ref[1]))
                                      if u != v)
                        del stack[common + 1:]
                        break
                else:
                    if cert < least[0]:
                        least = (cert, path)
        node = None
        while stack and node is None:
            frame = stack[-1]
            (lab, cell, size, path), s, i, explored = frame
            end = s + size[s]
            while i < end and twin[lab[i]] in explored:
                i += 1
            if i == end:
                stack.pop()
                continue
            v = lab[i]
            frame[2] = i + 1
            explored.add(twin[v])
            node = _individualise(adj, lab, cell, size, s, v) + (path + (v,),)
        if node is None:
            return least[0]


def _twin_classes(g: Graph) -> list[int]:
    """For each vertex, the least vertex of its twin class: u and v are
    twins when N(u) - v = N(v) - u. Twins with a common neighbourhood and
    adjacent twins with a common closed neighbourhood cannot both occur at
    one vertex, so this is an equivalence relation."""
    first_open: dict[frozenset[int], int] = {}
    first_closed: dict[frozenset[int], int] = {}
    twin = []
    for v, nbrs in enumerate(g.adj):
        u = first_open.setdefault(nbrs, v)
        if u == v:
            u = first_closed.setdefault(nbrs | {v}, v)
        twin.append(twin[u] if u != v else v)
    return twin


def _refine(adj: tuple[frozenset[int], ...], lab: list[int], cell: list[int],
            size: list[int], splitters: Iterable[int]) -> None:
    """Split cells in place until the partition is equitable: every vertex
    of a cell has as many neighbours in each cell as the others.

    A cell is the run of lab at position s of length size[s], and cell[v]
    is the position of v's run. A cell that the neighbour counts into a
    splitter cell tell apart is split into fragments in the order of those
    counts, kept at its position, so the result commutes with relabelling.
    The fragments become splitters, except the first largest one when the
    cell itself is not waiting to be one: the counts into it are those into
    the cell minus those into the other fragments.
    """
    queue = deque(splitters)
    waiting = set(queue)
    while queue:
        w = queue.popleft()
        waiting.discard(w)
        count: dict[int, int] = {}
        for u in lab[w:w + size[w]]:
            for v in adj[u]:
                count[v] = count.get(v, 0) + 1
        for s in sorted({cell[v] for v in count}):
            k = size[s]
            if k == 1:
                continue
            members = sorted(lab[s:s + k], key=lambda v: count.get(v, 0))
            keys = [count.get(v, 0) for v in members]
            if keys[0] == keys[-1]:
                continue
            lab[s:s + k] = members
            frags = [s] + [s + i for i in range(1, k) if keys[i] != keys[i - 1]]
            for a, b in zip(frags, frags[1:] + [s + k]):
                size[a] = b - a
                for v in lab[a:b]:
                    cell[v] = a
            if s not in waiting:
                frags.remove(max(frags, key=lambda a: size[a]))
            for a in frags:
                if a not in waiting:
                    queue.append(a)
                    waiting.add(a)


def _target_cell(size: list[int], n: int) -> Optional[int]:
    """Position of the first smallest cell that is not a singleton, or
    None when every cell is one."""
    target = None
    s = 0
    while s < n:
        if size[s] > 1 and (target is None or size[s] < size[target]):
            target = s
        s += size[s]
    return target


def _individualise(adj: tuple[frozenset[int], ...], lab: list[int],
                   cell: list[int], size: list[int], s: int,
                   v: int) -> tuple[list[int], list[int], list[int]]:
    """Copies of the partition with v split off the front of its cell at
    position s, refined again."""
    lab, cell, size = lab[:], cell[:], size[:]
    k = size[s]
    i = lab.index(v, s, s + k)
    lab[s], lab[i] = v, lab[s]
    size[s], size[s + 1] = 1, k - 1
    for u in lab[s + 1:s + k]:
        cell[u] = s + 1
    # the partition was equitable, so splitting by {v} makes it so again
    _refine(adj, lab, cell, size, [s])
    return lab, cell, size


def _certificate(adj: tuple[frozenset[int], ...], lab: list[int],
                 cell: list[int]) -> tuple[int, ...]:
    """The graph relabelled by a discrete partition: at each position, the
    positions of that vertex's neighbours as a bitmask."""
    return tuple(sum(1 << cell[w] for w in adj[v]) for v in lab)


# ---------------------------------------------------------------------------
# Distance partition with respect to an edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistancePartition:
    """Cells (i, j) -> vertices at distance i from x and j from y, for an
    edge {x, y}. Cells with |i - j| >= 2 are empty by the triangle
    inequality and are not stored; `cell` returns () for them.
    """

    x: int
    y: int
    ecc_x: int
    ecc_y: int
    cells: Mapping[tuple[int, int], tuple[int, ...]]

    def cell(self, i: int, j: int) -> tuple[int, ...]:
        return self.cells.get((i, j), ())


def distance_partition(g: Graph, x: int, y: int) -> DistancePartition:
    """Intersection cells of the spheres around the two ends of edge {x, y},
    from a BFS at each end.

    The analysis reads only which cells are nonempty, for every edge at x
    at once, from cell_pattern; this per-edge form, with the vertices of
    each cell, serves the partition subcommand and is the test oracle of
    cell_pattern and of the structure report.
    """
    if not g.has_edge(x, y):
        raise GraphError(f"vertices {g.labels[x]} and {g.labels[y]} are not adjacent")
    mx, my = local_metric(g, x), local_metric(g, y)
    cells: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        cells.setdefault((mx.dist[v], my.dist[v]), []).append(v)
    frozen = {key: tuple(vs) for key, vs in cells.items()}
    # triangle inequality across an edge keeps |i-j| <= 1; anything else
    # would mean the BFS is broken
    assert all(abs(i - j) <= 1 for (i, j) in frozen)
    return DistancePartition(x, y, mx.ecc, my.ecc, frozen)


@dataclass(frozen=True)
class CellPattern:
    """Which cells of the distance partitions of the edges at a base x are
    nonempty. On level i of x, bit k of down[i], mid[i] and up[i] is set
    when cell (i, i - 1), (i, i) or (i, i + 1) of the edge {x, nbrs[k]}
    holds a vertex."""

    nbrs: tuple[int, ...]
    down: tuple[int, ...]
    mid: tuple[int, ...]
    up: tuple[int, ...]


def cell_pattern(g: Graph, metric_x: LocalMetric) -> CellPattern:
    """The nonempty cells of distance_partition(g, x, y) for every neighbour
    y of the base x of metric_x, from one sweep over x's levels instead of
    a BFS per y.

    Distances from a neighbour y differ from those from x by at most one,
    so a vertex z on level i of x lies in cell (i, i - 1), (i, i) or
    (i, i + 1) of y's partition. Two bitsets over the neighbours of x tell
    which: A(z) holds the y with d(y, z) = i - 1 and B(z) those with
    d(y, z) <= i. A(z) is {z} on level 1 and the union of A(w) over z's
    neighbours w on level i - 1 further in; B(z) is the union of A(z), of
    B(w) over those w and of A(w) over z's neighbours w on level i. One
    pass over z's neighbours reads those and adds A(z) to the A(w) of its
    neighbours w on level i + 1, which are complete when that level's pass
    begins.
    """
    x, dist, adj = metric_x.base, metric_x.dist, g.adj
    nbrs = g.neighbors(x)
    full = (1 << len(nbrs)) - 1
    a = [0] * g.n
    b = [0] * g.n
    for k, y in enumerate(nbrs):
        a[y] = 1 << k
    # x is one step from every neighbour
    down, mid, up = [0], [0], [full]
    for i, sphere in enumerate(metric_x.spheres[1:], start=1):
        down_i = mid_i = up_i = 0
        for z in sphere:
            own = reach = a[z]
            for w in adj[z]:
                d = dist[w]
                if d < i:
                    reach |= b[w]
                elif d == i:
                    reach |= a[w]
                else:
                    a[w] |= own
            b[z] = reach
            down_i |= own
            mid_i |= reach & ~own
            up_i |= full & ~reach
        down.append(down_i)
        mid.append(mid_i)
        up.append(up_i)
    return CellPattern(nbrs, tuple(down), tuple(mid), tuple(up))


# ---------------------------------------------------------------------------
# Structural report on the partition cells around a base vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborThreshold:
    """Per-neighbor record: the threshold level t splitting levels with a
    nonempty upward cell from those without, and the nonemptiness pattern
    of the three cell diagonals.

    threshold is None when the two-clause pattern fails to hold: that is,
    when some level above the longest valid prefix still has a nonempty
    upward cell.
    """

    y: int
    threshold: Optional[int]
    up_nonempty: tuple[bool, ...]    # D(i, i+1) for 0 <= i <= ecc(x)
    mid_nonempty: tuple[bool, ...]   # D(i, i)   for 0 <= i <= ecc(x)
    down_nonempty: tuple[bool, ...]  # D(i, i-1) for 0 <= i <= ecc(x)


@dataclass(frozen=True)
class StructureReport:
    x: int
    ecc: int
    vacuous: bool                    # deg(x) < 2: analysis has no content
    is_tree: bool
    per_neighbor: tuple[NeighborThreshold, ...]
    down_cells_all_nonempty: bool    # D(i, i-1) nonempty for all y and 1 <= i <= ecc
    up_blocks_mid: bool              # nonempty D(i, i+1) forces empty D(j, j) for j <= i, all neighbors
    mid_runs_contiguous: bool        # nonempty D(j, j) pulls D(i, i) nonempty for threshold < i <= j; always True
    thresholds_defined: bool
    threshold_constant: Optional[bool]  # all defined and equal; None if some undefined


# bits 0, ..., 7 of each byte, as bools; product counts in binary with
# bit 7 first
_BYTE_BITS = tuple(bits[::-1] for bits in product((False, True), repeat=8))


def _bit_columns(masks: Sequence[int], width: int) -> list[tuple[bool, ...]]:
    """For k = 0, ..., width - 1, bit k of each of the masks, as bools,
    transposed byte by byte off a table of the bits of every byte."""
    columns: list[tuple[bool, ...]] = []
    for shift in range(0, width, 8):
        columns += zip(*[_BYTE_BITS[m >> shift & 255] for m in masks])
    return columns[:width]


def structure_report(g: Graph, x: int, cells: CellPattern) -> StructureReport:
    """Evaluate the cell-pattern predicates of the distance partitions of
    the edges at x, from cells = cell_pattern(g, local_metric(g, x)), as
    LocalOperators.cells holds it.

    The predicates are read level by level with bit operations on the
    masks, over all neighbours at once: the thresholds off the mask of the
    neighbours still climbing, and each neighbour's three bool tuples by
    transposing the levels' bits, one transposition per cell kind."""
    nbrs = cells.nbrs
    d = len(cells.up) - 1
    vacuous = len(nbrs) < 2
    full = (1 << len(nbrs)) - 1

    # above[i] holds the neighbours with a nonempty upward cell on level i
    # or further out
    above = [0] * (d + 2)
    for i in range(d, 0, -1):
        above[i] = above[i + 1] | cells.up[i]
    # a neighbour's threshold is the longest prefix of levels where its
    # upward cell is nonempty and every mid cell (over all neighbours) is
    # empty; climbing holds the neighbours whose prefix reaches level t
    thresholds: list[Optional[int]] = [None] * len(nbrs)
    climbing, t = full, 0
    while climbing:
        stay = climbing & cells.up[t + 1] if t < d and not cells.mid[t + 1] else 0
        # a neighbour that stops at t has threshold t when no upward cell
        # of it above t is nonempty, and none otherwise
        defined = climbing & ~stay & ~above[t + 1]
        if defined:
            for k in range(len(nbrs)):
                if defined >> k & 1:
                    thresholds[k] = t
        climbing, t = stay, t + 1

    per_neighbor = tuple(map(NeighborThreshold, nbrs, thresholds,
                             *(_bit_columns(masks, len(nbrs))
                               for masks in (cells.up, cells.mid, cells.down))))

    down_ok = all(m == full for m in cells.down[1:])
    last_up = max((i for i in range(1, d + 1) if cells.up[i]), default=0)
    up_blocks = not any(cells.mid[1:last_up + 1])

    defined_all = None not in thresholds
    constant: Optional[bool]
    if defined_all and thresholds:
        constant = len(set(thresholds)) == 1
    else:
        constant = None

    return StructureReport(
        x=x,
        ecc=d,
        vacuous=vacuous,
        is_tree=(g.edge_count == g.n - 1),
        per_neighbor=per_neighbor,
        down_cells_all_nonempty=down_ok,
        up_blocks_mid=up_blocks,
        # always holds: let y have threshold t and take a level j > t
        # where y's mid cell is empty. Above t y's up cells are empty, so
        # every level-j vertex w has d(y, w) = j - 1. A vertex v further
        # out has a geodesic from x through some such w, so d(y, v) =
        # d(x, v) - 1, in y's down cell. So y's nonempty mid cells above t
        # form one run starting at t + 1
        mid_runs_contiguous=True,
        thresholds_defined=defined_all,
        threshold_constant=constant,
    )


# ---------------------------------------------------------------------------
# Exhaustive corpus generation (labeled connected graphs)
# ---------------------------------------------------------------------------

# Labeled connected graphs on n = 1..7 vertices (OEIS A001187): the length
# of generate_connected_graph6(n)
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# graph6 character of each 6-bit group of an edge mask: the group's low bit
# is its first pair, which graph6 writes as the high bit (indexed by a byte
# for bytes.translate; only the low six bits are ever set)
_GRAPH6_GROUP = bytes(int(f"{b & 63:06b}"[::-1], 2) + 63 for b in range(256))


def _spread(mask: int) -> int:
    """mask with each 6-bit group moved to a byte of its own."""
    out = 0
    for shift in range(0, mask.bit_length(), 6):
        out |= (mask >> shift & 63) << shift // 6 * 8
    return out


def _component_table(m: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The partitions into components of every graph on the vertices
    0..m-1: the distinct partitions, each a sorted tuple of vertex
    bitmasks, and the index of each graph's partition in edge mask order.

    The edge mask of such a graph is hi << (m-1)(m-2)/2 | lo, where lo is a
    graph on 0..m-2 and hi is the neighbour set of m-1. So the table for m
    is built from the one for m - 1: vertex m-1 joins, into one component,
    every component of lo that hi meets.
    """
    if m == 0:
        return [()], [0]
    parts, index = _component_table(m - 1)
    v = 1 << (m - 1)
    ids: dict[tuple[int, ...], int] = {}
    table: list[int] = []
    for hi in range(v):
        remap = []
        for part in parts:
            joined = v
            for c in part:
                if c & hi:
                    joined |= c
            merged = tuple(sorted([c for c in part if not c & hi] + [joined]))
            remap.append(ids.setdefault(merged, len(ids)))
        table.extend(map(remap.__getitem__, index))
    return list(ids), table


def generate_connected_graph6(n: int) -> Iterator[str]:
    """graph6 records of every connected labeled graph on n vertices, in
    ascending edge mask order: bit k of the mask is the pair (row, col)
    with k = col (col - 1) / 2 + row, the graph6 body order.

    No Graph is built. The mask is hi << L | lo, where lo is the graph on
    0..n-2 and hi the neighbour set of n-1, and the graph is connected iff
    hi meets every component of lo, read from _component_table(n - 1). The
    record is the mask's 6-bit groups, one translated byte each.
    """
    if n < 1:
        raise GraphError("n must be positive")
    parts, index = _component_table(n - 1)
    low_bits = (n - 1) * (n - 2) // 2
    nbytes = -(-n * (n - 1) // 12)
    head = _graph6_header(n).decode("ascii")
    low = [_spread(lo) for lo in range(len(index))]
    for hi in range(1 << (n - 1)):
        joins = [all(hi & c for c in part) for part in parts]
        high = _spread(hi << low_bits)
        for lo in compress(range(len(index)), map(joins.__getitem__, index)):
            body = (high | low[lo]).to_bytes(nbytes, "little")
            yield head + body.translate(_GRAPH6_GROUP).decode("ascii")
