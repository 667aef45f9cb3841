"""Finite simple graphs on vertices 1..n with bitmask vertex sets.

Conventions used everywhere in this package:

* vertices are labeled 1..n and vertex v corresponds to bit v-1,
* a vertex set is a plain int interpreted as a bitmask,
* n is capped at 63 so every vertex set fits a machine word.

Enumeration-heavy helpers (independent_sets, the 2^n tables elsewhere)
carry tighter caps documented per function.  Results are memoized on
the graph object (graph_cached), never process-wide, so they die with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BadLabeling,
    Disconnected,
    EmptyVertexSet,
    GraphFormatError,
    LoopEdge,
    TooManyVertices,
    VertexOutOfRange,
)

MAX_VERTICES = 63
TABLE_MAX_VERTICES = 22  # anything that builds a 2^n table stops here


def vset(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertex labels."""
    mask = 0
    for v in vertices:
        if v < 1:
            raise VertexOutOfRange(f"vertex labels are 1-based, got {v}")
        mask |= 1 << (v - 1)
    return mask


def vset_tuple(mask: int) -> tuple[int, ...]:
    """The 1-based vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def vset_min(mask: int) -> int:
    """Smallest vertex of a nonempty bitmask. min of the empty set is an error."""
    if mask == 0:
        raise EmptyVertexSet("min() of the empty vertex set")
    return (mask & -mask).bit_length()


def iter_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; adj[v-1] is the neighbor mask of vertex v."""

    n: int
    adj: tuple[int, ...]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, sorted lexicographically.

        This is the canonical edge order that orientations refer to.
        """
        out = []
        for u in range(1, self.n + 1):
            rest = self.adj[u - 1] >> u  # neighbors labeled > u
            for w in iter_vertices(rest):
                out.append((u, w + u))
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _memo(self) -> dict:  # filled by graph_cached
        return {}

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u - 1] >> (v - 1) & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v - 1].bit_count()

    def neighbors(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v - 1]

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise VertexOutOfRange(f"vertex {v} not in 1..{self.n}")


def graph_cached(fn: Callable) -> Callable:
    """Memoize fn(G, *args), args positional, in G's own memo: freed with G."""

    @wraps(fn)
    def cached(G: Graph, *args):
        key = (fn, *args)
        try:
            return G._memo[key]
        except KeyError:
            G._memo[key] = value = fn(G, *args)
            return value

    return cached


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from 1-based edges; rejects loops, bad labels, n > 63."""
    if n < 0 or n > MAX_VERTICES:
        raise TooManyVertices(f"n={n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        for w in (u, v):
            if not 1 <= w <= n:
                raise VertexOutOfRange(f"vertex {w} not in 1..{n}")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' pair per line.

    Blank lines and lines starting with '#' are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"first line must be the vertex count, got {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        edges.append((u, v))
    return from_edge_list(n, edges)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def induced_subgraph(G: Graph, vertices: int | Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a vertex set, relabeled 1..k preserving order.

    Returns (H, labels) where labels[i] is the original label of the new
    vertex i+1.  Order preservation means min queries translate: the new
    vertex 1 is the original min of the set.
    """
    mask = vertices if isinstance(vertices, int) else vset(vertices)
    if mask >> G.n:
        raise VertexOutOfRange(f"vertex set {bin(mask)} not within 1..{G.n}")
    labels = vset_tuple(mask)
    index = {v: i for i, v in enumerate(labels)}
    adj = []
    for v in labels:
        m = G.adj[v - 1] & mask
        new = 0
        for w in iter_vertices(m):
            new |= 1 << index[w]
        adj.append(new)
    return Graph(len(labels), tuple(adj)), labels


def blowup_types(m: Sequence[int]) -> tuple[int, ...]:
    """Type (original vertex) of each blow-up vertex, in construction order."""
    out = []
    for i, mult in enumerate(m, start=1):
        out.extend([i] * mult)
    return tuple(out)


def blowup(G: Graph, m: Sequence[int]) -> Graph:
    """Blow-up graph: m[i-1] copies of vertex i, copies of one vertex pairwise
    adjacent, copies of distinct vertices adjacent iff the originals are.

    New vertices are ordered by (original vertex, copy index): all copies of
    vertex 1 first, then copies of vertex 2, and so on.
    """
    if len(m) != G.n:
        raise VertexOutOfRange(f"multiplicity vector has length {len(m)}, graph has n={G.n}")
    if any(k < 0 for k in m):
        raise VertexOutOfRange("multiplicities must be nonnegative")
    total = sum(m)
    if total > MAX_VERTICES:
        raise TooManyVertices(f"blow-up would have {total} > {MAX_VERTICES} vertices")
    types = blowup_types(m)
    masks_by_type = [0] * (G.n + 1)
    for idx, t in enumerate(types):
        masks_by_type[t] |= 1 << idx
    adj = []
    for idx, t in enumerate(types):
        mask = masks_by_type[t] & ~(1 << idx)  # other copies of the same vertex
        for w in iter_vertices(G.adj[t - 1]):
            mask |= masks_by_type[w]
        adj.append(mask)
    return Graph(total, tuple(adj))


def is_clique(G: Graph, vertices: int | Iterable[int]) -> bool:
    """True iff the given vertices are pairwise adjacent (empty and singleton: yes)."""
    mask = vertices if isinstance(vertices, int) else vset(vertices)
    if mask >> G.n:
        raise VertexOutOfRange("vertex set outside 1..n")
    for v in iter_vertices(mask):
        if mask & ~(G.adj[v - 1] | (1 << (v - 1))):
            return False
    return True


def reachable(adj: Sequence[int], v: int) -> int:
    """Mask of the vertices reachable from v along the neighbor masks adj."""
    mask = frontier = 1 << (v - 1)
    while frontier:
        nxt = 0
        for w in iter_vertices(frontier):
            nxt |= adj[w - 1]
        frontier = nxt & ~mask
        mask |= nxt
    return mask


def components(G: Graph) -> list[int]:
    """Vertex masks of the connected components, by increasing least vertex."""
    out = []
    left = G.full_mask
    while left:
        out.append(reachable(G.adj, vset_min(left)))
        left &= ~out[-1]
    return out


def is_connected(G: Graph) -> bool:
    """Connectivity; the empty graph and single vertices count as connected."""
    return len(components(G)) <= 1


def ascending_relabel(
    G: Graph, clique_prefix: int = 0, strategy: str = "min"
) -> tuple[Graph, tuple[int, ...]]:
    """Relabel a connected graph so every vertex k > 1 has a neighbor with
    a smaller label, fixing vertex 1 (and vertices 1..clique_prefix).

    Returns (H, new_label) with new_label[v-1] the new label of old vertex v.
    The search is deterministic: among vertices adjacent to the labeled
    prefix it picks the smallest original label ("min") or the largest
    ("max"); both orders satisfy the ascending condition.
    """
    if not is_connected(G):
        raise Disconnected("ascending relabeling needs a connected graph")
    if G.n == 0:
        return G, ()
    if clique_prefix and not is_clique(G, vset(range(1, clique_prefix + 1))):
        raise BadLabeling(f"vertices 1..{clique_prefix} are not pairwise adjacent")
    pick_max = strategy == "max"
    fixed = max(1, clique_prefix)
    order = list(range(1, fixed + 1))
    labeled = vset(order)
    while len(order) < G.n:
        reach = 0
        for v in order:
            reach |= G.adj[v - 1]
        candidates = reach & ~labeled
        if not candidates:
            raise Disconnected("graph is not connected")
        cand = vset_tuple(candidates)
        v = cand[-1] if pick_max else cand[0]
        order.append(v)
        labeled |= 1 << (v - 1)
    new_label = [0] * G.n
    for new, old in enumerate(order, start=1):
        new_label[old - 1] = new
    adj = [0] * G.n
    for u, v in G.edges:
        nu, nv = new_label[u - 1], new_label[v - 1]
        adj[nu - 1] |= 1 << (nv - 1)
        adj[nv - 1] |= 1 << (nu - 1)
    return Graph(G.n, tuple(adj)), tuple(new_label)


def check_ascending_labels(G: Graph) -> bool:
    """True iff every vertex k > 1 is adjacent to some vertex with smaller label."""
    for v in range(2, G.n + 1):
        if not G.adj[v - 1] & ((1 << (v - 1)) - 1):
            return False
    return True


def table_entries(n: int) -> int:
    """2^n, the entries of a table indexed by the subsets of n vertices;
    refuses n > TABLE_MAX_VERTICES before any table is built."""
    if n > TABLE_MAX_VERTICES:
        raise TooManyVertices(f"2^n table capped at n={TABLE_MAX_VERTICES}, got n={n}")
    return 1 << n


@graph_cached
def independence_table(G: Graph) -> bytes:
    """byte[mask] = 1 iff mask is an independent set; needs n <= 22."""
    size = table_entries(G.n)
    table = bytearray(size)
    table[0] = 1
    adj = G.adj
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length()
        table[mask] = table[rest] and not (adj[v - 1] & rest)
    return bytes(table)


def independent_sets(G: Graph) -> list[int]:
    """All independent sets as bitmasks, in increasing numeric order."""
    table = independence_table(G)
    return [mask for mask in range(1 << G.n) if table[mask]]


def independence_polynomials(G: Graph) -> list[int]:
    """f[S] = sum_k i_k(S) z^k at z = 2^(n+1) for every mask S: the
    independence polynomial of G[S], with i_k(S) its independent k-sets,
    packed n + 1 bits a coefficient (i_k(S) <= C(n, k) < 2^(n+1)).  From
    f_S = f_{S-v} + z f_{S-N[v]}, v = min S; needs n <= 22.  Not memoized:
    each caller overwrites or drops the list once it has read it."""
    size, bits, adj = table_entries(G.n), G.n + 1, G.adj
    f = [1] * size
    for S in range(1, size):
        low = S & -S
        f[S] = f[S ^ low] + (f[S & ~low & ~adj[low.bit_length() - 1]] << bits)
    return f
