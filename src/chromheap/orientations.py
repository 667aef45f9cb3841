"""Acyclic orientations: enumeration, source components, subset tables.

An orientation of a graph is stored as one direction bit per edge of the
canonical edge order (Graph.edges): bit e clear means the edge (u, v)
with u < v is oriented u -> v, bit e set means v -> u.  Orientation
equality and ordering therefore compare direction bits in the canonical
edge order of the host graph.

The two 2^n tables computed here drive every fast counting path:

* a[V] = number of acyclic orientations of G[V];
* b[V] = number of acyclic orientations of G[V] whose unique source is
  min(V).

Both are squarefree coefficients of heap series (Cartier-Foata; Viennot,
Heaps of pieces I, 1986), with T the independent-set series of G and
theta the Euler operator x^m -> |m| x^m: a[V] is [x^V] of the heap series
1 / T(-x), and |V| b[V] is [x^V] of the pyramid series theta(-log T(-x)).
Put as subset convolutions, with t[U] = (-1)^|U| for independent U and 0
otherwise: t * a is 1 at the empty set and 0 elsewhere, and the sum over
U subset of V - min(V) of t[U] b[V \\ U] is -t[V] for nonempty V.
_heap_table evaluates the series in one variable per subset, one integer
division each, and reads both tables off after one Moebius pass
(subsets.moebius).

The enumerator (_iter_acyclic_bits) keeps, for every vertex v, the
transitively closed mask reach[v] of the vertices reachable from v, and
hands it out with each leaf's direction bits.  The counting sides read
their statistics straight off that closure, with no Orientation object and
no graph search: v is a sink iff reach[v] is v alone, the non-sources are
the union of reach[w] minus w, and source component k is reach[m] & left,
m the least vertex not yet covered (_closure_sinks, _closure_sources,
_closure_components).  Orientation, enumerate_acyclic, sources, sinks and
source_components stay as the public API and the reference these are
tested against.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence

from .config import DEFAULT_BUDGET, Budget, charge
from .errors import (
    CyclicOrientation,
    InternalInvariantViolation,
    NotAdjacent,
    TooManyEdges,
    VertexOutOfRange,
)
from .graphs import (
    Graph,
    graph_cached,
    independence_polynomials,
    induced_subgraph,
    iter_vertices,
    reachable,
    table_entries,
    vset_min,
    vset_tuple,
)
from .subsets import moebius

MAX_ENUM_EDGES = 26


@dataclass(frozen=True)
class Orientation:
    """One direction bit per edge of the canonical edge order."""

    edges: tuple[tuple[int, int], ...]
    bits: int

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Directed arcs (tail, head), in canonical edge order."""
        out = []
        for e, (u, v) in enumerate(self.edges):
            out.append((v, u) if self.bits >> e & 1 else (u, v))
        return tuple(out)

    def __lt__(self, other: "Orientation") -> bool:
        if self.edges != other.edges:
            raise ValueError("orientations of different graphs are not ordered")
        return self.bits < other.bits

    def to_json_dict(self) -> dict:
        return {"arcs": [[t, h] for t, h in self.arcs]}


def _iter_acyclic_bits(
    n: int,
    edges: Sequence[tuple[int, int]],
    forced: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[int, list[int]]]:
    """(direction bitmask, closure) of every acyclic orientation of the free
    edges consistent with the forced arcs, in lexicographic direction order.

    reach[v-1] is the transitively closed reachability mask of v (v
    included); an arc t -> h is admissible iff t is not already reachable
    from h.  Each leaf's closure is its own list, never changed afterwards.
    """
    reach = [1 << i for i in range(n)]
    for t, h in forced:
        ti, hi = t - 1, h - 1
        if reach[hi] >> ti & 1:
            return
        rh = reach[hi]
        tbit = 1 << ti
        for w in range(n):
            if reach[w] & tbit:
                reach[w] |= rh
    m = len(edges)
    stack = [(0, 0, reach)]
    while stack:
        e, bits, rc = stack.pop()
        if e == m:
            yield bits, rc
            continue
        u, v = edges[e]
        for dirbit in (1, 0):
            t, h = (v, u) if dirbit else (u, v)
            ti, hi = t - 1, h - 1
            if rc[hi] >> ti & 1:
                continue
            rh, tbit = rc[hi], 1 << ti
            nr = [r | rh if r & tbit else r for r in rc]
            stack.append((e + 1, bits | (dirbit << e), nr))


def _leaves(G: Graph) -> Iterator[tuple[int, list[int]]]:
    """(direction bits, closure) of every acyclic orientation of G, at most
    MAX_ENUM_EDGES edges."""
    if G.num_edges > MAX_ENUM_EDGES:
        raise TooManyEdges(f"enumeration capped at {MAX_ENUM_EDGES} edges, got {G.num_edges}")
    return _iter_acyclic_bits(G.n, G.edges)


def enumerate_acyclic(G: Graph) -> Iterator[Orientation]:
    """Stream every acyclic orientation of G exactly once, deterministically."""
    edges = G.edges
    for bits, _ in _leaves(G):
        yield Orientation(edges, bits)


def _closure_sinks(reach: Sequence[int]) -> int:
    """Sinks of an acyclic orientation from its closure: v reaches only v."""
    out = 0
    for v, r in enumerate(reach):
        if r == 1 << v:
            out |= r
    return out


def _closure_sources(reach: Sequence[int], full: int) -> int:
    """Sources of an acyclic orientation from its closure: no other vertex
    reaches them."""
    inner = 0
    for v, r in enumerate(reach):
        inner |= r & ~(1 << v)
    return full & ~inner


def _closure_components(reach: Sequence[int], full: int) -> tuple[int, ...]:
    """Ordered source components (as source_components) from the closure:
    the least vertex left and what it reaches among the vertices left."""
    comps = []
    left = full
    while left:
        comp = reach[(left & -left).bit_length() - 1] & left
        comps.append(comp)
        left ^= comp
    return tuple(comps)


@graph_cached
def acyclic_orientation_list(G: Graph) -> tuple[Orientation, ...]:
    return tuple(enumerate_acyclic(G))


def _out_masks(G: Graph, o: Orientation) -> list[int]:
    out = [0] * G.n
    for t, h in o.arcs:
        out[t - 1] |= 1 << (h - 1)
    return out


def sources(G: Graph, o: Orientation) -> int:
    """Bitmask of vertices with no incoming arc (isolated vertices count)."""
    in_mask = 0
    for _, h in o.arcs:
        in_mask |= 1 << (h - 1)
    return G.full_mask & ~in_mask


def sinks(G: Graph, o: Orientation) -> int:
    """Bitmask of vertices with no outgoing arc."""
    out_mask = 0
    for t, _ in o.arcs:
        out_mask |= 1 << (t - 1)
    return G.full_mask & ~out_mask


def is_acyclic(G: Graph, o: Orientation) -> bool:
    out = _out_masks(G, o)
    indeg = [0] * G.n
    for _, h in o.arcs:
        indeg[h - 1] += 1
    queue = [v for v in range(G.n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in iter_vertices(out[v]):
            indeg[w - 1] -= 1
            if indeg[w - 1] == 0:
                queue.append(w - 1)
    return seen == G.n


def source_components(G: Graph, o: Orientation) -> tuple[int, ...]:
    """Ordered source components of an acyclic orientation.

    Component k is the set of vertices reachable from the smallest vertex
    not covered by components 1..k-1, minus those earlier components.  The
    result is an ordered partition of the vertex set; each component's
    minimum is the unique source of the restricted orientation.
    """
    if not is_acyclic(G, o):
        raise CyclicOrientation("source components need an acyclic orientation")
    out = _out_masks(G, o)
    comps = []
    used = 0
    while used != G.full_mask:
        comp = reachable(out, vset_min(G.full_mask & ~used)) & ~used
        comps.append(comp)
        used |= comp
    return tuple(comps)


def lambda_partition(components: Sequence[int]) -> tuple[int, ...]:
    """Component sizes sorted weakly decreasing."""
    return tuple(sorted((c.bit_count() for c in components), reverse=True))


def assemble_orientation(
    G: Graph, blocks: Sequence[tuple[int, Orientation]]
) -> Orientation:
    """Rebuild a full orientation from ordered (vertex mask, orientation of
    the induced subgraph) blocks: edges inside a block keep the block's
    direction, edges between blocks point from the later block to the
    earlier one.
    """
    cover = 0
    block_index = {}
    for k, (mask, _) in enumerate(blocks):
        if mask & cover:
            raise VertexOutOfRange("blocks overlap")
        cover |= mask
        for v in iter_vertices(mask):
            block_index[v] = k
    if cover != G.full_mask:
        raise VertexOutOfRange("blocks do not cover the vertex set")
    edge_pos = {edge: e for e, edge in enumerate(G.edges)}
    bits = 0
    for mask, sub in blocks:
        _, labels = induced_subgraph(G, mask)
        for t, h in sub.arcs:
            ot, oh = labels[t - 1], labels[h - 1]
            u, v = (ot, oh) if ot < oh else (oh, ot)
            if (ot, oh) != (u, v):
                bits |= 1 << edge_pos[(u, v)]
    for u, v in G.edges:
        ku, kv = block_index[u], block_index[v]
        if ku == kv:
            continue
        # tail is the endpoint in the later block
        tail, head = (u, v) if ku > kv else (v, u)
        if tail > head:
            bits |= 1 << edge_pos[(head, tail)]
    return Orientation(G.edges, bits)


# ---------------------------------------------------------------------------
# subset tables


@graph_cached
def _heap_table(G: Graph, pyramids: bool) -> list[int]:
    """a (pyramids false) or b (pyramids true) over every mask V, read off
    the heap series of G[S] for each S.

    Series.  With F_S(z) = I_S(-z), I_S the independence polynomial of
    G[S], 1 / F_S(z) = sum_k h_k(S) z^k counts the heaps of k pieces over
    G[S], and z d/dz (-log F_S(z)) = sum_k p_k(S) z^k its pyramids, the
    heaps with one minimal piece (Viennot, Heaps of pieces I, 1986).
    Moebius over S, sum over S subset of V of (-1)^|V-S|, leaves c_k(V):
    the heaps or pyramids of k pieces that use every vertex of V.  At k =
    |V| each vertex is one piece, so these are the acyclic orientations of
    G[V], minimal pieces being sources, and for pyramids those with a
    unique source: |V| b[V] of them, as each vertex of a connected G[V] is
    the unique source equally often (Greene-Zaslavsky) and a disconnected
    one has none.  So a[V] and |V| b[V] are c_|V|(V).

    Digits.  Each series is one integer division (Kronecker substitution;
    Bjorklund, Husfeldt, Kaski, Koivisto, Fourier meets Moebius, 2007).
    Let B = 2^w, R_S = B^n F_S(1/B) and N_S = -B^n (z F_S')(1/B); then
    B^2n / R_S = sum_k h_k B^(n-k) and N_S B^n / R_S = sum_k p_k B^(n-k).
    A heap is a class of words, so 0 <= p_k <= h_k <= n^k (n >= 1; n = 0
    takes the width of n = 1): the series converge, R_S > 0, and the terms
    with k > n sum to at most sum_{j>=1} n^(n+j) B^-j = n^(n+1) / (B - n),
    below 1 since w is the bit length of n^(n+1) + n.  So each floor is
    exactly sum_{k<=n} h_k B^(n-k) or sum_{k<=n} p_k B^(n-k).  The Moebius
    pass is linear, so it leaves sum_{k<=n} c_k(V) B^(n-k), and 0 <= c_k(V)
    <= h_k(V) <= n^n < B: no digit borrows from another, and c_|V|(V) is
    the digit at B^(n-|V|).

    One division per distinct F_S, and the quotients overwrite the list of
    independence polynomials, so one 2^n list of packed ints is alive.
    """
    n = G.n
    f = independence_polynomials(G)
    bits, m = n + 1, max(n, 1)
    w = (m ** (m + 1) + m).bit_length()
    digit, high = (1 << bits) - 1, n * w  # B^n = 1 << high

    def divide(packed: int) -> int:
        r = d = 0  # R_S and N_S
        for k in range(n + 1):
            c = (packed >> bits * k & digit) << w * (n - k)
            r += -c if k & 1 else c
            d += k * c if k & 1 else -k * c
        return (d << high if pyramids else 1 << 2 * high) // r

    f[:] = map({packed: divide(packed) for packed in set(f)}.__getitem__, f)
    moebius(f)
    slot = (1 << w) - 1
    f[:] = [x >> w * (n - V.bit_count()) & slot for V, x in enumerate(f)]
    if pyramids:  # |V| b[V] to b[V]; the empty set has no pyramid
        f[1:] = [c // V.bit_count() for V, c in enumerate(f[1:], 1)]
    return f


def _charged_copy(G: Graph, pyramids: bool, budget: Budget) -> list[int]:
    charge("orientation table entries", table_entries(G.n), budget.memo_entries)
    return list(_heap_table(G, pyramids))


def acyclic_count_table(G: Graph, budget: Budget = DEFAULT_BUDGET) -> list[int]:
    """a[V] = number of acyclic orientations of G[V], for every mask V: the
    squarefree coefficients of the heap series.  Its 2^n entries are
    charged to budget.memo_entries first.  Memoized on G; each call returns
    a fresh list."""
    return _charged_copy(G, False, budget)


def unique_source_min_table(G: Graph, budget: Budget = DEFAULT_BUDGET) -> list[int]:
    """b[V] = acyclic orientations of G[V] whose unique source is min(V),
    the squarefree pyramid counts divided by |V|; b of the empty set is 0.
    Charged and memoized as acyclic_count_table."""
    return _charged_copy(G, True, budget)


def count_bipolar(G: Graph, u: int, v: int) -> int:
    """Acyclic orientations with unique source u and unique sink v; u, v
    must be adjacent."""
    if not G.has_edge(u, v):
        raise NotAdjacent(f"vertices {u} and {v} are not adjacent")
    want_src = 1 << (u - 1)
    want_snk = 1 << (v - 1)
    count = 0
    for o in acyclic_orientation_list(G):
        if sources(G, o) == want_src and sinks(G, o) == want_snk:
            count += 1
    return count


# ---------------------------------------------------------------------------
# enumerated statistics of induced subgraphs (independent oracle paths)


def subgraph_acyclic_count(G: Graph, mask: int) -> int:
    """Acyclic orientation count of G[mask] by direct enumeration: the total
    of its partition tally, so G[mask] is walked once for both.  Past
    MAX_ENUM_EDGES edges, where the tally is refused, it counts the walk's
    leaves itself."""
    if G.num_edges > MAX_ENUM_EDGES:
        H, _ = induced_subgraph(G, mask)
        if H.num_edges > MAX_ENUM_EDGES:
            return sum(1 for _ in _iter_acyclic_bits(H.n, H.edges))
    return sum(count for _, count in subgraph_lambda_tally(G, mask))


@graph_cached
def _component_table(G: Graph, i: int | None) -> tuple[int, ...]:
    """For every mask S, the enumerated acyclic orientations of G[S] (i
    None) or those with i source components.  Only a connected G[S] is
    walked: a disconnected one takes its lowest component's entry times
    the rest's, as orientations multiply and source components add over
    components.  Histograms by component count are packed at x = 2^(m+1)
    (no count exceeds 2^m) and cut after x^i."""
    width = G.num_edges + 1
    if i is None:
        connected, cut, shift = partial(subgraph_acyclic_count, G), -1, 0
    else:
        def connected(S: int) -> int:
            return sum(c << width * k for k, c in subgraph_component_histogram(G, S) if k <= i)

        cut, shift = (1 << width * (min(i, G.n) + 1)) - 1, width * i
    table = [1] * table_entries(G.n)
    for S in range(1, len(table)):
        low = reachable([a & S for a in G.adj], vset_min(S))
        table[S] = table[low] * table[S ^ low] & cut if low != S else connected(S)
    return tuple(h >> shift for h in table)


def subgraph_acyclic_table(G: Graph, budget: Budget = DEFAULT_BUDGET) -> tuple[int, ...]:
    """subgraph_acyclic_count of every mask, the enumerated twin of
    acyclic_count_table.  Kept on the graph; every call charges its 2^n
    entries to budget.memo_entries first."""
    charge("enumerated subgraph table entries", table_entries(G.n), budget.memo_entries)
    return _component_table(G, None)


def subgraph_component_table(G: Graph, i: int, budget: Budget = DEFAULT_BUDGET) -> tuple[int, ...]:
    """The enumerated acyclic orientations of every G[S] with i source
    components, kept and charged as subgraph_acyclic_table."""
    charge("enumerated subgraph table entries", table_entries(G.n), budget.memo_entries)
    return _component_table(G, i)


def subgraph_unique_source_count(G: Graph, mask: int, source: int) -> int:
    """Enumerated acyclic orientations of G[mask] with unique source `source`."""
    return dict(subgraph_source_mask_tally(G, mask)).get(1 << (source - 1), 0)


def subgraph_unique_source_min_count(G: Graph, mask: int) -> int:
    """Enumerated count with the unique source at min(mask); 0 for the empty set."""
    if mask == 0:
        return 0
    return subgraph_unique_source_count(G, mask, vset_min(mask))


def subgraph_component_histogram(G: Graph, mask: int) -> tuple[tuple[int, int], ...]:
    """Histogram (component count -> orientations) of G[mask], folded from
    the partition tally; the empty graph contributes one orientation with
    zero components."""
    tally: Counter[int] = Counter()
    for lam, count in subgraph_lambda_tally(G, mask):
        tally[len(lam)] += count
    return tuple(sorted(tally.items()))


def subgraph_source_mask_tally(G: Graph, mask: int) -> tuple[tuple[int, int], ...]:
    """Histogram (source bitmask -> orientations) of G[mask], with source
    masks translated back to the labels of G."""
    if mask == 0:
        return ((0, 1),)
    H, labels = induced_subgraph(G, mask)
    full = H.full_mask
    tally = Counter(_closure_sources(reach, full) for _, reach in _leaves(H))
    relabeled = {}
    for smask, count in tally.items():
        relabeled[sum(1 << (labels[v - 1] - 1) for v in iter_vertices(smask))] = count
    return tuple(sorted(relabeled.items()))


@graph_cached
def subgraph_lambda_tally(G: Graph, mask: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Histogram (component size partition -> orientations) of G[mask]."""
    if mask == 0:
        return (((), 1),)
    H, _ = induced_subgraph(G, mask)
    tally: Counter[tuple[int, ...]] = Counter()
    for _, reach in _leaves(H):  # lambda_partition of _closure_components, inline
        sizes, left = [], H.full_mask
        while left:
            comp = reach[(left & -left).bit_length() - 1] & left
            sizes.append(comp.bit_count())
            left ^= comp
        sizes.sort(reverse=True)
        tally[tuple(sizes)] += 1
    return tuple(sorted(tally.items()))


@graph_cached
def sink_rooted_histogram(G: Graph) -> tuple[tuple[tuple[int, int], int], ...]:
    """Histogram ((source component count, top) -> orientations) over the
    acyclic orientations of G whose unique sink is vertex 1.

    top is the number of trailing ones of L, the mask of the components'
    least vertices.  Vertices 1..d lie in distinct components exactly when
    each leads its own, that is when top >= d, so one walk per graph
    serves every d and every count."""
    full = G.full_mask
    tally: Counter[tuple[int, int]] = Counter()
    for _, reach in _leaves(G):
        if _closure_sinks(reach) != 1:  # vertex 1 alone
            continue
        comps = _closure_components(reach, full)
        L = 0
        for comp in comps:
            L |= comp & -comp
        tally[len(comps), (~L & (L + 1)).bit_length() - 1] += 1
    return tuple(sorted(tally.items()))


def source_component_histogram(G: Graph) -> dict[int, int]:
    """Component-count histogram over all acyclic orientations of G."""
    return dict(subgraph_component_histogram(G, G.full_mask))


def lambda_histogram(G: Graph) -> dict[tuple[int, ...], int]:
    """Partition histogram over all acyclic orientations of G."""
    return dict(subgraph_lambda_tally(G, G.full_mask))


def check_tables_against_enumeration(G: Graph) -> None:
    """Cross-check a[V] and b[V] against direct enumeration on every subset.

    Intended for n <= 7; raises InternalInvariantViolation on mismatch.
    """
    a = acyclic_count_table(G)
    b = unique_source_min_table(G)
    for mask in range(1 << G.n):
        ea = subgraph_acyclic_count(G, mask)
        eb = subgraph_unique_source_min_count(G, mask)
        if a[mask] != ea:
            raise InternalInvariantViolation(
                f"a[{vset_tuple(mask)}] = {a[mask]} but enumeration found {ea}"
            )
        if b[mask] != eb:
            raise InternalInvariantViolation(
                f"b[{vset_tuple(mask)}] = {b[mask]} but enumeration found {eb}"
            )
