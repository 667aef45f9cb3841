"""Counting interpretations of chromatic polynomials at negative arguments.

Every check_* function computes one side by explicit counting (the ranked
subset product of the a/b tables, or enumeration grouped by coloring) and
the other side from a polynomial, then reports both numbers.  Nothing is
asserted here; callers inspect the report.  The tuple counts build only
the tables they read: a for free blocks, b for min-sourced ones.

Counting conventions.  An ordered tuple of blocks (V_1, gamma_1), ...,
(V_k, gamma_k) always means: the V's are pairwise disjoint and cover the
vertex set, gamma_t is an acyclic orientation of G[V_t].  "Min-sourced"
blocks must be nonempty with gamma_t's unique source at min(V_t); "free"
blocks may be empty; "bare" blocks carry no orientation at all.
"""
from __future__ import annotations

from itertools import product

from .chromatic import (
    bivariate_polynomial,
    chi_hat,
    chromatic_polynomial,
    enumerate_colorings,
)
from .config import DEFAULT_BUDGET, Budget
from .errors import (
    BadLabeling,
    Disconnected,
    NotAClique,
    ResourceBudgetExceeded,
    TooManyEdges,
    TooManyVertices,
    VertexOutOfRange,
)
from .graphs import (
    Graph,
    check_ascending_labels,
    induced_subgraph,
    is_clique,
    is_connected,
    vset,
)
from .orientations import (
    AcyclicCounts,
    acyclic_count_table,
    enumerate_acyclic,
    is_descent_free,
    sink_rooted_histogram,
    sources,
    subgraph_component_histogram,
    unique_source_min_table,
)
from .reports import ReciprocityReport
from .subsets import ranked_entry, ranked_product

# the largest n whose tuple counts (i + j <= 5, seeded G(n, 1/2)) finish
# within 10 s at the default budget; the bivariate polynomial stops at 16
DP_MAX_VERTICES = 18
BIVARIATE_MAX_VERTICES = 16
NAIVE_MAX_VERTICES = 5


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


# ---------------------------------------------------------------------------
# ordered block tuples versus derivatives of the chromatic polynomial


def check_derivative_reciprocity(
    G: Graph, i: int, j: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Ordered tuples of i min-sourced blocks followed by j free blocks,
    versus (-1)^(n-i) times the i-th derivative of chi at -j.

    For i >= 1 the report carries strata: tuple counts by |V_1|.
    """
    if i < 0 or j < 0:
        raise VertexOutOfRange("i and j must be nonnegative")
    n = G.n
    if n > DP_MAX_VERTICES:
        raise TooManyVertices(f"tuple DP capped at n={DP_MAX_VERTICES}, got {n}")
    a = acyclic_count_table(G, budget) if j else None
    full = G.full_mask
    strata = None
    if i == 0:
        count = ranked_entry([(a, j)], n)
    else:
        b = unique_source_min_table(G, budget)
        rest = ranked_product([(b, i - 1), (a, j)], n)
        strata = {}
        count = 0
        for V1 in range(1 << n):
            bv = b[V1]
            if not bv:
                continue
            r = rest[full ^ V1]
            if not r:
                continue
            s = V1.bit_count()
            strata[s] = strata.get(s, 0) + bv * r
            count += bv * r
    chi = chromatic_polynomial(G, budget=budget)
    poly_side = _sign(n - i) * chi.derivative(i).evaluate(-j)
    return ReciprocityReport(
        identity="chromatic_derivative",
        params={"i": i, "j": j},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
        strata=strata,
    )


def count_block_tuples_naive(G: Graph, i: int, j: int, d: int = 0) -> int:
    """Fully materialized tuple count for small graphs (n <= 5).

    Blocks 1..d are min-sourced and pinned (block t must contain vertex t);
    the next i blocks are min-sourced; the last j blocks are free.  Every
    admissible tuple of oriented blocks is generated and counted one by one.
    """
    n = G.n
    if n > NAIVE_MAX_VERTICES:
        raise TooManyVertices(f"naive tuple count capped at n={NAIVE_MAX_VERTICES}")
    total_blocks = d + i + j
    if total_blocks == 0:
        return 1 if n == 0 else 0
    count = 0
    for assignment in product(range(total_blocks), repeat=n):
        masks = [0] * total_blocks
        for v, blk in enumerate(assignment, start=1):
            masks[blk] |= 1 << (v - 1)
        if any(not masks[t] >> (t) & 1 for t in range(d)):
            continue
        if any(masks[t] == 0 for t in range(d + i)):
            continue
        options = []
        for t, mask in enumerate(masks):
            H, _ = induced_subgraph(G, mask)
            if t < d + i:
                want = 1  # min of the block is vertex 1 after relabeling
                opts = [o for o in enumerate_acyclic(H) if sources(H, o) == want]
            else:
                opts = list(enumerate_acyclic(H))
            options.append(opts)
        for _combo in product(*options):
            count += 1
    return count


# ---------------------------------------------------------------------------
# descent-free pairs versus chi at -j


def check_stanley_reciprocity(
    G: Graph, j: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Pairs (acyclic orientation, coloring into 1..j with no descent),
    versus (-1)^n chi(-j).

    Pairs are counted grouped by the coloring: for fixed colors the
    compatible orientations factor into independent acyclic orientations
    of the color classes, each class counted by direct enumeration.
    """
    if G.num_edges > 20:
        raise TooManyEdges("descent-free pair count capped at 20 edges")
    if j < 0:
        raise VertexOutOfRange("j must be nonnegative")
    if j > 5:
        raise ResourceBudgetExceeded("direct pair enumeration capped at j <= 5")
    acyclic = AcyclicCounts(G)
    count = 0
    for classes in enumerate_colorings(G, j, 0, budget=budget):
        prod = 1
        for mask in classes:
            prod *= acyclic[mask]
        count += prod
    chi = chromatic_polynomial(G, budget=budget)
    poly_side = _sign(G.n) * chi.evaluate(-j)
    return ReciprocityReport(
        identity="stanley",
        params={"j": j},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


def count_descent_free_pairs_naive(G: Graph, j: int) -> int:
    """Literal double loop over orientations and colorings (tiny graphs)."""
    if G.n > NAIVE_MAX_VERTICES:
        raise TooManyVertices(f"naive pair count capped at n={NAIVE_MAX_VERTICES}")
    count = 0
    for o in enumerate_acyclic(G):
        for f in product(range(1, j + 1), repeat=G.n):
            if is_descent_free(G, o, f):
                count += 1
    return count


# ---------------------------------------------------------------------------
# source components versus chromatic coefficients


def check_greene_zaslavsky(
    G: Graph, i: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Acyclic orientations with exactly i source components, versus
    (-1)^(n-i) times the coefficient of q^i in chi."""
    hist = dict(subgraph_component_histogram(G, G.full_mask))
    count = hist.get(i, 0)
    chi = chromatic_polynomial(G, budget=budget)
    poly_side = _sign(G.n - i) * chi.coefficient(i)
    return ReciprocityReport(
        identity="greene_zaslavsky",
        params={"i": i},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


def check_shifted_reciprocity(
    G: Graph, i: int, j: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Pairs (gamma, coloring into 1..j+1 with no descent) whose restriction
    of gamma to the lowest color class has exactly i source components,
    versus (-1)^(n-i) [q^i] chi(q - j)."""
    if G.num_edges > 16:
        raise TooManyEdges("shifted pair count capped at 16 edges")
    if i < 0 or j < 0:
        raise VertexOutOfRange("i and j must be nonnegative")
    acyclic = AcyclicCounts(G)
    count = 0
    with_i: dict[int, int] = {}  # lowest class mask -> orientations with i components
    for classes in enumerate_colorings(G, j + 1, 0, budget=budget):
        low = classes[0]
        prod = with_i.get(low)
        if prod is None:
            prod = with_i[low] = dict(subgraph_component_histogram(G, low)).get(i, 0)
        if prod:
            for mask in classes[1:]:
                prod *= acyclic[mask]
            count += prod
    chi = chromatic_polynomial(G, budget=budget)
    poly_side = _sign(G.n - i) * chi.shift(-j).coefficient(i)
    return ReciprocityReport(
        identity="shifted_chromatic",
        params={"i": i, "j": j},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


# ---------------------------------------------------------------------------
# clique quotients


def check_clique_quotient_reciprocity(
    G: Graph, d: int, i: int, j: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Ordered tuples of d pinned min-sourced blocks (block t contains
    vertex t), then i min-sourced blocks, then j free blocks, versus
    (-1)^(n-d-i) times the i-th derivative of chi-hat_d at -j."""
    n = G.n
    if n > DP_MAX_VERTICES:
        raise TooManyVertices(f"clique quotient DP capped at n={DP_MAX_VERTICES}, got {n}")
    if not is_clique(G, vset(range(1, d + 1))):
        raise NotAClique(f"vertices 1..{d} are not pairwise adjacent")
    if i < 0 or j < 0 or d < 0:
        raise VertexOutOfRange("d, i, j must be nonnegative")
    a = acyclic_count_table(G, budget) if j else None
    b = unique_source_min_table(G, budget) if d or i else None
    pinned = [
        ([b[V] if V >> (t - 1) & 1 else 0 for V in range(1 << n)], 1)
        for t in range(1, d + 1)
    ]
    count = ranked_entry(pinned + [(b, i), (a, j)], n)
    quotient = chi_hat(G, d, budget=budget)
    poly_side = _sign(n - d - i) * quotient.derivative(i).evaluate(-j)
    return ReciprocityReport(
        identity="clique_quotient",
        params={"d": d, "i": i, "j": j},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


def check_sink_rooted(
    G: Graph, d: int, i: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Acyclic orientations with vertex 1 the unique sink, exactly d+i
    source components, and vertices 1..d in pairwise distinct components,
    versus (-1)^(n-d-i) [q^i] chi-hat_d(q+1).

    Needs a connected graph whose labeling is ascending (every vertex
    k > 1 has a smaller-labeled neighbor) and 1..d pairwise adjacent.
    """
    if not is_connected(G):
        raise Disconnected("sink-rooted count needs a connected graph")
    if not check_ascending_labels(G):
        raise BadLabeling("labels must satisfy the ascending-adjacency condition")
    if not is_clique(G, vset(range(1, d + 1))):
        raise NotAClique(f"vertices 1..{d} are not pairwise adjacent")
    if d < 1:
        raise VertexOutOfRange("d must be at least 1")
    n = G.n
    count = dict(sink_rooted_histogram(G, d)).get(d + i, 0)
    quotient = chi_hat(G, d, budget=budget)
    poly_side = _sign(n - d - i) * quotient.shift(1).coefficient(i)
    return ReciprocityReport(
        identity="sink_rooted",
        params={"d": d, "i": i},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


# ---------------------------------------------------------------------------
# two-variable version


def check_bivariate_reciprocity(
    G: Graph, j: int, k: int, budget: Budget = DEFAULT_BUDGET
) -> ReciprocityReport:
    """Ordered tuples of j free oriented blocks followed by k bare blocks,
    versus (-1)^n chi(-j, -k) of the two-variable coloring polynomial."""
    n = G.n
    if n > BIVARIATE_MAX_VERTICES:
        raise TooManyVertices(f"bivariate DP capped at n={BIVARIATE_MAX_VERTICES}, got {n}")
    if j < 0 or k < 0:
        raise VertexOutOfRange("j and k must be nonnegative")
    a = acyclic_count_table(G, budget) if j else None
    free = ranked_product([(a, j)], n)  # k bare blocks cover the rest in k^|rest| ways
    count = sum(c * k ** (n - T.bit_count()) for T, c in enumerate(free) if c)
    poly = bivariate_polynomial(G, budget=budget)
    poly_side = _sign(n) * poly.evaluate(-j, -k)
    return ReciprocityReport(
        identity="bivariate",
        params={"j": j, "k": k},
        count=count,
        poly_side=poly_side,
        equal=count == poly_side,
    )


def count_bivariate_tuples_naive(G: Graph, j: int, k: int) -> int:
    """Materialized tuple count for the two-variable identity (n <= 5)."""
    n = G.n
    if n > NAIVE_MAX_VERTICES:
        raise TooManyVertices(f"naive tuple count capped at n={NAIVE_MAX_VERTICES}")
    total = j + k
    if total == 0:
        return 1 if n == 0 else 0
    count = 0
    for assignment in product(range(total), repeat=n):
        masks = [0] * total
        for v, blk in enumerate(assignment, start=1):
            masks[blk] |= 1 << (v - 1)
        options = []
        for t in range(j):
            H, _ = induced_subgraph(G, masks[t])
            options.append(list(enumerate_acyclic(H)))
        for _combo in product(*options):
            count += 1
    return count
