"""Counting interpretations of chromatic polynomials at negative arguments.

Every check_* function validates its arguments, counts one side (the
ranked subset product of the a/b tables, or enumeration grouped by
coloring), takes the other from a polynomial and hands both to _report.
Nothing is asserted here; callers inspect the report.  The tuple counts
build only the tables they read: a for free blocks, b for min-sourced ones.
The coefficients of chi(q - j) and chi-hat_d(q + 1) are Taylor
coefficients P^(i)(x) / i!, which _taylor reads without expanding P(q + x).

Counting conventions.  An ordered tuple of blocks (V_1, gamma_1), ...,
(V_k, gamma_k) always means: the V's are pairwise disjoint and cover the
vertex set, gamma_t is an acyclic orientation of G[V_t].  "Min-sourced"
blocks must be nonempty with gamma_t's unique source at min(V_t); "free"
blocks may be empty; "bare" blocks carry no orientation at all.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import product

from .chromatic import (
    BIVARIATE_MAX_VERTICES,
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
from .polynomials import Poly
from .reports import ReciprocityReport
from .subsets import ranked_entry, ranked_product

# the largest n whose tuple counts (i + j <= 5, seeded G(n, 1/2)) finish
# within 10 s at the default budget; bivariate checks stop at chromatic's cap
DP_MAX_VERTICES = 18
NAIVE_MAX_VERTICES = 5


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _taylor(P: Poly, i: int, x: int) -> int:
    """[q^i] P(q + x) = sum over k >= i of C(k, i) p_k x^(k - i); 0 for i < 0
    and above the degree, as Poly.coefficient."""
    if i < 0:
        return 0
    return sum(math.comb(k, i) * c * x ** (k - i) for k, c in enumerate(P.coeffs[i:], i))


def _report(identity: str, params: dict, count: int, poly_side: int,
            strata: dict | None = None) -> ReciprocityReport:
    return ReciprocityReport(identity, params, count, poly_side, count == poly_side, strata)


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
    if i == 0:
        count, strata = ranked_entry([(a, j)], n), None
    else:
        b = unique_source_min_table(G, budget)
        rest = ranked_product([(b, i - 1), (a, j)], n)
        full, by_size = G.full_mask, Counter()
        for V1, bv in enumerate(b):
            if bv:
                by_size[V1.bit_count()] += bv * rest[full ^ V1]
        strata = {s: c for s, c in by_size.items() if c}
        count = sum(strata.values())
    chi = chromatic_polynomial(G, budget=budget)
    return _report("chromatic_derivative", {"i": i, "j": j}, count,
                   _sign(n - i) * chi.derivative(i).evaluate(-j), strata)


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
    colorings = enumerate_colorings(G, j, 0, budget=budget)
    count = sum(math.prod(acyclic[mask] for mask in classes) for classes in colorings)
    chi = chromatic_polynomial(G, budget=budget)
    return _report("stanley", {"j": j}, count, _sign(G.n) * chi.evaluate(-j))


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
    count = dict(subgraph_component_histogram(G, G.full_mask)).get(i, 0)
    chi = chromatic_polynomial(G, budget=budget)
    return _report("greene_zaslavsky", {"i": i}, count, _sign(G.n - i) * chi.coefficient(i))


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
    return _report("shifted_chromatic", {"i": i, "j": j}, count, _sign(G.n - i) * _taylor(chi, i, -j))


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
    return _report("clique_quotient", {"d": d, "i": i, "j": j}, count,
                   _sign(n - d - i) * quotient.derivative(i).evaluate(-j))


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
    # vertices 1..d lie in distinct components exactly when top >= d
    count = sum(c for (k, top), c in sink_rooted_histogram(G) if k == d + i and top >= d)
    quotient = chi_hat(G, d, budget=budget)
    return _report("sink_rooted", {"d": d, "i": i}, count, _sign(G.n - d - i) * _taylor(quotient, i, 1))


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
    return _report("bivariate", {"j": j, "k": k}, count, _sign(n) * poly.evaluate(-j, -k))


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
