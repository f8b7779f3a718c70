"""Random graph processes and exact likelihoods, on a coin-flip budget.

The binomial random graph G(n, 1/2) spends one fair coin per vertex pair,
C(n,2) bits in total.  The vertex-addition process spends far less: vertex t
arrives, an in-degree k is drawn from a distribution on {0..t-1}, and a
uniform k-subset of the earlier vertices becomes its neighbourhood.  With
the binomial in-degree Bi(t-1, p) the process reproduces G(n, p) exactly;
with the uniform in-degree it is a different distribution whose likelihood
of hitting a given graph shape is computed here in exact rational
arithmetic.

Likelihood is taken up to isomorphism: likelihood_exact(G) is the
probability that the uniform vertex-addition process on |V(G)| vertices
produces a graph isomorphic to G, i.e. the sum over all distinct labelled
copies H of G of

    prod_{t=2..n}  (1/t) * C(t-1, indeg_H(t))^(-1)

where indeg_H(t) counts neighbours of t smaller than t.  That sum is the
definition, not the computation: the process treats every labelling alike,
so it is a Markov chain on isomorphism classes, and `graphs._class_law`
pushes the exact law at n-1 through every attach set to get the law at n.
Lower and upper bounds come from the automorphism count: the number of
labelled copies is n!/|Aut(G)|, each copy's probability is at most 1/n! and
at least 1/(n! * prod_i C(i-1, floor((i-1)/2))).

randomness_cost_a(n) is the running bit cost of driving the uniform process
with a stream of fair coins: at step t, drawing the in-degree costs
floor(log2(t-1)) + 1 bits and drawing the subset costs b(t) bits where
b(t) = floor(log2(C(t-1, ...) - 1)) + 1 with the middle binomial
coefficient, even and odd steps differing in which one.  It grows as
Theta(n^2), the same order as the dyad budget C(n,2).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, comb, isfinite
from typing import NamedTuple

from .graphs import (
    Graph,
    automorphism_count,
    canonical_form,
    complete_bipartite,
    is_isomorphic,
    _class_law,
    _columns,
    _copy_table,
    _labeled_copy_masks,
    _Value,
    _check_edge_cap,
    _check_limit,
    _json_text,
    _vertices,
)

# ---------------------------------------------------------------------------
# in-degree distributions
# ---------------------------------------------------------------------------


class Uniform(_Value):
    """In-degree of vertex t uniform on {0, ..., t-1}."""


class Binomial(_Value):
    """In-degree of vertex t distributed Bi(t-1, p)."""

    p: Fraction | float

    def __init__(self, p: Fraction | float) -> None:
        _check_probability(p)
        object.__setattr__(self, "p", p)


def _check_probability(p) -> None:
    """Refuse a coin probability outside [0, 1], NaN included, before any draw."""
    if (isinstance(p, float) and not isfinite(p)) or not 0 <= Fraction(p) <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")


def _coin_threshold(p) -> float:
    """A float T with random() < T exactly when random() < p, so a coin
    costs a float comparison, not a Fraction one: random() is k / 2**53 for
    an integer k, k < p * 2**53 iff k < ceil(p * 2**53), a float-exact int."""
    return ceil(Fraction(p) * 2**53) / 2**53


def _draw_in_degree(dist, rng: random.Random, t: int) -> int:
    if isinstance(dist, Uniform):
        return rng.randrange(t)
    if isinstance(dist, Binomial):
        threshold = _coin_threshold(dist.p)
        return sum(rng.random() < threshold for _ in range(t - 1))
    raise ValueError(f"unknown in-degree distribution: {dist!r}")


# ---------------------------------------------------------------------------
# samplers (deterministic under a mandatory seed)
# ---------------------------------------------------------------------------

def sample_gnp(n: int, p, seed: int) -> Graph:
    """One draw of G(n, p): an independent biased coin per vertex pair."""
    _check_probability(p)
    _check_edge_cap(comb(max(n, 0), 2), f"a {n}-vertex sample")
    threshold = _coin_threshold(p)
    rng = random.Random(seed)
    edges = frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < threshold
    )
    return Graph(n, edges)


def _sample_va_edges(n: int, dist, rng: random.Random) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    for t in range(2, n + 1):
        k = _draw_in_degree(dist, rng, t)
        if k:
            for i in rng.sample(range(1, t), k):
                edges.append((i, t))
    return edges


def sample_vertex_addition(n: int, dist, seed: int) -> Graph:
    """One draw of the vertex-addition process: start from a single vertex,
    then each arriving vertex picks an in-degree from `dist` and a uniform
    subset of earlier vertices of that size."""
    if n < 1:
        raise ValueError("process needs at least one vertex")
    _check_edge_cap(comb(max(n, 0), 2), f"a {n}-vertex sample")
    rng = random.Random(seed)
    return Graph(n, frozenset(_sample_va_edges(n, dist, rng)))


# ---------------------------------------------------------------------------
# exact likelihood under the uniform vertex-addition process
# ---------------------------------------------------------------------------

def distinct_labeled_copies(g: Graph) -> list[int]:
    """Edge masks of all distinct labelled graphs isomorphic to g, ascending,
    in the colex encoding of `graphs` (dyad (i, j), i < j, at bit
    C(j-1, 2) + i-1); the count equals n!/|Aut(g)|.  The definition that
    likelihood_exact is tested against, bounded with the class law."""
    _check_limit("class_law_n", g.n, "labelled-copy enumeration supported for n <= {limit}")
    levels = _copy_table(g)
    return sorted(levels[-1] if levels is not None else _labeled_copy_masks(g))


def likelihood_exact(g: Graph) -> Fraction:
    """Probability the uniform vertex-addition process on n = |V(g)| vertices
    produces a graph isomorphic to g."""
    n = g.n
    if n == 0:
        raise ValueError("likelihood needs at least one vertex")
    _check_limit("class_law_n", n, "exact likelihood supported for n <= {limit}")
    return _class_law(n)[canonical_form(g)][1]


class McEstimate(NamedTuple):
    estimate: float
    stderr: float
    hits: int
    samples: int
    seed: int

    @property
    def one_sided_bound(self) -> float | None:
        """The exact one-sided 95% Clopper-Pearson bound when every draw
        agrees, where stderr reads 0: the upper bound 1 - 0.05^(1/samples)
        at 0 hits, the lower bound 0.05^(1/samples) when every draw hits;
        None otherwise."""
        if self.hits == 0:
            return 1.0 - 0.05 ** (1 / self.samples)
        if self.hits == self.samples:
            return 0.05 ** (1 / self.samples)
        return None


# Monte-Carlo draws go straight into edge masks, vertex t's picks into its
# block of back-edge bits.  They copy CPython 3.11's Random._randbelow(w),
# which is getrandbits(w.bit_length()) redrawn while >= w, and the pool branch
# that random.sample takes for a population of at most 21, so a seed gives the
# same draws from the same stream as the samplers that call the stdlib.

def _va_masks(n: int, samples: int, rng: random.Random):
    """Yield `samples` draws of `_sample_va_edges(n, Uniform(), rng)` as edge
    masks: vertex t takes k = rng.randrange(t) earlier neighbours, picked as
    rng.sample(range(1, t), k) picks them."""
    getrandbits = rng.getrandbits
    widths = [w.bit_length() for w in range(n + 1)]
    steps = [(t, widths[t], bits) for t, bits in _columns(n)]
    for _ in range(samples):
        mask = 0
        for t, w, bits in steps:
            k = getrandbits(w)
            while k >= t:
                k = getrandbits(w)
            if k:
                pool = bits[:]
                size = t - 1
                for _ in range(k):
                    w = widths[size]
                    j = getrandbits(w)
                    while j >= size:
                        j = getrandbits(w)
                    mask |= pool[j]
                    size -= 1
                    pool[j] = pool[size]
        yield mask


def _ua_masks(n: int, samples: int, rng: random.Random):
    """Yield `samples` uniform-attachment trees as edge masks: the parent of
    vertex t is rng.randrange(1, t), as in `trees.sample_ua_parents`."""
    getrandbits = rng.getrandbits
    steps = [(t - 1, (t - 1).bit_length(), bits) for t, bits in _columns(n)]
    for _ in range(samples):
        mask = 0
        for size, w, bits in steps:
            j = getrandbits(w)
            while j >= size:
                j = getrandbits(w)
            mask |= bits[j]
        yield mask


def _count_copies(g: Graph, masks) -> int:
    """How many of the drawn edge masks are copies of g: the one Monte-Carlo
    hit loop, shared by likelihood_mc and trees.tree_positivity_check.  When
    g has a cached copy table, `graphs._copy_table`, a hit is membership in
    its top level.  Otherwise the edge count and degree sequence of the mask
    reject most draws before a Graph is decoded for is_isomorphic.  Callers
    check their size bounds before the first draw."""
    if (levels := _copy_table(g)) is not None:
        return sum(map(levels[-1].__contains__, masks))
    n = g.n
    dyads = {bit.bit_length() - 1: (v, t) for t, bits in _columns(n) for v, bit in enumerate(bits, 1)}
    stars = [sum(1 << k for k, dyad in dyads.items() if v in dyad) for v in range(1, n + 1)]
    target_m = g.edge_count
    target_deg = g.degree_sequence()
    hits = 0
    for mask in masks:
        if mask.bit_count() != target_m:
            continue
        if tuple(sorted(((mask & star).bit_count() for star in stars), reverse=True)) != target_deg:
            continue
        if is_isomorphic(Graph(n, frozenset(dyads[k] for k in _vertices(mask))), g):
            hits += 1
    return hits


def likelihood_mc(g: Graph, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of likelihood_exact(g): run the uniform process
    `samples` times, each draw straight into an edge mask (`_va_masks`, the
    draws of `sample_vertex_addition`), and count copies of g with the
    shared hit loop `_count_copies`.  The size bound is checked before any
    draw."""
    if samples < 1:
        raise ValueError("need at least one sample")
    n = g.n
    _check_limit("exact_n", n, "Monte-Carlo likelihood supported for 1 <= n <= {limit}, got {n}",
                 low=1)
    hits = _count_copies(g, _va_masks(n, samples, random.Random(seed)))
    p_hat = hits / samples
    stderr = (p_hat * (1.0 - p_hat) / samples) ** 0.5
    return McEstimate(p_hat, stderr, hits, samples, seed)


def likelihood_bounds(g: Graph) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds from the automorphism count alone."""
    n = g.n
    if n == 0:
        raise ValueError("likelihood needs at least one vertex")
    aut = automorphism_count(g)
    denom = aut
    for i in range(1, n + 1):
        denom *= comb(i - 1, (i - 1) // 2)
    return Fraction(1, denom), Fraction(1, aut)


# ---------------------------------------------------------------------------
# per-class tables and extremes
# ---------------------------------------------------------------------------


class ClassLikelihood(NamedTuple):
    graph: Graph
    certificate: str
    edge_count: int
    aut: int
    likelihood: Fraction
    lower: Fraction
    upper: Fraction


class LikelihoodTable(NamedTuple):
    n: int
    rows: tuple[ClassLikelihood, ...]  # ascending by certificate

    @property
    def argmin(self) -> ClassLikelihood:
        return min(self.rows, key=lambda r: (r.likelihood, r.certificate))

    @property
    def argmax(self) -> ClassLikelihood:
        best = max(row.likelihood for row in self.rows)
        return min((row for row in self.rows if row.likelihood == best), key=lambda r: r.certificate)

    @property
    def argmin_classes(self) -> tuple[ClassLikelihood, ...]:
        """Every class attaining the minimum (the distribution is invariant
        under graph complement, so exact ties are common)."""
        least = min(row.likelihood for row in self.rows)
        return tuple(row for row in self.rows if row.likelihood == least)

    def argmin_is_balanced_bipartite(self) -> bool:
        """Whether the minimum is attained by the complete bipartite graph
        with part sizes floor(n/2) and ceil(n/2)."""
        balanced = complete_bipartite(self.n // 2, self.n - self.n // 2)
        return any(is_isomorphic(row.graph, balanced) for row in self.argmin_classes)

    def total(self) -> Fraction:
        return sum((row.likelihood for row in self.rows), Fraction(0))

    def to_csv(self) -> str:
        lines = ["certificate,n,edges,aut,likelihood,likelihood_float,lower,upper"]
        for row in self.rows:
            lines.append(
                f"{row.certificate},{self.n},{row.edge_count},{row.aut},"
                f"{row.likelihood},{float(row.likelihood)!r},{row.lower},{row.upper}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "classes": [
                {
                    "certificate": row.certificate,
                    "edges": row.edge_count,
                    "aut": row.aut,
                    "likelihood": str(row.likelihood),
                    "likelihood_float": float(row.likelihood),
                    "lower": str(row.lower),
                    "upper": str(row.upper),
                }
                for row in self.rows
            ],
            "argmin": self.argmin.certificate,
            "argmin_ties": [row.certificate for row in self.argmin_classes],
            "argmax": self.argmax.certificate,
            "argmin_balanced_bipartite": self.argmin_is_balanced_bipartite(),
        }
        return _json_text(obj)


def likelihood_extremes(n: int) -> LikelihoodTable:
    """Exact likelihood of every isomorphism class on n vertices, n up to
    LIMITS["class_law_n"], one row per class, sorted by canonical certificate."""
    _check_limit("class_law_n", n, "extremes computed for 1 <= n <= {limit}", low=1)
    rows = []
    for cert, (g, likelihood) in _class_law(n).items():
        lo, up = likelihood_bounds(g)
        rows.append(
            ClassLikelihood(
                graph=g,
                certificate=cert.decode(),
                edge_count=g.edge_count,
                aut=up.denominator,  # the upper bound is exactly 1/|Aut(g)|
                likelihood=likelihood,
                lower=lo,
                upper=up,
            )
        )
    rows.sort(key=lambda r: r.certificate)
    return LikelihoodTable(n, tuple(rows))


# ---------------------------------------------------------------------------
# bit costs
# ---------------------------------------------------------------------------

def dyad_bits(n: int) -> int:
    """Fair coins spent by G(n, 1/2): one per vertex pair."""
    return comb(n, 2)


def subset_bits_even(n: int) -> int:
    """b_e(n) = floor(log2(C(n-1, n/2) - 1)) + 1 for even n >= 4."""
    if n < 3 or n % 2:
        raise ValueError(f"even-step subset cost needs even n >= 4, got {n}")
    return (comb(n - 1, n // 2) - 1).bit_length()


def subset_bits_odd(n: int) -> int:
    """b_o(n) = floor(log2(C(n-1, (n-1)/2) - 1)) + 1 for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"odd-step subset cost needs odd n >= 3, got {n}")
    return (comb(n - 1, (n - 1) // 2) - 1).bit_length()


def randomness_cost_a(n: int) -> int:
    """Coin budget a(n) of the uniform vertex-addition process, by the
    recurrence a(1)=0, a(2)=1,
    a(n) = a(n-1) + b(n) + floor(log2(n-1)) + 1."""
    _check_limit("cost_a_n", n, "bit cost a(n) supported for 1 <= n <= {limit}, got {n}", low=1)
    # Step i = m + 1 draws its subset from c = C(m, floor(m/2)) choices at
    # either parity, as C(m, (m+1)/2) = C(m, (m-1)/2) for odd m.  c doubles
    # when m is even and gains the factor m / ((m+1)/2) when m is odd.
    a, c = min(n - 1, 1), 1
    for m in range(2, n):
        c = 2 * c if m % 2 == 0 else c * m // ((m + 1) // 2)
        a += (c - 1).bit_length() + m.bit_length()
    return a


def randomness_cost_a_closed(n: int) -> int:
    """Closed-form summation for a(n), n >= 4; agrees with the recurrence.
    (Both subset-cost sums run up to n inclusive: stopping them at n-1 loses
    the final step's subset draw and already misses a(4).)"""
    _check_limit("cost_a_n", n, "closed form of a(n) supported for 4 <= n <= {limit}, got {n}", low=4)
    # The b_e(i) - 1 and b_o(i) - 1 terms read C(i-1, h), h = floor(i/2): the
    # one of i - 2 times 2(2h-1)/h, from C(1, 1) at i = 2 and C(0, 0) at i = 1.
    central, s_subsets = [1, 1], 0
    for i in range(3, n + 1):
        central[i % 2] = central[i % 2] * (4 * (i // 2) - 2) // (i // 2)
        s_subsets += (central[i % 2] - 1).bit_length() - 1
    s_log = sum((i - 1).bit_length() - 1 for i in range(2, n + 1))
    return s_subsets + s_log + 2 * n - 3


__all__ = [
    "Uniform",
    "Binomial",
    "sample_gnp",
    "sample_vertex_addition",
    "distinct_labeled_copies",
    "likelihood_exact",
    "likelihood_mc",
    "likelihood_bounds",
    "ClassLikelihood",
    "LikelihoodTable",
    "likelihood_extremes",
    "McEstimate",
    "dyad_bits",
    "subset_bits_even",
    "subset_bits_odd",
    "randomness_cost_a",
    "randomness_cost_a_closed",
]
