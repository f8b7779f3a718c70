"""Tests for random graph processes, likelihood, and randomness costs."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import ceil, comb, factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge import graphs, randomness
from graphforge.graphs import (
    LIMITS,
    Graph,
    _copy_levels,
    automorphism_count,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graph_classes,
    is_isomorphic,
    path_graph,
)
from graphforge.randomness import (
    Binomial,
    Uniform,
    distinct_labeled_copies,
    dyad_bits,
    likelihood_bounds,
    likelihood_exact,
    likelihood_extremes,
    likelihood_mc,
    randomness_cost_a,
    randomness_cost_a_closed,
    sample_gnp,
    sample_vertex_addition,
    subset_bits_even,
    subset_bits_odd,
)

# Coin biases for the float-threshold samplers: exact rationals, floats, and
# the two degenerate coins.
COIN_PS = [0, 1, Fraction(1, 3), Fraction(1, 20), Fraction(2, 7), 0.1, 0.5]

# Frozen sequence of per-vertex random-bit costs for the uniform process.
A_VALUES = [0, 1, 4, 8, 14, 21, 29, 38, 49, 60]

# Frozen extremal table values (exact rationals, uniform vertex addition).
# The minimum is complement-invariant, so it is attained in complement pairs;
# at n = 5 the unique minimiser is the self-complementary 5-cycle.
EXTREMES = {
    4: {"min": Fraction(1, 36), "ties": 2, "max": Fraction(13, 72)},
    5: {"min": Fraction(1, 270), "ties": 1, "max": Fraction(307, 4320)},
    6: {"min": Fraction(23, 259200), "ties": 2, "max": Fraction(1927, 86400)},
}


# The three likeliest classes on 7 vertices under the uniform process; the
# first two, complements of each other, are asymmetric.
LIKELIEST_7 = [
    Graph.from_pairs(7, [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 7), (6, 7)]),
    Graph.from_pairs(7, [(1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (3, 5), (3, 7), (4, 6), (4, 7),
                         (5, 6), (5, 7), (6, 7)]),
    Graph.from_pairs(7, [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 7), (5, 6), (5, 7), (6, 7)]),
]


def complement(g: Graph) -> Graph:
    edges = frozenset(
        (i, j)
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
        if not g.has_edge(i, j)
    )
    return Graph(g.n, edges)


def test_sample_gnp_is_seed_deterministic() -> None:
    a = sample_gnp(10, Fraction(1, 2), seed=5)
    b = sample_gnp(10, Fraction(1, 2), seed=5)
    c = sample_gnp(10, Fraction(1, 2), seed=6)
    assert a == b
    assert a != c
    assert sample_gnp(10, 0, seed=1) == empty_graph(10)
    assert sample_gnp(10, 1, seed=1) == complete_graph(10)


def test_sample_vertex_addition_shapes() -> None:
    g = sample_vertex_addition(12, Uniform(), seed=3)
    assert g.n == 12
    assert g == sample_vertex_addition(12, Uniform(), seed=3)
    h = sample_vertex_addition(12, Binomial(Fraction(1, 2)), seed=3)
    assert h.n == 12


def _gnp_by_fraction(n: int, p, seed: int) -> Graph:
    """Reference G(n, p): the coin compares random() with p itself."""
    rng = random.Random(seed)
    edges = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p)
    return Graph(n, frozenset(edges))


def _va_binomial_by_fraction(n: int, p, seed: int) -> Graph:
    """Reference vertex addition with Bi(t-1, p) in-degrees, coins against p."""
    rng = random.Random(seed)
    edges = []
    for t in range(2, n + 1):
        k = sum(rng.random() < p for _ in range(t - 1))
        edges.extend((i, t) for i in rng.sample(range(1, t), k))
    return Graph(n, frozenset(edges))


def test_float_threshold_coins_match_fraction_comparison() -> None:
    for p in COIN_PS:
        # random() returns k / 2**53; the threshold must split the k exactly
        # where p does, including the values on either side of p.
        edge = ceil(Fraction(p) * 2**53)
        for k in {max(edge - 1, 0), edge, min(edge + 1, 2**53 - 1)}:
            r = k / 2**53
            assert (r < randomness._coin_threshold(p)) == (r < p), (p, k)
        for seed in range(4):
            assert sample_gnp(30, p, seed) == _gnp_by_fraction(30, p, seed), (p, seed)
            want = _va_binomial_by_fraction(25, p, seed)
            assert sample_vertex_addition(25, Binomial(p), seed) == want, (p, seed)


def test_samplers_reject_sizes_over_the_edge_cap() -> None:
    # C(1448, 2) <= LIMITS["build_edges"] < C(1449, 2): the same cap as a build
    assert comb(1448, 2) <= LIMITS["build_edges"] < comb(1449, 2)
    with pytest.raises(ValueError, match="may build 1049076 edges"):
        sample_gnp(1449, 0, seed=1)
    with pytest.raises(ValueError, match="may build 1049076 edges"):
        sample_vertex_addition(1449, Uniform(), seed=1)
    assert sample_gnp(1448, 0, seed=1) == empty_graph(1448)
    # a negative n, however large, still fails on its sign, not on the cap
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -2000"):
        sample_gnp(-2000, 0, seed=1)
    with pytest.raises(ValueError, match="process needs at least one vertex"):
        sample_vertex_addition(-2000, Uniform(), seed=1)


def test_samplers_refuse_a_probability_outside_the_unit_interval(monkeypatch) -> None:
    """One check, before any draw: G(n, p) once returned K3 at p = 2 and E3
    at p = -1, and the binomial process K4 at p = 2; inf and NaN once raised
    OverflowError or "cannot convert NaN to integer ratio" instead."""
    def refuse(seed):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(randomness, "random", SimpleNamespace(Random=refuse))
    non_finite = ((float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"))
    for p, shown in ((2, "2"), (-1, "-1"), (Fraction(3, 2), "3/2"), (1.5, "1.5"), (-0.25, "-0.25"), *non_finite):
        for call in (
            lambda: sample_gnp(3, p, 1),
            lambda: sample_vertex_addition(4, Binomial(p), 1),
            lambda: sample_vertex_addition(1, Binomial(p), 1),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"probability must lie in [0, 1], got {shown}"
    monkeypatch.undo()
    assert sample_gnp(3, 1, 1) == complete_graph(3) and sample_gnp(3, 0, 1) == empty_graph(3)
    assert sample_vertex_addition(4, Binomial(1), 1) == complete_graph(4)


def test_distinct_labeled_copies_counts() -> None:
    assert len(distinct_labeled_copies(complete_graph(4))) == 1
    assert len(distinct_labeled_copies(empty_graph(4))) == 1
    assert len(distinct_labeled_copies(path_graph(3))) == 3
    assert len(distinct_labeled_copies(cycle_graph(5))) == 12
    assert len(distinct_labeled_copies(complete_bipartite(2, 3))) == 10
    # count always equals n! / |Aut|
    for g in (path_graph(4), cycle_graph(4), complete_bipartite(2, 2)):
        copies = len(distinct_labeled_copies(g))
        assert copies * len(distinct_labeled_copies(g)) > 0
        assert factorial(g.n) % copies == 0


def test_labeled_copies_are_colex_masks() -> None:
    """For every class h on n <= 6 vertices, the labelled copies are the top
    level of h's induced-subgraph prefix table, hold h's own mask (dyad
    (i, j) at bit C(j-1, 2) + i-1), and number n!/|Aut(h)|."""
    for n in range(7):
        for h in enumerate_graph_classes(n):
            copies = set(distinct_labeled_copies(h))
            assert copies == _copy_levels(h)[n], canonical_form(h)
            assert sum(1 << (comb(j - 1, 2) + i - 1) for i, j in h.edges) in copies
            assert len(copies) == factorial(n) // automorphism_count(h)


def test_likelihood_complete_and_empty() -> None:
    for t in range(2, 7):
        assert likelihood_exact(complete_graph(t)) == Fraction(1, factorial(t))
        assert likelihood_exact(empty_graph(t)) == Fraction(1, factorial(t))


def test_likelihood_stars() -> None:
    for t in range(3, 7):
        want = Fraction(t, factorial(t) ** 2) * sum(factorial(i) for i in range(t))
        assert likelihood_exact(complete_bipartite(1, t - 1)) == want


def test_likelihood_small_values() -> None:
    assert likelihood_exact(path_graph(3)) == Fraction(1, 3)
    assert likelihood_exact(cycle_graph(5)) == Fraction(1, 270)
    assert likelihood_exact(complete_bipartite(2, 3)) == Fraction(23, 4320)


def _likelihood_by_copies(g: Graph) -> Fraction:
    """The definition: sum over the distinct labelled copies H of g of
    prod_t 1 / (t * C(t-1, indeg_H(t)))."""
    n = g.n
    dyads = [(i, j) for j in range(2, n + 1) for i in range(1, j)]  # in mask-bit order
    total = Fraction(0)
    for mask in distinct_labeled_copies(g):
        indeg = [0] * (n + 1)
        for k, (_, j) in enumerate(dyads):
            indeg[j] += (mask >> k) & 1
        pr = Fraction(1)
        for t in range(2, n + 1):
            pr /= t * comb(t - 1, indeg[t])
        total += pr
    return total


def test_likelihood_matches_labelled_copy_products() -> None:
    classes = [g for n in range(1, 7) for g in enumerate_graph_classes(n)]
    classes += enumerate_graph_classes(7)[::105]
    assert sum(g.n == 7 for g in classes) == 10
    for g in classes:
        assert likelihood_exact(g) == _likelihood_by_copies(g), canonical_form(g)


def test_likelihood_total_mass() -> None:
    for n in range(1, 6):
        total = sum(likelihood_exact(g) for g in enumerate_graph_classes(n))
        assert total == 1, n


def test_likelihood_is_complement_invariant() -> None:
    # the in-degree d and its complement (t-1)-d index equal binomials,
    # so every graph ties with its complement
    for g in enumerate_graph_classes(5):
        assert likelihood_exact(g) == likelihood_exact(complement(g))


def test_likelihood_bounds_bracket_exact_value() -> None:
    for n in range(2, 7):
        for g in enumerate_graph_classes(n):
            lower, upper = likelihood_bounds(g)
            value = likelihood_exact(g)
            assert lower <= value <= upper, canonical_form(g)


def test_likelihood_rejects_oversized_input() -> None:
    with pytest.raises(ValueError):
        likelihood_exact(empty_graph(8))


def test_likelihood_mc_matches_exact_on_triangle() -> None:
    est = likelihood_mc(complete_graph(3), samples=100_000, seed=11)
    assert est.samples == 100_000
    assert est.seed == 11
    assert abs(est.estimate - 1 / 6) <= 3 * est.stderr
    again = likelihood_mc(complete_graph(3), samples=100_000, seed=11)
    assert again.estimate == est.estimate


def test_likelihood_mc_one_sided_bound_when_every_draw_agrees() -> None:
    # no draw hits K3,3 (exact likelihood 23/259200), yet stderr reads 0
    none = likelihood_mc(complete_bipartite(3, 3), samples=200, seed=0)
    assert (none.hits, none.stderr) == (0, 0.0)
    assert none.one_sided_bound == pytest.approx(0.014867, abs=1e-6)
    assert none.one_sided_bound == 1 - 0.05 ** (1 / 200)
    assert none.one_sided_bound > float(likelihood_exact(complete_bipartite(3, 3)))
    # every draw on one vertex hits
    every = likelihood_mc(complete_graph(1), samples=50, seed=0)
    assert (every.hits, every.stderr) == (50, 0.0)
    assert every.one_sided_bound == 0.05 ** (1 / 50)
    # mixed draws leave the normal-approximation stderr in charge
    mixed = likelihood_mc(complete_graph(3), samples=1000, seed=0)
    assert 0 < mixed.hits < mixed.samples
    assert mixed.one_sided_bound is None


def test_likelihood_mc_rejects_sizes_outside_the_exact_range() -> None:
    # the 13-vertex target once failed only for seeds whose draws reached
    # the isomorphism test
    target = sample_vertex_addition(13, Uniform(), 5)
    for seed in (4, 5):
        with pytest.raises(ValueError):
            likelihood_mc(target, samples=10, seed=seed)
    with pytest.raises(ValueError):
        likelihood_mc(empty_graph(0), samples=10, seed=1)


def _va_hits_reference(g: Graph, samples: int, seed: int) -> int:
    """likelihood_mc's hit loop as it stood before it was shared with
    tree_positivity_check."""
    n = g.n
    rng = random.Random(seed)
    dist = Uniform()
    target_m = g.edge_count
    target_deg = g.degree_sequence()
    hits = 0
    for _ in range(samples):
        edges = randomness._sample_va_edges(n, dist, rng)
        if len(edges) != target_m:
            continue
        degs = [0] * (n + 1)
        for i, j in edges:
            degs[i] += 1
            degs[j] += 1
        if tuple(sorted(degs[1:], reverse=True)) != target_deg:
            continue
        if is_isomorphic(Graph(n, frozenset(edges)), g):
            hits += 1
    return hits


def test_likelihood_mc_matches_the_reference_hit_loop() -> None:
    targets = [
        complete_graph(3), path_graph(4), cycle_graph(5), path_graph(6), complete_bipartite(3, 3),
        cycle_graph(7), path_graph(7),  # the first size past the copy-table route
    ]
    for g in targets:
        for seed in range(10):
            assert likelihood_mc(g, samples=1000, seed=seed).hits == _va_hits_reference(
                g, 1000, seed
            ), (g, seed)
    # 7, 8 and 12 vertices take the is_isomorphic route; a target equal to
    # its seed's first draw makes each size score hits
    for n in (7, 8, 12):
        for seed in range(5):
            g = sample_vertex_addition(n, Uniform(), seed)
            hits = likelihood_mc(g, samples=300, seed=seed).hits
            assert hits >= 1
            assert hits == _va_hits_reference(g, 300, seed), (n, seed)
    for g in (cycle_graph(8), path_graph(12)):
        for seed in range(3):
            assert likelihood_mc(g, samples=300, seed=seed).hits == _va_hits_reference(g, 300, seed)


def test_mask_draws_copy_the_stdlib_draws() -> None:
    """`_va_masks` and `_ua_masks` inline CPython 3.11's Random._randbelow
    and the pool branch of random.sample.  A Python whose algorithms differ
    fails here instead of silently changing every Monte-Carlo count: each
    draw's mask must be the one that rng.randrange(t) and
    rng.sample(range(1, t), k) (or rng.randrange(1, t)) on a twin generator
    give, every (t, k) with t <= n must occur at every seed, and both
    generators must end in the same state.  The mask holds the set of picks;
    the shared end state pins how many draws of which width made them.
    n = 13 lies past the default exact_n: the draws read no bound."""
    for n in (LIMITS["exact_n"], 13):
        pos = {(i, j): comb(j - 1, 2) + i - 1 for j in range(2, n + 1) for i in range(1, j)}
        samples = 400
        for seed in range(6):
            rng, twin = random.Random(seed), random.Random(seed)
            seen = set()
            want = []
            for _ in range(samples):
                mask = 0
                for t in range(2, n + 1):
                    k = twin.randrange(t)
                    seen.add((t, k))
                    for v in twin.sample(range(1, t), k):
                        mask |= 1 << pos[v, t]
                want.append(mask)
            assert list(randomness._va_masks(n, samples, rng)) == want, (n, seed)
            assert rng.getstate() == twin.getstate(), (n, seed)
            assert seen == {(t, k) for t in range(2, n + 1) for k in range(t)}, (n, seed)
            rng, twin = random.Random(seed), random.Random(seed)
            seen = set()
            want = []
            for _ in range(samples):
                mask = 0
                for t in range(2, n + 1):
                    v = twin.randrange(1, t)
                    seen.add((t, v))
                    mask |= 1 << pos[v, t]
                want.append(mask)
            assert list(randomness._ua_masks(n, samples, rng)) == want, (n, seed)
            assert rng.getstate() == twin.getstate(), (n, seed)
            assert seen == {(t, v) for t in range(2, n + 1) for v in range(1, t)}, (n, seed)


def test_monte_carlo_reads_exact_n_when_called(monkeypatch) -> None:
    monkeypatch.setitem(LIMITS, "exact_n", 13)
    g = path_graph(13)
    for seed in (1, 2):
        assert likelihood_mc(g, 200, seed).hits == _va_hits_reference(g, 200, seed)


def test_small_targets_build_no_graph_per_draw(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the copy-mask route decodes no draw")

    monkeypatch.setattr(randomness, "is_isomorphic", refuse)
    monkeypatch.setattr(randomness, "Graph", refuse)
    for g in (complete_graph(1), complete_graph(3), cycle_graph(6), path_graph(6)):
        assert likelihood_mc(g, samples=500, seed=3).hits == _va_hits_reference(g, 500, 3)


def test_seven_vertex_targets_take_the_decode_route(monkeypatch) -> None:
    """Past walk_k a draw is matched by edge count, degree sequence and then
    is_isomorphic, and no Monte-Carlo call builds a labelled-copy set."""
    def refuse(*args):
        raise AssertionError("a Monte-Carlo call built a copy set")

    decoded = []

    def counted(g: Graph, h: Graph) -> bool:
        decoded.append(g.n)
        return is_isomorphic(g, h)

    monkeypatch.setattr(graphs, "_labeled_copy_masks", refuse)
    monkeypatch.setattr(randomness, "is_isomorphic", counted)
    for g in (cycle_graph(7), path_graph(7), complete_bipartite(3, 4), *LIKELIEST_7):
        for seed in range(10):
            assert likelihood_mc(g, samples=500, seed=seed).hits == _va_hits_reference(g, 500, seed), (g, seed)
    assert set(decoded) == {7}
    # a target equal to its seed's first draw is decoded at least once
    for n in range(8, LIMITS["exact_n"] + 1):
        assert likelihood_mc(sample_vertex_addition(n, Uniform(), n), 100, n).hits >= 1
    assert set(decoded) == set(range(7, LIMITS["exact_n"] + 1))


def test_extremes_table_shape() -> None:
    table = likelihood_extremes(4)
    assert len(table.rows) == 11
    assert table.total() == 1
    certs = [row.certificate for row in table.rows]
    assert certs == sorted(certs)


def test_extremes_frozen_values() -> None:
    for n, want in EXTREMES.items():
        table = likelihood_extremes(n)
        ties = table.argmin_classes
        assert ties[0].likelihood == want["min"], n
        assert len(ties) == len(set(r.certificate for r in ties)) == want["ties"], n
        assert table.argmax.likelihood == want["max"], n


def test_extremes_argmin_identities() -> None:
    # n = 4: the balanced complete bipartite graph ties with two disjoint
    # edges (its complement)
    ties4 = likelihood_extremes(4).argmin_classes
    members4 = [row.graph for row in ties4]
    assert any(is_isomorphic(g, complete_bipartite(2, 2)) for g in members4)
    assert any(is_isomorphic(g, disjoint_union(complete_graph(2), complete_graph(2))) for g in members4)
    # n = 5: the self-complementary 5-cycle wins alone
    ties5 = likelihood_extremes(5).argmin_classes
    assert len(ties5) == 1
    assert is_isomorphic(ties5[0].graph, cycle_graph(5))
    # n = 6: balanced complete bipartite ties with two disjoint triangles
    ties6 = likelihood_extremes(6).argmin_classes
    members6 = [row.graph for row in ties6]
    assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in members6)
    assert any(is_isomorphic(g, disjoint_union(complete_graph(3), complete_graph(3))) for g in members6)


def test_extremes_balanced_bipartite_flag() -> None:
    assert likelihood_extremes(4).argmin_is_balanced_bipartite()
    assert not likelihood_extremes(5).argmin_is_balanced_bipartite()
    assert likelihood_extremes(6).argmin_is_balanced_bipartite()


def test_extremes_at_seven_vertices() -> None:
    """K_{3,4} and K_3 + K_4 share the least likelihood, each with 144
    automorphisms."""
    table = likelihood_extremes(7)
    assert len(table.rows) == 1044
    assert table.total() == 1
    ties = table.argmin_classes
    assert [row.certificate for row in ties] == ["7:000111001110111111000", "7:110000100000000111111"]
    assert all(row.likelihood == Fraction(319, 54432000) and row.aut == 144 for row in ties)
    assert is_isomorphic(ties[0].graph, complete_bipartite(3, 4))
    assert is_isomorphic(ties[1].graph, disjoint_union(complete_graph(3), complete_graph(4)))
    assert table.argmin_is_balanced_bipartite()


def test_extremes_serialization() -> None:
    table = likelihood_extremes(4)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "certificate,n,edges,aut,likelihood,likelihood_float,lower,upper"
    assert len(lines) == 12
    obj = json.loads(table.to_json())
    assert obj["n"] == 4
    assert len(obj["classes"]) == 11
    assert len(obj["argmin_ties"]) == 2
    assert obj["argmin_balanced_bipartite"] is True


def test_randomness_cost_values() -> None:
    assert [randomness_cost_a(n) for n in range(1, 11)] == A_VALUES
    for n in [*range(4, 2001), 65_536]:
        assert randomness_cost_a(n) == randomness_cost_a_closed(n), n


def test_randomness_cost_ratio_stays_near_dyad_count() -> None:
    for n in (16, 64, 256, 1024):
        ratio = randomness_cost_a(n) / dyad_bits(n)
        assert 0.5 <= ratio <= 4


def test_bit_helpers() -> None:
    assert dyad_bits(4) == 6
    assert dyad_bits(2) == 1
    # bits to index the largest binomial on i-1 earlier vertices
    assert subset_bits_even(4) == (comb(3, 2) - 1).bit_length()
    assert subset_bits_odd(5) == (comb(4, 2) - 1).bit_length()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_likelihood_complement_invariance_property(data) -> None:
    n = data.draw(st.integers(min_value=1, max_value=5))
    dyads = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = data.draw(st.sets(st.sampled_from(dyads)) if dyads else st.just(set()))
    g = Graph(n, frozenset(picked))
    assert likelihood_exact(g) == likelihood_exact(complement(g))


SAMPLE_SIZES = (*range(9), 21, 22, 30, 86, 200, 500)


def test_vertex_addition_draws_what_the_stdlib_calls_drew() -> None:
    """The in-place draws copy random.randrange and both branches of
    random.sample, so every seed gives the graph the stdlib calls gave, or
    the same refusal; the handed-over edge order gives the sorted edges
    (`test_edge_order_and_json_match_the_tuple_sort` checks the sort from
    scratch against sorted())."""
    import stdlib_samplers as oracle

    calls: list[tuple[int, int]] = []
    for n in SAMPLE_SIZES:
        for dist in (Uniform(), Binomial(Fraction(1, 20)), Binomial(0.5))[: 3 if n <= 30 else 2]:
            for seed in range(30):
                try:
                    want = oracle.sample_vertex_addition(n, dist, seed, calls)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{exc}$"):
                        sample_vertex_addition(n, dist, seed)
                    continue
                got = sample_vertex_addition(n, dist, seed)
                # want, a checked Graph, sorts its edges from scratch
                assert got == want and got.lex_edges == want.lex_edges, (n, dist, seed)
                assert graphs.to_json(got) == graphs.to_json(want)
    branches = {oracle.sample_branch(size, k) for size, k in calls}
    assert branches == {"pool", "set"}
