"""Tests for the immutable graph type and its structural machinery."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge.graphs import (
    LIMITS,
    Graph,
    add_vertex,
    automorphism_count,
    canonical_form,
    complete_bipartite,
    complete_graph,
    complete_split,
    connected_components,
    contains_induced,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graph_classes,
    from_json,
    induced_subgraph,
    is_isomorphic,
    is_linear_forest,
    is_threshold,
    is_threshold_by_forbidden,
    is_tree,
    join,
    linear_forest,
    path_graph,
    relabel,
    remove_last_vertex,
    to_bitstring,
    to_dot,
    to_json,
    to_json_obj,
    _copy_levels,
    _labeled_copy_masks,
)
from graphforge import graphs as graphs_module
from graphforge import randomness as randomness_module
from graphforge.machines import NO_MEMORY, interpret, parse_model, parse_rule
from graphforge.randomness import distinct_labeled_copies, likelihood_mc, sample_gnp
from graphforge.trees import sample_ua, tree_positivity_check, ua_likelihood_exact

# Isomorphism-class counts for simple graphs on n = 1..6 vertices.
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_graph_validates_edges() -> None:
    with pytest.raises(ValueError):
        Graph(2, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(1, 1)])
    g = Graph.from_pairs(3, [(3, 1)])
    assert g.sorted_edges() == [(1, 3)]


def test_basic_accessors() -> None:
    g = path_graph(4)
    assert g.edge_count == 3
    assert g.degree(1) == 1 and g.degree(2) == 2
    assert g.neighbors(2) == {1, 3}
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.degree_sequence() == (2, 2, 1, 1)


def test_constructors_edge_counts() -> None:
    assert empty_graph(5).edge_count == 0
    assert complete_graph(5).edge_count == 10
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    assert complete_bipartite(2, 3).edge_count == 6
    # complete side of size 2 joined to 3 isolated vertices
    assert complete_split(2, 3).edge_count == 1 + 6
    assert linear_forest([3, 2, 1]).edge_count == 3
    assert linear_forest([3, 2, 1]).n == 6


def test_join_and_disjoint_union() -> None:
    g = join(empty_graph(2), empty_graph(3))
    assert is_isomorphic(g, complete_bipartite(2, 3))
    h = disjoint_union(complete_graph(2), complete_graph(3))
    assert h.n == 5 and h.edge_count == 4
    assert join(complete_graph(2), empty_graph(3)) == complete_split(2, 3)


def test_induced_subgraph_and_relabel() -> None:
    g = cycle_graph(5)
    h = induced_subgraph(g, [1, 2, 3])
    assert h.sorted_edges() == [(1, 2), (2, 3)]
    perm = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert is_isomorphic(relabel(g, perm), g)
    with pytest.raises(ValueError):
        relabel(g, {1: 1, 2: 2, 3: 3, 4: 4, 5: 4})


def test_remove_last_vertex_inverts_add_vertex() -> None:
    for n in range(6):
        for g in enumerate_graph_classes(n):
            for attach in range(1 << n):
                grown = add_vertex(g, [v for v in range(1, n + 1) if attach >> (v - 1) & 1])
                assert remove_last_vertex(grown) == g
            if n:
                assert add_vertex(remove_last_vertex(g), g.neighbors(n)) == g
    with pytest.raises(ValueError) as exc:
        remove_last_vertex(empty_graph(0))
    assert str(exc.value) == "cannot remove a vertex from the empty graph"


def test_built_graphs_equal_their_checked_rebuilds() -> None:
    """The class law's first representatives and induced subgraphs are
    built without re-validation; each equals, and hashes like, its checked
    rebuild. induced_subgraph still checks the vertices it is given."""
    for n in range(8):
        for g in enumerate_graph_classes(n):
            rebuilt = Graph(g.n, g.edges)
            assert g == rebuilt and hash(g) == hash(rebuilt) and g.rows == rebuilt.rows
            if n > 6:
                continue
            for k in range(n + 1):
                for vs in combinations(range(1, n + 1), k):
                    h = induced_subgraph(g, vs)
                    assert h == Graph(h.n, h.edges) and hash(h) == hash(Graph(h.n, h.edges))
    for vertices, bad in (([1, 6], 6), ([0, 2], 0)):
        with pytest.raises(ValueError) as exc:
            induced_subgraph(cycle_graph(5), vertices)
        assert str(exc.value) == f"vertex {bad} outside 1..5"


def test_isomorphism_small_cases() -> None:
    assert is_isomorphic(path_graph(4), relabel(path_graph(4), {1: 4, 2: 3, 3: 2, 4: 1}))
    assert not is_isomorphic(path_graph(4), cycle_graph(4))
    assert not is_isomorphic(complete_bipartite(2, 2), disjoint_union(complete_graph(2), complete_graph(2)))
    # same degree sequence, different graphs
    assert not is_isomorphic(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))


def test_automorphism_counts() -> None:
    assert automorphism_count(complete_graph(3)) == 6
    assert automorphism_count(path_graph(3)) == 2
    assert automorphism_count(cycle_graph(6)) == 12
    assert automorphism_count(complete_bipartite(2, 2)) == 8
    assert automorphism_count(empty_graph(4)) == 24
    assert automorphism_count(complete_bipartite(3, 3)) == 72


def _automorphism_count_reference(g: Graph) -> int:
    """Count automorphisms by backtracking: assign vertices in order, each
    to an unused vertex of the same degree that keeps every adjacency to
    the vertices assigned so far, and count the complete assignments."""
    rows = g.rows
    image: dict[int, int] = {}

    def extend(v: int) -> int:
        if v > g.n:
            return 1
        found = 0
        for u in range(1, g.n + 1):
            if u in image.values() or rows[u].bit_count() != rows[v].bit_count():
                continue
            if all((rows[v] >> w & 1) == (rows[u] >> fw & 1) for w, fw in image.items()):
                image[v] = u
                found += extend(v + 1)
                del image[v]
        return found

    return extend(1)


def test_automorphism_count_matches_the_backtracking_reference() -> None:
    """Every class on up to 7 vertices, and 300 seeded graphs on 8 to 10."""
    graphs = [g for n in range(8) for g in enumerate_graph_classes(n)]
    rng = random.Random(17)
    graphs += [_mask_graph(n, rng.getrandbits(comb(n, 2))) for n in (8, 9, 10) for _ in range(100)]
    for g in graphs:
        assert automorphism_count(g) == _automorphism_count_reference(g), g


def _petersen() -> Graph:
    """The 2-subsets of 1..5, adjacent when disjoint."""
    pairs = list(combinations(range(1, 6), 2))
    return Graph.from_pairs(10, ((a + 1, b + 1) for a, b in combinations(range(10), 2)
                                 if not set(pairs[a]) & set(pairs[b])))


def test_automorphism_count_closed_forms_up_to_the_exact_bound() -> None:
    for n in range(1, 13):
        assert automorphism_count(complete_graph(n)) == factorial(n)
        assert automorphism_count(empty_graph(n)) == factorial(n)
        assert automorphism_count(path_graph(n)) == (2 if n > 1 else 1)
        if n >= 3:
            assert automorphism_count(cycle_graph(n)) == 2 * n
        for a in range(1, n // 2 + 1):
            want = factorial(a) * factorial(n - a) * (2 if 2 * a == n else 1)
            assert automorphism_count(complete_bipartite(a, n - a)) == want
    # vertex-transitive graphs, on which refinement alone splits nothing
    cube = Graph.from_pairs(8, ((u + 1, (u ^ b) + 1) for u in range(8) for b in (1, 2, 4)))
    cocktail_party = Graph.from_pairs(12, ((u, v) for u, v in combinations(range(1, 13), 2)
                                           if (u - 1) // 2 != (v - 1) // 2))
    assert automorphism_count(_petersen()) == 120
    assert automorphism_count(cube) == 48
    assert automorphism_count(cocktail_party) == 2**6 * factorial(6)


def test_canonical_form_shape() -> None:
    cert = canonical_form(cycle_graph(5))
    assert cert == b"5:0011101100"
    assert canonical_form(empty_graph(3)) == b"3:000"
    # empty and complete graphs go through the search like any other graph
    graphs_module._certify.cache_clear()
    for n in range(13):
        assert canonical_form(empty_graph(n)) == f"{n}:{'0' * comb(n, 2)}".encode()
        assert canonical_form(complete_graph(n)) == f"{n}:{'1' * comb(n, 2)}".encode()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data) -> None:
    n = data.draw(st.integers(min_value=1, max_value=6))
    dyads = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = data.draw(st.sets(st.sampled_from(dyads)) if dyads else st.just(set()))
    g = Graph(n, frozenset(picked))
    image = data.draw(st.permutations(list(range(1, n + 1))))
    perm = {v: image[v - 1] for v in range(1, n + 1)}
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_class_counts() -> None:
    for n, want in CLASS_COUNTS.items():
        classes = enumerate_graph_classes(n)
        assert len(classes) == want
        assert len({canonical_form(g) for g in classes}) == want


def test_class_enumeration_rejects_negative_sizes() -> None:
    with pytest.raises(ValueError):
        enumerate_graph_classes(-1)


@lru_cache(maxsize=None)
def _class_law_reference(n: int, tree: bool = False) -> dict:
    """The class law with every child built by add_vertex and certified by
    canonical_form, in the engine's order: parents in law order, attach
    masks ascending."""
    if n <= 1:
        g = empty_graph(n)
        return {canonical_form(g): (g, Fraction(1))}
    law: dict = {}
    masks = [1 << v for v in range(n - 1)] if tree else range(1 << (n - 1))
    for g, p in _class_law_reference(n - 1, tree).values():
        for attach_mask in masks:
            h = add_vertex(g, [v + 1 for v in range(n - 1) if attach_mask >> v & 1])
            key = canonical_form(h)
            rep, q = law.get(key, (h, 0))
            law[key] = (rep, q + p / (n - 1 if tree else n * comb(n - 1, attach_mask.bit_count())))
    return law


def test_class_law_matches_the_reference() -> None:
    """Same certificates, masses, first representatives and order; and
    the tree closed form gives every uniform-attachment class its mass."""
    for n in range(8):
        law = graphs_module._class_law(n)
        assert list(law.items()) == list(_class_law_reference(n).items()), n
    for n in range(1, 13):
        law = _class_law_reference(n, tree=True)
        for tree, p in law.values():
            assert ua_likelihood_exact(tree) == p, tree
    assert len(law) == 551


def test_class_law_leaves_the_certificate_cache_empty() -> None:
    graphs_module._certify.cache_clear()
    graphs_module._class_law.cache_clear()
    graphs_module._class_law(7)
    assert graphs_module._certify.cache_info().currsize == 0


def test_the_certificate_cache_is_bounded() -> None:
    """One more distinct graph than the cache holds evicts the oldest,
    which certifies to the same bytes when asked again."""
    certify = graphs_module._certify
    certify.cache_clear()
    limit = certify.cache_info().maxsize
    first = _mask_graph(6, 0)
    want = canonical_form(first)
    for mask in range(1, limit + 1):
        canonical_form(_mask_graph(6, mask))
    assert certify.cache_info().currsize == limit
    misses = certify.cache_info().misses
    assert canonical_form(first) == want
    assert certify.cache_info().misses == misses + 1
    assert certify.cache_info().currsize == limit


def test_contains_induced() -> None:
    assert contains_induced(cycle_graph(5), path_graph(4))
    assert not contains_induced(complete_graph(5), path_graph(3))
    assert contains_induced(path_graph(6), path_graph(5))
    assert not contains_induced(cycle_graph(4), cycle_graph(3))
    assert contains_induced(complete_bipartite(2, 2), cycle_graph(4))
    # an induced P_5 hides inside C_6
    assert contains_induced(cycle_graph(6), path_graph(5))


def test_contains_induced_matches_subset_certificates(monkeypatch) -> None:
    """Every class on at most 6 vertices against every pattern class on 1..6
    vertices. The copy-table cache holds all 208 patterns, so each table is
    built once."""
    builds = []

    def counted(h: Graph) -> set[int]:
        builds.append(h)
        return _labeled_copy_masks(h)

    _copy_levels.cache_clear()
    monkeypatch.setattr(graphs_module, "_labeled_copy_masks", counted)
    answers = []
    for g in (g for n in range(7) for g in enumerate_graph_classes(n)):
        for k in range(1, 7):
            subset_certs = {
                canonical_form(induced_subgraph(g, s))
                for s in combinations(range(1, g.n + 1), k)
            }
            for h in enumerate_graph_classes(k):
                answers.append(contains_induced(g, h))
                assert answers[-1] == (canonical_form(h) in subset_certs), (g, h)
    assert any(answers) and not all(answers)
    assert len(builds) == len(set(builds)) == 208


def _scan_reference(g: Graph, k: int, table) -> bool:
    """The full k-subset scan: True when some k-subset induces an edge mask
    (the subset's vertices as 1..k in order, dyad (a, b) at bit
    C(b-1, 2) + a-1) in table."""
    for subset in combinations(range(1, g.n + 1), k):
        m = 0
        for a in range(1, k):
            for b in range(a + 1, k + 1):
                if g.has_edge(subset[a - 1], subset[b - 1]):
                    m |= 1 << (comb(b - 1, 2) + a - 1)
        if m in table:
            return True
    return False


def _isomorphism_reference(g: Graph, h: Graph) -> bool:
    """Some k-subset of g induces a graph isomorphic to h."""
    return any(is_isomorphic(induced_subgraph(g, s), h) for s in combinations(range(1, g.n + 1), h.n))


def test_contains_induced_matches_references_on_random_hosts() -> None:
    """Labelled hosts on 7..12 vertices against the subset scan and the
    subset-isomorphism loop, on the forbidden shapes and random patterns."""
    rng = random.Random(10)
    two_k2 = disjoint_union(path_graph(2), path_graph(2))
    shapes = [path_graph(4), cycle_graph(4), two_k2, path_graph(5), cycle_graph(5), path_graph(6), cycle_graph(6)]
    answers = set()
    for n in range(7, 13):
        for _ in range(8):
            g = _mask_graph(n, rng.getrandbits(comb(n, 2)))
            patterns = [_mask_graph(k, rng.getrandbits(comb(k, 2))) for k in range(1, 7)]
            for h in shapes + patterns:
                got = contains_induced(g, h)
                assert got == _scan_reference(g, h.n, _labeled_copy_masks(h)), (g, h)
                if h.n >= 5:
                    assert got == _isomorphism_reference(g, h), (g, h)
                answers.add(got)
    assert answers == {True, False}
    # E_5 and E_6 have equal copy tables, {0}, at different sizes
    e6 = empty_graph(6)
    assert contains_induced(e6, empty_graph(5)) and contains_induced(e6, e6)
    one_edge = Graph(6, frozenset({(1, 2)}))
    assert contains_induced(one_edge, empty_graph(5)) and not contains_induced(one_edge, e6)


def test_copy_tables_are_built_once_per_pattern(monkeypatch) -> None:
    """The induced-subgraph walk, the Monte-Carlo hit loop and
    distinct_labeled_copies read one table per pattern; a relabelled
    pattern gets a table of its own with the same answers, and the cache
    keeps at most maxsize tables."""
    builds = []

    def counted(h: Graph) -> set[int]:
        builds.append(h)
        return _labeled_copy_masks(h)

    _copy_levels.cache_clear()
    monkeypatch.setattr(graphs_module, "_labeled_copy_masks", counted)
    spider = Graph(6, frozenset({(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)}))
    relabelled = relabel(spider, {v: 7 - v for v in range(1, 7)})
    host = add_vertex(spider, [3])

    def answers(h: Graph) -> tuple:
        return (
            contains_induced(host, h),
            [likelihood_mc(h, 300, seed).hits for seed in range(3)],
            tree_positivity_check(h, 300, 0),
            distinct_labeled_copies(h),
        )

    first = answers(spider)
    assert builds == [spider]
    assert answers(relabelled) == first and first[0] and first[2][0] > 0
    assert builds == [spider, relabelled]
    # E_5 and E_6 have equal copy sets, {0}, at different sizes
    path = path_graph(9)
    assert contains_induced(path, empty_graph(5)) and not contains_induced(path, empty_graph(6))
    assert builds[2:] == [empty_graph(5), empty_graph(6)]
    maxsize = _copy_levels.cache_info().maxsize
    for mask in range(maxsize + 4):
        distinct_labeled_copies(_mask_graph(5, mask))
    assert _copy_levels.cache_info().currsize == maxsize


def test_copy_sets_above_walk_k_are_built_per_call(monkeypatch) -> None:
    """Only distinct_labeled_copies builds a 7-vertex copy set, once per
    call, and keeps none: the hit loop matches 7-vertex draws by
    isomorphism, and the cached tables stay those of patterns with at most
    walk_k vertices."""
    builds = []

    def counted(h: Graph) -> set[int]:
        builds.append(h)
        return _labeled_copy_masks(h)

    for module in (graphs_module, randomness_module):
        monkeypatch.setattr(module, "_labeled_copy_masks", counted)
    _copy_levels.cache_clear()
    seven = add_vertex(path_graph(6), [2, 4])
    first = distinct_labeled_copies(seven)
    assert distinct_labeled_copies(seven) == first
    assert likelihood_mc(seven, 200, 3).hits == likelihood_mc(seven, 200, 3).hits
    assert builds == [seven] * 2 and _copy_levels.cache_info().currsize == 0
    assert len(first) == factorial(7) // automorphism_count(seven)
    distinct_labeled_copies(path_graph(6))
    distinct_labeled_copies(path_graph(6))
    assert builds[2:] == [path_graph(6)] and _copy_levels.cache_info().currsize == 1


def test_contains_induced_checks_the_isomorphism_bound() -> None:
    with pytest.raises(ValueError, match="isomorphism supported for n <= 12, got 13"):
        contains_induced(path_graph(14), path_graph(13))
    # no 13-subset has the edge count of E_13, which once returned False
    with pytest.raises(ValueError, match="isomorphism supported for n <= 12, got 13"):
        contains_induced(complete_graph(14), empty_graph(13))
    assert not contains_induced(path_graph(12), path_graph(13))


def test_threshold_recognition_agrees() -> None:
    yes = [empty_graph(4), complete_graph(4), complete_split(2, 3), Graph.from_pairs(4, [(1, 2), (1, 3), (1, 4)])]
    no = [path_graph(4), cycle_graph(4), disjoint_union(complete_graph(2), complete_graph(2))]
    for g in yes:
        assert is_threshold(g) and is_threshold_by_forbidden(g)
    for g in no:
        assert not is_threshold(g) and not is_threshold_by_forbidden(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_threshold_dual_route_agreement(data) -> None:
    n = data.draw(st.integers(min_value=1, max_value=6))
    dyads = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = data.draw(st.sets(st.sampled_from(dyads)) if dyads else st.just(set()))
    g = Graph(n, frozenset(picked))
    assert is_threshold(g) == is_threshold_by_forbidden(g)


def _threshold_build(bits: list[int]) -> Graph:
    """Add each vertex isolated (bit 0) or dominating (bit 1)."""
    g = empty_graph(0)
    for bit in bits:
        g = add_vertex(g, range(1, g.n + 1) if bit else ())
    return g


def test_threshold_dual_route_agreement_exhaustive_and_random() -> None:
    """Both routes agree on every labelled graph with n <= 5, every class
    with n <= 7, and seeded random hosts with n = 8..12, half of them
    threshold graphs with at most one edge flipped."""
    graphs = [_mask_graph(n, m) for n in range(6) for m in range(1 << comb(n, 2))]
    graphs += [g for n in range(8) for g in enumerate_graph_classes(n)]
    rng = random.Random(12)
    for i in range(300):
        n = 8 + i % 5
        if i % 2:
            g = _mask_graph(n, rng.getrandbits(comb(n, 2)))
        else:
            g = _threshold_build([rng.getrandbits(1) for _ in range(n)])
            flip = rng.sample(list(combinations(range(1, n + 1), 2)), rng.randrange(2))
            g = Graph(n, g.edges ^ frozenset(flip))
        graphs.append(g)
    answers = [is_threshold(g) for g in graphs]
    assert answers == [is_threshold_by_forbidden(g) for g in graphs]
    assert set(answers) == {True, False} and set(answers[-300:]) == {True, False}


def test_threshold_by_forbidden_matches_the_subset_scan() -> None:
    """The alternating-4-cycle test finds an induced P4, C4 or 2K2 exactly
    when the 4-subset scan does: on every labelled graph with n <= 6 and on
    3,000 seeded graphs with n = 7..12, half of them threshold graphs with
    at most two edges flipped."""
    shapes = (path_graph(4), cycle_graph(4), disjoint_union(path_graph(2), path_graph(2)))
    table = set().union(*map(_labeled_copy_masks, shapes))
    graphs = [_mask_graph(n, m) for n in range(7) for m in range(1 << comb(n, 2))]
    rng = random.Random(21)
    for i in range(3000):
        n = 7 + i % 6
        if i % 2:
            g = _mask_graph(n, rng.getrandbits(comb(n, 2)))
        else:
            g = _threshold_build([rng.getrandbits(1) for _ in range(n)])
            flip = rng.sample(list(combinations(range(1, n + 1), 2)), rng.randrange(3))
            g = Graph(n, g.edges ^ frozenset(flip))
        graphs.append(g)
    answers = [is_threshold_by_forbidden(g) for g in graphs]
    assert answers == [not _scan_reference(g, 4, table) for g in graphs]
    assert set(answers) == {True, False} and set(answers[-3000:]) == {True, False}


def test_connected_components() -> None:
    g = disjoint_union(path_graph(3), empty_graph(2))
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [1, 1, 3]
    assert connected_components(empty_graph(0)) == []


def test_tree_and_linear_forest_predicates() -> None:
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(disjoint_union(path_graph(2), path_graph(2)))
    assert is_linear_forest(disjoint_union(path_graph(3), path_graph(2)))
    assert not is_linear_forest(complete_bipartite(1, 3))
    assert not is_linear_forest(cycle_graph(3))
    assert is_linear_forest(empty_graph(4))


def test_json_round_trip() -> None:
    g = cycle_graph(5)
    assert from_json(to_json(g)) == g
    obj = json.loads(to_json(g))
    assert obj["n"] == 5 and len(obj["edges"]) == 5


def test_json_graph_objects_take_integers_only() -> None:
    """A JSON number that is not an integer, a bool or a string is refused,
    in n or in an edge endpoint, where int() used to round or parse it."""
    for text, bad in (
        ('{"n": 2.7, "edges": []}', "2.7"),
        ('{"n": 3.0, "edges": []}', "3.0"),
        ('{"n": true, "edges": []}', "True"),
        ('{"n": "3", "edges": []}', "'3'"),
        ('{"n": 2, "edges": [[1.9, 2]]}', "1.9"),
        ('{"n": 2, "edges": [[1, false]]}', "False"),
        ('{"n": 3, "edges": [[1, 2], ["2", 3]]}', "'2'"),
        ('{"n": Infinity, "edges": []}', "inf"),
    ):
        with pytest.raises(ValueError) as exc:
            from_json(text)
        assert str(exc.value) == f"malformed graph object: {bad} is not an integer", text
    assert from_json('{"n": 3, "edges": [[2, 1], [2, 3]]}') == path_graph(3)
    with pytest.raises(ValueError, match="^malformed graph object: 'edges'$"):
        from_json('{"n": 2}')


def test_graph_refuses_a_non_int_count_or_edges_that_are_not_a_frozenset() -> None:
    for n, edges, got in ((2.5, frozenset(), "2.5 and frozenset"), (True, frozenset(), "True and frozenset"),
                          (2, [(1, 2)], "2 and list"), (2, {(1, 2)}, "2 and set")):
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == f"need an int n and frozenset edges, got {got}"
    # types are checked before ranges, as the size gate does
    with pytest.raises(ValueError, match=r"^need an int n and frozenset edges, got -1\.5 and list$"):
        Graph(-1.5, [])
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) invalid for n=2$"):
        Graph(2, frozenset([(1, 3)]))


def test_graph_refuses_an_endpoint_that_is_not_an_int() -> None:
    """A float endpoint once built a graph whose JSON from_json refuses; a
    str one escaped as TypeError."""
    for edge in ((1.5, 2), (1, 2.0), (True, 2), ("1", 2), (Fraction(1), 2)):
        with pytest.raises(ValueError) as exc:
            Graph(3, frozenset({edge}))
        assert str(exc.value) == f"edge ({edge[0]}, {edge[1]}) invalid for n=3"


def _edge_order_cases():
    """E_0, E_n, K_n, every labelled graph on n <= 4 vertices, 200 seeded
    G(n, p) with n <= 300 and p <= 1/4, and an 8,000-vertex fading(2) forest."""
    yield empty_graph(0)
    yield empty_graph(50)
    yield complete_graph(60)
    for n in range(5):
        dyads = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(dyads)):
            yield Graph(n, frozenset(d for k, d in enumerate(dyads) if mask >> k & 1))
    rng = random.Random(18)
    for seed in range(200):
        yield sample_gnp(rng.randint(0, 300), Fraction(rng.randint(0, 8), 32), seed)
    x = "".join(rng.choice("01") for _ in range(8000))
    yield interpret(parse_rule("0>1,1>0"), parse_model("fading(2)"), x).final.graph


def test_edge_order_and_json_match_the_tuple_sort() -> None:
    """sorted_edges sorts by two int keys and to_json prints edge tuples;
    both must give what sorting the tuples and printing lists gives."""
    for g in _edge_order_cases():
        assert g.sorted_edges() == sorted(g.edges)
        assert to_json(g) == json.dumps(to_json_obj(g), sort_keys=True, separators=(",", ":"))
    obj = to_json_obj(path_graph(3))
    assert obj == {"n": 3, "edges": [[1, 2], [2, 3]]}
    assert all(type(e) is list for e in obj["edges"])


def test_dot_output_mentions_every_edge() -> None:
    text = to_dot(path_graph(3))
    assert "1 -- 2" in text and "2 -- 3" in text
    assert text.startswith("graph")


def test_matrix_output_cap() -> None:
    # C(5793, 2) = 16,776,528 fits under LIMITS["matrix_bits"]; C(5794, 2) does not
    assert len(to_bitstring(empty_graph(5793))) == 16_776_528 <= LIMITS["matrix_bits"]
    with pytest.raises(ValueError, match="matrix output supports"):
        to_bitstring(path_graph(5794))
    assert to_bitstring(path_graph(4)) == "100101"
    assert to_bitstring(empty_graph(1)) == ""


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_certificates_imply_isomorphic(data) -> None:
    # Independent draws on the same n, not relabellings of one graph, so both
    # outcomes of the comparison occur.
    n = data.draw(st.integers(min_value=1, max_value=6))
    dyads = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    draw = st.sets(st.sampled_from(dyads)) if dyads else st.just(set())
    g = Graph(n, frozenset(data.draw(draw)))
    h = Graph(n, frozenset(data.draw(draw)))
    assert (canonical_form(g) == canonical_form(h)) == is_isomorphic(g, h)


def test_certificates_and_isomorphism_agree_on_all_pairs_n4() -> None:
    graphs = [_mask_graph(4, m) for m in range(1 << 6)]
    outcomes = set()
    for g in graphs:
        for h in graphs:
            same = canonical_form(g) == canonical_form(h)
            assert same == is_isomorphic(g, h)
            outcomes.add(same)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the adjacency index against definitions read from the edge set
# ---------------------------------------------------------------------------

def _mask_graph(n: int, mask: int) -> Graph:
    """The labelled graph whose edges are the set bits of mask over the
    dyads (i, j), i < j, in row-major order."""
    dyads = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return Graph(n, frozenset(d for k, d in enumerate(dyads) if (mask >> k) & 1))


def _reference_components(g: Graph) -> list[tuple[int, ...]]:
    adj = {v: {u for e in g.edges if v in e for u in e if u != v} for v in range(1, g.n + 1)}
    seen: set[int] = set()
    out = []
    for start in range(1, g.n + 1):
        if start not in seen:
            comp, stack = {start}, [start]
            while stack:
                for u in adj[stack.pop()] - comp:
                    comp.add(u)
                    stack.append(u)
            seen |= comp
            out.append(tuple(sorted(comp)))
    return out


def _assert_index_matches_edges(g: Graph) -> None:
    for v in range(1, g.n + 1):
        want = {j if i == v else i for i, j in g.edges if v in (i, j)}
        assert g.neighbors(v) == want
        assert g.degree(v) == len(want)
    degs = [sum(1 for e in g.edges if v in e) for v in range(1, g.n + 1)]
    assert g.degree_sequence() == tuple(sorted(degs, reverse=True))
    assert connected_components(g) == _reference_components(g)
    assert g.rows[0] == 0 and len(g.rows) == g.n + 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_adjacency_index_matches_edge_definitions(data) -> None:
    n = data.draw(st.integers(min_value=0, max_value=40))
    dyads = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = data.draw(st.sets(st.sampled_from(dyads), max_size=60) if dyads else st.just(set()))
    _assert_index_matches_edges(Graph(n, frozenset(picked)))


def test_adjacency_index_on_trees_and_out_of_range_vertices() -> None:
    for n, seed in ((1, 0), (2, 1), (40, 2), (300, 3)):
        _assert_index_matches_edges(sample_ua(n, seed))
    g = path_graph(3)
    for v in (-1, 0, 4):
        assert g.neighbors(v) == set() and g.degree(v) == 0
    # the index is not a field: equality, hashing and JSON ignore it
    h = path_graph(3)
    assert g.rows == h.rows and g == h and hash(g) == hash(h)
    assert to_json(g) == '{"edges":[[1,2],[2,3]],"n":3}'


def test_small_iso_masks_match_isomorphism_scan() -> None:
    """The copy table's top level is every labelled graph isomorphic to h
    as a colex edge mask (dyad (i, j) at bit C(j-1, 2) + i-1); level a is
    its restriction to the first a vertices."""

    def colex(g: Graph) -> int:
        return sum(1 << (comb(j - 1, 2) + i - 1) for i, j in g.edges)

    for k in range(5):
        for hmask in range(1 << comb(k, 2)):
            h = _mask_graph(k, hmask)
            scan = {colex(g) for g in (_mask_graph(k, m) for m in range(1 << comb(k, 2))) if is_isomorphic(g, h)}
            levels = _copy_levels(h)
            assert len(levels) == k + 1 and levels[k] == scan
            for a in range(k + 1):
                assert levels[a] == {c & ((1 << comb(a, 2)) - 1) for c in scan}


# ---------------------------------------------------------------------------
# the refinement search against its version without quiet splitters
# ---------------------------------------------------------------------------

def _refine_reference(rows, cells):
    """Equitable refinement that retries every cell as a splitter after
    each split: the first cell that splits anything splits every cell."""
    while True:
        for splitter in list(cells):
            smask = sum(1 << v for v in splitter)
            new_cells = []
            split = False
            for cell in cells:
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((rows[v] & smask).bit_count(), []).append(v)
                split = split or len(buckets) > 1
                new_cells.extend(tuple(buckets[k]) for k in sorted(buckets))
            if split:
                cells = new_cells
                break
        else:
            return cells


def _canon_search_reference(n, rows, refine, seen):
    """The certificate search without twin steps: every node, including
    those reached by individualising a twin cell, refines through `refine`
    and passes no quiet cells. Each node appends (its partition before
    refinement, after refinement, whether a twin cell was individualised
    to reach it) to `seen`."""
    best = None

    def search(cells, by_twin):
        nonlocal best
        refined = refine(rows, cells)
        seen.append((cells, refined, by_twin))
        cells = refined
        wide = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not wide:
            order = [c[0] for c in cells]
            s = "".join(
                "1" if (rows[order[p]] >> order[q]) & 1 else "0"
                for p in range(n)
                for q in range(p + 1, n)
            )
            best = s if best is None or s < best else best
            return
        idx = wide[0]
        cell = cells[idx]
        twins = all(
            rows[a] & ~((1 << a) | (1 << b)) == rows[b] & ~((1 << a) | (1 << b))
            for a, b in combinations(cell, 2)
        )
        for v in cell[:1] if twins else cell:
            rest = tuple(u for u in cell if u != v)
            search(cells[:idx] + [(v,), rest] + cells[idx + 1 :], twins)

    search([tuple(range(1, n + 1))], False)
    return best


def test_quiet_splitters_keep_every_partition(monkeypatch) -> None:
    """Same certificate as the reference search. Every reference node
    reached by individualising a twin refines to the partition it was
    given, which is why the engine places a twin cell without refining;
    the engine's refined partitions are the reference's other nodes, one
    for one and in order."""
    refine = graphs_module._refine
    got: list = []

    def recording(rows, cells, quiet):
        got.append(refine(rows, cells, quiet))
        return got[-1]

    monkeypatch.setattr(graphs_module, "_refine", recording)

    def check(g: Graph) -> None:
        want: list = []
        cert = _canon_search_reference(g.n, g.rows, _refine_reference, want)
        got.clear()
        assert graphs_module._canon_search(g.n, g.rows)[0] == cert
        assert all(refined == cells for cells, refined, by_twin in want if by_twin)
        assert got == [refined for _, refined, by_twin in want if not by_twin]

    # every labelled graph on up to 5 vertices, every seventh mask at n = 6
    # (a stride coprime to 2, so every pattern of low dyad bits occurs)
    for n in range(2, 7):
        for mask in range(0, 1 << comb(n, 2), 7 if n == 6 else 1):
            check(_mask_graph(n, mask))
    rng = random.Random(7)
    for n in range(7, 13):
        for _ in range(200):
            check(_mask_graph(n, rng.getrandbits(comb(n, 2))))


# ---------------------------------------------------------------------------
# twins: placed in one search step, and counted in the class law
# ---------------------------------------------------------------------------

def test_twin_steps_keep_the_certificate() -> None:
    """Graphs made of twin classes: threshold graphs, complete split and
    complete bipartite graphs."""
    rule = parse_rule("0>E,1>-")

    def threshold(n: int, k: int) -> Graph:
        return interpret(rule, NO_MEMORY, format(k, f"0{n}b")).final.graph

    rng = random.Random(16)
    graphs = [threshold(n, k) for n in range(2, 11) for k in range(1 << n)]
    graphs += [threshold(n, rng.getrandbits(n)) for n in (11, 12) for _ in range(100)]
    for f in (complete_split, complete_bipartite):
        graphs += [f(l, n - l) for n in range(2, 13) for l in range(n + 1)]
    for g in graphs:
        want = _canon_search_reference(g.n, g.rows, _refine_reference, [])
        assert graphs_module._canon_search(g.n, g.rows)[0] == want, g


def test_twin_classes_are_the_transpositions_that_fix_the_graph() -> None:
    """Swapping a and b maps a graph to itself exactly when a and b are
    twins; the classes partition 1..n, each ascending, by least vertex."""
    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            classes = graphs_module._twin_classes(g.rows, n)
            assert sorted(v for c in classes for v in c) == list(range(1, n + 1))
            assert all(c == sorted(c) for c in classes)
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
            cls = {v: i for i, c in enumerate(classes) for v in c}
            for a, b in combinations(range(1, n + 1), 2):
                swap = {v: {a: b, b: a}.get(v, v) for v in range(1, n + 1)}
                assert (relabel(g, swap) == g) == (cls[a] == cls[b]), (g, a, b)


def test_class_law_searches_one_attach_set_per_twin_count(monkeypatch) -> None:
    """At n = 7 the law searches 6,412 of the 9,984 children of the n = 6
    classes; the multiplicities add up to every attach set."""
    searched = attached = 0
    search = graphs_module._canon_search
    attach_sets = graphs_module._attach_sets

    def counted_search(n, rows):
        nonlocal searched
        searched += n == 7
        return search(n, rows)

    def counted_sets(classes):
        nonlocal attached
        sets = attach_sets(classes)
        if sum(map(len, classes)) == 6:
            attached += sum(copies for _, copies in sets)
        return sets

    monkeypatch.setattr(graphs_module, "_canon_search", counted_search)
    monkeypatch.setattr(graphs_module, "_attach_sets", counted_sets)
    graphs_module._class_law.cache_clear()
    graphs_module._class_law(7)
    graphs_module._class_law.cache_clear()
    assert searched == 6412
    assert attached == 156 * 64


def test_graph_refuses_an_edge_that_is_not_a_pair() -> None:
    """An int edge or a triple once escaped as an unpack TypeError or
    ValueError without the edge message."""
    for edge, shown in ((1, "1"), ((1, 2, 3), "(1, 2, 3)"), ((1,), "(1,)"), ("abc", "'abc'")):
        with pytest.raises(ValueError) as exc:
            Graph(3, frozenset({(1, 2), edge}))
        assert str(exc.value) == f"edge {shown} invalid for n=3"


def test_both_indexes_are_built_on_first_read_and_kept() -> None:
    """rows and lex_edges are plain instance attributes once read: the
    second read finds the first read's object."""
    g = Graph(4, frozenset({(3, 4), (1, 2), (1, 4)}))
    assert "rows" not in g.__dict__ and "lex_edges" not in g.__dict__
    assert g.lex_edges == ((1, 2), (1, 4), (3, 4)) and g.lex_edges is g.__dict__["lex_edges"]
    assert g.rows == (0, 0b10100, 0b10, 0b10000, 0b1010) and g.rows is g.__dict__["rows"]
    assert g == Graph(4, g.edges) and hash(g) == hash(Graph(4, g.edges))
