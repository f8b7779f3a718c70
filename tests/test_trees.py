"""Tests for recursive-tree construction, sampling, and encodings."""

from __future__ import annotations

import hashlib
import heapq
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge import graphs, randomness, trees
from graphforge.graphs import (
    LIMITS,
    Graph,
    canonical_form,
    complete_bipartite,
    connected_components,
    cycle_graph,
    is_isomorphic,
    is_tree,
    path_graph,
    relabel,
)
from graphforge.randomness import distinct_labeled_copies
from graphforge.trees import (
    ParentVector,
    build_tree_from_instructions,
    decode_parent_bits,
    encode_parent_bits,
    enumerate_labeled_trees,
    enumerate_tree_classes,
    index_bits,
    is_recursive_tree,
    leaves,
    prufer_decode,
    prufer_encode,
    root_path,
    sample_ua,
    sample_ua_parents,
    tree_cost,
    tree_positivity_check,
    ua_likelihood_exact,
)

# Isomorphism-class counts for trees on n = 1..7 vertices.
TREE_CLASS_COUNTS = [1, 1, 1, 2, 3, 6, 11]


def test_parent_vector_validation() -> None:
    pv = ParentVector(4, (1, 1, 3))
    assert pv.parent(2) == 1 and pv.parent(4) == 3
    with pytest.raises(ValueError):
        ParentVector(3, (1,))
    with pytest.raises(ValueError):
        ParentVector(3, (1, 3))  # parent must precede the child
    # array is 1-indexed with entry 0 padding, so the root contributes
    # a second None
    assert ParentVector(1, ()).to_json_array() == [None, None]
    assert ParentVector(3, (1, 2)).to_json_array() == [None, None, 1, 2]


def test_parent_vector_refuses_non_int_entries() -> None:
    """A bool or float once passed the range checks: (True,) stood for the
    tree 1-2. Types are checked before ranges, as the size gate does."""
    for n, parents, message in (
        (2, (True,), "parent of vertex 2 must be an int, got True"),
        (3, (1, 1.0), "parent of vertex 3 must be an int, got 1.0"),
        (True, (), "vertex count must be an int, got True"),
        (2.0, (1,), "vertex count must be an int, got 2.0"),
        (3, (1, 2.5), "parent of vertex 3 must be an int, got 2.5"),
        (3, (1, 3.0), "parent of vertex 3 must be an int, got 3.0"),
    ):
        with pytest.raises(ValueError) as exc:
            ParentVector(n, parents)
        assert str(exc.value) == message
    assert decode_parent_bits("0", 2) == ParentVector(2, (1,))


def test_build_tree_from_instructions() -> None:
    g = build_tree_from_instructions(ParentVector(4, (1, 1, 1)))
    assert is_isomorphic(g, complete_bipartite(1, 3))
    g = build_tree_from_instructions(ParentVector(4, (1, 2, 3)))
    assert g == path_graph(4)


def test_sample_ua_determinism_and_recursiveness() -> None:
    a = sample_ua(15, seed=9)
    b = sample_ua(15, seed=9)
    assert a == b
    assert is_recursive_tree(a)
    assert sample_ua(1, seed=0).n == 1
    for seed in range(50):
        assert is_recursive_tree(sample_ua(10, seed=seed))


def test_is_recursive_tree_rejects_non_recursive_labelings() -> None:
    # a path labeled 2-1-3 makes vertex 1 a child of both later vertices
    g = build_tree_from_instructions(ParentVector(3, (1, 1)))
    assert is_recursive_tree(g)
    from graphforge.graphs import Graph

    star_at_root = Graph.from_pairs(3, [(1, 2), (1, 3)])
    assert is_recursive_tree(star_at_root)
    # vertex 2 would have to attach to the later vertex 3
    skewed = Graph.from_pairs(3, [(2, 3), (1, 3)])
    assert not is_recursive_tree(skewed)
    assert not is_recursive_tree(cycle_graph(3))
    assert not is_recursive_tree(Graph.from_pairs(4, [(2, 3), (3, 4)]))


def test_root_path_and_leaves() -> None:
    g = build_tree_from_instructions(ParentVector(5, (1, 2, 2, 4)))
    assert root_path(g, 5) == (1, 2, 4, 5)
    assert root_path(g, 1) == (1,)
    # leaves are degree-1 vertices, so a root with one child counts too
    assert leaves(g) == (1, 3, 5)


def test_root_path_refuses_a_vertex_outside_the_tree() -> None:
    for v in (0, 4, 9, -1):
        with pytest.raises(ValueError, match=rf"^vertex {v} outside 1\.\.3$"):
            root_path(path_graph(3), v)


def test_prufer_round_trip_exhaustive() -> None:
    for n in range(2, 7):
        for tree in enumerate_labeled_trees(n):
            assert prufer_decode(prufer_encode(tree)) == tree


def test_prufer_known_codes() -> None:
    assert prufer_encode(path_graph(4)) == (2, 3)
    star = build_tree_from_instructions(ParentVector(4, (1, 1, 1)))
    assert prufer_encode(star) == (1, 1)
    assert prufer_decode(()) == path_graph(2)


def test_prufer_rejects_non_trees() -> None:
    with pytest.raises(ValueError):
        prufer_encode(cycle_graph(4))
    with pytest.raises(ValueError):
        prufer_decode((5, 1))  # label out of range for n = 4


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prufer_round_trip_property(data) -> None:
    n = data.draw(st.integers(min_value=3, max_value=8))
    code = tuple(data.draw(st.integers(min_value=1, max_value=n)) for _ in range(n - 2))
    tree = prufer_decode(code)
    assert prufer_encode(tree) == code


def test_labeled_tree_counts() -> None:
    for n, want in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)]:
        assert len(enumerate_labeled_trees(n)) == want


def test_labeled_trees_come_in_lexicographic_code_order() -> None:
    for n in range(2, 7):
        codes = sorted(tuple(k // n**i % n + 1 for i in range(n - 2)) for k in range(n ** (n - 2)))
        assert enumerate_labeled_trees(n) == [prufer_decode(code) for code in codes]


def test_tree_class_counts() -> None:
    for n, want in zip(range(1, 8), TREE_CLASS_COUNTS):
        classes = enumerate_tree_classes(n)
        assert len(classes) == want
        assert len({canonical_form(t) for t in classes}) == want


def test_tree_classes_match_prufer_dedupe() -> None:
    # reference: deduplicate every labelled tree by pairwise isomorphism
    for n in range(1, 8):
        reps: list[Graph] = []
        for g in enumerate_labeled_trees(n):
            if not any(is_isomorphic(g, r) for r in reps):
                reps.append(g)
        want = sorted(canonical_form(g) for g in reps)
        assert [canonical_form(t) for t in enumerate_tree_classes(n)] == want


def test_tree_classes_reject_sizes_outside_bound() -> None:
    for n in (0, 8):
        with pytest.raises(ValueError, match=r"tree class enumeration supported for 1 <= n <= 7"):
            enumerate_tree_classes(n)


def test_ua_likelihood_known_values() -> None:
    # single class at n = 3, so it carries all the mass
    (only,) = enumerate_tree_classes(3)
    assert ua_likelihood_exact(only) == 1
    star = build_tree_from_instructions(ParentVector(4, (1, 1, 1)))
    assert ua_likelihood_exact(star) == Fraction(1, 3)
    assert ua_likelihood_exact(path_graph(4)) == Fraction(2, 3)


def test_ua_likelihood_total_mass_and_positivity() -> None:
    for n in range(2, 7):
        total = sum(ua_likelihood_exact(t) for t in enumerate_tree_classes(n))
        assert total == 1, n
    assert all(ua_likelihood_exact(t) > 0 for t in enumerate_tree_classes(7))


def test_ua_likelihood_closed_forms_up_to_the_exact_bound(monkeypatch) -> None:
    """P(P_n) = 2^(n-2)/(n-1)! and P(K_{1,n-1}) = 2/(n-1)!; n = 13 is refused
    before any factorial or automorphism count."""
    for n in range(3, 13):
        star = build_tree_from_instructions(ParentVector(n, (1,) * (n - 1)))
        assert ua_likelihood_exact(path_graph(n)) == Fraction(2 ** (n - 2), factorial(n - 1)), n
        assert ua_likelihood_exact(star) == Fraction(2, factorial(n - 1)), n

    def refuse(g):
        raise AssertionError("a bound check let work start")

    monkeypatch.setattr(trees, "factorial", refuse)
    monkeypatch.setattr(trees, "automorphism_count", refuse)
    with pytest.raises(ValueError) as exc:
        ua_likelihood_exact(path_graph(13))
    assert str(exc.value) == "exact tree likelihood supported for n <= 12"


def test_tree_positivity_check_sees_hits() -> None:
    star = build_tree_from_instructions(ParentVector(4, (1, 1, 1)))
    hits, estimate = tree_positivity_check(star, samples=3000, seed=2)
    assert hits == 1054  # pinned: the draws and their order are part of the output
    assert abs(estimate - 1 / 3) < 0.1


def _ua_hits_reference(t_graph: Graph, samples: int, seed: int) -> int:
    """tree_positivity_check's hit loop as it stood before it was shared with
    likelihood_mc."""
    n = t_graph.n
    rng = random.Random(seed)
    target_deg = t_graph.degree_sequence()
    hits = 0
    for _ in range(samples):
        parents = [rng.randrange(1, t) for t in range(2, n + 1)]
        degs = [0] * (n + 1)
        for t, p in enumerate(parents, start=2):
            degs[t] += 1
            degs[p] += 1
        if tuple(sorted(degs[1:], reverse=True)) != target_deg:
            continue
        g = Graph(n, frozenset((p, t) for t, p in enumerate(parents, start=2)))
        if is_isomorphic(g, t_graph):
            hits += 1
    return hits


def test_tree_positivity_check_matches_the_reference_hit_loop() -> None:
    trees = (
        path_graph(5), path_graph(6), complete_bipartite(1, 4), complete_bipartite(1, 5),
        path_graph(7), complete_bipartite(1, 6),  # the first size past the copy-table route
    )
    for tree in trees:
        for seed in range(10):
            assert tree_positivity_check(tree, samples=1000, seed=seed)[0] == _ua_hits_reference(
                tree, 1000, seed
            ), (tree, seed)
    # 7, 8 and 12 vertices take the is_isomorphic route; a tree equal to its
    # seed's first draw makes each size score hits
    for n in (7, 8, 12):
        for seed in range(5):
            tree = sample_ua(n, seed)
            hits = tree_positivity_check(tree, samples=300, seed=seed)[0]
            assert hits >= 1
            assert hits == _ua_hits_reference(tree, 300, seed), (n, seed)
    for seed in range(3):
        assert tree_positivity_check(path_graph(8), samples=300, seed=seed)[0] == _ua_hits_reference(
            path_graph(8), 300, seed
        )


def test_small_trees_build_no_graph_per_draw(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the copy-mask route decodes no draw")

    monkeypatch.setattr(randomness, "is_isomorphic", refuse)
    monkeypatch.setattr(randomness, "Graph", refuse)
    for tree in (path_graph(2), path_graph(6), complete_bipartite(1, 5)):
        assert tree_positivity_check(tree, samples=500, seed=3)[0] == _ua_hits_reference(tree, 500, 3)


def test_seven_vertex_trees_take_the_decode_route(monkeypatch) -> None:
    """Past walk_k a draw is matched by edge count, degree sequence and then
    is_isomorphic, and no positivity check builds a labelled-copy set."""
    def refuse(*args):
        raise AssertionError("a positivity check built a copy set")

    decoded = []

    def counted(g: Graph, h: Graph) -> bool:
        decoded.append(g.n)
        return is_isomorphic(g, h)

    monkeypatch.setattr(graphs, "_labeled_copy_masks", refuse)
    monkeypatch.setattr(randomness, "is_isomorphic", counted)
    for tree in (path_graph(7), complete_bipartite(1, 6)):
        for seed in range(10):
            assert tree_positivity_check(tree, samples=500, seed=seed)[0] == _ua_hits_reference(tree, 500, seed)
    assert set(decoded) == {7}
    # a tree equal to its seed's first draw is decoded at least once
    for n in range(8, LIMITS["exact_n"] + 1):
        assert tree_positivity_check(sample_ua(n, n), 100, n)[0] >= 1
    assert set(decoded) == set(range(7, LIMITS["exact_n"] + 1))


def test_ua_sampler_rejects_sizes_over_the_edge_cap() -> None:
    # an n-vertex tree has n - 1 edges: n = LIMITS["build_edges"] + 1 is the largest
    n = LIMITS["build_edges"] + 2
    with pytest.raises(ValueError, match=f"a {n}-vertex tree may build {n - 1} edges; limit"):
        sample_ua_parents(n, seed=0)
    with pytest.raises(ValueError, match=f"a {n}-vertex tree may build"):
        sample_ua(n, seed=0)
    with pytest.raises(ValueError, match="need at least one vertex"):
        sample_ua_parents(-(10**9), seed=0)
    with pytest.raises(ValueError, match="need at least one vertex"):
        sample_ua_parents(0, seed=0)


def test_tree_positivity_check_rejects_sizes_outside_the_exact_range() -> None:
    # the 13-vertex target once failed only for seeds whose draws reached
    # the isomorphism test, and scored 0 hits for the others
    target = sample_ua(13, 0)
    for seed in range(8):
        with pytest.raises(ValueError, match="positivity check supported for n <= 12, got 13"):
            tree_positivity_check(target, samples=20, seed=seed)


def test_tree_cost_values() -> None:
    assert index_bits(1) == 1
    assert index_bits(4) == 3
    cost5 = tree_cost(5)
    assert cost5.instruction_bits == 8
    assert cost5.memory_bits == 8
    assert cost5.random_bits == 0
    # running-sum identity and the per-vertex upper bound
    running = 0
    for n in range(2, 2049):
        running += (n - 1).bit_length()
        assert running <= (n - 1) * (n - 1).bit_length()
    assert tree_cost(2048).instruction_bits == running


def test_parent_bit_codec_round_trip() -> None:
    for seed in range(20):
        pv = sample_ua_parents(11, seed=seed)
        assert decode_parent_bits(encode_parent_bits(pv), 11) == pv
    assert encode_parent_bits(ParentVector(2, (1,))) == "0"
    with pytest.raises(ValueError):
        decode_parent_bits("0", 3)  # too short for two parent fields
    with pytest.raises(ValueError):
        decode_parent_bits("011", 3)  # second field decodes to parent 2+1=3


# ---------------------------------------------------------------------------
# the edge rule for recursive trees against the search definition
# ---------------------------------------------------------------------------

def _recursive_by_search(g: Graph) -> bool:
    """The search definition, from edges alone: g is a tree, and walking
    from vertex 1 every vertex's neighbour toward the root is smaller."""
    if g.n < 1 or len(g.edges) != g.n - 1:
        return False
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    parent = {1: 0}
    stack = [1]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    return len(parent) == g.n and all(parent[v] < v for v in range(2, g.n + 1))


def test_is_recursive_tree_matches_search_on_every_small_graph() -> None:
    checked = recursive = 0
    for n in range(7):
        dyads = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(dyads)):
            g = Graph(n, frozenset(d for k, d in enumerate(dyads) if (mask >> k) & 1))
            want = _recursive_by_search(g)
            assert is_recursive_tree(g) == want, g
            checked += 1
            recursive += want
    assert checked == 33_868
    assert recursive == sum(factorial(n - 1) for n in range(1, 7))


def test_is_recursive_tree_matches_search_on_relabelled_ua_trees() -> None:
    rng = random.Random(5)
    outcomes = set()
    for n in (1, 2, 3, 10, 50, 200):
        for seed in range(20):
            t = sample_ua(n, seed)
            image = list(range(1, n + 1))
            if seed % 2:
                rng.shuffle(image)
            else:  # swap two labels: some of these stay recursive
                a, b = rng.randrange(n), rng.randrange(n)
                image[a], image[b] = image[b], image[a]
            g = relabel(t, {v: image[v - 1] for v in range(1, n + 1)})
            want = _recursive_by_search(g)
            assert is_recursive_tree(g) == want
            outcomes.add((n >= 50, want))
            assert is_recursive_tree(t) and _recursive_by_search(t)
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_ua_likelihood_matches_copy_count_by_search() -> None:
    for n in range(2, 8):
        for t in enumerate_tree_classes(n):
            dyads = [(i, j) for j in range(2, n + 1) for i in range(1, j)]  # in mask-bit order
            count = sum(
                _recursive_by_search(Graph(n, frozenset(d for k, d in enumerate(dyads) if (m >> k) & 1)))
                for m in distinct_labeled_copies(t)
            )
            assert ua_likelihood_exact(t) == Fraction(count, factorial(n - 1))


def _prufer_by_rows(g: Graph) -> tuple[int, ...]:
    """The rows-index coding that the edge-list one replaced."""
    adj = {v: g.neighbors(v) for v in range(1, g.n + 1)}
    heap = [v for v in adj if len(adj[v]) == 1]
    heapq.heapify(heap)
    code = []
    for _ in range(g.n - 2):
        leaf = heapq.heappop(heap)
        nb = next(iter(adj[leaf]))
        code.append(nb)
        adj[nb].discard(leaf)
        del adj[leaf]
        if len(adj[nb]) == 1:
            heapq.heappush(heap, nb)
    return tuple(code)


def _path_by_rows(g: Graph, v: int) -> tuple[int, ...]:
    parent = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    path = [v]
    while path[-1] != 1:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _toward_root_reference(adj: list[list[int]]) -> dict[int, int]:
    """The second search `root_path` and `ua_likelihood_exact` made before
    the tree test's own search kept its parents."""
    parent = {1: 0}
    queue = [1]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def test_tree_search_parents_equal_the_second_search_in_order() -> None:
    rng = random.Random(28)
    small = [g for n in range(1, 8) for g in enumerate_tree_classes(n)]
    small += [g for n in range(1, 7) for g in enumerate_labeled_trees(n)]
    large = [sample_ua(n, seed) for n in (40, 300, 2000) for seed in range(3)]
    # a shuffled labelling moves vertex 1 off the root of the sampled tree
    shuffled = [relabel(g, dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n)))) for g in large]
    for g in small + large + shuffled:
        adj, parent = graphs._tree_adjacency(g)
        assert list(parent.items()) == list(_toward_root_reference(adj).items()), g.n


def _seeded_trees():
    """UA trees, each also under a seeded shuffle of its labels."""
    rng = random.Random(19)
    for n in (2, 3, 7, 40, 300, 2000):
        for seed in range(6):
            t = sample_ua(n, seed)
            image = list(range(1, n + 1))
            rng.shuffle(image)
            yield t
            yield relabel(t, {v: image[v - 1] for v in range(1, n + 1)})


def test_tree_paths_match_the_rows_route_on_seeded_trees() -> None:
    """Codes, leaves and root paths built from the edge list equal the rows
    route's, and their digest is the one the rows route gave."""
    digest = hashlib.sha256()
    for g in _seeded_trees():
        n = g.n
        code, found = prufer_encode(g), leaves(g)
        paths = [root_path(g, v) for v in range(1, n + 1, max(1, n // 25))]
        assert code == _prufer_by_rows(g)
        assert found == tuple(v for v in range(1, n + 1) if g.degree(v) == 1)
        assert paths == [_path_by_rows(g, v) for v in range(1, n + 1, max(1, n // 25))]
        digest.update(repr((code, found, paths)).encode())
    assert digest.hexdigest() == "17ab00a5ceb35e4bfc66a73f9d8c974c5dcf69498a0fc6781f10bacc83b1626c"


def test_is_tree_matches_components_on_every_small_graph() -> None:
    trees_seen = 0
    for n in range(7):
        dyads = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(dyads)):
            g = Graph(n, frozenset(d for k, d in enumerate(dyads) if (mask >> k) & 1))
            want = n >= 1 and g.edge_count == n - 1 and len(connected_components(g)) == 1
            assert is_tree(g) == want, g
            trees_seen += want
    assert trees_seen == sum(n ** (n - 2) for n in range(1, 7))


def test_tree_paths_refuse_non_trees_with_unchanged_messages() -> None:
    # n - 1 edges that miss a vertex, a cycle, a forest and no vertex at all
    spanning_miss = Graph.from_pairs(4, [(1, 2), (2, 3), (1, 3)])
    for g in (spanning_miss, cycle_graph(4), Graph.from_pairs(4, [(1, 2), (3, 4)]), Graph(0, frozenset())):
        assert not is_tree(g)
        with pytest.raises(ValueError, match="^root paths are defined for trees only$"):
            root_path(g, 1)
        if g.n >= 2:
            with pytest.raises(ValueError, match="^only trees have a code$"):
                prufer_encode(g)
        with pytest.raises(ValueError, match="^likelihood under uniform attachment needs a tree$"):
            ua_likelihood_exact(g)
        with pytest.raises(ValueError, match="^positivity check needs a tree$"):
            tree_positivity_check(g, 10, 0)
    with pytest.raises(ValueError, match="^encoding needs at least two vertices$"):
        prufer_encode(Graph(1, frozenset()))
    # leaves reads degrees of any graph, tree or not
    assert leaves(Graph.from_pairs(5, [(1, 2), (2, 3), (1, 3), (4, 5)])) == (4, 5)


def test_large_tree_paths_build_no_rows_index() -> None:
    g = sample_ua(20_000, 1)
    code = prufer_encode(g)
    assert len(code) == 19_998 and prufer_decode(code) == g
    assert root_path(g, 20_000)[0] == 1 and leaves(g) and is_tree(g)
    assert "rows" not in g.__dict__
