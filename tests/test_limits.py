"""Every size bound lives in graphs.LIMITS, and each entry point reads its
entry when called, before any work: one past the limit raises the message
below, word for word, without reaching the class law, the run enumerator,
a labelled-copy set or the canonical search; a lowered entry moves the
bound with it."""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from itertools import count
from math import comb
from pathlib import Path

import pytest

from graphforge import cli, graphs, machines, randomness, trees, verify
from graphforge.graphs import (
    LIMITS,
    Graph,
    canonical_form,
    complete_graph,
    contains_induced,
    cycle_graph,
    empty_graph,
    enumerate_graph_classes,
    is_isomorphic,
    is_threshold_by_forbidden,
    path_graph,
    to_bitstring,
)
from graphforge.machines import FULL_MEMORY, MODIFIABLE, interpret, parse_rule
from graphforge.randomness import (
    Uniform,
    distinct_labeled_copies,
    likelihood_exact,
    likelihood_extremes,
    likelihood_mc,
    randomness_cost_a,
    randomness_cost_a_closed,
    sample_gnp,
    sample_vertex_addition,
)
from graphforge.trees import (
    ParentVector,
    enumerate_labeled_trees,
    enumerate_tree_classes,
    sample_ua_parents,
    tree_positivity_check,
    ua_likelihood_exact,
)
from graphforge.verify import (
    CHECK_IDS,
    enumerate_outputs,
    expressiveness_count,
    find_constructions,
    hierarchy_report,
    reachable_classes,
    verify_proposition,
)

RULE = parse_rule("0>1,1>-")
WORK = ("_class_law", "_runs", "_labeled_copy_masks", "_canon_search")
BUILD = ("Graph", "frozenset")  # every constructor freezes its edges and wraps them in a Graph


def _vertices_for_pairs(pairs: int) -> int:
    """The fewest vertices with at least `pairs` vertex pairs."""
    return next(n for n in count() if comb(n, 2) >= pairs)


# (entry, name, entry point called at size s, its message at s = limit + 1,
# cheap enough to answer at the limit); a size counts vertices unless the
# entry counts edges, bits, string lengths or max_n. A case's test ID is
# "{entry}-{name}", so the name is a fixed label that no other row of the
# same entry may share; a new row takes its entry point as its name. The
# numbered rows keep, as their names, the list positions their IDs were
# built from before rows were named, so those IDs did not change.
CASES = [
    ("exact_n", "0", lambda s: canonical_form(empty_graph(s)),
     "canonical form supported for n <= 12, got 13", True),
    ("exact_n", "1", lambda s: is_isomorphic(empty_graph(s), empty_graph(s)),
     "isomorphism supported for n <= 12, got 13", True),
    ("exact_n", "2", lambda s: likelihood_mc(empty_graph(s), 1, 0),
     "Monte-Carlo likelihood supported for 1 <= n <= 12, got 13", True),
    ("exact_n", "3", lambda s: tree_positivity_check(path_graph(s), 1, 0),
     "positivity check supported for n <= 12, got 13", True),
    ("exact_n", "4", lambda s: graphs.automorphism_count(path_graph(s)),
     "automorphism counting supported for n <= 12", True),
    ("class_law_n", "5", lambda s: likelihood_exact(path_graph(s)),
     "exact likelihood supported for n <= 7", True),
    ("class_law_n", "6", enumerate_graph_classes,
     "class enumeration supported for 0 <= n <= 7", True),
    ("class_law_n", "7", enumerate_tree_classes,
     "tree class enumeration supported for 1 <= n <= 7", True),
    ("exact_n", "8", lambda s: ua_likelihood_exact(path_graph(s)),
     "exact tree likelihood supported for n <= 12", True),
    ("class_law_n", "9", lambda s: distinct_labeled_copies(path_graph(s)),
     "labelled-copy enumeration supported for n <= 7", True),
    ("labelled_trees_n", "10", enumerate_labeled_trees,
     "labelled-tree enumeration supported for 1 <= n <= 7", True),
    ("class_law_n", "11", likelihood_extremes,
     "extremes computed for 1 <= n <= 7", True),
    ("enumeration_n", "12", lambda s: enumerate_outputs(RULE, FULL_MEMORY, s),
     "output enumeration supported for 0 <= n <= 12, got 13", False),
    ("enumeration_n", "13", lambda s: reachable_classes(FULL_MEMORY, s),
     "output enumeration supported for 0 <= n <= 12, got 13", False),
    ("enumeration_n", "14", lambda s: find_constructions(empty_graph(s), FULL_MEMORY),
     "construction search supported for 0 <= n <= 12, got 13", False),
    ("modifiable_n", "15", lambda s: enumerate_outputs(RULE, MODIFIABLE, s),
     "output enumeration supported for 0 <= n <= 7, got 8", False),
    ("modifiable_n", "16", lambda s: find_constructions(empty_graph(s), MODIFIABLE),
     "construction search supported for 0 <= n <= 7, got 8", False),
    ("modifiable_n", "17", lambda s: verify_proposition("C_modifiable", s),
     "C_modifiable supports 0 <= max_n <= 7, got 8", False),
    ("enumeration_n", "18", lambda s: verify_proposition("hierarchy", s),
     "hierarchy supports 0 <= max_n <= 12, got 13", False),
    ("enumeration_n", "19", hierarchy_report,
     "hierarchy supports 0 <= max_n <= 12, got 13", False),
    ("enumeration_n", "20", lambda s: verify_proposition("P2", s),
     "P2 supports 0 <= max_n <= 12, got 13", False),
    ("enumeration_n", "21", lambda s: verify_proposition("P3", s),
     "P3 supports 0 <= max_n <= 12, got 13", False),
    ("enumeration_n", "22", lambda s: verify_proposition("P5", s),
     "P5 supports 0 <= max_n <= 12, got 13", False),
    ("enumeration_n", "23", lambda s: verify_proposition("C_pnfree", s),
     "C_pnfree supports 0 <= max_n <= 12, got 13", False),
    ("build_edges", "24", lambda s: sample_ua_parents(s + 1, 0),
     "a 1048578-vertex tree may build 1048577 edges; limit 1048576", False),
    ("build_edges", "25", lambda s: sample_gnp(_vertices_for_pairs(s), 0, 1),
     "a 1449-vertex sample may build 1049076 edges; limit 1048576", False),
    ("build_edges", "26", lambda s: sample_vertex_addition(_vertices_for_pairs(s), Uniform(), 1),
     "a 1449-vertex sample may build 1049076 edges; limit 1048576", False),
    ("build_edges", "27", lambda s: interpret(parse_rule("0>-,1>-"), FULL_MEMORY, "0" * _vertices_for_pairs(s)),
     "a 1449-bit run under full may build 1049076 edges; limit 1048576", False),
    ("build_edges", "parse_graph_spec", lambda s: cli.parse_graph_spec(f"K{_vertices_for_pairs(s)}"),
     "K1449 may build 1049076 edges; limit 1048576", False),
    ("matrix_bits", "28", lambda s: to_bitstring(empty_graph(_vertices_for_pairs(s))),
     "matrix output supports C(n,2) <= 16777216 bits (n <= 5793), got n=5794", False),
    ("cost_a_n", "29", randomness_cost_a,
     "bit cost a(n) supported for 1 <= n <= 65536, got 65537", True),
    ("cost_a_n", "30", randomness_cost_a_closed,
     "closed form of a(n) supported for 4 <= n <= 65536, got 65537", False),
    ("exact_n", "31", lambda s: contains_induced(path_graph(s), path_graph(4)),
     "induced-subgraph search supported for hosts with n <= 12, got 13", True),
    ("exact_n", "32", lambda s: is_threshold_by_forbidden(path_graph(s)),
     "forbidden-subgraph threshold test supported for n <= 12, got 13", True),
    ("enumeration_n", "expressiveness_count", lambda s: expressiveness_count(FULL_MEMORY, s),
     "output enumeration supported for 0 <= n <= 12, got 13", False),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in CASES]
ROWS = [(entry, call, message, cheap) for entry, _, call, message, cheap in CASES]


@pytest.fixture
def no_work(monkeypatch):
    """Make the class law, the run enumerator, copy sets and the canonical
    search fail wherever a module binds them."""

    def refuse(*args, **kwargs):
        raise AssertionError("a bound check let work start")

    for module in (graphs, machines, randomness, trees, verify):
        for name in WORK:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_case_ids_are_unique() -> None:
    assert len(set(IDS)) == len(IDS)


def test_every_entry_is_read_by_some_case() -> None:
    # walk_k chooses a route, not an error; the route tests below cover it
    assert {entry for entry, *_ in CASES} | {"walk_k"} == set(LIMITS)


@pytest.mark.parametrize(("entry", "call", "message", "cheap"), ROWS, ids=IDS)
def test_one_past_the_limit_raises_before_any_work(no_work, entry, call, message, cheap) -> None:
    with pytest.raises(ValueError) as exc:
        call(LIMITS[entry] + 1)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("entry", "call"), [(entry, call) for entry, call, _, cheap in ROWS if cheap],
    ids=[i for i, row in zip(IDS, ROWS) if row[3]],
)
def test_the_limit_itself_answers(entry, call) -> None:
    call(LIMITS[entry])


@pytest.mark.parametrize(("entry", "call", "message", "cheap"), ROWS, ids=IDS)
def test_a_lowered_entry_moves_the_bound(no_work, monkeypatch, entry, call, message, cheap) -> None:
    lowered = LIMITS[entry] - 1
    monkeypatch.setitem(LIMITS, entry, lowered)
    with pytest.raises(ValueError, match=str(lowered)) as exc:
        call(lowered + 1)
    assert str(exc.value) != message


# every entry point that hands its caller's size to the gate, and sizes of
# other types: each is refused before any comparison, so neither a TypeError
# nor the work of a size that compares like an int gets through
SIZED = [
    ("enumerate_graph_classes", enumerate_graph_classes),
    ("enumerate_tree_classes", enumerate_tree_classes),
    ("enumerate_labeled_trees", enumerate_labeled_trees),
    ("likelihood_extremes", likelihood_extremes),
    ("randomness_cost_a", randomness_cost_a),
    ("randomness_cost_a_closed", randomness_cost_a_closed),
    *((f"verify_proposition-{check}", lambda n, check=check: verify_proposition(check, n))
      for check in CHECK_IDS),
    ("hierarchy_report", hierarchy_report),
    ("enumerate_outputs", lambda n: enumerate_outputs(RULE, FULL_MEMORY, n)),
    ("enumerate_outputs-modifiable", lambda n: enumerate_outputs(RULE, MODIFIABLE, n)),
    ("reachable_classes", lambda n: reachable_classes(FULL_MEMORY, n)),
    ("expressiveness_count", lambda n: expressiveness_count(FULL_MEMORY, n)),
]
WRONG_SIZES = {"str": "3", "float": 2.5, "integral-float": 3.0, "bool": True, "Fraction": Fraction(3)}


@pytest.mark.parametrize("size", list(WRONG_SIZES.values()), ids=list(WRONG_SIZES))
@pytest.mark.parametrize(("name", "call"), SIZED, ids=[name for name, _ in SIZED])
def test_a_size_that_is_not_an_int_is_refused_before_any_work(no_work, name, call, size) -> None:
    with pytest.raises(ValueError) as exc:
        call(size)
    assert str(exc.value) == f"need an int n, got {size!r}"


@pytest.mark.parametrize(("build", "message"), [
    (lambda: Graph("3", frozenset()), "need an int n and frozenset edges, got '3' and frozenset"),
    (lambda: ParentVector("3", (1, 1)), "vertex count must be an int, got '3'"),
], ids=["Graph", "ParentVector"])
def test_the_checked_constructors_refuse_a_str_size(build, message) -> None:
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


E10, E11 = empty_graph(10), empty_graph(11)
P51, P52, P100, P101 = map(path_graph, (51, 52, 100, 101))
# (constructor, its arguments one edge or more over a cap of 100 edges, its
# refusal, its arguments at or just under the cap); graphs are built here,
# before the test makes building fail
CONSTRUCTORS = [
    ("complete_graph", (15,), "K15 may build 105 edges", (14,)),
    ("complete_bipartite", (10, 11), "K10,11 may build 110 edges", (10, 10)),
    ("path_graph", (102,), "P102 may build 101 edges", (101,)),
    ("cycle_graph", (101,), "C101 may build 101 edges", (100,)),
    ("join", (E10, E11), "a join of 10 and 11 vertices may build 110 edges", (E10, E10)),
    ("disjoint_union", (P51, P52), "a disjoint union of 51 and 52 vertices may build 101 edges", (P51, P51)),
    ("add_vertex", (P101, [1, 2]), "adding vertex 102 to a 100-edge graph may build 102 edges", (P100, [1])),
]


@pytest.mark.parametrize(("name", "over", "message", "fits"), CONSTRUCTORS, ids=[c[0] for c in CONSTRUCTORS])
def test_every_constructor_refuses_more_edges_than_the_cap_before_building(
    monkeypatch, name, over, message, fits
) -> None:
    monkeypatch.setitem(LIMITS, "build_edges", 100)
    constructor = getattr(graphs, name)
    assert 91 <= constructor(*fits).edge_count <= 100

    def refuse(*args):
        raise AssertionError("a constructor built past the cap")

    for built_with in BUILD:
        monkeypatch.setattr(graphs, built_with, refuse, raising=False)
    with pytest.raises(ValueError) as exc:
        constructor(*over)
    assert str(exc.value) == f"{message}; limit 100"


@pytest.mark.parametrize("parts", [(-1, 5), (-3, 5), (5, -1), (0, -1), (-2, -2)])
def test_complete_bipartite_refuses_a_negative_part_before_building(monkeypatch, parts) -> None:
    # K-1,5 once returned E4, while complete_graph(-1) and complete_split(-2, 3) refused
    def refuse(*args):
        raise AssertionError("a negative part was built")

    for built_with in BUILD:
        monkeypatch.setattr(graphs, built_with, refuse, raising=False)
    with pytest.raises(ValueError) as exc:
        graphs.complete_bipartite(*parts)
    assert str(exc.value) == f"complete bipartite parts must be nonnegative, got {parts[0]} and {parts[1]}"


def test_a_lowered_matrix_cap_names_its_largest_size(monkeypatch) -> None:
    monkeypatch.setitem(LIMITS, "matrix_bits", comb(50, 2) - 1)
    with pytest.raises(ValueError) as exc:
        to_bitstring(empty_graph(50))
    assert str(exc.value) == "matrix output supports C(n,2) <= 1224 bits (n <= 49), got n=50"
    assert to_bitstring(empty_graph(49)) == "0" * comb(49, 2)


def test_walk_k_chooses_the_induced_subgraph_route(monkeypatch) -> None:
    def refuse(h):
        raise AssertionError("patterns above walk_k take the subset route")

    host = path_graph(6)
    assert contains_induced(host, path_graph(4)) and not contains_induced(host, cycle_graph(4))
    monkeypatch.setattr(graphs, "_copy_levels", refuse)
    assert contains_induced(path_graph(8), path_graph(LIMITS["walk_k"] + 1))
    monkeypatch.setitem(LIMITS, "walk_k", 3)
    assert contains_induced(host, path_graph(4)) and not contains_induced(host, cycle_graph(4))


def test_walk_k_chooses_the_hit_loop_route(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("the hit loop took the other route")

    target, tree = complete_graph(3), path_graph(3)
    with monkeypatch.context() as patched:
        patched.setattr(randomness, "is_isomorphic", refuse)
        hits = likelihood_mc(target, 300, 5).hits
        tree_hits = tree_positivity_check(tree, 300, 5)
    assert hits > 0 and tree_hits[0] > 0
    for work in ("_copy_levels", "_labeled_copy_masks"):
        monkeypatch.setattr(graphs, work, refuse)
    monkeypatch.setitem(LIMITS, "walk_k", 2)
    assert likelihood_mc(target, 300, 5).hits == hits
    assert tree_positivity_check(tree, 300, 5) == tree_hits


def test_cli_help_reads_the_table(monkeypatch) -> None:
    def likelihood_help() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main(["likelihood", "--help"])
        return " ".join(out.getvalue().split())

    text = likelihood_help()
    assert text.count("(n <= 7)") == 2 and "(N <= 7)" in text
    monkeypatch.setitem(LIMITS, "class_law_n", 6)
    text = likelihood_help()
    assert text.count("(n <= 6)") == 2 and "(N <= 6)" in text


def test_verify_max_n_help_reads_the_table(monkeypatch) -> None:
    def max_n_help() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        return " ".join(out.getvalue().split())

    assert "(n <= 12; C_modifiable n <= 7)" in max_n_help()
    monkeypatch.setitem(LIMITS, "enumeration_n", 11)
    assert "(n <= 11; C_modifiable n <= 7)" in max_n_help()
    monkeypatch.setitem(LIMITS, "modifiable_n", 6)
    assert "(n <= 11; C_modifiable n <= 6)" in max_n_help()


def test_readme_lists_every_entry_with_its_value() -> None:
    """README's limits bullet names exactly the LIMITS entries, each with
    its value (written as a number, with thousands commas, or as 2^k)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("* Every size bound is one entry of `graphs.LIMITS`")
    bullet = readme[start : readme.index("\n* ", start + 1)]
    listed = {}
    for name, value in re.findall(r"`(\w+)` (2\^\d+|\d[\d,]*)", bullet):
        base, _, power = value.partition("^")
        listed[name] = int(base) ** int(power) if power else int(value.replace(",", ""))
    assert listed == LIMITS
