"""Tests for the closed-form graph families and run statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge.families import (
    alternating_runs,
    fading_path_sizes,
    fading_table_family,
    family_E,
    family_Eprime,
    family_K,
    family_Kprime,
    family_Ktilde,
    full_table_family,
    runs_of_ones,
    runs_of_zeros,
    threshold_creation,
    zero_anchored_blocks,
)
from graphforge.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    complete_split,
    connected_components,
    disjoint_union,
    empty_graph,
    is_isomorphic,
    is_linear_forest,
    is_threshold,
    linear_forest,
)
from graphforge.machines import (
    FULL_MEMORY,
    FULL_RULES,
    LabeledGraph,
    fading_memory,
    interpret,
    parse_rule,
    swap_rule,
)

BITS = st.text(alphabet="01", min_size=1, max_size=8)

# Worked run-statistics string used throughout; the four statistics below
# were computed by hand from its run decomposition 00|11|0|1|000|1|0.
RUN_EXAMPLE = "00110100010"


def test_run_statistics_worked_example() -> None:
    assert runs_of_zeros(RUN_EXAMPLE) == (2, 1, 3, 1)
    assert runs_of_ones(RUN_EXAMPLE) == (2, 1, 1)
    assert alternating_runs(RUN_EXAMPLE) == (2, 4, 3)
    assert zero_anchored_blocks(RUN_EXAMPLE) == (3, 2, 4)


def test_run_statistics_edge_cases() -> None:
    assert runs_of_zeros("1111") == ()
    assert runs_of_ones("0000") == ()
    assert runs_of_zeros("0") == (1,)
    assert alternating_runs("0101") == (4,)
    # only the middle 01 alternates; blocks shorter than 2 are dropped
    assert alternating_runs("0011") == (2,)
    assert zero_anchored_blocks("111") == ()
    # the leading 0 pulls in its successor; the trailing bits stay singletons
    assert zero_anchored_blocks("0110") == (2,)


def _alternating_runs_reference(x: str) -> tuple[int, ...]:
    """alternating_runs as it stood before it shared the block counter."""
    out = []
    run = 1
    for t in range(1, len(x)):
        if x[t] != x[t - 1]:
            run += 1
        else:
            if run >= 2:
                out.append(run)
            run = 1
    if run >= 2:
        out.append(run)
    return tuple(out)


def _zero_anchored_blocks_reference(x: str) -> tuple[int, ...]:
    """zero_anchored_blocks as it stood before it shared the block counter."""
    out = []
    size = 1
    for t in range(1, len(x)):
        if x[t - 1] == "0":
            size += 1
        else:
            if size >= 2:
                out.append(size)
            size = 1
    if size >= 2:
        out.append(size)
    return tuple(out)


def test_block_statistics_equal_their_references_on_every_short_string() -> None:
    for n in range(13):
        for k in range(2**n):
            x = format(k, f"0{n}b") if n else ""
            assert alternating_runs(x) == _alternating_runs_reference(x), x
            assert zero_anchored_blocks(x) == _zero_anchored_blocks_reference(x), x


@settings(max_examples=100, deadline=None)
@given(x=BITS)
def test_run_statistics_account_for_every_bit(x: str) -> None:
    assert sum(runs_of_zeros(x)) == x.count("0")
    assert sum(runs_of_ones(x)) == x.count("1")
    assert all(size >= 2 for size in alternating_runs(x))
    assert all(size >= 2 for size in zero_anchored_blocks(x))
    assert sum(zero_anchored_blocks(x)) <= len(x)


def test_named_families_on_uniform_strings() -> None:
    assert family_E("000").graph == empty_graph(3)
    # the edge needs a 1 arriving before a 0
    assert family_E("01").graph == empty_graph(2)
    assert is_isomorphic(family_E("10").graph, complete_bipartite(1, 1))
    assert family_K("111").graph == empty_graph(3)
    assert is_isomorphic(family_K("000").graph, complete_graph(3))
    assert is_isomorphic(family_Ktilde("0011").graph, linear_forest([2, 2]))


def test_threshold_creation_outputs_are_threshold() -> None:
    for x in ("0", "1", "01", "10", "0011", "110100", "01010101"):
        assert is_threshold(threshold_creation(x).graph)


def test_family_shapes_match_label_counts() -> None:
    x = "00110"
    l, m = x.count("0"), x.count("1")
    # these six rules produce order-independent shapes set by (l, m) alone
    assert is_isomorphic(full_table_family(parse_rule("0>E,1>0"), x).graph, complete_split(l, m))
    assert is_isomorphic(full_table_family(parse_rule("0>1,1>0"), x).graph, complete_bipartite(l, m))
    assert is_isomorphic(
        full_table_family(parse_rule("0>0,1>1"), x).graph,
        disjoint_union(complete_graph(l), complete_graph(m)),
    )
    assert is_isomorphic(
        full_table_family(parse_rule("0>0,1>-"), x).graph,
        disjoint_union(complete_graph(l), empty_graph(m)),
    )
    assert is_isomorphic(full_table_family(parse_rule("0>E,1>E"), x).graph, complete_graph(len(x)))
    assert full_table_family(parse_rule("0>-,1>-"), x).graph == empty_graph(len(x))


def test_full_table_families_match_machines_exhaustively() -> None:
    for rule in FULL_RULES:
        for n in range(1, 7):
            for k in range(2**n):
                x = format(k, f"0{n}b")
                got = interpret(rule, FULL_MEMORY, x).final
                want = full_table_family(rule, x)
                assert got == want, (rule.mnemonic, x)


def test_fading_table_families_match_machines_exhaustively() -> None:
    for rule in FULL_RULES:
        for n in range(1, 7):
            for k in range(2**n):
                x = format(k, f"0{n}b")
                got = interpret(rule, fading_memory(2), x).final
                want = fading_table_family(rule, x)
                assert got == want, (rule.mnemonic, x)


NAMED_FAMILY_MACHINES = [
    (family_E, "0>1,1>-", FULL_MEMORY),
    (family_K, "0>0,1>0", FULL_MEMORY),
    (family_Ktilde, "0>E,1>1", FULL_MEMORY),
    (threshold_creation, "0>E,1>-", FULL_MEMORY),
    (family_Kprime, "0>E,1>0", fading_memory(2)),
    (family_Eprime, "0>E,1>1", fading_memory(2)),
]


@pytest.mark.parametrize("family,mnemonic,model", NAMED_FAMILY_MACHINES)
def test_named_families_are_machine_outputs(family, mnemonic, model) -> None:
    rule = parse_rule(mnemonic)
    for n in range(9):
        for k in range(2**n):
            x = format(k, f"0{n}b") if n else ""
            assert family(x) == interpret(rule, model, x).final, (mnemonic, x)


def test_table_families_reject_non_canonical_rules() -> None:
    swapped = swap_rule(parse_rule("0>1,1>-"))
    with pytest.raises(ValueError):
        full_table_family(swapped, "01")
    with pytest.raises(ValueError):
        fading_table_family(swapped, "01")


def test_fading_path_sizes_describe_components() -> None:
    # each label-join rule turns its run statistic into path components
    cases = {
        "0>1,1>-": None,
        "0>0,1>-": None,
        "0>1,1>0": None,
        "0>0,1>0": None,
        "0>0,1>1": None,
        "0>-,1>-": None,
    }
    for mnemonic in cases:
        rule = parse_rule(mnemonic)
        for x in ("0", "1", RUN_EXAMPLE, "0101", "1100"):
            sizes = fading_path_sizes(rule, x)
            if sizes is None:
                continue
            g = interpret(rule, fading_memory(2), x).final.graph
            assert is_linear_forest(g)
            comp_sizes = sorted(len(c) for c in connected_components(g) if len(c) >= 2)
            assert comp_sizes == sorted(sizes), (mnemonic, x)


def test_fading_path_sizes_none_for_dominate_rules() -> None:
    for mnemonic in ("0>E,1>-", "0>E,1>0", "0>E,1>1", "0>E,1>E"):
        assert fading_path_sizes(parse_rule(mnemonic), "0101") is None


def test_one_zero_matches_never_overlap() -> None:
    """A "10" at i needs x[i+1] == "0" and one at i+1 needs x[i+1] == "1", so
    str.count, which counts disjoint matches, counts every match: checked
    on all strings of length at most 12."""
    rule = parse_rule("0>1,1>-")
    for n in range(13):
        for k in range(1 << n):
            x = format(k, "b").zfill(n) if n else ""
            matches = sum(x.startswith("10", i) for i in range(n))
            assert fading_path_sizes(rule, x) == (2,) * matches, x


def test_fading_worked_example_component_shape() -> None:
    g = interpret(parse_rule("0>0,1>0"), fading_memory(2), RUN_EXAMPLE).final.graph
    assert is_isomorphic(g, linear_forest([3, 2, 4, 1, 1]))


def test_prime_families_small_strings() -> None:
    # primed families agree with their base families on short strings
    for x in ("0", "1", "00", "11", "01"):
        assert family_Kprime(x).graph == family_K(x).graph
        assert family_Eprime(x).graph == family_Ktilde(x).graph
    # and diverge once a join reaches back beyond the fading window
    assert family_Kprime("10").graph != family_K("10").graph
    assert family_Eprime("0101").graph != family_Ktilde("0101").graph


def test_family_outputs_equal_their_public_rebuilds() -> None:
    """Families build their graphs without re-checking them; every output
    equals, and hashes like, its rebuild through the checked constructors."""
    named = [family for family, _, _ in NAMED_FAMILY_MACHINES]
    tables = [
        lambda x, rule=rule, table=table: table(rule, x)
        for rule in FULL_RULES
        for table in (full_table_family, fading_table_family)
    ]
    for n in range(9):
        for k in range(2**n):
            x = format(k, f"0{n}b") if n else ""
            for family in named + tables:
                out = family(x)
                rebuilt = LabeledGraph(Graph(out.graph.n, out.graph.edges), out.labels)
                assert out == rebuilt and hash(out) == hash(rebuilt), x
