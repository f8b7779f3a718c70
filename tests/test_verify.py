"""Tests for the exhaustive verification harness."""

from __future__ import annotations

import json

import pytest

from graphforge.graphs import (
    Graph,
    canonical_form,
    complete_bipartite,
    complete_split,
    cycle_graph,
    enumerate_graph_classes,
    from_json,
    is_isomorphic,
    path_graph,
)
from graphforge.machines import (
    FULL_MEMORY,
    MODIFIABLE,
    NO_MEMORY,
    fading_memory,
    interpret,
    parse_rule,
)
from graphforge.verify import (
    PROPOSITION_IDS,
    enumerate_outputs,
    expressiveness_count,
    find_constructions,
    hierarchy_report,
    reachable_classes,
    verify_proposition,
    _rewrite_family_certificates,
)

# Reachable isomorphism-class counts per model, frozen from enumeration.
CLASS_COUNTS_BY_MODEL = {
    "none": {1: 1, 2: 2, 3: 4, 4: 8, 5: 16},
    "fading": {1: 1, 2: 2, 3: 4, 4: 10, 5: 23},
    "full": {1: 1, 2: 2, 3: 4, 4: 11, 5: 26},
}


def test_all_propositions_pass_at_reduced_bounds() -> None:
    for proposition, max_n in [
        ("P2", 7),
        ("P3", 6),
        ("P5", 6),
        ("C_modifiable", 5),
        ("C_pnfree", 6),
    ]:
        report = verify_proposition(proposition, max_n)
        assert report.passed, report.to_text()
        assert report.checked > 0
        assert report.counterexamples == ()


def test_verify_rejects_unknown_proposition() -> None:
    with pytest.raises(ValueError):
        verify_proposition("P99")
    assert len(PROPOSITION_IDS) == 5


def test_enumerate_outputs_small_cases() -> None:
    # dominate-on-0 under no memory reaches every threshold class
    outs = enumerate_outputs(parse_rule("0>E,1>-"), NO_MEMORY, 3)
    assert len(outs) == 4
    # the all-or-nothing rules reach exactly one class each
    assert len(enumerate_outputs(parse_rule("0>E,1>E"), NO_MEMORY, 3)) == 1
    assert len(enumerate_outputs(parse_rule("0>-,1>-"), NO_MEMORY, 3)) == 1


def test_reachable_class_counts() -> None:
    models = {
        "none": NO_MEMORY,
        "fading": fading_memory(2),
        "full": FULL_MEMORY,
    }
    for name, model in models.items():
        for n, want in CLASS_COUNTS_BY_MODEL[name].items():
            assert expressiveness_count(model, n) == want, (name, n)


def test_no_memory_counts_are_threshold_counts() -> None:
    # distinct threshold graphs on n vertices number 2^(n-1)
    for n in range(1, 6):
        assert expressiveness_count(NO_MEMORY, n) == 2 ** (n - 1)


def test_find_constructions_replays() -> None:
    hits = find_constructions(complete_bipartite(2, 2), FULL_MEMORY)
    assert hits
    for mnemonic, x in hits:
        got = interpret(parse_rule(mnemonic), FULL_MEMORY, x).final.graph
        assert is_isomorphic(got, complete_bipartite(2, 2))
    assert find_constructions(cycle_graph(5), FULL_MEMORY) == []


def test_find_constructions_modifiable_lists_each_pair_once() -> None:
    star = complete_bipartite(1, 4)
    hits = find_constructions(star, MODIFIABLE)
    assert len(hits) == 29
    assert len(set(hits)) == len(hits)
    assert ("0>1,1>-", "00010") in hits
    full_hits = find_constructions(star, FULL_MEMORY)
    assert len(full_hits) == 21
    assert ("0>1,1>-", "00010") not in full_hits


def test_hierarchy_report_rejects_negative_bound() -> None:
    with pytest.raises(ValueError):
        hierarchy_report(-1)


def test_hierarchy_report_structure() -> None:
    report = hierarchy_report(5)
    # both containments in the smaller models hold...
    assert all("no-memory" not in cx.expected for cx in report.counterexamples)
    # ...but the fading model builds paths the full model cannot
    assert not report.passed
    assert report.counterexamples
    seen_path = False
    for cx in report.counterexamples:
        got = interpret(parse_rule(cx.rule), fading_memory(2), cx.x).final.graph
        assert canonical_form(got) == canonical_form(from_json(cx.got))
        if is_isomorphic(got, path_graph(5)):
            seen_path = True
    assert seen_path, "P_5 should witness the failure"


def test_hierarchy_report_serializes() -> None:
    report = hierarchy_report(4)
    obj = json.loads(report.to_json())
    assert obj["proposition"] == "hierarchy"
    assert "counterexamples" in obj
    text = report.to_text()
    assert "result:" in text


def test_modifiable_outputs_within_bound() -> None:
    outs = enumerate_outputs(parse_rule("0>1,1>-"), MODIFIABLE, 4)
    assert len(outs) >= len(enumerate_outputs(parse_rule("0>1,1>-"), FULL_MEMORY, 4))


def test_enumeration_rejects_negative_sizes() -> None:
    rule = parse_rule("0>1,1>-")
    with pytest.raises(ValueError, match="output enumeration needs n >= 0, got -1"):
        enumerate_outputs(rule, FULL_MEMORY, -1)
    with pytest.raises(ValueError, match="output enumeration needs n >= 0, got -1"):
        reachable_classes(FULL_MEMORY, -1)
    # the upper-bound message is unchanged
    with pytest.raises(ValueError, match=r"^output enumeration bounds: n <= 12, modifiable n <= 7$"):
        enumerate_outputs(rule, MODIFIABLE, 8)


def _rewrite_family_member_reference(g: Graph) -> bool:
    """Family membership by isomorphism scan, independent of canonical form:
    complete split, complete bipartite, or complete (degenerate sizes
    allowed)."""
    n = g.n
    if g.edge_count == n * (n - 1) // 2:
        return True
    return any(
        is_isomorphic(g, complete_bipartite(l, n - l)) for l in range(n // 2 + 1)
    ) or any(is_isomorphic(g, complete_split(l, n - l)) for l in range(n + 1))


def test_rewrite_family_certificates_match_the_isomorphism_scan() -> None:
    non_members = 0
    for n in range(8):
        classes = enumerate_graph_classes(n)
        members = {canonical_form(g) for g in classes if _rewrite_family_member_reference(g)}
        assert _rewrite_family_certificates(n) == members, n
        non_members += len(classes) - len(members)
    assert non_members > 0
