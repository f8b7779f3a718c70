"""Tests for the exhaustive verification harness."""

from __future__ import annotations

import json
import random
from itertools import product

import pytest

from graphforge.graphs import (
    LIMITS,
    Graph,
    canonical_form,
    complete_bipartite,
    complete_split,
    cycle_graph,
    enumerate_graph_classes,
    from_json,
    is_isomorphic,
    path_graph,
    to_json,
)
from graphforge.machines import (
    FULL_MEMORY,
    FULL_RULES,
    MODIFIABLE,
    NO_MEMORY,
    NO_MEMORY_RULES,
    ConstructionTrace,
    InvalidActionForModel,
    LabeledGraph,
    StepRecord,
    fading_memory,
    interpret,
    parse_model,
    parse_rule,
)
from graphforge import machines, verify
from graphforge.families import fading_table_family, full_table_family
from graphforge.verify import (
    CHECK_IDS,
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


def test_path_cycle_check_passes_below_the_size_of_its_witnesses() -> None:
    """No string shorter than 4 bits builds an induced 4-path or 4-cycle, so
    C_pnfree demands those witnesses only from max_n = 4 on."""
    for max_n in range(5):
        report = verify_proposition("C_pnfree", max_n)
        assert report.passed, report.to_text()
        assert any("4-cycle witness" in note for note in report.notes) == (max_n >= 4)


def test_verify_rejects_unknown_proposition() -> None:
    with pytest.raises(ValueError):
        verify_proposition("P99")
    assert len(PROPOSITION_IDS) == 5


def test_walk_bounds_refuse_a_length_that_is_not_an_int() -> None:
    # the type is checked first, so a negative or too large float is refused as a float
    for bad in (True, 2.5, -0.5, 12.5):
        with pytest.raises(ValueError) as exc:
            verify_proposition("P2", bad)
        assert str(exc.value) == f"need an int n, got {bad!r}"
        with pytest.raises(ValueError) as exc:
            enumerate_outputs(parse_rule("0>1,1>-"), FULL_MEMORY, bad)
        assert str(exc.value) == f"need an int n, got {bad!r}"


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
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 12, got -1$"):
        enumerate_outputs(rule, FULL_MEMORY, -1)
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 12, got -1$"):
        reachable_classes(FULL_MEMORY, -1)
    # one message names both ends of the model's bound
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 7, got 8$"):
        enumerate_outputs(rule, MODIFIABLE, 8)
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 12, got 13$"):
        enumerate_outputs(rule, FULL_MEMORY, 13)


def test_enumeration_refuses_label_rules_without_memory() -> None:
    rule = parse_rule("0>1,1>-")
    with pytest.raises(InvalidActionForModel) as direct:
        interpret(rule, NO_MEMORY, "010")
    message = "rule 0>1,1>- joins by label but the model stores no labels"
    assert str(direct.value) == message
    for n in (0, 3):
        with pytest.raises(InvalidActionForModel) as raised:
            enumerate_outputs(rule, NO_MEMORY, n)
        assert str(raised.value) == message


def _step_options(rule, model):
    """The legal (bit, choice) options of one step, in product order: a
    step may modify only under the modifiable model, and only when its
    bit's action is a label join."""
    modifiable = model.kind == "modifiable"
    return [
        (bit, choice)
        for bit in (0, 1)
        for choice in ("sm" if modifiable and rule.action_for(bit).join_target is not None else "s")
    ]


def _runs_by_replay(rule, model, n: int):
    """Every run as a product over the per-step options, each replayed from
    step 1 through interpret, which takes choices under the modifiable
    model only."""
    modifiable = model.kind == "modifiable"
    for run in product(_step_options(rule, model), repeat=n):
        x = "".join(str(bit) for bit, _ in run)
        choices = "".join(choice for _, choice in run)
        yield interpret(rule, model, x, choices if modifiable else None)


_WALK_CASES = [(NO_MEMORY, NO_MEMORY_RULES, 8), (FULL_MEMORY, FULL_RULES, 8)]
_WALK_CASES += [(fading_memory(2), FULL_RULES, 8), (MODIFIABLE, FULL_RULES, 6)]


def test_shared_prefix_walk_matches_replay() -> None:
    """Each length's runs equal the replays, in order, from a walk of that
    length alone and from one pre-order walk over every length 0..max_n, in
    which each run prefix comes before its extensions."""
    for model, rules, max_n in _WALK_CASES:
        for rule in rules:
            every_length = list(machines._runs(rule, model, max_n, 0))
            seen = set()
            for trace in every_length:
                assert (trace.x[:-1], (trace.choices or "")[:-1]) in seen or not trace.x
                seen.add((trace.x, trace.choices or ""))
            assert len(seen) == len(every_length)
            for n in range(max_n + 1):
                replayed = list(_runs_by_replay(rule, model, n))
                assert list(machines._runs(rule, model, n)) == replayed
                assert [t for t in every_length if len(t.x) == n] == replayed


def _public_rebuild(trace):
    """The trace rebuilt field by field through the public constructors,
    which check what they are given."""
    steps = tuple(StepRecord(r.step, r.bit, r.action, r.modified, r.edges_added) for r in trace.steps)
    g = trace.final.graph
    final = LabeledGraph(Graph(g.n, g.edges), trace.final.labels)
    return ConstructionTrace(trace.rule, trace.model, trace.x, trace.choices, steps, final)


def test_walk_traces_equal_their_public_rebuilds() -> None:
    """The walk builds its steps, traces and graphs without re-checking
    them; every one equals, and hashes like, its checked rebuild."""
    for model, rules, max_n in _WALK_CASES:
        for rule in rules:
            for n in range(max_n + 1):
                for trace in machines._runs(rule, model, n):
                    rebuilt = _public_rebuild(trace)
                    assert trace == rebuilt and hash(trace) == hash(rebuilt), (rule.mnemonic, trace.x)
                    per_step = trace.graphs_per_step()
                    assert [hash(g) for g in per_step] == [hash(Graph(g.n, g.edges)) for g in per_step]


def test_long_run_traces_equal_their_public_rebuilds() -> None:
    """Seeded runs of 2,000 bits, under every rule and model whose edge cap
    admits them (fading(2) without DominateAll), and of 400 bits under the
    rest, equal and hash like their checked rebuilds."""
    rng = random.Random(2000)
    for model, rules, _ in _WALK_CASES:
        for rule in rules:
            try:
                machines._check_run(rule, model, 2000)
                n = 2000
            except ValueError:
                n = 400
            x = "".join(rng.choice("01") for _ in range(n))
            choices = None
            if model.kind == "modifiable":
                joins = {bit for bit in (0, 1) if rule.action_for(bit).join_target is not None}
                choices = "".join(
                    "m" if int(b) in joins and rng.random() < 0.05 else "s" for b in x
                )
            trace = interpret(rule, model, x, choices)
            rebuilt = _public_rebuild(trace)
            assert trace == rebuilt and hash(trace) == hash(rebuilt), (rule.mnemonic, str(model))
            assert len(trace.steps) == n


def test_walk_steps_every_prefix_once(monkeypatch) -> None:
    calls = 0
    real = machines._step

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(machines, "_step", counted)
    for model, rules, _ in _WALK_CASES:
        for rule in rules:
            b = len(_step_options(rule, model))
            for n in range(7):
                for shortest in (n, 0):
                    calls = 0
                    list(machines._runs(rule, model, n, shortest))
                    assert calls == sum(b**t for t in range(1, n + 1)), (rule.mnemonic, str(model), n)


def test_find_constructions_matches_order_free_reference() -> None:
    # per rule, the ascending strings some replayed run of which is
    # isomorphic to the target, compared by certificate
    for model, rules, _ in _WALK_CASES:
        for n in range(6):
            outputs = {rule: {} for rule in rules}
            for rule in rules:
                for trace in _runs_by_replay(rule, model, n):
                    outputs[rule].setdefault(trace.x, set()).add(canonical_form(trace.final.graph))
            for g in enumerate_graph_classes(n):
                cert = canonical_form(g)
                want = [
                    (rule.mnemonic, x)
                    for rule in rules
                    for x, certs in sorted(outputs[rule].items())
                    if cert in certs
                ]
                assert find_constructions(g, model) == want, (str(model), to_json(g))


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


# ---------------------------------------------------------------------------
# failure paths: one planted fault per check stage
# ---------------------------------------------------------------------------

def _replay(cx):
    """The run a counterexample names, rebuilt by one interpret call."""
    return interpret(parse_rule(cx.rule), parse_model(cx.model), cx.x, cx.choices)


def _assert_replays(cx) -> None:
    """The counterexample's rule, model, string and choices rebuild the
    graph it reports."""
    assert _replay(cx).final.graph == from_json(cx.got), cx


def _planted(monkeypatch, name: str, fake, proposition: str, max_n: int):
    """(passing report, report with verify.<name> replaced by fake)."""
    clean = verify_proposition(proposition, max_n)
    assert clean.passed
    monkeypatch.setattr(verify, name, fake)
    faulty = verify_proposition(proposition, max_n)
    assert not faulty.passed
    assert faulty.checked == clean.checked
    assert faulty.to_text().endswith("result: FAIL\n")
    return clean, faulty


def test_p2_reports_a_wrong_closed_form(monkeypatch) -> None:
    def family(rule, x):
        if rule.mnemonic == "0>E,1>-" and x == "0110":
            return full_table_family(parse_rule("0>-,1>-"), x)
        return full_table_family(rule, x)

    _, faulty = _planted(monkeypatch, "full_table_family", family, "P2", 5)
    [cx] = faulty.counterexamples
    assert (cx.rule, cx.model, cx.x, cx.choices) == ("0>E,1>-", "none", "0110", None)
    assert cx.expected.startswith("closed form ")
    assert from_json(cx.expected[len("closed form "):]).edge_count == 0
    _assert_replays(cx)


def test_p2_reports_a_failed_threshold_test(monkeypatch) -> None:
    real = verify.is_threshold
    # sizes above 6 skip the class comparison, so only the per-run test fires
    _, faulty = _planted(monkeypatch, "is_threshold", lambda g: g.n != 7 and real(g), "P2", 7)
    assert len(faulty.counterexamples) == 2**7
    assert [cx.x for cx in faulty.counterexamples] == [format(k, "07b") for k in range(2**7)]
    for cx in faulty.counterexamples:
        assert (cx.rule, cx.expected) == ("0>E,1>-", "a threshold graph (elimination test)")
        _assert_replays(cx)


def test_p2_reports_a_class_set_mismatch(monkeypatch) -> None:
    real = verify.enumerate_graph_classes

    def classes(n):
        # drop the triangle from the 3-vertex classes
        return [c for c in real(n) if not (n == 3 and c.edge_count == 3)]

    clean, faulty = _planted(monkeypatch, "enumerate_graph_classes", classes, "P2", 4)
    [cx] = faulty.counterexamples
    assert (cx.rule, cx.model, cx.choices) == ("0>E,1>-", "none", None)
    assert cx.x == "all strings of length 3"
    assert cx.expected == "exactly the threshold isomorphism classes"
    assert cx.got == "4 classes vs 3 threshold classes"
    assert faulty.notes == clean.notes


def test_p5_reports_a_wrong_closed_form(monkeypatch) -> None:
    def family(rule, x):
        if rule.mnemonic == "0>1,1>0" and x == "0101":
            return fading_table_family(parse_rule("0>E,1>E"), x)
        return fading_table_family(rule, x)

    clean, faulty = _planted(monkeypatch, "fading_table_family", family, "P5", 5)
    [cx] = faulty.counterexamples
    assert (cx.rule, cx.model, cx.x, cx.choices) == ("0>1,1>0", "fading(2)", "0101", None)
    assert cx.expected.startswith("closed form ")
    assert from_json(cx.expected[len("closed form "):]).edge_count == 6
    assert faulty.notes == clean.notes
    _assert_replays(cx)


# Planted faults at three lengths: the counterexamples come in the order of
# walking each rule one length at a time, (rule, length, run order).

def _runs_length_by_length(rules, model, max_n: int):
    return [trace for rule in rules for n in range(max_n + 1) for trace in machines._runs(rule, model, n)]


def test_closed_form_faults_at_three_lengths_keep_the_report_order(monkeypatch) -> None:
    lengths = {3, 5, 7}

    def family(rule, x):
        if len(x) in lengths and x.count("1") % 2 == 0:
            return full_table_family(parse_rule("0>-,1>-" if rule.mnemonic != "0>-,1>-" else "0>E,1>E"), x)
        return full_table_family(rule, x)

    _, faulty = _planted(monkeypatch, "full_table_family", family, "P3", 7)
    want = [
        (t.rule.mnemonic, t.x)
        for t in _runs_length_by_length(FULL_RULES, FULL_MEMORY, 7)
        if len(t.x) in lengths and t.x.count("1") % 2 == 0 and family(t.rule, t.x).graph != t.final.graph
    ]
    assert [(cx.rule, cx.x) for cx in faulty.counterexamples] == want
    assert len({len(x) for _, x in want}) == 3 and len({rule for rule, _ in want}) == 10
    for cx in faulty.counterexamples:
        _assert_replays(cx)


def test_threshold_faults_at_three_lengths_keep_the_report_order(monkeypatch) -> None:
    real = verify.is_threshold
    _, faulty = _planted(monkeypatch, "is_threshold", lambda g: g.n not in {3, 5, 7} and real(g), "P2", 7)
    per_run = [format(k, f"0{n}b") for n in (3, 5, 7) for k in range(2**n)]
    assert [cx.x for cx in faulty.counterexamples] == per_run + [
        "all strings of length 3", "all strings of length 5"
    ]
    for cx in faulty.counterexamples[: len(per_run)]:
        assert (cx.rule, cx.expected) == ("0>E,1>-", "a threshold graph (elimination test)")
        _assert_replays(cx)


def test_rewrite_family_faults_at_three_lengths_keep_the_report_order(monkeypatch) -> None:
    lengths = {3, 4, 6}
    real = verify._rewrite_family_certificates
    fake = lambda t: frozenset() if t in lengths else real(t)  # noqa: E731
    _, faulty = _planted(monkeypatch, "_rewrite_family_certificates", fake, "C_modifiable", 6)
    want = [
        (t.rule.mnemonic, t.x, t.choices, step)
        for t in _runs_length_by_length(FULL_RULES, MODIFIABLE, 6)
        for step in machines.memory_modifiable_steps(t)
        if step in lengths
    ]
    got = [(cx.rule, cx.x, cx.choices, int(cx.expected[5:cx.expected.index(" ")])) for cx in faulty.counterexamples]
    assert got == want and {step for *_, step in want} == lengths
    # a rewrite-family counterexample reports the graph after its step
    for cx, (*_, step) in zip(faulty.counterexamples, got):
        assert _replay(cx).graphs_per_step()[step] == from_json(cx.got), cx


def test_rewrite_check_reads_each_step_once(monkeypatch) -> None:
    """C_modifiable tests only each trace's last step and carries its
    prefix's count: one rewrite test per trace past the empty one, no
    per-step graphs, and the count of the per-trace scan it replaced."""
    real, read = verify._rewrites, []
    monkeypatch.setattr(verify, "_rewrites", lambda rec: read.append(rec) or real(rec))

    def refuse(trace):
        raise AssertionError("graphs_per_step called")

    monkeypatch.setattr(ConstructionTrace, "graphs_per_step", refuse)
    report = verify_proposition("C_modifiable", 5)
    traces = [t for rule in FULL_RULES for t in machines._runs(rule, MODIFIABLE, 5, 0) if t.x]
    assert len(read) == len(traces) and report.passed
    flagged = sum(len(machines.memory_modifiable_steps(t)) for t in traces)
    assert f"{flagged} rewrite steps examined" in report.notes


def test_shape_and_forest_checks_decide_without_isomorphism(monkeypatch) -> None:
    """Every named shape of P3 is met exactly under the label-sorting map,
    and P5 compares component sizes, so neither calls is_isomorphic."""

    def refuse(g, h):
        raise AssertionError("is_isomorphic called")

    monkeypatch.setattr(verify, "is_isomorphic", refuse)
    assert verify_proposition("P3").passed and verify_proposition("P5").passed


def test_run_counterexamples_replay_through_one_interpret_call(monkeypatch) -> None:
    """Every counterexample built from a run, under planted faults in P2,
    P3, P5, C_modifiable, C_pnfree and hierarchy and from hierarchy's own
    escapes, replays through one interpret call whatever its model: the
    graph it reports is the run's final graph, or the graph after the step
    it names."""
    real_rewrites = verify._rewrite_family_certificates
    real_contains = verify.contains_induced
    real_witnesses = verify._reachable_with_witnesses

    def witnesses(model, n, shortest=None):
        # every other class of the two richer models goes missing
        levels = real_witnesses(model, n, shortest)
        if model.kind == "none":
            return levels
        return [{c: t for k, (c, t) in enumerate(sorted(lvl.items())) if k % 2} for lvl in levels]

    faults = [
        ("full_table_family",
         lambda rule, x: full_table_family(parse_rule("0>-,1>-" if x.count("1") == 2 else rule.mnemonic), x),
         ("P2", "P3")),
        ("fading_table_family",
         lambda rule, x: fading_table_family(parse_rule("0>E,1>E" if len(x) == 4 else rule.mnemonic), x),
         ("P5",)),
        ("_rewrite_family_certificates", lambda t: frozenset() if t == 4 else real_rewrites(t), ("C_modifiable",)),
        ("contains_induced", lambda g, h: g.n == 6 or real_contains(g, h), ("C_pnfree",)),
        ("_reachable_with_witnesses", witnesses, ("hierarchy",)),
    ]
    reports = [hierarchy_report(6)]
    for name, fake, checks in faults:
        with monkeypatch.context() as m:
            m.setattr(verify, name, fake)
            reports += [verify_proposition(check, 6) for check in checks]
    models = set()
    for report in reports:
        assert report.counterexamples, report.proposition
        for cx in report.counterexamples:
            step = int(cx.expected[5:cx.expected.index(" ")]) if cx.expected.startswith("step-") else -1
            assert _replay(cx).graphs_per_step()[step] == from_json(cx.got), (report.proposition, cx)
            models.add(cx.model)
    assert models == {"none", "full", "fading(2)", "modifiable"}


def test_hierarchy_is_a_row_of_the_check_table() -> None:
    assert CHECK_IDS == PROPOSITION_IDS + ("hierarchy",)
    for n in range(9):
        by_id, by_name = verify_proposition("hierarchy", n), hierarchy_report(n)
        assert by_id.to_json() == by_name.to_json() and by_id.to_text() == by_name.to_text()
    assert hierarchy_report().max_n == verify_proposition("hierarchy").max_n == 8
    for call in (hierarchy_report, lambda n: verify_proposition("hierarchy", n)):
        with pytest.raises(ValueError, match=r"^hierarchy supports 0 <= max_n <= 12, got 13$"):
            call(13)
        with pytest.raises(ValueError, match=r"^hierarchy supports 0 <= max_n <= 12, got -1$"):
            call(-1)
    with pytest.raises(ValueError) as exc:
        verify_proposition("P99")
    assert str(exc.value) == (
        "unknown check 'P99'; expected one of P2, P3, P5, C_modifiable, C_pnfree, hierarchy"
    )


def test_each_walk_entry_bounds_the_checks_that_walk_its_model(monkeypatch) -> None:
    """enumeration_n bounds every check but C_modifiable, which modifiable_n
    bounds alone; a check within its bound starts its walk."""

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(verify, "_runs", started)
    by_entry = {"enumeration_n": ("P2", "P3", "P5", "C_pnfree", "hierarchy"), "modifiable_n": ("C_modifiable",)}
    for entry, moved in by_entry.items():
        with monkeypatch.context() as m:
            m.setitem(LIMITS, entry, LIMITS[entry] - 3)
            for check in CHECK_IDS:
                limit = (7 if check == "C_modifiable" else 12) - (3 if check in moved else 0)
                with pytest.raises(ValueError) as exc:
                    verify_proposition(check, limit + 1)
                assert str(exc.value) == f"{check} supports 0 <= max_n <= {limit}, got {limit + 1}"
                with pytest.raises(Started):
                    verify_proposition(check, limit)


def test_expressiveness_count_reads_the_enumeration_bound() -> None:
    assert expressiveness_count(FULL_MEMORY, 9) == 510
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 12, got 13$"):
        expressiveness_count(FULL_MEMORY, 13)
    with pytest.raises(ValueError, match=r"^output enumeration supported for 0 <= n <= 7, got 8$"):
        expressiveness_count(MODIFIABLE, 8)
