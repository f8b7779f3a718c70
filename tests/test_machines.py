"""Tests for the instruction-driven construction machines."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge import families, machines
from graphforge.cli import main as cli_main
from graphforge.graphs import (
    LIMITS,
    Graph,
    complete_bipartite,
    complete_graph,
    empty_graph,
    induced_subgraph,
    is_isomorphic,
)
from graphforge.machines import (
    FULL_MEMORY,
    FULL_RULES,
    MODIFIABLE,
    NO_MEMORY,
    NO_MEMORY_RULES,
    Action,
    InvalidActionForModel,
    LabeledGraph,
    ModifyUnsupported,
    StepRecord,
    canonical_rule,
    fading_memory,
    interpret,
    is_memory_modifiable_output,
    memory_modifiable_steps,
    parse_model,
    parse_rule,
    swap_rule,
)

BITS = st.text(alphabet="01", min_size=1, max_size=8)


def test_parse_rule_round_trip() -> None:
    for rule in FULL_RULES:
        assert parse_rule(rule.mnemonic) == rule
    assert parse_rule("0 > E , 1 > -").mnemonic == "0>E,1>-"


def test_parse_rule_rejects_malformed() -> None:
    for bad in ("0>E", "0>E,1>X", "0>E,0>-", "1>E,0>-,1>1", ">E,1>-"):
        with pytest.raises(ValueError):
            parse_rule(bad)


def test_swap_rule_is_involutive_and_canonical() -> None:
    for rule in FULL_RULES:
        assert swap_rule(swap_rule(rule)) == rule
        assert canonical_rule(rule) == rule
        assert canonical_rule(swap_rule(rule)) == rule
    # the ten canonical tables cover all sixteen raw tables
    raw = {
        parse_rule(f"0>{a},1>{b}")
        for a in "-E01"
        for b in "-E01"
    }
    assert {canonical_rule(r) for r in raw} == set(FULL_RULES)


def test_model_parsing() -> None:
    assert parse_model("none") == NO_MEMORY
    assert parse_model("full") == FULL_MEMORY
    assert parse_model("modifiable") == MODIFIABLE
    assert parse_model("fading") == fading_memory(2)
    assert parse_model("fading(2)") == fading_memory(2)
    with pytest.raises(ValueError):
        parse_model("psychic")
    with pytest.raises(ValueError):
        fading_memory(3)


def test_no_memory_accepts_only_label_free_rules() -> None:
    assert [r.mnemonic for r in NO_MEMORY_RULES] == ["0>-,1>-", "0>E,1>-", "0>E,1>E"]
    for rule in NO_MEMORY_RULES:
        interpret(rule, NO_MEMORY, "0101")
    with pytest.raises(InvalidActionForModel):
        interpret(parse_rule("0>0,1>-"), NO_MEMORY, "0")


def test_interpret_builds_expected_small_graphs() -> None:
    # dominate-all on every bit yields the complete graph
    t = interpret(parse_rule("0>E,1>E"), NO_MEMORY, "0000")
    assert t.final.graph == complete_graph(4)
    # no-edge on every bit yields the empty graph
    t = interpret(parse_rule("0>-,1>-"), NO_MEMORY, "1111")
    assert t.final.graph == empty_graph(4)
    # worked string: each 1 joins to nothing, each 0 joins to earlier 1s
    t = interpret(parse_rule("0>1,1>-"), FULL_MEMORY, "10010")
    assert t.final.graph.sorted_edges() == [(1, 2), (1, 3), (1, 5), (4, 5)]
    assert t.final.labels == (1, 0, 0, 1, 0)


def test_trace_structure() -> None:
    t = interpret(parse_rule("0>E,1>-"), NO_MEMORY, "0011")
    assert [rec.step for rec in t.steps] == [1, 2, 3, 4]
    assert [rec.bit for rec in t.steps] == [0, 0, 1, 1]
    assert t.steps[1].action is Action.DOMINATE_ALL
    per_step = t.graphs_per_step()
    assert len(per_step) == 5
    assert per_step[0] == empty_graph(0)
    assert per_step[-1] == t.final.graph
    # each prefix graph is induced in the final one
    for k in range(1, 5):
        assert per_step[k] == induced_subgraph(t.final.graph, range(1, k + 1))


def test_resource_cost_accounting() -> None:
    t_none = interpret(parse_rule("0>E,1>-"), NO_MEMORY, "00110")
    assert t_none.cost.instruction_bits == 5
    assert t_none.cost.memory_bits == 0
    assert t_none.cost.random_bits == 0
    t_full = interpret(parse_rule("0>0,1>1"), FULL_MEMORY, "00110")
    assert t_full.cost.memory_bits == 5


def test_fading_memory_window() -> None:
    # join-by-label can only reach the previous vertex under a window of 2
    t = interpret(parse_rule("0>0,1>0"), fading_memory(2), "000")
    assert t.final.graph.sorted_edges() == [(1, 2), (2, 3)]
    t = interpret(parse_rule("0>0,1>-"), fading_memory(2), "010")
    assert t.final.graph.sorted_edges() == []


def test_prefix_monotonicity() -> None:
    rule = parse_rule("0>0,1>1")
    t_long = interpret(rule, FULL_MEMORY, "001101")
    t_short = interpret(rule, FULL_MEMORY, "00110")
    assert t_long.graphs_per_step()[5] == t_short.final.graph


@settings(max_examples=80, deadline=None)
@given(x=BITS, extra=st.sampled_from("01"))
def test_prefix_monotonicity_property(x: str, extra: str) -> None:
    rule = parse_rule("0>E,1>0")
    longer = interpret(rule, FULL_MEMORY, x + extra)
    shorter = interpret(rule, FULL_MEMORY, x)
    assert longer.graphs_per_step()[len(x)] == shorter.final.graph


def test_modifiable_all_stay_puts_matches_full_memory() -> None:
    rule = parse_rule("0>1,1>0")
    for x in ("0", "01", "0110", "010101"):
        plain = interpret(rule, FULL_MEMORY, x)
        mod = interpret(rule, MODIFIABLE, x, "s" * len(x))
        assert mod.final.graph == plain.final.graph


def test_modifiable_worked_example() -> None:
    # modify at the last step: the final 0 joins all earlier vertices to
    # the lone 1-labelled vertex, completing a star on five vertices
    t = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", "ssssm")
    assert is_isomorphic(t.final.graph, complete_bipartite(1, 4))
    assert memory_modifiable_steps(t) == [5]
    assert is_memory_modifiable_output(t)


def _rewrite_steps_by_isomorphism(trace) -> list[int]:
    """Reference definition of a rewrite step: deleting vertex t from G_t
    does not recover G_{t-1} up to isomorphism."""
    per_step = trace.graphs_per_step()
    return [
        t
        for t in range(1, len(per_step))
        if not is_isomorphic(induced_subgraph(per_step[t], range(1, t)), per_step[t - 1])
    ]


def test_rewrite_steps_from_edge_records_match_isomorphism_definition() -> None:
    traces = 0
    for rule in FULL_RULES:
        for n in range(7):
            for bits in product("01", repeat=n):
                x = "".join(bits)
                options = ["sm" if rule.action_for(int(b)).join_target is not None else "s" for b in x]
                for choices in product(*options):
                    trace = interpret(rule, MODIFIABLE, x, "".join(choices))
                    assert memory_modifiable_steps(trace) == _rewrite_steps_by_isomorphism(trace)
                    traces += 1
    assert traces == 21136


def test_modifiable_stay_put_is_not_flagged() -> None:
    t = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", "sssss")
    assert memory_modifiable_steps(t) == []
    assert not is_memory_modifiable_output(t)


def test_modify_rejected_outside_join_actions() -> None:
    with pytest.raises(ModifyUnsupported):
        interpret(parse_rule("0>E,1>-"), MODIFIABLE, "00", "sm")
    with pytest.raises(ModifyUnsupported):
        interpret(parse_rule("0>-,1>-"), MODIFIABLE, "0", "m")


def test_modifiable_choice_validation() -> None:
    with pytest.raises(ValueError):
        interpret(parse_rule("0>1,1>-"), MODIFIABLE, "0010", "ss")
    with pytest.raises(ValueError):
        interpret(parse_rule("0>1,1>-"), MODIFIABLE, "0010", "ssxq")


def test_choice_lists_must_be_booleans() -> None:
    """A list of choices holds booleans, True for a rewrite; anything else
    is refused before the first step, however truthy it is."""
    rule = parse_rule("0>1,1>0")
    assert interpret(rule, MODIFIABLE, "01", [False, True]) == interpret(rule, MODIFIABLE, "01", "sm")
    assert interpret(rule, MODIFIABLE, "0101", iter([True] * 4)).choices == "mmmm"
    bad = [["s"] * 4, [0, 1, 0, 1], [1, True, False, False], [None] * 4]
    for choices in bad:
        with pytest.raises(ValueError, match="choices must be an s/m string or booleans"):
            interpret(rule, MODIFIABLE, "0101", choices)
    # "s" strings once read as rewrites and failed at the first NoEdge step
    with pytest.raises(ValueError) as exc:
        interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", ["s"] * 5)
    assert not isinstance(exc.value, ModifyUnsupported)


def test_choices_apply_only_under_the_modifiable_model() -> None:
    """interpret refuses choices, of any form, under none, full and
    fading(2), before its other checks; under the modifiable model omitted
    choices are all "s", and booleans are accepted."""
    cases = [(NO_MEMORY, "0>E,1>-"), (FULL_MEMORY, "0>1,1>0"), (fading_memory(2), "0>1,1>0")]
    cases.append((NO_MEMORY, "0>1,1>0"))  # refused for its choices before its label joins
    for model, mnemonic in cases:
        rule = parse_rule(mnemonic)
        for choices in ("ss", "sm", "", [False, False], [True, False], "xyz"):
            with pytest.raises(ValueError) as exc:
                interpret(rule, model, "01", choices)
            assert str(exc.value) == f"choices apply only to the modifiable model, not {model}"
    rule = parse_rule("0>1,1>0")
    for x in ("", "0", "0110", "01011"):
        omitted = interpret(rule, MODIFIABLE, x)
        assert omitted == interpret(rule, MODIFIABLE, x, "s" * len(x))
        assert omitted == interpret(rule, MODIFIABLE, x, [False] * len(x))
        assert omitted.choices == "s" * len(x)
        assert omitted.steps == interpret(rule, FULL_MEMORY, x).steps
    assert interpret(rule, MODIFIABLE, "0110", (False, True, False, True)).choices == "smsm"


def test_labeled_graph_checks_its_labels() -> None:
    g = Graph(3, frozenset({(1, 2)}))
    assert LabeledGraph(g, (0, 1, 1)).labels == (0, 1, 1)
    for labels in ((0, 1), (0, 1, 1, 0), (0, 2, 1), (0, -1, 1)):
        with pytest.raises(ValueError):
            LabeledGraph(g, labels)


def test_interpret_rejects_bad_strings() -> None:
    with pytest.raises(ValueError):
        interpret(parse_rule("0>E,1>E"), NO_MEMORY, "0a1")
    # the empty instruction string builds the graph on zero vertices
    assert interpret(parse_rule("0>E,1>E"), NO_MEMORY, "").final.graph == empty_graph(0)


def test_bit_decoder_accepts_only_ascii_bits() -> None:
    """The decoder refuses every character but ASCII 0 and 1, digits that
    int() reads included, with one message; families check bits with it."""
    decode = machines._check_instruction_string
    assert decode("") == ()
    assert decode("0110") == (0, 1, 1, 0)
    assert decode("01" * 4000) == (0, 1) * 4000
    others = [chr(c) for c in range(0x80) if chr(c) not in "01"]
    others += ["\u0660", "\uff10", "\U0001d7ce", "\u00b9", "\u2070"]
    for ch in others:
        for x in (ch, "0" + ch, ch + "1", "01" + ch + "10"):
            for check in (decode, families.check_bits):
                with pytest.raises(ValueError) as exc:
                    check(x)
                assert str(exc.value) == f"instruction string must be over 0/1, got {x!r}"


def test_step_records_are_their_field_tuples() -> None:
    rec = StepRecord(3, 1, Action.JOIN_LABEL_0, False, ((1, 3), (2, 3)))
    fields = (3, 1, Action.JOIN_LABEL_0, False, ((1, 3), (2, 3)))
    assert rec == fields and hash(rec) == hash(fields)
    assert rec._fields == ("step", "bit", "action", "modified", "edges_added")
    assert (rec.step, rec.bit, rec.action, rec.modified, rec.edges_added) == fields
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is StepRecord and clone == rec and hash(clone) == hash(rec)
    trace = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", "ssssm")
    assert pickle.loads(pickle.dumps(trace)) == trace == copy.deepcopy(trace)


def test_trace_json_is_self_describing() -> None:
    t = interpret(parse_rule("0>1,1>-"), FULL_MEMORY, "10010")
    obj = t.to_json_obj()
    assert obj["rule"] == "0>1,1>-"
    assert obj["x"] == "10010"
    assert obj["graph"]["n"] == 5
    assert len(obj["steps"]) == 5
    assert obj["cost"]["instruction_bits"] == 5


def test_build_edge_cap_boundary() -> None:
    # C(1448, 2) = 1,047,628 fits under LIMITS["build_edges"]; C(1449, 2) does
    # not, whatever the rule actually adds.
    assert comb(1448, 2) <= LIMITS["build_edges"] < comb(1449, 2)
    rule = parse_rule("0>-,1>-")
    assert interpret(rule, FULL_MEMORY, "0" * 1448).final.graph == empty_graph(1448)
    with pytest.raises(ValueError, match="may build 1049076 edges"):
        interpret(rule, FULL_MEMORY, "0" * 1449)
    with pytest.raises(ValueError, match="may build"):
        interpret(parse_rule("0>1,1>-"), MODIFIABLE, "0" * 1449, "s" * 1449)
    # fading(2) label joins add at most n - 1 edges; DominateAll lifts that
    assert interpret(parse_rule("0>1,1>0"), fading_memory(2), "01" * 4000).final.graph.edge_count == 7999


def test_cli_build_over_edge_cap_exits_2_at_once(capsys) -> None:
    start = time.perf_counter()
    assert cli_main(["build", "--rule", "0>E,1>E", "--model", "fading(2)", "--x", "0" * 8000]) == 2
    assert time.perf_counter() - start < 5.0
    assert "may build 31996000 edges" in capsys.readouterr().err
    assert cli_main(["build", "--rule", "0>-,1>-", "--model", "full", "--x", "1" * 1449]) == 2
    assert cli_main(["build", "--rule", "0>-,1>-", "--model", "full", "--x", "1" * 1448]) == 0


_HASH_SCRIPT = """
from graphforge.machines import *
rule = parse_rule("0>1,1>-")
print(hash(NO_MEMORY), hash(FULL_MEMORY), hash(MODIFIABLE), hash(fading_memory(2)))
print(hash(interpret(rule, FULL_MEMORY, "0110")), hash(interpret(rule, MODIFIABLE, "0110", "sssm")))
"""


def test_hashes_agree_between_processes() -> None:
    """The models and traces hash alike in two processes with one
    PYTHONHASHSEED, though their fields hold None, which hashes by address
    before Python 3.12; equal values still hash alike."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT], capture_output=True, text=True, env=env, check=True
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 6
    assert hash(fading_memory(2)) == hash(parse_model("fading")) and FULL_MEMORY != NO_MEMORY
    trace = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "0110", "sssm")
    assert trace == copy.deepcopy(trace) and hash(trace) == hash(copy.deepcopy(trace))
