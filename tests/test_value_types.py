"""One contract for graphforge's value types, the NamedTuple records and the
`graphs._Value` classes alike: equal fields give equal values with equal
hashes, fields cannot be assigned or deleted, copies round-trip, and each
constructor keeps its field order, keyword names and refusal messages."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from graphforge.graphs import Graph, path_graph
from graphforge.machines import (
    MODIFIABLE,
    Action,
    ConstructionTrace,
    LabeledGraph,
    MemoryModel,
    ResourceCost,
    RuleSet,
    StepRecord,
    interpret,
    parse_rule,
)
from graphforge.randomness import Binomial, ClassLikelihood, LikelihoodTable, McEstimate, Uniform
from graphforge.trees import ParentVector
from graphforge.verify import Counterexample, VerificationReport


def _class_likelihood_fields() -> tuple:
    return (path_graph(2), "2:1", 1, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))


def _trace_fields() -> tuple:
    t = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "0110", "sssm")
    return (t.rule, t.model, t.x, t.choices, t.steps, t.final)


# (type, its field names in positional order, a builder of its field values
# that returns equal but freshly built values on every call)
VALUE_TYPES = [
    (Graph, ("n", "edges"), lambda: (3, frozenset({(1, 2), (2, 3)}))),
    (LabeledGraph, ("graph", "labels"), lambda: (path_graph(2), (0, 1))),
    (ConstructionTrace, ("rule", "model", "x", "choices", "steps", "final"), _trace_fields),
    (MemoryModel, ("kind", "window"), lambda: ("fading", 2)),
    (Uniform, (), lambda: ()),
    (Binomial, ("p",), lambda: (Fraction(1, 3),)),
    (ParentVector, ("n", "parents"), lambda: (4, (1, 1, 3))),
    (RuleSet, ("action_for_0", "action_for_1"), lambda: (Action.DOMINATE_ALL, Action.JOIN_LABEL_0)),
    (ResourceCost, ("instruction_bits", "memory_bits", "random_bits"), lambda: (4, 4, 0)),
    (McEstimate, ("estimate", "stderr", "hits", "samples", "seed"), lambda: (0.5, 0.125, 8, 16, 7)),
    (
        ClassLikelihood,
        ("graph", "certificate", "edge_count", "aut", "likelihood", "lower", "upper"),
        _class_likelihood_fields,
    ),
    (LikelihoodTable, ("n", "rows"), lambda: (2, (ClassLikelihood(*_class_likelihood_fields()),))),
    (
        Counterexample,
        ("rule", "model", "x", "choices", "expected", "got"),
        lambda: ("0>1,1>-", "modifiable", "01", "sm", "a 2-path", "E2"),
    ),
    (
        VerificationReport,
        ("proposition", "max_n", "rules", "models", "checked", "counterexamples", "notes", "wall_time"),
        lambda: ("P2", 3, ("0>-,1>-",), ("none",), 14, (), ("n=3: 4 classes",), 0.25),
    ),
    (
        StepRecord,
        ("step", "bit", "action", "modified", "edges_added"),
        lambda: (2, 1, Action.DOMINATE_ALL, False, ((1, 2),)),
    ),
]


@pytest.mark.parametrize("cls, names, fields", VALUE_TYPES, ids=[row[0].__name__ for row in VALUE_TYPES])
def test_value_type_contract(cls, names, fields) -> None:
    a, b = cls(*fields()), cls(*fields())
    assert a == b and not a != b and hash(a) == hash(b)
    assert cls(**dict(zip(names, fields()))) == a
    assert tuple(getattr(a, name) for name in names) == fields()
    assert a and repr(a).startswith(f"{cls.__name__}(")
    twin = copy.deepcopy(a)
    assert twin == a and hash(twin) == hash(a)
    for name in (*names, "added"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_values_hash_like_the_tuple_of_their_hashed_fields() -> None:
    """As the frozen dataclasses did, so a value's hash is the same in every
    process whenever its hashed fields' are; `MemoryModel.window` and
    `ConstructionTrace.choices` are left out, since None hashes by address
    before Python 3.12."""
    g = path_graph(3)
    assert hash(g) == hash((3, g.edges)) and hash(Uniform()) == hash(())
    assert hash(Binomial(Fraction(1, 3))) == hash((Fraction(1, 3),))
    fading, other = MemoryModel("fading", 2), MemoryModel("fading", 3)
    assert fading != other and hash(fading) == hash(other) == hash(("fading",))
    rule, model, x, choices, steps, final = _trace_fields()
    trace = ConstructionTrace(rule, model, x, choices, steps, final)
    plain = ConstructionTrace(rule, model, x, "ssss", steps, final)
    assert trace != plain and hash(trace) == hash(plain) == hash((rule, model, x, steps, final))


def test_value_types_differ_from_other_types() -> None:
    assert Graph(0, frozenset()) != MemoryModel("none") and Graph(1, frozenset()) != (1, frozenset())
    assert Uniform() != Binomial(0) and MemoryModel("none") == MemoryModel("none", None)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(-1, frozenset()), "vertex count must be nonnegative, got -1"),
        (lambda: Graph(2, frozenset({(1, 3)})), "edge (1, 3) invalid for n=2"),
        (lambda: Graph(2, frozenset({(2, 1)})), "edge (2, 1) invalid for n=2"),
        (lambda: Graph.from_pairs(2, [(1, 1)]), "loop (1, 1) not allowed"),
        (lambda: LabeledGraph(path_graph(2), (0,)), "labels must cover every vertex"),
        (lambda: LabeledGraph(path_graph(2), (0, 2)), "labels must be bits"),
        (lambda: Binomial(Fraction(3, 2)), "probability must lie in [0, 1], got 3/2"),
        (lambda: Binomial(-1), "probability must lie in [0, 1], got -1"),
        (lambda: ParentVector(0, ()), "need at least one vertex"),
        (lambda: ParentVector(3, (1,)), "need parents for vertices 2..3"),
        (lambda: ParentVector(3, (1, 3)), "parent of vertex 3 must lie in 1..2, got 3"),
        (lambda: ParentVector(3, (0, 1)), "parent of vertex 2 must lie in 1..1, got 0"),
    ],
)
def test_constructors_keep_their_refusals(build, message) -> None:
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
