"""Two-player sequential construction machines.

One side streams a single instruction bit per vertex; the other side places
vertex t, labels it with the received bit x_t, and applies the action the
rule table assigns to that bit:

  NoEdge        add no edges
  DominateAll   connect t to every earlier vertex
  JoinLabel_c   connect t to earlier vertices labelled c (needs memory)

What "earlier vertices labelled c" means depends on the memory model:

  NO_MEMORY       labels are never stored; only NoEdge and DominateAll are
                  legal actions
  FULL_MEMORY     every label is retained, so a join reaches all earlier
                  vertices with the target label
  fading_memory(2) only the most recent label is still readable when vertex
                  t is placed, so a join can only add the edge {t-1, t}
  MODIFIABLE      full memory, plus a per-step option to rewrite: instead of
                  the standard step, connect every vertex labelled with the
                  current bit to every vertex with the action's target label,
                  retroactively saturating that label pair

_step is the step semantics: it places one vertex onto a run prefix and
records the edges it adds. Two loops sit beside it. _run replays one run
from step 1 (interpret, and through it the CLI's build); only a rewrite
reads the edges built so far, so only a modifiable run keeps them in a
running set. _runs walks the runs of one or more lengths depth-first; each
step branches over one fixed list of (bit, choice) options, so runs that
share a prefix, across strings, choices and lengths alike, share its steps.
_check_run refuses illegal runs before either loop starts.

Rules are written as mnemonics like "0>1,1>-": bit 0 joins label-1 vertices,
bit 1 adds nothing ("-" is NoEdge, "E" is DominateAll, "0"/"1" are joins).
Swapping the bit alphabet maps rules onto each other; the canonical ten rule
tables below are one representative per swap orbit.
"""

from __future__ import annotations

from collections.abc import Set
from enum import Enum
from itertools import chain, compress, repeat
from math import comb
from operator import not_
from typing import NamedTuple

from .graphs import Graph, empty_graph, to_json_obj, _Value, _check_edge_cap, _json_text, _unchecked
from .graphs import _graph_by_second


class InvalidActionForModel(ValueError):
    """A rule demands labels under a model that cannot read them."""


class ModifyUnsupported(ValueError):
    """A modify choice landed on a step whose action is not a label join."""


class Action(Enum):
    NO_EDGE = "-"
    DOMINATE_ALL = "E"
    JOIN_LABEL_0 = "0"
    JOIN_LABEL_1 = "1"

    @property
    def join_target(self) -> int | None:
        if self is Action.JOIN_LABEL_0:
            return 0
        if self is Action.JOIN_LABEL_1:
            return 1
        return None


class RuleSet(NamedTuple):
    """Action table indexed by the instruction bit."""

    action_for_0: Action
    action_for_1: Action

    def action_for(self, bit: int) -> Action:
        return self.action_for_0 if bit == 0 else self.action_for_1

    @property
    def mnemonic(self) -> str:
        return f"0>{self.action_for_0._value_},1>{self.action_for_1._value_}"  # `value` is a property

    def uses_labels(self) -> bool:
        return self.action_for_0.join_target is not None or self.action_for_1.join_target is not None


def parse_rule(text: str) -> RuleSet:
    """Parse a mnemonic such as "0>E,1>-" (whitespace tolerated)."""
    by_bit: dict[str, Action] = {}
    parts = text.replace(" ", "").split(",")
    if len(parts) != 2:
        raise ValueError(f"rule must have exactly two clauses, got {text!r}")
    for part in parts:
        if len(part) != 3 or part[1] != ">" or part[0] not in "01":
            raise ValueError(f"malformed rule clause {part!r}")
        try:
            by_bit[part[0]] = Action(part[2])
        except ValueError:
            raise ValueError(f"unknown action {part[2]!r} in {text!r}") from None
    if set(by_bit) != {"0", "1"}:
        raise ValueError(f"rule must cover both bits, got {text!r}")
    return RuleSet(by_bit["0"], by_bit["1"])


def _swap_action(a: Action) -> Action:
    if a is Action.JOIN_LABEL_0:
        return Action.JOIN_LABEL_1
    if a is Action.JOIN_LABEL_1:
        return Action.JOIN_LABEL_0
    return a


def swap_rule(rule: RuleSet) -> RuleSet:
    """Image of the rule under exchanging the bit alphabet 0 <-> 1."""
    return RuleSet(_swap_action(rule.action_for_1), _swap_action(rule.action_for_0))


# One representative per bit-swap orbit; sixteen raw tables collapse to ten.
FULL_RULES: tuple[RuleSet, ...] = tuple(
    parse_rule(s)
    for s in (
        "0>-,1>-",
        "0>1,1>-",
        "0>0,1>-",
        "0>E,1>-",
        "0>1,1>0",
        "0>0,1>0",
        "0>E,1>0",
        "0>0,1>1",
        "0>E,1>1",
        "0>E,1>E",
    )
)

NO_MEMORY_RULES: tuple[RuleSet, ...] = tuple(r for r in FULL_RULES if not r.uses_labels())

_FULL_RULE_SET = frozenset(FULL_RULES)


def canonical_rule(rule: RuleSet) -> RuleSet:
    """The representative of the rule's bit-swap orbit."""
    if rule in _FULL_RULE_SET:
        return rule
    swapped = swap_rule(rule)
    if swapped in _FULL_RULE_SET:
        return swapped
    raise ValueError(f"rule {rule.mnemonic} has no canonical representative")


class MemoryModel(_Value):
    _unhashed = ("window",)  # before Python 3.12 None hashes by its address, which differs by process
    kind: str  # "none" | "full" | "fading" | "modifiable"
    window: int | None

    def __init__(self, kind: str, window: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "window", window)

    def __str__(self) -> str:
        return f"fading({self.window})" if self.kind == "fading" else self.kind


NO_MEMORY = MemoryModel("none")
FULL_MEMORY = MemoryModel("full")
MODIFIABLE = MemoryModel("modifiable")


def fading_memory(window: int) -> MemoryModel:
    # Only the two-step window has defined join semantics; larger windows
    # would need a reachability convention nothing here specifies.
    if window != 2:
        raise ValueError(f"fading memory is only supported with window 2, got {window}")
    return MemoryModel("fading", window)


def parse_model(text: str) -> MemoryModel:
    table = {
        "none": NO_MEMORY,
        "full": FULL_MEMORY,
        "fading": fading_memory(2),
        "fading(2)": fading_memory(2),
        "modifiable": MODIFIABLE,
    }
    try:
        return table[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown memory model {text!r}") from None


class LabeledGraph(_Value):
    """A graph together with the per-vertex instruction bits that built it."""

    graph: Graph
    labels: tuple[int, ...]

    def __init__(self, graph: Graph, labels: tuple[int, ...]) -> None:
        if len(labels) != graph.n:
            raise ValueError("labels must cover every vertex")
        if any(b not in (0, 1) for b in labels):
            raise ValueError("labels must be bits")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)


class ResourceCost(NamedTuple):
    instruction_bits: int
    memory_bits: int
    random_bits: int


class StepRecord(NamedTuple):
    """One step of a run. A tuple of its fields: it equals, and hashes
    like, the plain tuple (step, bit, action, modified, edges_added)."""

    step: int
    bit: int
    action: Action
    modified: bool
    edges_added: tuple[tuple[int, int], ...]


class ConstructionTrace(_Value):
    _unhashed = ("choices",)  # may be None: see MemoryModel
    rule: RuleSet
    model: MemoryModel
    x: str
    choices: str | None
    steps: tuple[StepRecord, ...]
    final: LabeledGraph

    def __init__(self, rule, model, x, choices, steps, final) -> None:
        for name, value in zip(self._fields, (rule, model, x, choices, steps, final)):
            object.__setattr__(self, name, value)

    @property
    def cost(self) -> ResourceCost:
        # memory_bits counts label bits ever written; fading memory writes
        # each label too, it just stops being readable two steps later.
        n = len(self.x)
        return ResourceCost(
            instruction_bits=n,
            memory_bits=0 if self.model.kind == "none" else n,
            random_bits=0,
        )

    def graphs_per_step(self) -> list[Graph]:
        """[G_0, G_1, ..., G_n] with G_t the graph after step t."""
        out = [empty_graph(0)]
        edges: set[tuple[int, int]] = set()
        for rec in self.steps:
            edges.update(rec.edges_added)
            out.append(_unchecked(Graph, n=rec.step, edges=frozenset(edges)))
        return out

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule.mnemonic,
            "model": str(self.model),
            "x": self.x,
            "choices": self.choices,
            "steps": [
                {
                    "step": rec.step,
                    "bit": rec.bit,
                    "action": rec.action.value,
                    "modified": rec.modified,
                    "added": [list(e) for e in rec.edges_added],
                }
                for rec in self.steps
            ],
            "graph": to_json_obj(self.final.graph),
            "labels": list(self.final.labels),
            "cost": self.cost._asdict(),
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_obj())


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _check_instruction_string(x: str) -> tuple[int, ...]:
    """The bits of x as ints. Refuses any character but ASCII 0 and 1: what
    strip leaves is empty exactly then, and the checked string decodes in
    one translate."""
    if x.strip("01"):
        raise ValueError(f"instruction string must be over 0/1, got {x!r}")
    return tuple(x.encode("ascii").translate(_BIT_VALUES))


def interpret(rule: RuleSet, model: MemoryModel, x: str, choices=None) -> ConstructionTrace:
    """Run the construction. The empty string yields the empty graph and a
    single-bit string yields K1 regardless of the rule. Only the modifiable
    model takes `choices`, one s/m per step (or booleans, True for "m"; all
    "s" when omitted): "m" replaces step t's JoinLabel_c by a rewrite that
    joins every vertex labelled bit t to every c-labelled one so far."""
    if choices is not None and model.kind != "modifiable":
        raise ValueError(f"choices apply only to the modifiable model, not {model}")
    labels = _check_instruction_string(x)
    if model.kind == "modifiable":
        choices = "s" * len(x) if choices is None else _normalize_choices(choices, len(x))
    _check_run(rule, model, len(x))
    return _run(rule, model, x, labels, choices)


def _normalize_choices(choices, length: int) -> str:
    """Choices as an s/m string: a string over s/m, or booleans with True
    for a rewrite ("m"). Any other element is refused."""
    if isinstance(choices, str):
        if any(ch not in "sm" for ch in choices):
            raise ValueError(f"choices must be over s/m, got {choices!r}")
        text = choices
    else:
        choices = tuple(choices)
        if not all(isinstance(c, bool) for c in choices):
            raise ValueError(f"choices must be an s/m string or booleans, got {choices!r}")
        text = "".join("m" if c else "s" for c in choices)
    if len(text) != length:
        raise ValueError(f"need one choice per step: {len(text)} choices for {length} steps")
    return text


def _check_run(rule: RuleSet, model: MemoryModel, n: int) -> None:
    """Refuse, before the first step, a rule that joins by label under a
    model that stores none, and n-bit runs over the edge cap: a run's worst
    case is n - 1 edges under fading(2) without DominateAll, else C(n, 2)."""
    if model.kind == "none" and rule.uses_labels():
        raise InvalidActionForModel(
            f"rule {rule.mnemonic} joins by label but the model stores no labels"
        )
    dominates = Action.DOMINATE_ALL in (rule.action_for(0), rule.action_for(1))
    worst = n - 1 if model.kind == "fading" and not dominates else comb(n, 2)
    _check_edge_cap(worst, f"a {n}-bit run under {model}")


_ActionPairs = tuple[tuple[Action, int | None], tuple[Action, int | None]]
_Marks = tuple[tuple[int, ...], tuple[int, ...]]  # (the label-0 indicators, the labels)


def _actions(rule: RuleSet) -> _ActionPairs:
    """The rule's (action, join target) pair for bit 0 and for bit 1, looked
    up once per run so that a step indexes them by its bit."""
    a0, a1 = rule.action_for_0, rule.action_for_1
    return (a0, a0.join_target), (a1, a1.join_target)


def _step(
    actions: _ActionPairs, fading: bool, marks: _Marks, edges: Set[tuple[int, int]],
    t: int, modify: bool,
) -> StepRecord:
    """Step t: place vertex t, labelled labels[t - 1], onto the graph whose
    edges are `edges`, and record the edges its action adds that are not
    already there, sorted. marks[c][v - 1] is true when vertex v is labelled
    c, and marks[1] is the labels; only their first t entries are read, and
    `edges` only by a rewrite. `actions` is the rule's _actions; `fading`
    selects the two-step window; `modify` replaces the step by its
    label-pair rewrite."""
    labels = marks[1]
    bit = labels[t - 1]
    action, c = actions[bit]
    if modify:
        if c is None:
            raise ModifyUnsupported(
                f"step {t} fires {action.value!r}; only label joins can be modified"
            )
        want = {(bit, c), (c, bit)}
        added = tuple(
            (i, j)
            for i in range(1, t + 1)
            for j in range(i + 1, t + 1)
            if (labels[i - 1], labels[j - 1]) in want and (i, j) not in edges
        )
    elif c is None:
        added = tuple(zip(range(1, t), repeat(t))) if action is Action.DOMINATE_ALL else ()
    elif fading:  # window 2: only the previous label is readable
        added = ((t - 1, t),) if t > 1 and labels[t - 2] == c else ()
    else:  # the earlier vertices labelled c: compress stops at t - 1
        added = tuple(zip(compress(range(1, t), marks[c]), repeat(t)))
    return StepRecord(t, bit, action, modify, added)


def _trace(
    rule: RuleSet, model: MemoryModel, x: str, choices: str | None,
    steps: tuple[StepRecord, ...], graph: Graph, labels: tuple[int, ...],
) -> ConstructionTrace:
    """The trace of a finished run, built without re-checking what the run
    made."""
    final = _unchecked(LabeledGraph, graph=graph, labels=labels)
    return _unchecked(
        ConstructionTrace, rule=rule, model=model, x=x, choices=choices, steps=steps, final=final
    )


def _run(
    rule: RuleSet, model: MemoryModel, x: str, labels: tuple[int, ...], choices: str | None
) -> ConstructionTrace:
    """One run, step by step; `choices` is None outside the modifiable model,
    and only a modifiable run keeps the running edge set that rewrites read.
    Callers check the run with _check_run first."""
    actions = _actions(rule)
    fading = model.kind == "fading"
    steps: list[StepRecord] = []
    edges: set[tuple[int, int]] = set()
    marks = tuple(map(not_, labels)), labels
    for t in range(1, len(labels) + 1):
        rec = _step(actions, fading, marks, edges, t, choices is not None and choices[t - 1] == "m")
        if choices is not None:
            edges.update(rec.edges_added)
        steps.append(rec)
    # outside the modifiable model step t adds only edges (i, t), so the records list them in order
    graph = (_unchecked(Graph, n=len(labels), edges=frozenset(edges)) if choices is not None
             else _graph_by_second(len(labels), tuple(chain.from_iterable(rec.edges_added for rec in steps))))
    return _trace(rule, model, x, choices, tuple(steps), graph, labels)


def _runs(rule: RuleSet, model: MemoryModel, n: int, shortest: int | None = None):
    """Every trace of the rule at string lengths `shortest` (by default n)
    to n, pre-order: a prefix leaves before its extensions, and one length's
    traces in product order over the steps' (bit, choice) options, bit 0
    before 1 and, under the modifiable model, "s" before "m", where "m" is
    an option only when the bit's action is a label join: numeric string
    order outside the modifiable model. The walk is depth-first over run
    prefixes, pushing children in reverse so that they pop in order; one
    _step extends a prefix, so siblings share their parent's steps."""
    _check_run(rule, model, n)
    shortest = n if shortest is None else shortest
    actions = _actions(rule)
    fading = model.kind == "fading"
    modifiable = model.kind == "modifiable"
    options = [
        (bit, choice, (not bit,), (bit,))
        for bit in (1, 0)
        for choice in ("ms" if modifiable and actions[bit][1] is not None else "s")
    ]
    stack = [("", ((), ()), "", (), frozenset())]
    while stack:
        x, marks, choices, steps, edges = stack.pop()
        t = len(x)
        if t >= shortest:
            graph = _unchecked(Graph, n=t, edges=edges)
            yield _trace(rule, model, x, choices if modifiable else None, steps, graph, marks[1])
        if t == n:
            continue
        for bit, choice, zero, one in options:
            grown = marks[0] + zero, marks[1] + one
            rec = _step(actions, fading, grown, edges, t + 1, choice == "m")
            stack.append((x + "01"[bit], grown, choices + choice, steps + (rec,),
                          edges.union(rec.edges_added)))


def memory_modifiable_steps(trace: ConstructionTrace) -> list[int]:
    """Steps t where deleting vertex t from G_t does not recover G_{t-1}
    up to isomorphism, i.e. where the step rewrote the existing graph.

    Read from the edge records: steps only add edges, and each records only
    edges not already present, so G_t minus vertex t has G_{t-1} as a
    spanning subgraph. The two are isomorphic exactly when they have equal
    edge counts, that is, when step t added no edge (i, j) with j < t."""
    return [rec.step for rec in trace.steps if _rewrites(rec)]


def _rewrites(rec: StepRecord) -> bool:
    """Whether the step added an edge between two earlier vertices."""
    return any(j < rec.step for _, j in rec.edges_added)


def is_memory_modifiable_output(trace: ConstructionTrace) -> bool:
    """True when some step rewrote the graph built before it."""
    return bool(memory_modifiable_steps(trace))
