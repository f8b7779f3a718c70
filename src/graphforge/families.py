"""Instruction-indexed graph families and run statistics.

An instruction string x over {0,1} is 1-indexed: x_t is the label of vertex
t.  For each canonical rule table this module gives the closed-form edge
predicate of the graph the machine builds, stated directly on index pairs
(i, j), i < j, so machine runs can be checked against an independent
construction:

  full memory                       fading memory (window 2)
  0>-,1>-  never                    never
  0>1,1>-  x_i=1 and x_j=0          consecutive and x_i=1, x_j=0
  0>0,1>-  x_i=0 and x_j=0          consecutive and x_i=0, x_j=0
  0>E,1>-  x_j=0                    x_j=0
  0>1,1>0  x_i != x_j               consecutive and x_i != x_j
  0>0,1>0  x_i=0                    consecutive and x_i=0
  0>E,1>0  x_i=0 or x_j=0           x_j=0, or consecutive and x_i=0
  0>0,1>1  x_i = x_j                consecutive and x_i = x_j
  0>E,1>1  x_i=x_j, or x_i=1,x_j=0  x_j=0, or consecutive and x_i=x_j=1
  0>E,1>E  always                   always

("consecutive" means i = j - 1.)  The named families E_(x), K_(x), K~_(x)
are the three full-memory tables whose edge set depends on the arrival
order, not just on how many vertices carry each bit; K'_(x) and E'_(x) are
their fading-memory counterparts.

The fading tables with no DominateAll action only ever link consecutive
vertices, so their outputs are linear forests; the run statistics R, S, Q,
A below give the path sizes, with leftover positions staying isolated.
"""

from __future__ import annotations

from .graphs import Graph, _unchecked
from .machines import LabeledGraph, RuleSet
from .machines import _check_instruction_string as check_bits

RunStatistics = tuple[int, ...]


# ---------------------------------------------------------------------------
# run statistics
# ---------------------------------------------------------------------------

def runs_of_zeros(x: str) -> RunStatistics:
    """Lengths of maximal blocks of 0s, left to right."""
    check_bits(x)
    return tuple(len(block) for block in x.split("1") if block)


def runs_of_ones(x: str) -> RunStatistics:
    """Lengths of maximal blocks of 1s, left to right."""
    check_bits(x)
    return tuple(len(block) for block in x.split("0") if block)


def alternating_runs(x: str) -> RunStatistics:
    """Lengths (at least 2) of maximal substrings whose consecutive bits all
    differ.  Single positions flanked by equal bits are not counted."""
    return _linked_blocks(x, str.__ne__)


def zero_anchored_blocks(x: str) -> RunStatistics:
    """Component sizes (at least 2) when position t is linked to t+1 exactly
    for x_t = 0: each 0 pulls its successor into the same block."""
    return _linked_blocks(x, lambda prev, bit: prev == "0")


def _linked_blocks(x: str, linked) -> RunStatistics:
    """Sizes (at least 2) of the maximal blocks of positions, left to right,
    where position t joins the block of t-1 exactly when linked(x[t-1], x[t])."""
    check_bits(x)
    sizes = [1]
    for joined in map(linked, x, x[1:]):
        if joined:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(size for size in sizes if size >= 2)


# ---------------------------------------------------------------------------
# closed-form constructors
# ---------------------------------------------------------------------------

def _from_predicate(x: str, pred) -> LabeledGraph:
    labels = check_bits(x)
    n = len(labels)
    edges = frozenset(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if pred(labels[i - 1], labels[j - 1], i, j)
    )
    return _unchecked(LabeledGraph, graph=_unchecked(Graph, n=n, edges=edges), labels=labels)


_FULL_PREDICATES = {
    "0>-,1>-": lambda bi, bj, i, j: False,
    "0>1,1>-": lambda bi, bj, i, j: bi == 1 and bj == 0,
    "0>0,1>-": lambda bi, bj, i, j: bi == 0 and bj == 0,
    "0>E,1>-": lambda bi, bj, i, j: bj == 0,
    "0>1,1>0": lambda bi, bj, i, j: bi != bj,
    "0>0,1>0": lambda bi, bj, i, j: bi == 0,
    "0>E,1>0": lambda bi, bj, i, j: bi == 0 or bj == 0,
    "0>0,1>1": lambda bi, bj, i, j: bi == bj,
    "0>E,1>1": lambda bi, bj, i, j: bi == bj or (bi == 1 and bj == 0),
    "0>E,1>E": lambda bi, bj, i, j: True,
}

_FADING_PREDICATES = {
    "0>-,1>-": lambda bi, bj, i, j: False,
    "0>1,1>-": lambda bi, bj, i, j: i == j - 1 and bi == 1 and bj == 0,
    "0>0,1>-": lambda bi, bj, i, j: i == j - 1 and bi == 0 and bj == 0,
    "0>E,1>-": lambda bi, bj, i, j: bj == 0,
    "0>1,1>0": lambda bi, bj, i, j: i == j - 1 and bi != bj,
    "0>0,1>0": lambda bi, bj, i, j: i == j - 1 and bi == 0,
    "0>E,1>0": lambda bi, bj, i, j: bj == 0 or (i == j - 1 and bi == 0 and bj == 1),
    "0>0,1>1": lambda bi, bj, i, j: i == j - 1 and bi == bj,
    "0>E,1>1": lambda bi, bj, i, j: bj == 0 or (i == j - 1 and bi == 1 and bj == 1),
    "0>E,1>E": lambda bi, bj, i, j: True,
}


def family_E(x: str) -> LabeledGraph:
    """Bipartite-with-order family: edge exactly when a 1 precedes a 0."""
    return _from_predicate(x, _FULL_PREDICATES["0>1,1>-"])


def family_K(x: str) -> LabeledGraph:
    """Split-with-order family: edge exactly when the earlier vertex is a 0."""
    return _from_predicate(x, _FULL_PREDICATES["0>0,1>0"])


def family_Ktilde(x: str) -> LabeledGraph:
    """Two cliques plus the cross edges where the 0 arrives after the 1."""
    return _from_predicate(x, _FULL_PREDICATES["0>E,1>1"])


def threshold_creation(x: str) -> LabeledGraph:
    """Threshold graph with creation sequence x: each 0 dominates on arrival,
    each 1 arrives isolated."""
    return _from_predicate(x, _FULL_PREDICATES["0>E,1>-"])


def family_Kprime(x: str) -> LabeledGraph:
    """Fading counterpart of the split family: 0s dominate on arrival, and a
    1 also links back to an immediately preceding 0."""
    return _from_predicate(x, _FADING_PREDICATES["0>E,1>0"])


def family_Eprime(x: str) -> LabeledGraph:
    """Fading counterpart of K~: 0s dominate on arrival, and a 1 links back
    to an immediately preceding 1."""
    return _from_predicate(x, _FADING_PREDICATES["0>E,1>1"])


def full_table_family(rule: RuleSet, x: str) -> LabeledGraph:
    """Closed-form graph the full-memory machine is claimed to build."""
    return _table_family(_FULL_PREDICATES, rule, x)


def fading_table_family(rule: RuleSet, x: str) -> LabeledGraph:
    """Closed-form graph the fading-memory machine is claimed to build."""
    return _table_family(_FADING_PREDICATES, rule, x)


def _table_family(predicates: dict, rule: RuleSet, x: str) -> LabeledGraph:
    if rule.mnemonic not in predicates:
        raise ValueError(f"rule {rule.mnemonic} is not one of the canonical tables")
    return _from_predicate(x, predicates[rule.mnemonic])


def fading_path_sizes(rule: RuleSet, x: str) -> RunStatistics | None:
    """For the fading tables with no DominateAll action, the path sizes of
    the resulting linear forest (positions not covered stay isolated);
    None for the other tables."""
    check_bits(x)
    table = {
        "0>-,1>-": lambda: (),
        "0>0,1>-": lambda: runs_of_zeros(x),
        "0>1,1>-": lambda: (2,) * x.count("10"),
        "0>1,1>0": lambda: alternating_runs(x),
        "0>0,1>0": lambda: zero_anchored_blocks(x),
        "0>0,1>1": lambda: runs_of_zeros(x) + runs_of_ones(x),
    }
    fn = table.get(rule.mnemonic)
    return None if fn is None else tuple(r for r in fn() if r >= 2)

