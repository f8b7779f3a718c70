"""Exhaustive desk-scale verification of the construction-machine claims.

Each check enumerates every instruction string up to a length bound (and,
for the modifiable model, every per-step choice sequence) and compares the
machine output against an independently coded expectation: a closed-form
predicate, a named family constructor, a forbidden-subgraph scan, or a
recogniser.  Failures are collected as replayable counterexamples rather
than raised, so a report always describes the whole parameter range.

Check ids (CLI names in parentheses):

  P2 (no-memory tables)    the three memoryless rules produce exactly the
                           empty graphs, the complete graphs, and the
                           threshold graphs
  P3 (full-memory tables)  each of the ten rules matches its closed form,
                           labelled-vertex for labelled-vertex
  P5 (fading tables)       same for the two-step memory window, plus the
                           path-decomposition reading of the label-only rules
  C_modifiable             every rewrite step leaves a complete split,
                           complete bipartite, or complete graph behind
  C_pnfree                 full-memory outputs never contain an induced path
                           or cycle on 5 or 6 vertices, though P4 and C4 occur
  hierarchy                every memoryless class is reachable under both richer
                           models; fading classes are compared with full memory

verify_proposition runs any check by id; hierarchy_report runs hierarchy.
The reachability helpers (enumerate_outputs, reachable_classes,
find_constructions, expressiveness_count) answer which isomorphism classes
each memory model can emit at all. Checks and helpers share one bound on
the walk, the size entry "enumeration_n" ("modifiable_n" under the
modifiable model), read through the size gate graphs._check_limit.

Every check reads its machine runs from machines._runs, one walk per rule
for all lengths 0..max_n (one trace per legal choice sequence under the
modifiable model), and reports length by length; only the fixed worked
examples of C_modifiable and C_pnfree call interpret directly.
P2, P3 and P5 share one table loop, _table_runs, which compares every
output with its closed-form family.
C_modifiable reads rewrite steps from the traces' edge records: steps only
add edges and record only new ones, so deleting vertex t from G_t fails to
recover G_{t-1} up to isomorphism exactly when step t added an edge between
two earlier vertices.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import NamedTuple

from .families import (
    alternating_runs,
    fading_path_sizes,
    fading_table_family,
    full_table_family,
    runs_of_ones,
    runs_of_zeros,
    zero_anchored_blocks,
)
from .graphs import (
    Graph,
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
    is_isomorphic,
    is_linear_forest,
    is_threshold,
    is_threshold_by_forbidden,
    path_graph,
    to_json,
    _check_limit,
    _json_text,
)
from .machines import (
    FULL_MEMORY,
    FULL_RULES,
    MODIFIABLE,
    NO_MEMORY,
    NO_MEMORY_RULES,
    ConstructionTrace,
    MemoryModel,
    RuleSet,
    fading_memory,
    interpret,
    memory_modifiable_steps,
    parse_rule,
    _runs,
)

PROPOSITION_IDS = ("P2", "P3", "P5", "C_modifiable", "C_pnfree")

_FADING = fading_memory(2)


class Counterexample(NamedTuple):
    rule: str
    model: str
    x: str
    choices: str | None
    expected: str
    got: str

    def to_json_obj(self) -> dict:
        return self._asdict()


class VerificationReport(NamedTuple):
    proposition: str
    max_n: int
    rules: tuple[str, ...]
    models: tuple[str, ...]
    checked: int
    counterexamples: tuple[Counterexample, ...]
    notes: tuple[str, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_obj(self) -> dict:
        return {
            "proposition": self.proposition,
            "max_n": self.max_n,
            "rules": list(self.rules),
            "models": list(self.models),
            "checked": self.checked,
            "counterexamples": [c.to_json_obj() for c in self.counterexamples],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_obj())

    def to_text(self, max_listed: int = 20) -> str:
        lines = [
            f"check: {self.proposition}",
            f"max_n: {self.max_n}",
            f"rules: {', '.join(self.rules)}",
            f"models: {', '.join(self.models)}",
            f"checked: {self.checked}",
        ]
        lines.extend(f"note: {note}" for note in self.notes)
        lines.append(f"counterexamples: {len(self.counterexamples)}")
        for c in self.counterexamples[:max_listed]:
            where = f"rule {c.rule} x {c.x!r}" + (f" choices {c.choices}" if c.choices else "")
            lines.append(f"  {where}: expected {c.expected}, got {c.got}")
        if len(self.counterexamples) > max_listed:
            lines.append(f"  ... and {len(self.counterexamples) - max_listed} more")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _rules_for(model: MemoryModel) -> tuple[RuleSet, ...]:
    return NO_MEMORY_RULES if model.kind == "none" else FULL_RULES


def _check_walk_bound(model: MemoryModel, n: int, message: str) -> None:
    """Refuse, before any work, a walk over the model's runs to length n:
    every check and reachability helper reads its bound here, modifiable_n
    under the modifiable model, else enumeration_n."""
    _check_limit("modifiable_n" if model.kind == "modifiable" else "enumeration_n", n, message, low=0)


# what a report keeps of a run: rule, model, x and choices replay it, graph is its output
_Witness = namedtuple("_Witness", "rule model x choices graph")


def _witness(trace: ConstructionTrace) -> _Witness:
    return _Witness(trace.rule, trace.model, trace.x, trace.choices, trace.final.graph)


def _counterexample(run: _Witness, expected: str) -> Counterexample:
    """The run, replayable from its rule, string and choices, with its output."""
    return Counterexample(run.rule.mnemonic, str(run.model), run.x, run.choices, expected, to_json(run.graph))


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def _reachable_with_witnesses(model: MemoryModel, n: int, shortest: int | None = None) -> list[dict]:
    """Indexed by string length, shortest (by default n) to n: canonical
    certificate -> witness of the first run (in rule, then _runs order)
    reaching it."""
    out: list[dict[bytes, _Witness]] = [{} for _ in range(n + 1)]
    for rule in _rules_for(model):
        for trace in _runs(rule, model, n, shortest):
            level, cert = out[len(trace.x)], canonical_form(trace.final.graph)
            if cert not in level:
                level[cert] = _witness(trace)
    return out


def enumerate_outputs(rule: RuleSet, model: MemoryModel, n: int) -> set[bytes]:
    """Canonical forms of every output of the rule at string length n."""
    _check_walk_bound(model, n, "output enumeration supported for 0 <= n <= {limit}, got {n}")
    return {canonical_form(trace.final.graph) for trace in _runs(rule, model, n)}


def reachable_classes(model: MemoryModel, n: int) -> set[bytes]:
    """Canonical forms reachable under any rule legal for the model."""
    _check_walk_bound(model, n, "output enumeration supported for 0 <= n <= {limit}, got {n}")
    return set(_reachable_with_witnesses(model, n)[n])


def expressiveness_count(model: MemoryModel, n: int) -> int:
    """Number of isomorphism classes the model can emit on n vertices."""
    return len(reachable_classes(model, n))


def find_constructions(g: Graph, model: MemoryModel) -> list[tuple[str, str]]:
    """All (rule, x) whose output is isomorphic to g, in rule order with
    strings ascending; for the modifiable model a pair is included when
    some choice sequence reaches g."""
    _check_walk_bound(model, g.n, "construction search supported for 0 <= n <= {limit}, got {n}")
    hits: list[tuple[str, str]] = []
    for rule in _rules_for(model):
        # a string is tested until its first hit
        xs: set[str] = set()
        for trace in _runs(rule, model, g.n):
            if trace.x not in xs and is_isomorphic(trace.final.graph, g):
                xs.add(trace.x)
        hits.extend((rule.mnemonic, x) for x in sorted(xs))
    return hits


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------

def _walk(rules, model: MemoryModel, max_n: int, cxs: list[Counterexample]):
    """Every run of each rule at lengths 0..max_n, one walk per rule, each
    with its length's counterexample list; after each rule the lists join
    cxs in length order, as if each length were walked in turn."""
    for rule in rules:
        by_length: list[list[Counterexample]] = [[] for _ in range(max_n + 1)]
        for trace in _runs(rule, model, max_n, 0):
            yield trace, by_length[len(trace.x)]
        for found in by_length:
            cxs.extend(found)


def _table_runs(model: MemoryModel, family, max_n: int, cxs: list[Counterexample]):
    """Run every rule legal for the model on every string of length at most
    max_n and compare each output, labelled vertex for labelled vertex, with
    the closed-form family. Yields (trace, matches, found), found being the
    run's counterexample list from _walk; mismatches go there."""
    for trace, found in _walk(_rules_for(model), model, max_n, cxs):
        want = family(trace.rule, trace.x)
        matches = trace.final.graph == want.graph and trace.final.labels == want.labels
        if not matches:
            found.append(_counterexample(_witness(trace), f"closed form {to_json(want.graph)}"))
        yield trace, matches, found


def _verify_no_memory(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    """Besides the table rows: every 0>E,1>- output is a threshold graph, and
    the rule reaches all 2^(n-1) threshold classes on n >= 1 vertices."""
    checked = 0
    reached: list[set[bytes]] = [set() for _ in range(max_n + 1)]
    for trace, _, found in _table_runs(NO_MEMORY, full_table_family, max_n, cxs):
        checked += 1
        if trace.rule.mnemonic != "0>E,1>-":
            continue
        g = trace.final.graph
        if not is_threshold(g):
            found.append(_counterexample(_witness(trace), "a threshold graph (elimination test)"))
        if not is_threshold_by_forbidden(g):
            found.append(_counterexample(_witness(trace), "a threshold graph (forbidden-subgraph test)"))
        reached[g.n].add(canonical_form(g))
    for n, seen in enumerate(reached):
        everywhere = ("0>E,1>-", "none", f"all strings of length {n}", None)
        if n >= 1 and len(seen) != (count := 2 ** (n - 1)):
            cxs.append(Counterexample(*everywhere, f"exactly {count} distinct classes", str(len(seen))))
        if n <= 6:
            wanted = {canonical_form(c) for c in enumerate_graph_classes(n) if is_threshold(c)}
            checked += 1
            if seen != wanted:
                got = f"{len(seen)} classes vs {len(wanted)} threshold classes"
                cxs.append(Counterexample(*everywhere, "exactly the threshold isomorphism classes", got))
        notes.append(f"n={n}: {len(seen)} threshold classes reached")
    return checked


# Rules whose full-memory output is, as an unlabelled graph, a named family
# assembled from l = #0s and m = #1s.
_NAMED_FULL_SHAPES = {
    "0>-,1>-": lambda l, m: empty_graph(l + m),
    "0>0,1>-": lambda l, m: disjoint_union(complete_graph(l), empty_graph(m)),
    "0>1,1>0": lambda l, m: complete_bipartite(l, m),
    "0>E,1>0": lambda l, m: complete_split(l, m),
    "0>0,1>1": lambda l, m: disjoint_union(complete_graph(l), complete_graph(m)),
    "0>E,1>E": lambda l, m: complete_graph(l + m),
}


def _verify_full_memory(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    checked = 0
    shapes = {(rule, l, n - l): shape(l, n - l) for rule, shape in _NAMED_FULL_SHAPES.items()
              for n in range(max_n + 1) for l in range(n + 1)}
    for trace, matches, found in _table_runs(FULL_MEMORY, full_table_family, max_n, cxs):
        checked += 1
        if not matches:
            continue
        g = trace.final.graph
        want = shapes.get((trace.rule.mnemonic, trace.x.count("0"), trace.x.count("1")))
        if want is not None:
            # each shape is exact once the 0-labelled vertices become 1..l and the
            # 1-labelled l+1..l+m, each group in order; isomorphism decides the rest
            order = sorted(range(1, g.n + 1), key=lambda v: trace.final.labels[v - 1])
            place = dict(zip(order, range(1, g.n + 1)))
            mapped = frozenset((min(place[i], place[j]), max(place[i], place[j])) for i, j in g.edges)
            if mapped != want.edges and not is_isomorphic(g, want):
                found.append(_counterexample(_witness(trace), "the named family shape"))
        if trace.rule.mnemonic == "0>E,1>-" and not (is_threshold(g) and is_threshold_by_forbidden(g)):
            found.append(_counterexample(_witness(trace), "a threshold graph"))
    return checked


_RUN_STAT_EXAMPLE = "00110100010"
_RUN_STAT_EXPECTED = {
    "zero runs": (runs_of_zeros, (2, 1, 3, 1)),
    "one runs": (runs_of_ones, (2, 1, 1)),
    "alternating runs": (alternating_runs, (2, 4, 3)),
    "zero-anchored blocks": (zero_anchored_blocks, (3, 2, 4)),
}


def _verify_fading_memory(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    checked = 0
    for name, (fn, expected) in _RUN_STAT_EXPECTED.items():
        checked += 1
        got = fn(_RUN_STAT_EXAMPLE)
        if got != expected:
            cxs.append(
                Counterexample(
                    "run-stats", "fading(2)", _RUN_STAT_EXAMPLE, None,
                    f"{name} {expected}", str(got),
                )
            )
        else:
            notes.append(f"{name}({_RUN_STAT_EXAMPLE}) = {expected}")
    for trace, matches, found in _table_runs(_FADING, fading_table_family, max_n, cxs):
        checked += 1
        if not matches:
            continue
        g = trace.final.graph
        sizes = fading_path_sizes(trace.rule, trace.x)
        if sizes is not None:
            # two linear forests are isomorphic iff their sorted sizes agree
            expected = sorted(list(sizes) + [1] * (g.n - sum(sizes)))
            got = sorted(len(c) for c in connected_components(g))
            if not (is_linear_forest(g) and got == expected):
                found.append(_counterexample(_witness(trace), f"linear forest with path sizes {sizes}"))
    return checked


def _rewrite_family_certificates(n: int) -> frozenset[bytes]:
    """Certificates of the n-vertex rewrite families: complete split (K_n at
    l = n) and complete bipartite, degenerate sizes allowed."""
    return frozenset(
        [canonical_form(complete_split(l, n - l)) for l in range(n + 1)]
        + [canonical_form(complete_bipartite(l, n - l)) for l in range(n // 2 + 1)]
    )


def _verify_modifiable(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    families = [_rewrite_family_certificates(t) for t in range(max_n + 1)]

    worked = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", "ssssm")
    checked = 1
    star = is_isomorphic(worked.final.graph, complete_bipartite(1, 4))
    if star and memory_modifiable_steps(worked) == [5]:
        notes.append("rule 0>1,1>- x 00010 with a final rewrite yields the 4-star")
    else:
        expected = "the complete bipartite graph on 1+4 vertices, rewritten at step 5"
        cxs.append(_counterexample(_witness(worked), expected))

    flagged_total = 0
    for trace, found in _walk(FULL_RULES, MODIFIABLE, max_n, cxs):
        checked += 1
        flagged = memory_modifiable_steps(trace)
        if not flagged:
            continue
        per_step = trace.graphs_per_step()
        for t in flagged:
            flagged_total += 1
            g_t = per_step[t]
            if canonical_form(g_t) not in families[t]:
                expected = (f"step-{t} graph in the rewrite families "
                            "(complete split / complete bipartite / complete)")
                found.append(_counterexample(_witness(trace)._replace(graph=g_t), expected))
    notes.append(f"{flagged_total} rewrite steps examined")
    return checked


def _verify_path_cycle_free(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    checked = 0

    # certificates carry n, so merging the per-size maps keeps each class's
    # first witness in rule order
    witnesses = {
        cert: run
        for level in _reachable_with_witnesses(FULL_MEMORY, max_n, 0)
        for cert, run in level.items()
    }
    notes.append(f"{len(witnesses)} distinct output classes at n <= {max_n}")

    forbidden = [
        ("induced 5-path", path_graph(5)),
        ("induced 5-cycle", cycle_graph(5)),
        ("induced 6-path", path_graph(6)),
        ("induced 6-cycle", cycle_graph(6)),
    ]
    # the first witness of each wanted shape is noted and leaves the dict
    unseen = {"4-path": path_graph(4), "4-cycle": cycle_graph(4)}
    for cert in sorted(witnesses):
        run = witnesses[cert]
        for label, h in forbidden:
            checked += 1
            if contains_induced(run.graph, h):
                cxs.append(_counterexample(run, f"no {label}"))
        for label, h in list(unseen.items()):
            if contains_induced(run.graph, h):
                del unseen[label]
                notes.append(f"induced {label} witness: rule {run.rule.mnemonic} x {run.x}")

    example = interpret(parse_rule("0>1,1>-"), FULL_MEMORY, "10010")
    checked += 1
    if not contains_induced(example.final.graph, path_graph(4)):
        cxs.append(_counterexample(_witness(example), "an induced 4-path"))
    # no string shorter than 4 bits builds a 4-vertex witness
    for label in unseen if max_n >= 4 else ():
        cxs.append(
            Counterexample("any", "full", f"|x| <= {max_n}", None, f"some induced {label}", "none")
        )
    return checked


def _compare_models(max_n: int, cxs: list[Counterexample], notes: list[str]) -> int:
    checked = 0
    by_model = [_reachable_with_witnesses(m, max_n, 0) for m in (NO_MEMORY, _FADING, FULL_MEMORY)]
    for n, (none_w, fading_w, full_w) in enumerate(zip(*by_model)):
        notes.append(f"n={n}: none {len(none_w)}, fading {len(fading_w)}, full {len(full_w)}")
        for cert in sorted(none_w):
            checked += 2
            if cert not in fading_w:
                cxs.append(_counterexample(none_w[cert], "reachable under fading memory"))
            if cert not in full_w:
                cxs.append(_counterexample(none_w[cert], "reachable under full memory"))
        for cert in sorted(fading_w):
            checked += 1
            if cert not in full_w:
                cxs.append(_counterexample(fading_w[cert], "reachable under full memory"))
    return checked


# id -> (check, models, default max_n); the last model is the richest, and
# its rules and walk bound are the report's
_CHECKS = {
    "P2": (_verify_no_memory, (NO_MEMORY,), 10),
    "P3": (_verify_full_memory, (FULL_MEMORY,), 8),
    "P5": (_verify_fading_memory, (_FADING,), 8),
    "C_modifiable": (_verify_modifiable, (MODIFIABLE,), 6),
    "C_pnfree": (_verify_path_cycle_free, (FULL_MEMORY,), 8),
    "hierarchy": (_compare_models, (NO_MEMORY, _FADING, FULL_MEMORY), 8),
}

CHECK_IDS = tuple(_CHECKS)  # PROPOSITION_IDS, then hierarchy


def _report(check_id: str, max_n: int | None) -> VerificationReport:
    """Run a check of _CHECKS up to max_n (by default its row's): check(max_n,
    cxs, notes) appends counterexamples and notes and returns how many
    comparisons it made."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; expected one of {', '.join(CHECK_IDS)}")
    check, models, default_n = _CHECKS[check_id]
    bound = default_n if max_n is None else max_n
    _check_walk_bound(models[-1], bound, check_id + " supports 0 <= max_n <= {limit}, got {n}")
    started = time.monotonic()
    cxs: list[Counterexample] = []
    notes: list[str] = []
    checked = check(bound, cxs, notes)
    return VerificationReport(
        proposition=check_id,
        max_n=bound,
        rules=tuple(r.mnemonic for r in _rules_for(models[-1])),
        models=tuple(str(m) for m in models),
        checked=checked,
        counterexamples=tuple(cxs),
        notes=tuple(notes),
        wall_time=time.monotonic() - started,
    )


def verify_proposition(proposition: str, max_n: int | None = None) -> VerificationReport:
    """Run one check of CHECK_IDS over all strings up to max_n (defaults per check)."""
    return _report(proposition, max_n)


def hierarchy_report(max_n: int | None = None) -> VerificationReport:
    """The hierarchy check: compare the class sets reachable per memory
    model at every size up to max_n (by default 8). The memoryless classes
    must embed into both richer models, and the report records whether the
    fading classes embed into full memory (they do not: fading memory
    reaches long induced paths that full-memory outputs never contain)."""
    return _report("hierarchy", max_n)
