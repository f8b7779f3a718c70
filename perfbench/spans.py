"""Span tracer for the traced benchmark mode.

The tracer wraps graphforge's public functions from outside: every name a
graphforge module (or the ``Graph`` class) binds to a traced function is
rebound to a wrapper, so calls made through ``from .graphs import
canonical_form`` in another module, or through an import made at call time,
are seen too.  ``src/`` is never edited.

A span's self time is its duration minus the durations of the wrapped spans
it directly encloses, so the self times of all spans add up exactly to the
time covered by outermost spans.  Calls and inclusive times are counted for
the outermost span of a name only, so a function that calls a sibling under
the same span name counts once.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter_ns

import graphforge
from graphforge import cli, families, graphs, machines, randomness, trees, verify


def _note_canonical(tracer, args, result):
    g = args[0]
    key = hash((g.n, g.edges))
    if key in tracer.seen_graphs:
        tracer.counts["graphs.canonical_form.repeats"] += 1
    else:
        tracer.seen_graphs.add(key)


def _note_isomorphic(tracer, args, result):
    if result:
        tracer.counts["graphs.is_isomorphic.true"] += 1


def _note_bytes(tracer, args, result):
    tracer.counts["graphs.serialize.bytes"] += len(result.encode())


def _note_mc(tracer, args, result):
    tracer.counts["randomness.likelihood_mc.samples"] += result.samples
    tracer.counts["randomness.likelihood_mc.hits"] += result.hits


def _note_copies(tracer, args, result):
    tracer.counts["randomness.labeled_copies.count"] += len(result)


def _note_checked(tracer, args, result):
    tracer.counts["verify.checked"] += result.checked


def _public_functions(module) -> list:
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    ]


def _spans() -> list[tuple[str, list, object]]:
    """(span name, functions it covers, note hook).  A function missing from
    the package is skipped, and its span then reports zero."""

    def fns(owner, *names):
        return [getattr(owner, n) for n in names if hasattr(owner, n)]

    return [
        ("graphs.canonical_form", fns(graphs, "canonical_form"), _note_canonical),
        ("graphs.is_isomorphic", fns(graphs, "is_isomorphic"), _note_isomorphic),
        ("graphs.automorphism_count", fns(graphs, "automorphism_count"), None),
        ("graphs.enumerate_graph_classes", fns(graphs, "enumerate_graph_classes"), None),
        (
            "graphs.induced",
            fns(graphs, "contains_induced", "is_threshold", "is_threshold_by_forbidden"),
            None,
        ),
        ("graphs.neighbors", fns(graphs.Graph, "neighbors", "degree"), None),
        ("graphs.serialize", fns(graphs, "to_json", "to_bitstring", "to_dot"), _note_bytes),
        ("machines.interpret", fns(machines, "interpret"), None),
        ("machines.interpret_modifiable", fns(machines, "interpret_modifiable"), None),
        ("families", _public_functions(families), None),
        ("randomness.likelihood_mc", fns(randomness, "likelihood_mc"), _note_mc),
        ("randomness.likelihood_exact", fns(randomness, "likelihood_exact"), None),
        ("randomness.likelihood_bounds", fns(randomness, "likelihood_bounds"), None),
        ("randomness.likelihood_extremes", fns(randomness, "likelihood_extremes"), None),
        ("randomness.labeled_copies", fns(randomness, "distinct_labeled_copies"), _note_copies),
        ("randomness.samplers", fns(randomness, "sample_gnp", "sample_vertex_addition"), None),
        ("randomness.cost_a", fns(randomness, "randomness_cost_a"), None),
        (
            "trees.sample_ua",
            fns(trees, "sample_ua", "sample_ua_parents", "build_tree_from_instructions"),
            None,
        ),
        ("trees.is_recursive_tree", fns(trees, "is_recursive_tree"), None),
        ("trees.ua_likelihood_exact", fns(trees, "ua_likelihood_exact"), None),
        ("trees.tree_classes", fns(trees, "enumerate_tree_classes", "enumerate_labeled_trees"), None),
        ("trees.prufer", fns(trees, "prufer_encode", "prufer_decode"), None),
        ("trees.positivity", fns(trees, "tree_positivity_check"), None),
        ("verify.verify_proposition", fns(verify, "verify_proposition"), _note_checked),
        ("verify.hierarchy_report", fns(verify, "hierarchy_report"), _note_checked),
        ("cli.main", fns(cli, "main"), None),
    ]


# Spans whose call counts are reported, as "<span>.calls".
COUNTED = (
    "graphs.canonical_form", "graphs.is_isomorphic", "graphs.neighbors",
    "machines.interpret", "machines.interpret_modifiable", "families",
    "randomness.likelihood_exact", "trees.sample_ua", "trees.is_recursive_tree", "cli.main",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects span counts and times while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: Counter = Counter()  # outermost spans per name
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()  # inclusive, outermost spans only
        self.nested: Counter = Counter()  # "parent>name" -> outermost spans of name
        self.counts: Counter = Counter()  # work counters filled by note hooks
        self.root_ns = 0  # time covered by spans with no enclosing span
        self.seen_graphs: set[int] = set()
        self._stack: list[list] = []  # open spans: [name, ns of direct children]
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn, note=None):
        stack = self._stack
        depth = self._depth

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                depth[name] -= 1
                self.self_ns[name] += elapsed - frame[1]
                if parent is None:
                    self.root_ns += elapsed
                else:
                    parent[1] += elapsed
                if depth[name] == 0:
                    self.calls[name] += 1
                    self.total_ns[name] += elapsed
                    self.nested[f"{parent[0] if parent else ''}>{name}"] += 1
            if note is not None:
                note(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever graphforge binds it."""
        wrappers = {}
        for name, targets, note in _spans():
            for fn in targets:
                wrappers[id(fn)] = self.wrap(name, fn, note)
        namespaces = [graphs.Graph] + [
            mod
            for key, mod in sys.modules.items()
            if key == graphforge.__name__ or key.startswith(graphforge.__name__ + ".")
        ]
        for space in namespaces:
            for attr, value in list(vars(space).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(space, attr, wrapper)

    def exact_counts(self) -> dict:
        """Everything recorded that must repeat exactly for the same inputs."""
        return {"calls": dict(self.calls), "nested": dict(self.nested), "counts": dict(self.counts)}

    def metrics(self, wall_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), of a batch that took wall_ns."""
        m = {f"{name}.calls": (self.calls[name], "count") for name in COUNTED}
        for name, _, _ in _spans():
            m[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        calls, counts, total_ns = self.calls, self.counts, self.total_ns
        mc = "randomness.likelihood_mc"
        samples = counts[f"{mc}.samples"]
        checked = counts["verify.checked"]
        verify_s = (total_ns["verify.verify_proposition"] + total_ns["verify.hierarchy_report"]) / 1e9
        repeats = counts["graphs.canonical_form.repeats"]
        m.update({
            "graphs.canonical_form.repeat_frac": (
                _share(repeats, calls["graphs.canonical_form"]),
                "ratio",
            ),
            "graphs.is_isomorphic.true_frac": (
                _share(counts["graphs.is_isomorphic.true"], calls["graphs.is_isomorphic"]),
                "ratio",
            ),
            "graphs.serialize.bytes": (counts["graphs.serialize.bytes"], "bytes"),
            f"{mc}.samples": (samples, "count"),
            f"{mc}.samples_per_s": (_share(samples, total_ns[mc] / 1e9), "1/s"),
            f"{mc}.iso_tests_per_sample": (
                _share(self.nested[f"{mc}>graphs.is_isomorphic"], samples),
                "ratio",
            ),
            f"{mc}.hit_frac": (_share(counts[f"{mc}.hits"], samples), "ratio"),
            "randomness.labeled_copies.count": (counts["randomness.labeled_copies.count"], "count"),
            "verify.checked": (checked, "count"),
            "verify.checked_per_s": (_share(checked, verify_s), "1/s"),
            # Self times add up to root_ns; the rest of the batch is glue.
            "trace.residue_frac": (_share(wall_ns - self.root_ns, wall_ns), "ratio"),
            "trace.wall_s": (wall_ns / 1e9, "s"),
        })
        return m
