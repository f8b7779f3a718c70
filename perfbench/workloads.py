"""The benchmark's three workloads: items built from a seed, and their checks.

An item is one public graphforge call with fixed arguments; calls that take
well under a millisecond (the small samplers, likelihood_bounds and
canonical_form) are grouped into a fixed run of such calls so that one item
is long enough to time.  Sizes are fixed per workload and
the seed only chooses what the processes sample (RNG seeds, the n = 7 class
sample, instruction strings), so every seed asks for the same amount of work.

Every check compares a result with a fact written here, or with a closed
form, and runs after the timed pass.  The facts include the two results
that fail by design: ``hierarchy_report(8)`` fails with 147
counterexamples, and the n = 5 likelihood minimum is the 5-vertex class
``5:0011101100`` at 1/270, not the balanced complete bipartite graph.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb, exp, factorial, lgamma, log
from typing import NamedTuple

import graphforge as gf
from graphforge import cli

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "classes.json")) as _fh:
    # One certificate bit string (upper triangle, row-major) per isomorphism
    # class of graphs and of trees on n vertices, n = 1..7.  The graphs on 7
    # vertices are ordered by automorphism count, then edge count, so the
    # first ASYMMETRIC_7 of them are the classes with no automorphism but
    # the identity.
    CLASSES = json.load(_fh)

CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)  # graphs on n = 0..7 vertices
TREE_COUNTS = (None, 1, 1, 1, 2, 3, 6)  # trees on n = 1..6 vertices
PROPOSITIONS = ("P2", "P3", "P5", "C_modifiable", "C_pnfree")
# Each class on 7 vertices with a trivial automorphism group has 5040
# labelled copies, so likelihood_exact costs the same on all of them, and a
# sample drawn among them asks for the same work whatever the seed.
ASYMMETRIC_7 = 152  # OEIS A003400
N7_SAMPLE = 30  # sampled asymmetric classes on 7 vertices, each with its complement

MC_ROUNDS = 20
MC_SAMPLES = 2000
MC_TARGETS = (  # (name, graph, exact likelihood under uniform vertex addition)
    ("K3", gf.complete_graph(3), Fraction(1, 6)),
    ("P4", gf.path_graph(4), Fraction(1, 9)),
    ("C5", gf.cycle_graph(5), Fraction(1, 270)),
    ("P6", gf.path_graph(6), Fraction(2, 405)),
    ("K3,3", gf.complete_bipartite(3, 3), Fraction(23, 259200)),
)
UA_TARGETS = (  # (name, tree, exact likelihood under uniform attachment)
    ("P5", gf.path_graph(5), Fraction(1, 3)),
    ("P6", gf.path_graph(6), Fraction(2, 15)),
    ("K1,4", gf.complete_bipartite(1, 4), Fraction(1, 12)),
    ("K1,5", gf.complete_bipartite(1, 5), Fraction(1, 60)),
)
POSITIVITY_SAMPLES = 1000
RUN_LENGTH = 50  # calls per item for the microsecond-scale samplers
# A correct sampler fails an estimate check with probability at most ALPHA.
# (A z = 6 Wilson interval is not that safe when fewer than one hit is
# expected: K3,3 gets 3 hits in 2000 samples about once in 1300 draws.)
ALPHA = 1e-9

TREE_JSON_N = (200, 400, 800, 1600)
TREE_MATRIX_N = (250, 500, 750, 1000)
VA_N = (100, 150, 200)
GNP_N = (100, 150, 200)
GNP_P = "1/20"
BUILD_FULL_LEN = (100, 200, 300)
BUILD_FADING_LEN = (1000, 2000, 4000, 8000)
COST_A_N = (400, 800, 1200, 1600, 2000)
RECURSIVE_N = (500, 1000, 1500, 2000, 2500)
PRUFER_N = (500, 1000, 1500, 2000)
FULL_RULES = tuple(rule.mnemonic for rule in gf.FULL_RULES)
# Under fading memory a DominateAll rule still builds a dense graph, so the
# long fading(2) strings use the label-join rules, which build linear forests.
LABEL_RULES = tuple(r for r in FULL_RULES if "E" not in r)


class CliOutput(NamedTuple):
    rc: int
    text: str


class Batch:
    """A fixed list of items and the checks run on their results."""

    def __init__(self) -> None:
        self.items: list[tuple[str, object]] = []  # (label, zero-argument call)
        self.checks: list[tuple[list[int], object, str]] = []  # (items, predicate, label)

    def add(self, label: str, call, check=None) -> int:
        self.items.append((label, call))
        index = len(self.items) - 1
        if check is not None:
            self.checks.append(([index], lambda results: check(results[0]), label))
        return index

    def check_all(self, indices, predicate, label: str) -> None:
        """A check over several items' results; when it fails, all of them fail."""
        self.checks.append((list(indices), predicate, label))


def run_cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliOutput(rc, buf.getvalue())


def graph_from_bits(n: int, bits: str) -> gf.Graph:
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return gf.Graph(n, frozenset(p for p, b in zip(pairs, bits) if b == "1"))


def complement_bits(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def plausible_hits(hits: int, samples: int, p: Fraction) -> bool:
    """Whether hits lies in the exact binomial acceptance interval: neither
    tail of Binomial(samples, p) beyond it holds less than ALPHA / 2."""
    log_p, log_q = log(p), log(1 - p)
    log_n = lgamma(samples + 1)
    pmf = [
        exp(log_n - lgamma(k + 1) - lgamma(samples - k + 1) + k * log_p + (samples - k) * log_q)
        for k in range(samples + 1)
    ]
    return sum(pmf[: hits + 1]) >= ALPHA / 2 and sum(pmf[hits:]) >= ALPHA / 2


# ---------------------------------------------------------------------------
# exhaustive: machine enumeration and the exact engines
# ---------------------------------------------------------------------------

def exhaustive(seed: int) -> Batch:
    rng = random.Random(f"exhaustive:{seed}")
    b = Batch()
    for prop in PROPOSITIONS:
        b.add(f"verify {prop}", lambda prop=prop: gf.verify_proposition(prop), lambda r: r.passed)
    b.add(
        "hierarchy 8",
        lambda: gf.hierarchy_report(8),
        lambda r: not r.passed and len(r.counterexamples) == 147,
    )
    for n, count in enumerate(CLASS_COUNTS):
        b.add(f"classes {n}", lambda n=n: gf.enumerate_graph_classes(n), lambda r, c=count: len(r) == c)

    def exact_and_bounds(n: int, bit_strings: list[str]) -> tuple[list[int], int]:
        """One likelihood_exact item per class, and one item that takes the
        automorphism bounds of them all, as each is a sub-millisecond call."""
        graphs = [graph_from_bits(n, bits) for bits in bit_strings]
        exact = [
            b.add(f"likelihood_exact {n}:{bits}", lambda g=g: gf.likelihood_exact(g))
            for g, bits in zip(graphs, bit_strings)
        ]
        bounds = b.add(
            f"likelihood_bounds of {len(graphs)} classes {n}",
            lambda: [gf.likelihood_bounds(g) for g in graphs],
        )
        b.check_all(
            exact + [bounds],
            lambda r: all(lo <= e <= up for e, (lo, up) in zip(r[:-1], r[-1])),
            f"bounds hold at n={n}",
        )
        for g, i in zip(graphs, exact):
            if g.edge_count == comb(n, 2):
                b.check_all([i], lambda r: r[0] == Fraction(1, factorial(n)), f"K{n} is 1/{n}!")
        return exact, bounds

    for n in range(1, 7):
        exact, _ = exact_and_bounds(n, CLASSES["graphs"][str(n)])
        b.check_all(exact, lambda r: sum(r) == 1, f"class likelihoods sum to 1 at n={n}")
        certs = [f"{n}:{bits}".encode() for bits in CLASSES["graphs"][str(n)]]
        graphs = [graph_from_bits(n, bits) for bits in CLASSES["graphs"][str(n)]]
        b.add(
            f"canonical_form of every class {n}",
            lambda graphs=graphs: [gf.canonical_form(g) for g in graphs],
            lambda r, certs=certs: r == certs,
        )
    # The uniform process is invariant under complement, so each sampled
    # class and its (also asymmetric) complement have equal likelihood.
    sample = rng.sample(CLASSES["graphs"]["7"][:ASYMMETRIC_7], N7_SAMPLE)
    exact, bounds = exact_and_bounds(7, [c for bits in sample for c in (bits, complement_bits(bits))])
    # The upper bound is 1/|Aut|.
    b.check_all([bounds], lambda r: all(up == 1 for _, up in r[0]), "asymmetric upper bounds at n=7")
    for bits, pair in zip(sample, zip(exact[::2], exact[1::2])):
        b.check_all(pair, lambda r: r[0] == r[1], f"complement symmetry 7:{bits}")
    b.add(
        "likelihood_extremes 5",
        lambda: gf.likelihood_extremes(5),
        lambda t: t.argmin.certificate == "5:0011101100" and t.argmin.likelihood == Fraction(1, 270),
    )
    b.add(
        "likelihood_extremes 6",
        lambda: gf.likelihood_extremes(6),
        lambda t: len(t.rows) == 156 and t.total() == 1,
    )
    for n in range(1, 7):
        b.add(
            f"tree classes {n}",
            lambda n=n: gf.enumerate_tree_classes(n),
            lambda r, c=TREE_COUNTS[n]: len(r) == c,
        )
    for n in range(1, 8):
        ua = [
            b.add(
                f"ua_likelihood_exact {n}:{bits}",
                lambda t=graph_from_bits(n, bits): gf.ua_likelihood_exact(t),
            )
            for bits in CLASSES["trees"][str(n)]
        ]
        b.check_all(ua, lambda r: sum(r) == 1, f"tree likelihoods sum to 1 at n={n}")
    return b


# ---------------------------------------------------------------------------
# montecarlo: sampling and hit tests on small graphs
# ---------------------------------------------------------------------------

def montecarlo(seed: int) -> Batch:
    rng = random.Random(f"montecarlo:{seed}")
    b = Batch()

    def seeds(k: int) -> list[int]:
        return [rng.randrange(2**31) for _ in range(k)]

    # Item index per round, by target; the pooled checks below are sharper
    # than any one round's.
    mc_items: dict[str, list[int]] = {name: [] for name, _, _ in MC_TARGETS}
    positivity_items: dict[str, list[int]] = {name: [] for name, _, _ in UA_TARGETS}
    for rnd in range(MC_ROUNDS):
        for name, g, p in MC_TARGETS:
            (s,) = seeds(1)
            mc_items[name].append(b.add(
                f"likelihood_mc {name} seed {s}",
                lambda g=g, s=s: gf.likelihood_mc(g, MC_SAMPLES, s),
                lambda r, p=p: r.samples == MC_SAMPLES and plausible_hits(r.hits, r.samples, p),
            ))
        for _ in range(2):
            run = seeds(RUN_LENGTH)
            b.add(
                "sample_ua 20 + is_recursive_tree",
                lambda run=run: [gf.is_recursive_tree(gf.sample_ua(20, s)) for s in run],
                all,
            )
        name, tree, p = UA_TARGETS[rnd % len(UA_TARGETS)]
        (s,) = seeds(1)
        positivity_items[name].append(b.add(
            f"tree_positivity_check {name} seed {s}",
            lambda tree=tree, s=s: gf.tree_positivity_check(tree, POSITIVITY_SAMPLES, s),
            lambda r, p=p: r[0] > 0 and plausible_hits(r[0], POSITIVITY_SAMPLES, p),
        ))
        run = seeds(RUN_LENGTH)
        b.add(
            "sample_vertex_addition 10",
            lambda run=run: [gf.sample_vertex_addition(10, gf.Uniform(), s) for s in run],
            lambda r, run=run: all(g.n == 10 for g in r)
            and r[0] == gf.sample_vertex_addition(10, gf.Uniform(), run[0]),
        )
        run = seeds(RUN_LENGTH)
        b.add(
            "sample_gnp 10",
            lambda run=run: [gf.sample_gnp(10, 0.5, s) for s in run],
            lambda r, run=run: all(g.n == 10 for g in r) and r[0] == gf.sample_gnp(10, 0.5, run[0]),
        )
    for name, _, p in MC_TARGETS:
        b.check_all(
            mc_items[name],
            lambda r, p=p: plausible_hits(sum(e.hits for e in r), sum(e.samples for e in r), p),
            f"pooled likelihood_mc {name}",
        )
    for name, _, p in UA_TARGETS:
        b.check_all(
            positivity_items[name],
            lambda r, p=p: plausible_hits(sum(e[0] for e in r), POSITIVITY_SAMPLES * len(r), p),
            f"pooled tree_positivity_check {name}",
        )
    return b


# ---------------------------------------------------------------------------
# large: few large sparse graphs through the CLI, and large trees
# ---------------------------------------------------------------------------

def _tree_json_ok(out: CliOutput, n: int, seed: int) -> bool:
    obj = json.loads(out.text)
    parents = obj["parents"]
    return (
        out.rc == 0
        and obj["n"] == n
        and obj["seed"] == seed
        and obj["recursive"] is True
        and len(parents) == n + 1
        and parents[:2] == [None, None]
        and all(1 <= parents[t] < t for t in range(2, n + 1))
    )


def _matrix_ok(out: CliOutput, n: int) -> bool:
    bits = out.text.rstrip("\n")
    return (
        out.rc == 0
        and len(bits) == comb(n, 2)
        and set(bits) <= {"0", "1"}
        and bits.count("1") == n - 1
    )


def _sample_json_ok(out: CliOutput, n: int, seed: int, sampler: str) -> bool:
    obj = json.loads(out.text)
    edges = [tuple(e) for e in obj["graph"]["edges"]]
    return (
        out.rc == 0
        and obj["seed"] == seed
        and obj["sampler"] == sampler
        and obj["graph"]["n"] == n
        and edges == sorted(set(edges))
        and all(1 <= i < j <= n for i, j in edges)
    )


def _build_full_ok(out: CliOutput, rule: str, x: str) -> bool:
    expected = gf.to_json(gf.full_table_family(gf.parse_rule(rule), x).graph) + "\n"
    return out.rc == 0 and out.text == expected


def _build_fading_ok(out: CliOutput, rule: str, x: str) -> bool:
    """A label-join rule under fading(2) memory links only consecutive
    vertices, so the output is a linear forest whose path sizes
    fading_path_sizes gives in closed form (per run kind, hence the sort)."""
    graph = json.loads(out.text)
    edges = graph["edges"]
    if out.rc != 0 or graph["n"] != len(x) or any(j != i + 1 for i, j in edges):
        return False
    linked = {j for _, j in edges}
    sizes, run = [], 1
    for t in range(2, len(x) + 2):
        if t in linked:
            run += 1
            continue
        if run >= 2:
            sizes.append(run)
        run = 1
    return sorted(sizes) == sorted(gf.fading_path_sizes(gf.parse_rule(rule), x))


def large(seed: int) -> Batch:
    rng = random.Random(f"large:{seed}")
    b = Batch()

    def new_seed() -> int:
        return rng.randrange(2**31)

    def bits(length: int) -> str:
        return format(rng.getrandbits(length), f"0{length}b")

    for n in TREE_JSON_N * 3:
        s = new_seed()
        b.add(
            f"cli tree sample json n={n}",
            lambda n=n, s=s: run_cli(["tree", "sample", "--n", str(n), "--seed", str(s)]),
            lambda r, n=n, s=s: _tree_json_ok(r, n, s),
        )
    for n in TREE_MATRIX_N:
        s = new_seed()
        b.add(
            f"cli tree sample matrix n={n}",
            lambda n=n, s=s: run_cli(
                ["tree", "sample", "--n", str(n), "--seed", str(s), "--format", "matrix"]
            ),
            lambda r, n=n: _matrix_ok(r, n),
        )
    for n in VA_N * 3:
        s = new_seed()
        b.add(
            f"cli random va n={n}",
            lambda n=n, s=s: run_cli(["random", "va", "--n", str(n), "--seed", str(s)]),
            lambda r, n=n, s=s: _sample_json_ok(r, n, s, "vertex-addition"),
        )
    for n in GNP_N * 3:
        s = new_seed()
        b.add(
            f"cli random gnp n={n}",
            lambda n=n, s=s: run_cli(["random", "gnp", "--n", str(n), "--p", GNP_P, "--seed", str(s)]),
            lambda r, n=n, s=s: _sample_json_ok(r, n, s, "gnp"),
        )
    for model, lengths, rules, check in (
        ("full", BUILD_FULL_LEN, FULL_RULES, _build_full_ok),
        ("fading(2)", BUILD_FADING_LEN, LABEL_RULES, _build_fading_ok),
    ):
        for length in lengths:
            for rule in rules:
                x = bits(length)
                b.add(
                    f"cli build {rule} {model} |x|={length}",
                    lambda rule=rule, model=model, x=x: run_cli(
                        ["build", "--rule", rule, "--model", model, "--x", x]
                    ),
                    lambda r, rule=rule, x=x, check=check: check(r, rule, x),
                )
    for n in COST_A_N:
        b.add(
            f"cli cost a n={n}",
            lambda n=n: run_cli(["cost", "a", "--n", str(n)]),
            lambda r, n=n: r.rc == 0 and int(r.text) == gf.randomness_cost_a_closed(n),
        )
    for n in RECURSIVE_N:
        s = new_seed()
        b.add(
            f"is_recursive_tree sample_ua n={n}",
            lambda n=n, s=s: gf.is_recursive_tree(gf.sample_ua(n, s)),
            lambda r: r is True,
        )
    for n in PRUFER_N:
        s = new_seed()
        b.add(
            f"prufer round trip sample_ua n={n}",
            lambda n=n, s=s: gf.prufer_decode(gf.prufer_encode(gf.sample_ua(n, s))),
            lambda r, n=n, s=s: r == gf.sample_ua(n, s),
        )
    return b


WORKLOADS = {"exhaustive": exhaustive, "montecarlo": montecarlo, "large": large}
