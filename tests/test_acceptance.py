"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria fail by design of the implementation rather than by accident,
and the failures are kept visible instead of being masked:

* criterion 8 expects a complete-bipartite minimiser of the vertex-addition
  likelihood at n = 5, but exact enumeration finds the 5-cycle strictly
  below it (1/270 < 23/4320); the 5-cycle is self-complementary and the
  likelihood is invariant under graph complement, which is also why the
  minimum at n = 4 and n = 6 is attained jointly by the balanced complete
  bipartite graph and its complement.
* criterion 10 expects the fading-memory class set to sit inside the
  full-memory one, but fading memory builds long induced paths (P_5 already
  at n = 5) that no full-memory rule can produce, so the inclusion fails
  while the other two inclusions hold.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from math import factorial

from conftest import record_acceptance

from graphforge.families import (
    alternating_runs,
    runs_of_ones,
    runs_of_zeros,
    zero_anchored_blocks,
)
from graphforge.graphs import (
    canonical_form,
    complete_bipartite,
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    enumerate_graph_classes,
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
from graphforge.randomness import (
    dyad_bits,
    likelihood_exact,
    likelihood_extremes,
    likelihood_mc,
    randomness_cost_a,
    randomness_cost_a_closed,
)
from graphforge.trees import (
    enumerate_labeled_trees,
    enumerate_tree_classes,
    is_recursive_tree,
    prufer_decode,
    prufer_encode,
    sample_ua,
    tree_cost,
    ua_likelihood_exact,
)
from graphforge.verify import hierarchy_report, reachable_classes, verify_proposition


def _finish(number: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail and not passed:
        line += f" [{detail}]"
    print(line)
    record_acceptance(number, name, passed, detail)
    assert passed, detail or name


def test_criterion_01_no_memory_tables() -> None:
    report = verify_proposition("P2", 10)
    _finish(1, "no-memory families", report.passed, report.to_text())


def test_criterion_02_full_memory_tables() -> None:
    report = verify_proposition("P3", 8)
    _finish(2, "full-memory families", report.passed, report.to_text())


def test_criterion_03_forbidden_paths_and_cycles() -> None:
    report = verify_proposition("C_pnfree", 8)
    p4_witness = interpret(parse_rule("0>1,1>-"), FULL_MEMORY, "10010").final.graph
    has_p4 = contains_induced(p4_witness, path_graph(4))
    c4_witness = interpret(parse_rule("0>1,1>0"), FULL_MEMORY, "0101").final.graph
    has_c4 = contains_induced(c4_witness, cycle_graph(4))
    ok = report.passed and has_p4 and has_c4
    _finish(
        3,
        "full-memory outputs avoid long induced paths/cycles",
        ok,
        f"report={report.passed} p4={has_p4} c4={has_c4}",
    )


def test_criterion_04_modifiable_families() -> None:
    report = verify_proposition("C_modifiable", 6)
    worked = interpret(parse_rule("0>1,1>-"), MODIFIABLE, "00010", "ssssm")
    star_ok = is_isomorphic(worked.final.graph, complete_bipartite(1, 4))
    ok = report.passed and star_ok
    _finish(
        4,
        "memory-rewrite steps stay within the three families",
        ok,
        f"report={report.passed} worked_example={star_ok}",
    )


def test_criterion_05_fading_memory_tables() -> None:
    report = verify_proposition("P5", 8)
    x = "00110100010"
    stats_ok = (
        runs_of_zeros(x) == (2, 1, 3, 1)
        and runs_of_ones(x) == (2, 1, 1)
        and alternating_runs(x) == (2, 4, 3)
        and zero_anchored_blocks(x) == (3, 2, 4)
    )
    ok = report.passed and stats_ok
    _finish(
        5,
        "fading-memory families and run statistics",
        ok,
        f"report={report.passed} run_stats={stats_ok}",
    )


def test_criterion_06_randomness_cost() -> None:
    values_ok = [randomness_cost_a(n) for n in (3, 4, 5)] == [4, 8, 14]
    closed_ok = all(randomness_cost_a(n) == randomness_cost_a_closed(n) for n in range(4, 65))
    ratios_ok = all(
        0.5 <= randomness_cost_a(n) / dyad_bits(n) <= 4 for n in (16, 64, 256, 1024)
    )
    ok = values_ok and closed_ok and ratios_ok
    _finish(
        6,
        "random-bit cost of the uniform process",
        ok,
        f"values={values_ok} closed_form={closed_ok} ratios={ratios_ok}",
    )


def test_criterion_07_likelihood_identities() -> None:
    complete_ok = all(
        likelihood_exact(complete_graph(t)) == Fraction(1, factorial(t)) for t in range(2, 7)
    )
    star_ok = all(
        likelihood_exact(complete_bipartite(1, t - 1))
        == Fraction(t, factorial(t) ** 2) * sum(factorial(i) for i in range(t))
        for t in range(3, 7)
    )
    mass_ok = all(
        sum(likelihood_exact(g) for g in enumerate_graph_classes(n)) == 1 for n in range(1, 6)
    )
    bounds_ok = True
    for n in range(1, 7):
        for row in likelihood_extremes(n).rows:
            if not (row.lower <= row.likelihood <= row.upper):
                bounds_ok = False
    sweep_hits = 0
    for seed in range(100):
        est = likelihood_mc(complete_graph(3), samples=100_000, seed=seed)
        if abs(est.estimate - 1 / 6) <= 3 * est.stderr:
            sweep_hits += 1
    sweep_ok = sweep_hits >= 99
    ok = complete_ok and star_ok and mass_ok and bounds_ok and sweep_ok
    _finish(
        7,
        "likelihood identities, mass, bounds, Monte Carlo",
        ok,
        f"complete={complete_ok} star={star_ok} mass={mass_ok} "
        f"bounds={bounds_ok} sweep={sweep_hits}/100",
    )


def test_criterion_08_extremal_likelihood_evidence() -> None:
    # n = 4: minimum 1/36, attained by the balanced complete bipartite graph
    # (tied with its complement, two disjoint edges)
    table4 = likelihood_extremes(4)
    ok4 = table4.argmin_is_balanced_bipartite() and table4.argmin_classes[0].likelihood == Fraction(1, 36)
    # n = 6: minimum 23/259200, again attained by the balanced complete
    # bipartite graph (tied with two disjoint triangles)
    table6 = likelihood_extremes(6)
    ok6 = table6.argmin_is_balanced_bipartite() and table6.argmin_classes[0].likelihood == Fraction(23, 259200)
    # n = 5: the expectation of a complete-bipartite minimiser fails; the
    # exact minimiser is the self-complementary 5-cycle
    table5 = likelihood_extremes(5)
    ties5 = table5.argmin_classes
    ok5 = table5.argmin_is_balanced_bipartite()
    computed5 = (
        len(ties5) == 1
        and is_isomorphic(ties5[0].graph, cycle_graph(5))
        and ties5[0].likelihood == Fraction(1, 270)
        and likelihood_exact(complete_bipartite(2, 3)) == Fraction(23, 4320)
    )
    ok = ok4 and ok6 and ok5 and computed5
    _finish(
        8,
        "extremal likelihood evidence",
        ok,
        f"n4_balanced={ok4} n6_balanced={ok6} n5_balanced={ok5} "
        f"(n=5 argmin is the 5-cycle at 1/270; K_2,3 sits at 23/4320: "
        f"five_cycle_confirmed={computed5})",
    )


def test_criterion_09_trees() -> None:
    positivity_ok = all(
        ua_likelihood_exact(t) > 0 for n in range(1, 8) for t in enumerate_tree_classes(n)
    )
    mass_ok = all(
        sum(ua_likelihood_exact(t) for t in enumerate_tree_classes(n)) == 1
        for n in range(2, 7)
    )
    samples_ok = all(is_recursive_tree(sample_ua(20, seed=seed)) for seed in range(100_000))
    prufer_ok = all(
        prufer_decode(prufer_encode(t)) == t
        for n in range(2, 7)
        for t in enumerate_labeled_trees(n)
    )
    cost5_ok = tree_cost(5).instruction_bits == 8
    bound_ok = True
    running = 0
    spot_checks = {2, 4, 16, 256, 4096, 65536}
    for n in range(2, 2**16 + 1):
        running += (n - 1).bit_length()
        if running > (n - 1) * (n - 1).bit_length():
            bound_ok = False
            break
        if n in spot_checks and tree_cost(n).instruction_bits != running:
            bound_ok = False
            break
    ok = positivity_ok and mass_ok and samples_ok and prufer_ok and cost5_ok and bound_ok
    _finish(
        9,
        "uniform-attachment trees",
        ok,
        f"positivity={positivity_ok} mass={mass_ok} samples={samples_ok} "
        f"prufer={prufer_ok} cost5={cost5_ok} bound={bound_ok}",
    )


def test_criterion_10_memory_hierarchy() -> None:
    # strict-inclusion witnesses at n <= 5 first
    full4 = reachable_classes(FULL_MEMORY, 4)
    none4 = reachable_classes(NO_MEMORY, 4)
    fading4 = reachable_classes(fading_memory(2), 4)
    c22 = canonical_form(complete_bipartite(2, 2))
    two_edges = canonical_form(disjoint_union(path_graph(2), path_graph(2)))
    witness_full = c22 in full4 and c22 not in none4
    witness_fading = two_edges in fading4 and two_edges not in none4

    report = hierarchy_report(8)
    # the two lower inclusions hold: every recorded violation comes from
    # comparing the fading model against full memory
    lower_ok = all(cx.model == "fading(2)" for cx in report.counterexamples)
    ok = report.passed and witness_full and witness_fading and lower_ok
    _finish(
        10,
        "memory-model class hierarchy",
        ok,
        f"witnesses={witness_full and witness_fading} "
        f"no-memory inclusions hold={lower_ok}; fading-memory classes escape "
        f"full memory at n=5..8 ({len(report.counterexamples)} distinct "
        f"classes, induced P_5 among them)",
    )


def test_criterion_11_cli_determinism() -> None:
    invocations = [
        ("build", "--rule", "0>E,1>-", "--model", "none", "--x", "100101", "--format", "json"),
        ("build", "--rule", "0>0,1>1", "--model", "full", "--x", "0110", "--format", "dot"),
        ("random", "gnp", "--n", "10", "--p", "1/2", "--seed", "77", "--format", "json"),
        ("random", "va", "--n", "8", "--dist", "uniform", "--seed", "3", "--format", "matrix"),
        ("tree", "sample", "--n", "12", "--seed", "9", "--format", "json"),
        ("likelihood", "--graph", "K3", "--mc", "20000", "--seed", "5"),
        ("likelihood", "--extremes", "5", "--format", "json"),
        ("verify", "P2", "--max-n", "5"),
        ("cost", "a", "--n", "12"),
    ]
    ok = True
    bad = ""
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "graphforge.cli", *args],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or any(r.returncode != 0 for r in runs):
            ok = False
            bad = " ".join(args)
            break
    _finish(11, "byte-identical CLI output", ok, f"diverged: {bad}")
