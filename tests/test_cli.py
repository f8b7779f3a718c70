"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from graphforge import cli, graphs
from graphforge.cli import main, parse_graph_spec
from graphforge.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_isomorphic,
    path_graph,
)
from graphforge.randomness import likelihood_bounds, likelihood_exact, likelihood_mc


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "graphforge.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_parse_graph_spec_named_families() -> None:
    assert parse_graph_spec("K4") == complete_graph(4)
    assert parse_graph_spec("k4") == complete_graph(4)
    assert parse_graph_spec("P5") == path_graph(5)
    assert parse_graph_spec("C6") == cycle_graph(6)
    assert parse_graph_spec("E3") == empty_graph(3)
    assert parse_graph_spec("K2,3") == complete_bipartite(2, 3)
    assert parse_graph_spec("K 2, 3") == complete_bipartite(2, 3)


def test_parse_graph_spec_json_form() -> None:
    g = parse_graph_spec('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert g == path_graph(3)


def test_json_specs_that_are_not_integral_are_refused(capsys) -> None:
    for spec, bad in (('{"n": 2.7, "edges": []}', "2.7"), ('{"n": 2, "edges": [[1.9, 2]]}', "1.9"),
                      ('{"n": true, "edges": []}', "True"), ('{"n": "3", "edges": []}', "'3'")):
        assert main(["likelihood", "--graph", spec, "--bounds"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed graph object: {bad} is not an integer\n"


def test_parse_graph_spec_rejects_garbage() -> None:
    for bad in ("Q4", "K", "P2,3", "K4,5,6", ""):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


def test_named_specs_above_the_edge_cap_are_refused_before_they_are_built(capsys, monkeypatch) -> None:
    over_the_cap = (("K2000", 1999000), ("K1025,1024", 1049600), ("P1048578", 1048577), ("C1048577", 1048577))
    for spec, edges in over_the_cap:
        with pytest.raises(ValueError) as exc:
            parse_graph_spec(spec)
        assert str(exc.value) == f"{spec} may build {edges} edges; limit 1048576"
    # at a lowered cap each family is built up to it and refused one past it
    monkeypatch.setitem(graphs.LIMITS, "build_edges", 6)
    for fits, over in (("K4", "K5"), ("K2,3", "K2,4"), ("P7", "P8"), ("C6", "C7")):
        assert parse_graph_spec(fits).edge_count == 6
        with pytest.raises(ValueError, match="edges; limit 6$"):
            parse_graph_spec(over)
    assert parse_graph_spec("E100") == empty_graph(100)
    assert main(["likelihood", "--graph", "K5", "--bounds"]) == 2
    assert capsys.readouterr().err == "error: K5 may build 10 edges; limit 6\n"


def test_likelihood_refuses_a_graph_above_its_mode_bound_before_building_it(capsys, monkeypatch) -> None:
    """A named --graph over the chosen mode's size bound gets the mode's own
    refusal, in its own order; above exact_n no family constructor runs."""

    def never(*args):
        raise AssertionError(f"built a graph for {args}")

    expected = {  # the library's messages for a built graph of that size
        "--exact": "exact likelihood supported for n <= 7",
        "--bounds": "automorphism counting supported for n <= 12",
    }
    for mode, n in (("--exact", 8), ("--bounds", 13)):
        with pytest.raises(ValueError, match=f"^{expected[mode]}$"):
            (likelihood_exact if mode == "--exact" else likelihood_bounds)(path_graph(n))
    with pytest.raises(ValueError, match="^need at least one sample$"):
        likelihood_mc(path_graph(13), 0, 1)
    for name in ("complete_graph", "complete_bipartite", "path_graph", "cycle_graph"):
        monkeypatch.setattr(cli, name, never)
    mc = "Monte-Carlo likelihood supported for 1 <= n <= 12, got"
    for argv, err in (
        (["--graph", "K1000,1000", "--bounds"], expected["--bounds"]),
        (["--graph", "C13", "--bounds"], expected["--bounds"]),
        (["--graph", "P13", "--mc", "5", "--seed", "1"], f"{mc} 13"),
        (["--graph", "K6,7", "--mc", "5", "--seed", "1"], f"{mc} 13"),
        (["--graph", "K1000,1000", "--mc", "5"], "--mc requires --seed for reproducibility"),
        (["--graph", "K1000,1000", "--mc", "0", "--seed", "1"], "need at least one sample"),
        (["--graph", "K2000", "--exact"], expected["--exact"]),
    ):
        assert main(["likelihood", *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n", argv
    # up to exact_n, the bound every mode shares, the graph is built, and a
    # constructor's own refusal keeps its place before the mode's checks
    for argv in (["K7", "--exact"], ["K8", "--exact"], ["C12", "--bounds"]):
        with pytest.raises(AssertionError, match="built a graph"):
            main(["likelihood", "--graph", *argv])
    monkeypatch.undo()
    assert main(["likelihood", "--graph", "K8", "--exact"]) == 2
    assert capsys.readouterr().err == f"error: {expected['--exact']}\n"
    assert main(["likelihood", "--graph", "C2", "--mc", "0"]) == 2
    assert capsys.readouterr().err == "error: cycle needs at least 3 vertices, got 2\n"


def test_likelihood_hands_each_mode_the_graph_up_to_exact_n(capsys, monkeypatch) -> None:
    received = []
    monkeypatch.setattr(cli, "likelihood_exact", lambda g: received.append(g) or Fraction(1))
    assert main(["likelihood", "--graph", "P10", "--exact"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert received == [path_graph(10)]


def test_main_reuses_one_parser_per_limits_state(capsys, monkeypatch) -> None:
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["cost", "dyads", "--n", "5"]) == 0
    assert len(built) == 1
    monkeypatch.setitem(graphs.LIMITS, "class_law_n", 6)
    assert main(["cost", "dyads", "--n", "5"]) == 0
    assert main(["cost", "dyads", "--n", "6"]) == 0
    assert len(built) == 2
    assert capsys.readouterr().out == "10\n" * 4 + "15\n"
    # build_parser still hands each caller a parser of its own
    assert build_parser() is not build_parser()


def test_main_repeats_byte_for_byte_after_usage_errors_and_help(capsys) -> None:
    """One process, one parser: every argv answers the same the second time
    round, also right after argparse exited for a usage error or --help."""
    script = (
        ["cost", "a", "--n", "5"],
        ["cost", "b", "--n", "5"],
        ["cost", "a", "--n", "5"],
        ["likelihood", "--help"],
        ["tree", "sample", "--n", "4", "--seed", "2"],
        ["--help"],
        ["random", "gnp", "--n", "4", "--seed", "1"],
        ["cost", "a", "--n", "-1"],
        ["verify", "P2", "--max-n", "3"],
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    first = [run(argv) for argv in script]
    assert [r[0] for r in first] == [0, ("exit", 2), 0, ("exit", 0), 0, ("exit", 0), ("exit", 2), 2, 0]
    assert first[0] == first[2]
    assert [run(argv) for argv in script] == first


def test_importing_the_cli_builds_no_parser() -> None:
    """A process that imports the CLI builds no parser until main runs."""
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import graphforge.cli\n"
        "print(len(built))\n"
        "graphforge.cli.main(['cost', 'dyads', '--n', '2'])\n"
        "print(len(built) > 0)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "0\n1\nTrue\n"), r.stderr


def test_build_examples_from_table() -> None:
    r = run_cli("build", "--rule", "0>1,1>-", "--model", "full", "--x", "10010", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["n"] == 5
    assert len(obj["edges"]) == 4

    r = run_cli("build", "--rule", "0>E,1>E", "--model", "none", "--x", "11")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"edges": [[1, 2]], "n": 2}


def test_build_label_rule_without_memory_exits_2() -> None:
    r = run_cli("build", "--rule", "0>0,1>-", "--model", "none", "--x", "0")
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


def test_build_modifiable_choices() -> None:
    r = run_cli(
        "build", "--rule", "0>1,1>-", "--model", "modifiable",
        "--x", "00010", "--choices", "ssssm", "--format", "json",
    )
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert len(obj["edges"]) == 4

    r = run_cli("build", "--rule", "0>1,1>-", "--model", "full", "--x", "00010", "--choices", "ssssm")
    assert r.returncode == 2
    assert r.stderr == "error: choices apply only to the modifiable model, not full\n"


def test_build_trace_output() -> None:
    r = run_cli("build", "--rule", "0>E,1>-", "--model", "none", "--x", "0011", "--trace")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["rule"] == "0>E,1>-"
    assert len(obj["steps"]) == 4
    assert obj["cost"]["instruction_bits"] == 4


def test_verify_exit_codes() -> None:
    assert run_cli("verify", "P2", "--max-n", "5").returncode == 0
    assert run_cli("verify", "C_pnfree", "--max-n", "5").returncode == 0
    # the fading model escapes the full-memory class set, so this fails
    assert run_cli("verify", "hierarchy", "--max-n", "5").returncode == 1


def test_verify_json_report() -> None:
    r = run_cli("verify", "P2", "--max-n", "4", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["proposition"] == "P2"
    assert obj["passed"] is True


def test_likelihood_exact_and_bounds() -> None:
    r = run_cli("likelihood", "--graph", "K4", "--exact")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/24"
    r = run_cli("likelihood", "--graph", "P3", "--exact")
    assert r.stdout.strip() == "1/3"
    r = run_cli("likelihood", "--graph", "C6", "--bounds")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "lower 1/4320"
    assert lines[1] == "upper 1/12"


def test_likelihood_extremes_csv() -> None:
    r = run_cli("likelihood", "--extremes", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("certificate,")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 12
    assert any("argmin certificates" in ln for ln in lines)
    assert lines[-1].endswith("true")


def test_likelihood_sizes_at_the_exact_bounds(capsys) -> None:
    assert main(["likelihood", "--extremes", "7"]) == 0
    assert capsys.readouterr().out.count("\n7:") == 1044
    assert main(["likelihood", "--extremes", "8"]) == 2
    assert capsys.readouterr().err == "error: extremes computed for 1 <= n <= 7\n"
    assert main(["likelihood", "--bounds", "--graph", "K12"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "upper 1/479001600"


def test_likelihood_mc_requires_seed() -> None:
    r = run_cli("likelihood", "--graph", "K3", "--mc", "1000")
    assert r.returncode == 2
    r = run_cli("likelihood", "--graph", "K3", "--mc", "1000", "--seed", "3")
    assert r.returncode == 0


def test_likelihood_mc_prints_one_sided_bound_only_when_draws_agree() -> None:
    def mc_lines(graph: str, samples: int) -> list[str]:
        r = run_cli("likelihood", "--graph", graph, "--mc", str(samples), "--seed", "0")
        return r.stdout.splitlines()

    upper = 1 - 0.05 ** (1 / 200)
    assert mc_lines("K3,3", 200)[2:] == ["hits 0", "samples 200", "seed 0", f"upper95 {upper!r}"]
    lower = 0.05 ** (1 / 50)
    assert mc_lines("K1", 50)[2:] == ["hits 50", "samples 50", "seed 0", f"lower95 {lower!r}"]
    mixed = mc_lines("K3", 1000)
    assert len(mixed) == 5 and mixed[-1] == "seed 0"


def test_likelihood_mode_flags_are_exclusive() -> None:
    assert run_cli("likelihood", "--graph", "K3").returncode == 2
    assert run_cli("likelihood", "--graph", "K3", "--exact", "--bounds").returncode == 2


def test_likelihood_format_applies_only_to_extremes(capsys) -> None:
    for mode in (["--exact"], ["--bounds"], ["--mc", "10", "--seed", "1"]):
        for fmt in ("csv", "json"):
            assert main(["likelihood", "--graph", "K3", *mode, "--format", fmt]) == 2
            assert capsys.readouterr() == ("", "error: --format applies only to --extremes\n")
    assert main(["likelihood", "--extremes", "3"]) == 0
    default = capsys.readouterr().out
    assert main(["likelihood", "--extremes", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == default


def test_likelihood_graph_does_not_apply_to_extremes(capsys) -> None:
    for fmt in ([], ["--format", "json"]):
        assert main(["likelihood", "--extremes", "2", "--graph", "K3", *fmt]) == 2
        assert capsys.readouterr() == (
            "", "error: --graph applies only to --exact, --mc, and --bounds\n"
        )


def test_likelihood_seed_applies_only_to_mc(capsys) -> None:
    for mode in (["--graph", "K3", "--exact"], ["--graph", "K3", "--bounds"], ["--extremes", "2"]):
        assert main(["likelihood", *mode, "--seed", "5"]) == 2
        assert capsys.readouterr() == ("", "error: --seed applies only to --mc\n")
    assert main(["likelihood", "--graph", "K3", "--mc", "10", "--seed", "5"]) == 0
    assert capsys.readouterr().out.endswith("seed 5\n")


def test_random_subcommands_require_seed() -> None:
    r = run_cli("random", "gnp", "--n", "6", "--p", "1/2")
    assert r.returncode == 2
    r = run_cli("random", "gnp", "--n", "6", "--p", "1/2", "--seed", "1", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["seed"] == 1
    assert obj["sampler"] == "gnp"
    assert obj["graph"]["n"] == 6


def test_random_va_records_distribution() -> None:
    r = run_cli("random", "va", "--n", "5", "--dist", "uniform", "--seed", "9", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["seed"] == 9


def test_random_va_refuses_a_p_its_distribution_does_not_read(capsys, monkeypatch) -> None:
    def never(*args):
        raise AssertionError(f"drew a sample for {args}")

    monkeypatch.setattr(cli, "sample_vertex_addition", never)
    for p in ("abc", "1/2"):
        for dist in ([], ["--dist", "uniform"]):
            assert main(["random", "va", "--n", "3", "--p", p, "--seed", "1", *dist]) == 2
            assert capsys.readouterr() == ("", "error: --p applies only to --dist binomial\n")
    monkeypatch.undo()
    assert main(["random", "va", "--n", "3", "--p", "1/2", "--dist", "binomial", "--seed", "1"]) == 0
    assert main(["random", "va", "--n", "3", "--seed", "1"]) == 0


def test_random_probability_errors_quote_the_parsed_text(capsys) -> None:
    """The CLI checks --p as text before the library's own check on the
    value, so "1.50" is quoted as typed, not as the library's 3/2."""
    for sampler in (["gnp"], ["va", "--dist", "binomial"]):
        for p in ("3/2", "1.50", "-1"):
            assert main(["random", *sampler, "--n", "3", "--p", p, "--seed", "1"]) == 2
            assert capsys.readouterr() == ("", f"error: probability must lie in [0, 1], got {p}\n")


def test_tree_sample_output() -> None:
    r = run_cli("tree", "sample", "--n", "10", "--seed", "1", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["n"] == 10
    assert obj["recursive"] is True
    assert len(obj["parents"]) == 11  # 1-indexed with padding entry


def test_cost_subcommands() -> None:
    assert run_cli("cost", "a", "--n", "5").stdout.strip() == "14"
    assert run_cli("cost", "dyads", "--n", "4").stdout.strip() == "6"
    r = run_cli("cost", "tree", "--n", "5")
    assert r.stdout.strip() == "8"


def test_byte_determinism_across_runs() -> None:
    invocations = [
        ("build", "--rule", "0>E,1>-", "--model", "none", "--x", "0011", "--format", "dot"),
        ("random", "gnp", "--n", "8", "--p", "1/3", "--seed", "5", "--format", "json"),
        ("random", "va", "--n", "6", "--dist", "uniform", "--seed", "42", "--format", "matrix"),
        ("tree", "sample", "--n", "9", "--seed", "7", "--format", "json"),
        ("likelihood", "--graph", "K3", "--mc", "5000", "--seed", "13"),
        ("likelihood", "--extremes", "4", "--format", "json"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, args
        assert first.stdout == second.stdout, args


def test_output_file_and_env_dir(tmp_path: Path) -> None:
    out = tmp_path / "graph.json"
    r = run_cli("build", "--rule", "0>E,1>E", "--model", "none", "--x", "111", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["n"] == 3

    import os

    env = dict(os.environ, GRAPHFORGE_OUT_DIR=str(tmp_path))
    r = run_cli("cost", "a", "--n", "4", "--out", "a4.txt", env=env)
    assert r.returncode == 0
    assert (tmp_path / "a4.txt").read_text().strip() == "8"


def test_unwritable_out_path_exits_2_with_a_message(tmp_path: Path, capsys) -> None:
    """A missing directory and a directory itself, as --out, are refused
    with one error line and exit 2, not a traceback."""
    missing = tmp_path / "nonexistent" / "f"
    for out, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        assert main(["tree", "sample", "--n", "5", "--seed", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {21 if out == tmp_path else 2}] {reason}: {str(out)!r}\n"
    assert not missing.parent.exists()


def test_main_callable_directly(capsys) -> None:
    code = main(["cost", "dyads", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "10"


def test_package_runs_as_the_cli() -> None:
    for module in ("graphforge", "graphforge.cli"):
        r = subprocess.run(
            [sys.executable, "-m", module, "cost", "dyads", "--n", "5"], capture_output=True, text=True
        )
        assert (r.returncode, r.stdout) == (0, "10\n"), module


def test_matrix_format_is_pure_bits() -> None:
    # one bit per vertex pair in row order, nothing else
    r = run_cli("build", "--rule", "0>E,1>E", "--model", "none", "--x", "101", "--format", "matrix")
    assert r.stdout == "111\n"
    r = run_cli("build", "--rule", "0>-,1>-", "--model", "none", "--x", "101", "--format", "matrix")
    assert r.stdout == "000\n"


# Byte-exact `build --trace` output for a rewrite run and a fading-memory run.
GOLDEN_TRACES = {
    ("0>1,1>-", "modifiable", "00010", "ssssm"): (
        '{"choices":"ssssm","cost":{"instruction_bits":5,"memory_bits":5,"random_bits":0},'
        '"graph":{"edges":[[1,4],[2,4],[3,4],[4,5]],"n":5},"labels":[0,0,0,1,0],'
        '"model":"modifiable","rule":"0>1,1>-","steps":['
        '{"action":"1","added":[],"bit":0,"modified":false,"step":1},'
        '{"action":"1","added":[],"bit":0,"modified":false,"step":2},'
        '{"action":"1","added":[],"bit":0,"modified":false,"step":3},'
        '{"action":"-","added":[],"bit":1,"modified":false,"step":4},'
        '{"action":"1","added":[[1,4],[2,4],[3,4],[4,5]],"bit":0,"modified":true,"step":5}],'
        '"x":"00010"}'
    ),
    ("0>E,1>1", "fading(2)", "10110", None): (
        '{"choices":null,"cost":{"instruction_bits":5,"memory_bits":5,"random_bits":0},'
        '"graph":{"edges":[[1,2],[1,5],[2,5],[3,4],[3,5],[4,5]],"n":5},"labels":[1,0,1,1,0],'
        '"model":"fading(2)","rule":"0>E,1>1","steps":['
        '{"action":"1","added":[],"bit":1,"modified":false,"step":1},'
        '{"action":"E","added":[[1,2]],"bit":0,"modified":false,"step":2},'
        '{"action":"1","added":[],"bit":1,"modified":false,"step":3},'
        '{"action":"1","added":[[3,4]],"bit":1,"modified":false,"step":4},'
        '{"action":"E","added":[[1,5],[2,5],[3,5],[4,5]],"bit":0,"modified":false,"step":5}],'
        '"x":"10110"}'
    ),
}


def test_build_trace_matches_golden_json(capsys) -> None:
    for (rule, model, x, choices), want in GOLDEN_TRACES.items():
        argv = ["build", "--rule", rule, "--model", model, "--x", x, "--trace"]
        if choices is not None:
            argv += ["--choices", choices]
        assert main(argv) == 0
        assert capsys.readouterr().out == want + "\n"


def test_bounds_rejected_before_any_work(capsys) -> None:
    assert main(["verify", "hierarchy", "--max-n", "-1"]) == 2
    assert "hierarchy supports 0 <= max_n <= 12, got -1" in capsys.readouterr().err
    assert main(["likelihood", "--graph", "E0", "--mc", "10", "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err
    for argv in (["random", "gnp", "--n", "1449", "--p", "0"], ["random", "va", "--n", "1449"]):
        assert main([*argv, "--seed", "1"]) == 2
        assert "may build 1049076 edges" in capsys.readouterr().err
    # a tree has n - 1 edges: 1,048,577 vertices is the largest tree sample
    assert main(["tree", "sample", "--n", "1048578", "--seed", "1"]) == 2
    assert "a 1048578-vertex tree may build 1048577 edges" in capsys.readouterr().err


def test_matrix_format_exits_2_above_cap(capsys, monkeypatch) -> None:
    # n = 5794 is the first size whose C(n, 2) bits exceed LIMITS["matrix_bits"]
    assert main(["tree", "sample", "--n", "5794", "--seed", "1", "--format", "matrix"]) == 2
    assert "matrix output supports" in capsys.readouterr().err
    x = "01" * 2897  # a fading(2) label join: 5793 edges, under the build cap
    assert main(["build", "--rule", "0>1,1>0", "--model", "fading(2)", "--x", x, "--format", "matrix"]) == 2
    assert "matrix output supports" in capsys.readouterr().err
    # every sampler reaches the same check; a lowered cap keeps this fast
    monkeypatch.setitem(graphs.LIMITS, "matrix_bits", comb(50, 2) - 1)
    for argv in (
        ["random", "gnp", "--n", "50", "--p", "1/2"],
        ["random", "va", "--n", "50"],
        ["tree", "sample", "--n", "50"],
    ):
        assert main([*argv, "--seed", "1", "--format", "matrix"]) == 2
        assert main([*argv, "--seed", "1", "--format", "json"]) == 0
    assert main(["random", "va", "--n", "49", "--seed", "1", "--format", "matrix"]) == 0
