"""Command-line interface.

Every subcommand is deterministic: runs with identical arguments (seed
included) produce byte-identical output.  Sampling subcommands therefore
refuse to run without an explicit --seed.  Output goes to stdout, or to
--out PATH; a relative --out is resolved against $GRAPHFORGE_OUT_DIR when
that variable is set.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache, partial

from .graphs import (
    LIMITS,
    Graph,
    _json_text,
    _json_value,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_json,
    path_graph,
    to_bitstring,
    to_dot,
    to_json,
)
from .machines import interpret, parse_model, parse_rule
from .randomness import (
    Binomial,
    Uniform,
    dyad_bits,
    likelihood_bounds,
    likelihood_exact,
    likelihood_extremes,
    likelihood_mc,
    randomness_cost_a,
    sample_gnp,
    sample_vertex_addition,
)
from .trees import sample_ua_parents, build_tree_from_instructions, is_recursive_tree, tree_cost
from .verify import CHECK_IDS, verify_proposition

GRAPH_SPEC_HELP = (
    "graph spec: a named family (K4 complete, K2,3 complete bipartite, P5 path, "
    "C6 cycle, E3 empty) or a JSON object {\"n\": int, \"edges\": [[i,j], ...]}"
)


def _graph_spec(text: str) -> tuple[int, Callable[[], Graph]]:
    """The vertex count of a spec in the CLI graph grammar, and a builder of
    its graph. A JSON object is parsed here; a named family is only sized."""
    t = text.strip()
    if t.startswith("{"):
        g = from_json(t)
        return g.n, lambda: g
    m = re.fullmatch(r"([KPCEkpce])\s*(\d+)\s*(?:,\s*(\d+))?", t)
    if not m:
        raise ValueError(f"cannot parse graph spec {text!r}; {GRAPH_SPEC_HELP}")
    kind, a, b = m.group(1).upper(), int(m.group(2)), m.group(3)
    if b is not None and kind != "K":
        raise ValueError(f"two-part sizes are only valid for K, got {text!r}")
    if b is not None:
        return a + int(b), partial(complete_bipartite, a, int(b))
    return a, partial({"K": complete_graph, "P": path_graph, "C": cycle_graph, "E": empty_graph}[kind], a)


def parse_graph_spec(text: str) -> Graph:
    """Parse the CLI graph grammar documented in GRAPH_SPEC_HELP. A named
    family over the edge cap is refused by its constructor before it is
    built."""
    return _graph_spec(text)[1]()


def _parse_probability(text: str) -> Fraction:
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse probability {text!r}") from exc
    if not (0 <= p <= 1):
        raise ValueError(f"probability must lie in [0, 1], got {text}")
    return p


def _graph_text(g: Graph, fmt: str) -> str:
    if fmt == "json":
        return to_json(g) + "\n"
    if fmt == "dot":
        return to_dot(g)
    if fmt == "matrix":
        return to_bitstring(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _sample_text(g: Graph, fmt: str, seed: int, meta: dict) -> str:
    """Serialize a sampled graph; json and dot record the seed, the matrix
    format stays pure bits."""
    if fmt == "json":
        return _json_text({"graph": _json_value(g), "seed": seed, **meta}) + "\n"
    if fmt == "dot":
        return f"// seed {seed}\n" + to_dot(g)
    return _graph_text(g, fmt)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = out
    base = os.environ.get("GRAPHFORGE_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_build(args: argparse.Namespace) -> int:
    trace = interpret(parse_rule(args.rule), parse_model(args.model), args.x, args.choices)
    if args.trace:
        _emit(trace.to_json() + "\n", args.out)
    else:
        _emit(_graph_text(trace.final.graph, args.format), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_proposition(args.proposition, args.max_n)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_likelihood(args: argparse.Namespace) -> int:
    modes = [args.exact, args.mc is not None, args.bounds, args.extremes is not None]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --exact, --mc, --bounds, --extremes")
    if args.extremes is None and args.format is not None:
        raise ValueError("--format applies only to --extremes")
    if args.extremes is not None and args.graph is not None:
        raise ValueError("--graph applies only to --exact, --mc, and --bounds")
    if args.mc is None and args.seed is not None:
        raise ValueError("--seed applies only to --mc")
    if args.extremes is not None:
        table = likelihood_extremes(args.extremes)
        if args.format == "json":
            _emit(table.to_json() + "\n", args.out)
        else:
            balanced = table.argmin_is_balanced_bipartite()
            certs = " ".join(row.certificate for row in table.argmin_classes)
            text = (
                table.to_csv()
                + f"# argmin certificates {certs}\n"
                + f"# minimum attained by the balanced complete bipartite graph: {str(balanced).lower()}\n"
            )
            _emit(text, args.out)
        return 0
    if args.graph is None:
        raise ValueError("--graph is required with --exact, --mc, and --bounds")
    n, build = _graph_spec(args.graph)
    # Every mode refuses n above exact_n, or above a lower bound of its own,
    # on the vertex count alone: up to exact_n the graph is built and the
    # mode decides; above it an edgeless stand-in draws the mode's own
    # refusal, in its own order, without building the graph.
    g = build() if n <= LIMITS["exact_n"] else empty_graph(n)
    if args.exact:
        _emit(f"{likelihood_exact(g)}\n", args.out)
        return 0
    if args.bounds:
        lo, up = likelihood_bounds(g)
        _emit(f"lower {lo}\nupper {up}\n", args.out)
        return 0
    if args.seed is None:
        raise ValueError("--mc requires --seed for reproducibility")
    est = likelihood_mc(g, args.mc, args.seed)
    text = (
        f"estimate {est.estimate!r}\nstderr {est.stderr!r}\n"
        f"hits {est.hits}\nsamples {est.samples}\nseed {est.seed}\n"
    )
    bound = est.one_sided_bound
    if bound is not None:
        text += f"{'upper95' if est.hits == 0 else 'lower95'} {bound!r}\n"
    _emit(text, args.out)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    if args.sampler == "gnp":
        p = _parse_probability(args.p)
        g = sample_gnp(args.n, p, args.seed)
        meta = {"sampler": "gnp", "p": str(p)}
    else:
        if args.dist == "binomial":
            if args.p is None:
                raise ValueError("--dist binomial requires --p")
            p = _parse_probability(args.p)
            dist = Binomial(p)
            meta = {"sampler": "vertex-addition", "dist": "binomial", "p": str(p)}
        else:
            if args.p is not None:
                raise ValueError("--p applies only to --dist binomial")
            dist = Uniform()
            meta = {"sampler": "vertex-addition", "dist": "uniform"}
        g = sample_vertex_addition(args.n, dist, args.seed)
    _emit(_sample_text(g, args.format, args.seed, meta), args.out)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    pv = sample_ua_parents(args.n, args.seed)
    g = build_tree_from_instructions(pv)
    if args.format == "json":
        obj = {
            "n": pv.n,
            "parents": pv.to_json_array(),
            "recursive": is_recursive_tree(g),
            "seed": args.seed,
        }
        _emit(_json_text(obj) + "\n", args.out)
    else:
        _emit(_sample_text(g, args.format, args.seed, {}), args.out)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    if args.kind == "a":
        value = randomness_cost_a(args.n)
    elif args.kind == "dyads":
        value = dyad_bits(args.n)
    else:
        value = tree_cost(args.n).instruction_bits
    _emit(f"{value}\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        help="write output to this file instead of stdout "
        "(relative paths resolve against $GRAPHFORGE_OUT_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphforge",
        description="Sequential graph construction under bounded instructions, memory, and randomness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build",
        help="run a construction machine on an instruction string",
        description="Interpret an instruction bit string under a rule table and memory model. "
        "Exercises the claim that each rule/model pair realizes a specific graph family.",
    )
    p_build.add_argument("--rule", required=True, help='rule mnemonic, e.g. "0>1,1>-" or "0>E,1>E"')
    p_build.add_argument("--model", required=True, help="none | full | fading(2) | modifiable")
    p_build.add_argument("--x", required=True, help="instruction bit string")
    p_build.add_argument("--choices", help="per-step s/m string (modifiable model only)")
    p_build.add_argument("--format", default="json", choices=("json", "dot", "matrix"))
    p_build.add_argument("--trace", action="store_true", help="emit the full step trace as JSON")
    _add_out(p_build)
    p_build.set_defaults(fn=_cmd_build)

    p_verify = sub.add_parser(
        "verify",
        help="re-check a construction claim by exhaustive enumeration",
        description="Enumerate every instruction string (and choice sequence) up to a length "
        "bound and compare machine outputs with independent closed forms. "
        "Checks: P2 no-memory tables; P3 full-memory tables; P5 fading-memory tables; "
        "C_modifiable rewrite-step families; C_pnfree forbidden induced paths/cycles; "
        "hierarchy compares the reachable-class sets of the three memory models.",
    )
    p_verify.add_argument("proposition", choices=CHECK_IDS)
    p_verify.add_argument(
        "--max-n", type=int, default=None, dest="max_n",
        help=f"longest instruction string, by default the check's own "
        f"(n <= {LIMITS['enumeration_n']}; C_modifiable n <= {LIMITS['modifiable_n']})",
    )
    p_verify.add_argument("--format", default="text", choices=("text", "json"))
    _add_out(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    law_n = LIMITS["class_law_n"]
    p_like = sub.add_parser(
        "likelihood",
        help="exact, Monte-Carlo, or extremal likelihood under the uniform vertex-addition process",
        description="The likelihood of a graph is the probability that the uniform "
        "vertex-addition process produces something isomorphic to it. "
        f"--exact reads the exact rational law of the process on isomorphism classes (n <= {law_n}); "
        "--bounds derives two-sided automorphism bounds; --extremes tabulates every "
        "isomorphism class at size n. " + GRAPH_SPEC_HELP,
    )
    p_like.add_argument("--graph", help=GRAPH_SPEC_HELP)
    p_like.add_argument("--exact", action="store_true", help=f"exact rational likelihood (n <= {law_n})")
    p_like.add_argument("--mc", type=int, metavar="SAMPLES", help="Monte-Carlo estimate")
    p_like.add_argument("--bounds", action="store_true", help="automorphism-count bounds")
    p_like.add_argument("--extremes", type=int, metavar="N", help=f"full class table at size N (N <= {law_n})")
    p_like.add_argument("--seed", type=int, help="RNG seed (required with --mc)")
    p_like.add_argument("--format", choices=("csv", "json"))
    _add_out(p_like)
    p_like.set_defaults(fn=_cmd_likelihood)

    p_random = sub.add_parser(
        "random",
        help="sample a random graph (seed required)",
        description="gnp flips one biased coin per vertex pair; va grows the graph by the "
        "vertex-addition process (uniform or binomial in-degree). With the binomial "
        "in-degree the process reproduces gnp exactly.",
    )
    rsub = p_random.add_subparsers(dest="sampler", required=True)
    p_gnp = rsub.add_parser("gnp", help="independent-edge random graph")
    p_gnp.add_argument("--n", type=int, required=True)
    p_gnp.add_argument("--p", required=True, help='edge probability, e.g. "1/2" or "0.5"')
    p_gnp.add_argument("--seed", type=int, required=True)
    p_gnp.add_argument("--format", default="json", choices=("json", "dot", "matrix"))
    _add_out(p_gnp)
    p_va = rsub.add_parser("va", help="vertex-addition process")
    p_va.add_argument("--n", type=int, required=True)
    p_va.add_argument("--dist", default="uniform", choices=("uniform", "binomial"))
    p_va.add_argument("--p", help="in-degree success probability (binomial only)")
    p_va.add_argument("--seed", type=int, required=True)
    p_va.add_argument("--format", default="json", choices=("json", "dot", "matrix"))
    _add_out(p_va)
    p_random.set_defaults(fn=_cmd_random)

    p_tree = sub.add_parser(
        "tree",
        help="sample a uniform-attachment tree (seed required)",
        description="Vertex t attaches to a uniformly random earlier vertex; every sample "
        "is a recursive tree (labels increase along every root path).",
    )
    tsub = p_tree.add_subparsers(dest="action", required=True)
    p_tsample = tsub.add_parser("sample", help="draw one tree")
    p_tsample.add_argument("--n", type=int, required=True)
    p_tsample.add_argument("--seed", type=int, required=True)
    p_tsample.add_argument("--format", default="json", choices=("json", "dot", "matrix"))
    _add_out(p_tsample)
    p_tree.set_defaults(fn=_cmd_tree)

    p_cost = sub.add_parser(
        "cost",
        help="resource bit costs",
        description="a: random bits spent by the uniform vertex-addition process on n "
        "vertices; dyads: coin flips of the one-coin-per-pair process, C(n,2); "
        "tree: instruction bits to ship an n-vertex tree parent by parent.",
    )
    p_cost.add_argument("kind", choices=("a", "dyads", "tree"))
    p_cost.add_argument("--n", type=int, required=True)
    _add_out(p_cost)
    p_cost.set_defaults(fn=_cmd_cost)

    return parser


@lru_cache(maxsize=1)
def _parser(limits: tuple[tuple[str, int], ...]) -> argparse.ArgumentParser:
    """The parser for one state of LIMITS, the only mutable input of its help
    texts. Reuse is safe: parse_args writes only to a fresh Namespace, and
    help is formatted, at the terminal's width, when it is printed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser(tuple(LIMITS.items())).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # InvalidActionForModel and ModifyUnsupported subclass ValueError, so
        # every precondition violation lands here; an OSError is output
        # that cannot be written (an --out path, or a full stdout).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
