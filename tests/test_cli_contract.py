"""The CLI's error contract as a property: argv drawn from a seeded grammar
of every subcommand, flag and boundary value either answers (exit 0 or 1),
or exits 2 with a message, or exits 2 from argparse, and the same argv
answers byte for byte the same way twice in one process.

Sizes the program accepts are kept small, so the whole draw runs in a few
seconds; sizes above a bound are drawn freely, because they must be refused
before any work is done."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from graphforge import cli
from graphforge.graphs import LIMITS
from graphforge.machines import FULL_RULES
from graphforge.verify import CHECK_IDS

ARGV_PER_SEED = 500
LIMIT_VALUES = sorted({v for v in LIMITS.values()} | {v + 1 for v in LIMITS.values()})
ASCII_DIGITS = "0123456789"
FOREIGN_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")  # Arabic-Indic and fullwidth


def _number(rng: random.Random, value: int) -> str:
    """The decimal text of value, now and then in non-ASCII digits (which
    int() and the graph-spec pattern both accept)."""
    text = str(value)
    if rng.random() < 0.1:
        text = text.translate(str.maketrans(ASCII_DIGITS, rng.choice(FOREIGN_DIGITS)))
    return text


def _size(rng: random.Random, top: float, refused_above: float = math.inf) -> int:
    """A size argument: half the time any of 0..top, else -1, 0, 1, 2, top,
    the first size above refused_above, or a LIMITS value or one above it,
    drawn only when it is at most top or the program must refuse it (above
    refused_above)."""
    if top < math.inf and rng.random() < 0.5:
        return rng.randint(0, int(top))
    pool = [-1, 0, 1, 2] + [v for v in LIMIT_VALUES if v <= top or v > refused_above]
    if top < math.inf:
        pool.append(int(top))
    if refused_above < math.inf:
        pool.append(int(refused_above) + 1)
    return rng.choice(pool)


def _bits(rng: random.Random, alphabet: str, top: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, top)))


def _pick(rng: random.Random, valid, invalid, odds: float = 0.1) -> str:
    """A valid name, or with the given odds a malformed or unknown one."""
    return rng.choice(invalid if rng.random() < odds else valid)


def _rule(rng: random.Random) -> str:
    return _pick(
        rng,
        [r.mnemonic for r in FULL_RULES] + ["1>E,0>-", "0 > 1 , 1 > -"],
        ["", "0>1", "0>1,1>2", "0>1,0>1", "0>E,1>E,", "٠>E,1>E", "0>x,1>-"],
        0.2,
    )


def _model(rng: random.Random) -> str:
    return _pick(rng, ["none", "full", "fading", "fading(2)", "modifiable", " FULL "], ["fading(3)", "fading(٢)", "", "memory"])


def _graph_spec(rng: random.Random, top: int, refused_above: int) -> str:
    n = _size(rng, top, refused_above)
    kind = rng.choice("KPCEkKJ?")
    if kind == "J":
        if n < 0 or n > 8:
            return rng.choice(['{"n": 3, "edges": [[1, 1]]}', '{"n": -1, "edges": []}', "{", '{"n": 2}'])
        pairs = [[i, j] for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < 0.5]
        return json.dumps({"n": n, "edges": pairs})
    if kind == "?":
        return rng.choice(["Q4", "K", "P2,3", "K4,5,6", "", "K 2, 3", "k3 ", "K-1", "K1.5"])
    if kind == "K" and n >= 0 and rng.random() < 0.5:
        a = rng.randint(0, n) if n <= 64 else n // 2
        return f"K{_number(rng, a)},{_number(rng, n - a)}"
    return f"{kind}{_number(rng, n)}"


def _probability(rng: random.Random) -> str:
    return rng.choice(["0", "1", "1/2", "0.5", "1/3", "2", "-1/2", "1/0", "nan", "abc", "1e-3", "١/٢"])


def _seed(rng: random.Random) -> str:
    return _number(rng, _size(rng, math.inf))


def _draw(rng: random.Random, out_file: Path) -> list[str]:
    """One argv: a subcommand, then each flag of it with its own chance:
    what the subcommand needs almost always, what conflicts with the rest
    seldom. A name argparse does not know, an invalid choice or an unknown
    flag comes now and then."""
    command = rng.choice(["build", "verify", "likelihood", "random", "tree", "cost"])
    if command == "build":
        model = _model(rng)
        x = _pick(rng, [_bits(rng, "01", 64)], ["012", "01a", "١٠", " 01", "1" * 1449], 0.2)
        choices = rng.choice([_bits(rng, "sm", 8), "s" * len(x), "m" * len(x), "x", "ｍ"])
        head = ["build"]
        flags = [
            ("--rule", _rule(rng), 0.97),
            ("--model", model, 0.97),
            ("--x", x, 0.97),
            ("--choices", choices, 0.5 if model == "modifiable" else 0.05),
            ("--format", _pick(rng, ["json", "dot", "matrix"], ["xml"]), 0.5),
            ("--trace", None, 0.3),
        ]
    elif command == "verify":
        check = _pick(rng, CHECK_IDS, ["P4"])
        bound = LIMITS["modifiable_n" if check == "C_modifiable" else "enumeration_n"]
        head = ["verify", check]
        # always a --max-n: a check's default bound is too slow to draw often
        flags = [("--max-n", _number(rng, _size(rng, 5, bound)), 1), ("--format", _pick(rng, ["text", "json"], ["csv"]), 0.5)]
    elif command == "likelihood":
        mode = rng.choice(["--exact", "--bounds", "--mc", "--extremes"])
        top, bound = (6, LIMITS["class_law_n"]) if mode in ("--exact", "--extremes") else (12, LIMITS["exact_n"])
        chance = lambda flag, p: 0.97 if flag == mode else p  # noqa: E731
        head = ["likelihood"]
        flags = [
            ("--graph", _graph_spec(rng, top, bound), 0.05 if mode == "--extremes" else 0.97),
            ("--exact", None, chance("--exact", 0.05)),
            ("--bounds", None, chance("--bounds", 0.05)),
            ("--mc", _number(rng, _size(rng, 64)), chance("--mc", 0.05)),
            ("--extremes", _number(rng, _size(rng, top, bound)), chance("--extremes", 0.05)),
            ("--seed", _seed(rng), 0.9 if mode == "--mc" else 0.05),
            ("--format", _pick(rng, ["csv", "json"], ["xml"]), 0.5 if mode == "--extremes" else 0.05),
        ]
    elif command == "random":
        sampler = _pick(rng, ["gnp", "va"], ["ba"])
        head = ["random", sampler]
        flags = [
            # C(1449, 2) is the first vertex-pair count over the edge cap
            ("--n", _number(rng, _size(rng, 64, math.isqrt(2 * LIMITS["build_edges"]))), 0.97),
            ("--p", _probability(rng), 0.97 if sampler == "gnp" else 0.3),
            ("--seed", _seed(rng), 0.97),
            ("--format", _pick(rng, ["json", "dot", "matrix"], ["xml"]), 0.5),
        ]
        if sampler == "va":
            flags.append(("--dist", _pick(rng, ["uniform", "binomial"], ["poisson"]), 0.5))
    elif command == "tree":
        head = ["tree", _pick(rng, ["sample"], ["draw"])]
        flags = [
            ("--n", _number(rng, _size(rng, 64, LIMITS["build_edges"] + 1)), 0.97),
            ("--seed", _seed(rng), 0.97),
            ("--format", _pick(rng, ["json", "dot", "matrix"], ["xml"]), 0.5),
        ]
    else:
        kind = _pick(rng, ["a", "dyads", "tree"], ["b"])
        n = _size(rng, 64, LIMITS["cost_a_n"]) if kind == "a" else _size(rng, math.inf)
        head = ["cost", kind]
        flags = [("--n", _number(rng, n), 0.97)]
    # a directory cannot be written
    flags.append(("--out", str(rng.choice([out_file, out_file, out_file.parent])), 0.2))
    argv = list(head)
    for flag, value, chance in flags:
        if rng.random() < chance:
            argv += [flag] if value is None else [flag, value]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "-1", "--n"]))
    return argv


def _run(argv: list[str], out_file: Path) -> tuple[int, str, str, str | None]:
    """(exit code, stdout, stderr, --out file text) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)  # argparse's usage errors
            rc = -2
        else:
            assert rc in (0, 1, 2), (argv, rc)
    written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    out_file.unlink(missing_ok=True)
    return rc, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("seed", [1, 2])
def test_drawn_argv_keep_the_exit_contract_and_repeat_byte_for_byte(seed: int, tmp_path: Path) -> None:
    rng = random.Random(seed)
    out_file = tmp_path / "out.txt"
    outcomes = set()
    for _ in range(ARGV_PER_SEED):
        argv = _draw(rng, out_file)
        first = _run(argv, out_file)
        assert _run(argv, out_file) == first, argv
        if first[0] == 2:  # a refusal prints one error line and nothing else
            assert first[2].startswith("error: ") and first[2].count("\n") == 1, (argv, first[2])
        if first[0] in (2, -2):
            assert first[1] == "" and first[3] is None, argv
        outcomes.add(first[0])
    # the grammar reaches answers, argparse's refusals and the program's own
    assert {0, 2, -2} <= outcomes
