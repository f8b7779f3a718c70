"""Byte-identity pins: the SHA-256 of the stdout of one CLI run per case.

Output for fixed arguments and seeds is part of the contract, so internal
changes must leave every byte unchanged.  A mismatch means a change altered
user-visible output; update a digest only when that change is deliberate.

To print the digests of the current code (for example after a deliberate
output change), run `PYTHONPATH=src python tests/test_golden_outputs.py`.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from graphforge.cli import main
from graphforge.graphs import canonical_form, enumerate_graph_classes, to_json
from graphforge.machines import FULL_RULES, NO_MEMORY_RULES


def _bits(seed: int, length: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("01") for _ in range(length))


# Long instruction strings for the edge-order pins: large enough outputs
# that the printed edge order, not just the edge set, is exercised.
DENSE_X = _bits(1, 300)
FADING_X = _bits(2, 2000)

CASES: dict[str, tuple[str, ...]] = {
    **{
        f"verify-{prop}": ("verify", prop, "--format", "json")
        for prop in ("P2", "P3", "P5", "C_modifiable", "C_pnfree", "hierarchy")
    },
    **{
        f"verify-{prop}-text": ("verify", prop, "--format", "text")
        for prop in ("P2", "P3", "P5", "C_modifiable", "C_pnfree", "hierarchy")
    },
    **{
        f"extremes-{n}": ("likelihood", "--extremes", str(n), "--format", "json")
        for n in range(1, 7)
    },
    **{
        f"tree-{n}-{fmt}": ("tree", "sample", "--n", str(n), "--seed", "7", "--format", fmt)
        for n in (12, 200, 1000)
        for fmt in ("json", "matrix")
    },
    **{
        f"random-va-{fmt}": ("random", "va", "--n", "50", "--seed", "11", "--format", fmt)
        for fmt in ("json", "matrix")
    },
    **{
        f"random-gnp-{fmt}": ("random", "gnp", "--n", "50", "--p", "1/3", "--seed", "11", "--format", fmt)
        for fmt in ("json", "matrix")
    },
    "build-full-trace": ("build", "--rule", "0>1,1>-", "--model", "full", "--x", "0110100101", "--trace"),
    "build-fading-trace": ("build", "--rule", "0>E,1>E", "--model", "fading(2)", "--x", "1101001", "--trace"),
    "build-modifiable-trace": (
        "build", "--rule", "0>1,1>-", "--model", "modifiable",
        "--x", "00010", "--choices", "ssssm", "--trace",
    ),
    **{
        f"build-full-{fmt}": ("build", "--rule", "0>1,1>0", "--model", "full", "--x", DENSE_X, "--format", fmt)
        for fmt in ("json", "dot")
    },
    "build-fading-json": ("build", "--rule", "0>1,1>0", "--model", "fading(2)", "--x", FADING_X),
    "random-va-200-dot": ("random", "va", "--n", "200", "--seed", "11", "--format", "dot"),
    "likelihood-mc-C5": ("likelihood", "--graph", "C5", "--mc", "20000", "--seed", "3"),
    "cost-a-400": ("cost", "a", "--n", "400"),
}

GOLDEN: dict[str, str] = {
    "build-fading-json": "18ab58dcb9be98a1a72813f7a4e3db3cbdc786a5eaf20e4ecc68970f49cec5bb",
    "build-fading-trace": "04d322d7296b534b11a32ecdf4d1c0204d61cc023f275516cf4031f365dd642e",
    "build-full-dot": "9778ef54267a310499fe6881f9dc9c9802030366b48acac822bf4dec03cbeef9",
    "build-full-json": "49bd3b4aa028768e5621519062839a42b37b917cf60c680003b60b0d8b2c26a6",
    "build-full-trace": "9963e999bfdff5060e57914592c8af8790a101100e97e99f026c6c2cd57904ce",
    "build-modifiable-trace": "1e284feca04e0f566ab4bf046c66731e8754130da77856b9dce649c150ddc5e3",
    "cost-a-400": "834d402351421e418fe16929ebe70ec4291dc125bbeba5a6e8b431fd0c41c159",
    "extremes-1": "a334ec4cdd581cce04bce5aa23ad3121f0f0a1e7ac761e65c3cb5e16ca5ed069",
    "extremes-2": "d4de3942dd909e28e027cce5eb279169cdc5fdc0bb5c925c2e1221b65ef8c202",
    "extremes-3": "0212b707fc19b0019c54b677b05832a1a150a02fbb002274b27debce735b9407",
    "extremes-4": "5f08e08ceaedb41a3905c855759af7853f93575808f1fe08667be5fbf8b55124",
    "extremes-5": "7e51db359ba98a096b6e02f94e8720c145671453a9d58ccf673a873bc2e510df",
    "extremes-6": "1a34d7e123af661a14be7ff43da0c04d0354423957ba7609d29e9e75815908bb",
    "likelihood-mc-C5": "37d6387c4b2ed6cd23f733abcc0e313505bf6a53b67c40d6292eb37af98704a7",
    "random-gnp-json": "54910a048186df235884b0274ead20416a0e7aec4c6befdb4413340cdf62f6bf",
    "random-gnp-matrix": "734fd4d1109887728a64952da5eaa220a62028e6af8125e8207708ab39b42366",
    "random-va-200-dot": "d9b514a4a65c88e86282a1ffbd29b3aacdda3b0050e4fe968eb0b74137e1dc9c",
    "random-va-json": "65bf8b0a491d091afc099ff8dc9286d5a09c5201a9893d3673875de2830433ce",
    "random-va-matrix": "f618ebb151205adac7ba9b7f941bc7c209a214ed5a276b1019167d6569cbcd09",
    "tree-1000-json": "3a06a31486eb0d11ffa808daa37fc3e2a96c382980ddd4b78ec1bcf6d58900c4",
    "tree-1000-matrix": "e63e3af9e828b1865354fc2eea22db0a0f17bd7e36fa5023356b4583b2229312",
    "tree-12-json": "928685401794d67bd85fec6c77b8dac0035c07d9cc04d2f8e9c9e75f2c2eeaba",
    "tree-12-matrix": "74fd125e230afd5a3290a6c68bb16bf06ee0ab40c261cfb829283670e407b6bb",
    "tree-200-json": "6b21703fd78e79615040424f6a0ea438c4aa241f6d4b008e670db897c805f82e",
    "tree-200-matrix": "a88f9423f829426e7d083f573b7a9e10e6f59cbded080caec40d4b31a963211e",
    "verify-C_modifiable": "a98afceb240587995c369ce7df8727d5101239a29789b5aa13a6545b1af7a064",
    "verify-C_modifiable-text": "f1af047eb313b8ab691cc5fc2d93432d4eb26a8296583377bbfe708e2485dd16",
    "verify-C_pnfree": "df12a8fc0034a0f93d7e81234cbf0f7b2d2a60ad44f2e02449c329dcbfef19d4",
    "verify-C_pnfree-text": "504dd42a49db50be377c6b51aa36286ca1af4e2137f499005a728cf093f4602c",
    "verify-P2": "b85c1a44aebb716118eba8c79bf00d8d9265c5d438312cdebf1ea949ad90a460",
    "verify-P2-text": "8fb5ab7d9af1b8b3d64c291bf6813af6aaf41aa1d2eb7a18bf3a06f5db2bec23",
    "verify-P3": "8d53575c68eb4289daba1359caf0880ee416579ab4c24fef4e3f6b562bee0f5b",
    "verify-P3-text": "d9169926903f47f18a6d8e9efa7701366354541431b0c41f2b0d06139a3a10a7",
    "verify-P5": "670fafa7f6e8c620a69e495bcdf1e5f33e061e7ef988388c8c683176dc8aaf05",
    "verify-P5-text": "450f2c3edb4a263397dd0816847f8d3b5c60ac55338ff3e631c99212d744742d",
    "verify-hierarchy": "64c21e293d048cb15cc28348f7f1eb8e90d09ab591af7492cfdc7215cb69d592",
    "verify-hierarchy-text": "8ed0076e1c80e0456466630c563e09c7e8ec43c681600d7719f61b1e4ba2b5a1",
}

CERTIFICATES_GOLDEN = "526bd0eeb4f4a12d599434ffa3ec4d5bcab82e49fade566971fc314c5d15e043"
# The labelled representatives themselves, which the certificates cannot see.
REPRESENTATIVES_GOLDEN = "3f730687ccc44a344862e1d47ec8895384eeb028a7f43d6129adfe54ed9f2adf"
TRACES_GOLDEN = "c818b80bec2a9eb57eca3ea4dc26ffe0963b104d7f81281e82ba700ff6243b5a"


def run_digest(argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def certificates_digest() -> str:
    h = hashlib.sha256()
    for n in range(8):
        for g in enumerate_graph_classes(n):
            h.update(canonical_form(g) + b"\n")
    return h.hexdigest()


def representatives_digest() -> str:
    h = hashlib.sha256()
    for n in range(8):
        for g in enumerate_graph_classes(n):
            h.update(to_json(g).encode() + b"\n")
    return h.hexdigest()


def traces_argv() -> list[tuple[str, ...]]:
    """200 seeded `build --trace` runs: every model, rules it accepts, strings
    of length 0..12, and choices for the modifiable model."""
    rng = random.Random(28)
    runs = []
    for _ in range(200):
        model = rng.choice(["none", "full", "fading(2)", "modifiable"])
        rule = rng.choice(NO_MEMORY_RULES if model == "none" else FULL_RULES).mnemonic
        x = _bits(rng.random(), rng.randint(0, 12))
        argv = ("build", "--rule", rule, "--model", model, "--x", x, "--trace")
        if model == "modifiable":
            argv += ("--choices", "".join(rng.choice("sm") for _ in x))
        runs.append(argv)
    return runs


def traces_digest() -> str:
    """Exit code and stdout digest of each run; a choice string may modify a
    step its rule cannot, and that run's refusal (exit 2) is pinned too."""
    h = hashlib.sha256()
    for argv in traces_argv():
        code, digest = run_digest(argv)
        h.update(f"{code} {digest}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name: str) -> None:
    code, digest = run_digest(CASES[name])
    assert code in (0, 1)
    assert digest == GOLDEN[name]


def test_class_certificates_match_golden_digest() -> None:
    assert certificates_digest() == CERTIFICATES_GOLDEN


def test_class_representatives_match_golden_digest() -> None:
    assert representatives_digest() == REPRESENTATIVES_GOLDEN


def test_seeded_build_traces_match_golden_digest() -> None:
    assert traces_digest() == TRACES_GOLDEN


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {run_digest(CASES[name])[1]!r},")
    print(f"CERTIFICATES_GOLDEN = {certificates_digest()!r}")
    print(f"REPRESENTATIVES_GOLDEN = {representatives_digest()!r}")
    print(f"TRACES_GOLDEN = {traces_digest()!r}")
