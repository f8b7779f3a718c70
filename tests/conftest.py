"""Shared pytest plumbing: puts `src` on the path of the child interpreters
that the CLI tests spawn, collects acceptance-criterion outcomes and prints
one PASS/FAIL line per criterion in the terminal summary."""

from __future__ import annotations

import os
from pathlib import Path

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(number: int, name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (name, passed, detail)


def pytest_configure(config) -> None:
    # The test process finds graphforge through the `pythonpath` ini setting;
    # `python -m graphforge.cli` children inherit this environment instead.
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        name, passed, detail = ACCEPTANCE_RESULTS[number]
        line = f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}"
        if detail and not passed:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
