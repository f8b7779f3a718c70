"""graphforge benchmark: one workload, end-to-end or traced.

Usage, from the repository root:
    python3 perfbench/run.py --workload exhaustive|montecarlo|large \
        --seed N --seconds S --trace 0|1

Closed loop with one client: every batch runs in a fresh child interpreter
(child.py), one item after another, so graphforge's module caches start
empty each time.  With --trace 0 the parent spawns set-up probes and then
batches until S seconds have passed and at least three batches have run.
It reports the mean batch wall time, item percentiles over the items of all
batches together, and medians of the rest.  With --trace 1 it runs two
untraced and two traced batches, alternating, and reports per-layer span
metrics.  The last line of stdout is the JSON result; the lines before it
give every metric by name with its unit.  Exit status 1 means the benchmark
itself could not run (for instance, no src/ to import).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("exhaustive", "montecarlo", "large")
SETUP_PROBES = 6  # set-up-only spawns before each batch
# The host's speed drifts in spells of seconds to minutes; three batches or
# more put several of them in every run.
MIN_BATCHES = 3
MAX_RESIDUE_FRAC = 0.05  # traced wall time left outside every span
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run child.py; return (set-up seconds, everything after the ready line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Children load bytecode the first spawn wrote, as from an installed
    # package, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or rc != 0:
        raise ChildFailed(f"child {' '.join(args)} exited with status {rc}")
    return setup_s, rest


def run_batch(workload: str, seed: int, trace: bool, deadline: float) -> tuple[float, dict]:
    setup_s, rest = spawn([workload, str(seed), "1" if trace else "0"], deadline)
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    setups: list[float] = []
    batches: list[dict] = []
    longest = 0.0
    while not batches or (
        (len(batches) < MIN_BATCHES or time.perf_counter() - start < seconds)
        and time.perf_counter() + longest < deadline
    ):
        began = time.perf_counter()
        setups.extend(spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES))
        setup_s, batch = run_batch(workload, seed, False, deadline)
        longest = max(longest, time.perf_counter() - began)
        setups.append(setup_s)
        batches.append(batch)
    # Timings pool every batch: each batch samples the host's speed at
    # hundreds of moments, and a pooled figure averages over all of them
    # rather than picking one of three to ten per-batch figures.
    items_ms = [ns / 1e6 for b in batches for ns in b["item_ns"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(b["wall_ns"] / 1e9 for b in batches), "s"),
        "item_p50_ms": (percentile(items_ms, 50), "ms"),
        "item_p90_ms": (percentile(items_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(b["maxrss_kb"] / 1024 for b in batches), "MB"),
    }
    print(
        f"# workload {workload} seed {seed}: {len(batches)} batches, {len(setups)} set-ups, "
        f"{len(batches[0]['item_ns'])} items per batch; batch wall_s "
        + " ".join(f"{b['wall_ns'] / 1e9:.3f}" for b in batches)
    )
    return metrics, batches


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], bool]:
    plain, traced = [], []
    for _ in range(2):  # alternate, so that a slow spell of the host hits both sides
        plain.append(run_batch(workload, seed, False, deadline)[1])
        traced.append(run_batch(workload, seed, True, deadline)[1])
    ok = True
    # Both traced batches ran the same inputs, so every count must agree.
    if traced[0]["exact_counts"] != traced[1]["exact_counts"]:
        print("error: span counts differ between two traced runs of one seed", file=sys.stderr)
        ok = False
    metrics = {}
    for name, (first, unit) in traced[0]["layers"].items():
        second = traced[1]["layers"][name][0]
        metrics[name] = (first if first == second else statistics.fmean((first, second)), unit)
    plain_wall_s = statistics.fmean(b["wall_ns"] for b in plain) / 1e9
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / plain_wall_s - 1, "ratio")
    if metrics["trace.residue_frac"][0] > MAX_RESIDUE_FRAC:
        print(f"error: spans leave over {MAX_RESIDUE_FRAC:.0%} of the traced wall time", file=sys.stderr)
        ok = False
    print(f"# workload {workload} seed {seed}: 2 untraced and 2 traced batches, alternating")
    return metrics, plain + traced, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "graphforge", "__init__.py")):
        print(f"error: no graphforge sources under {SRC}", file=sys.stderr)
        return 1
    deadline = time.perf_counter() + DEADLINE_S
    try:
        spawn(["--setup-only"], deadline)  # writes the bytecode cache
        if args.trace:
            metrics, batches, correct = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, batches = end_to_end(args.workload, args.seed, args.seconds, deadline)
            correct = True
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
