"""One benchmark process: a fresh interpreter that runs one batch cold.

Usage (started by run.py, with src/ on PYTHONPATH):
    python3 child.py --setup-only
    python3 child.py WORKLOAD SEED TRACE

The child writes "ready" as soon as ``import graphforge, graphforge.cli``
returns; the parent times set-up up to that line.  It then builds the
workload's items, runs each once with nothing cached from an earlier run,
checks every result, and writes one JSON object with the timings.
"""

import sys


def main() -> int:
    import graphforge  # noqa: F401  (set-up ends when both imports return)
    import graphforge.cli  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.argv[1:] == ["--setup-only"]:
        return 0
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"

    import json
    import random
    import resource
    import time
    import traceback

    import workloads

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    batch = workloads.WORKLOADS[workload](seed)

    # Items run in one fixed shuffled order, the same for every seed, so that
    # each kind of item samples the host's speed across the whole batch.
    order = list(range(len(batch.items)))
    random.Random(0).shuffle(order)
    results = [None] * len(order)
    raised = [False] * len(order)
    item_ns = []
    if tracer is not None:
        tracer.enabled = True
    batch_start = time.perf_counter_ns()
    for i in order:
        label, call = batch.items[i]
        start = time.perf_counter_ns()
        try:
            results[i] = call()
        except Exception:  # an item that raises is counted as failed
            raised[i] = True
            print(f"item raised: {label}\n{traceback.format_exc()}", file=sys.stderr)
        item_ns.append(time.perf_counter_ns() - start)
    wall_ns = time.perf_counter_ns() - batch_start
    if tracer is not None:
        tracer.enabled = False
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed = {i for i, r in enumerate(raised) if r}
    for indices, predicate, label in batch.checks:
        if any(raised[i] for i in indices):
            continue
        try:
            ok = predicate([results[i] for i in indices])
        except Exception:  # a result too malformed to check fails its check
            ok = False
            print(f"check raised: {label}\n{traceback.format_exc()}", file=sys.stderr)
        if not ok:
            failed.update(indices)
            print(f"check failed: {label}", file=sys.stderr)

    out = {
        "wall_ns": wall_ns,
        "item_ns": item_ns,
        "maxrss_kb": maxrss_kb,
        "attempted": len(batch.items),
        "failed": len(failed),
    }
    if tracer is not None:
        cli_bytes = sum(len(r.text.encode()) for r in results if isinstance(r, workloads.CliOutput))
        out["exact_counts"] = tracer.exact_counts()
        out["layers"] = {**tracer.metrics(wall_ns), "cli.bytes_out": (cli_bytes, "bytes")}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
