"""Regenerate ``expected.json``: the digest of every query, per variant.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_expected.py

Queries run in a thread with a large stack and a raised recursion
limit, so a query that overflows the default interpreter limit (the
recursive ``_DisjointSet.find`` on ``mpr`` at 1000 requests) still
yields its true answer here.  The benchmark itself runs at the default
limit and counts such a query as a failed op; once the program no
longer overflows, its answer is checked against this digest.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import workloads as W

STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 200_000


def expected_for(variant: int) -> dict:
    entry: dict = {}
    for workload, families in W.FAMILIES.items():
        entry[workload] = {}
        for family in families:
            op = W.run_family_op(workload, family, variant)
            if op.failures:
                raise RuntimeError(f"{workload}/{family.scenario}: {op.failures}")
            entry[workload][family.scenario] = op.digests
    spill = os.path.join(os.path.dirname(W.EXPECTED_PATH), "out", "expected-spill")
    stream = W.run_stream_round(W.stream_inputs(variant), spill)
    if stream.failures:
        raise RuntimeError(f"stream-ingest: {stream.failures}")
    entry["stream-ingest"] = {"final": stream.digest}
    return entry


def main() -> int:
    result: dict = {}
    errors: list = []

    def work() -> None:
        try:
            for variant in range(W.VARIANTS):
                result[str(variant)] = expected_for(variant)
                print(f"variant {variant} done", file=sys.stderr, flush=True)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    sys.setrecursionlimit(RECURSION_LIMIT)
    threading.stack_size(STACK_BYTES)
    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
