"""One workload in one fresh, single-threaded process.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports the program, generates the inputs from the seed, warms every
family up once, then either stops (``--setup-only``, a set-up time
sample) or measures rounds for ``--seconds`` and prints one JSON
document as its last line of standard output.

With ``--trace 1`` rounds alternate untraced / traced: the pair gives
the tracing overhead, and the run-object counts of each traced round
must equal those of the untraced round before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import workloads as W
from repro import fastpath
from repro.obs import runtime as obs_runtime
from tracer import Tracer, aggregate, root_ns

TAIL_MIN_SAMPLES = 100


def tail(samples: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least 10 samples beyond it.

    Below ``TAIL_MIN_SAMPLES`` that percentile is p90 or lower -- with 13
    samples it would be p23, under the median -- so the maximum is
    reported instead, with ``percentile`` 100 and the sample count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= TAIL_MIN_SAMPLES:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}
    return {"value": ordered[-1], "percentile": 100.0, "samples": n}


class Tally:
    """Attempted / failed ops, failures by type, and correctness."""

    #: Failure kinds that mean a wrong output (not just a raised query).
    WRONG = ("DigestMismatch", "MissingExpected", "OracleMismatch", "WrongAnswer",
             "Nondeterministic", "TraceChangedCounts")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_type: Dict[str, Dict[str, int]] = {}

    def op(self, failures: Dict[str, str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
        for where, kind in failures.items():
            bucket = self.by_type.setdefault(kind, {})
            bucket[where] = bucket.get(where, 0) + 1

    def flag(self, where: str, kind: str) -> None:
        """A check failing outside any one op (counts, determinism)."""
        bucket = self.by_type.setdefault(kind, {})
        bucket[where] = bucket.get(where, 0) + 1

    @property
    def correct(self) -> bool:
        return not any(kind in self.by_type for kind in self.WRONG)


# ----------------------------------------------------------------------
# Family workloads (audit, resilience, crypto)
# ----------------------------------------------------------------------


class FamilyRunner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = W.load_expected().get(str(W.variant_of(seed)), {}).get(workload, {})
        self.first: Dict[str, Dict[str, Any]] = {}

    def setup(self) -> Dict[str, Any]:
        for family in W.FAMILIES[self.workload]:
            W.run_family_op(self.workload, family, self.seed, warm=True)
        return {}

    def round(self, tally: Tally, tracer: Optional[Any] = None) -> List[Any]:
        ops = []
        for family in W.FAMILIES[self.workload]:
            gc.collect()
            before = W.host_slowness()
            op = W.run_family_op(self.workload, family, self.seed, tracer=tracer)
            op.slowness = (before + W.host_slowness()) / 2.0
            failures = {f"{op.family}.{q}": kind for q, kind in op.failures.items()}
            want = self.expected.get(op.family, {})
            for query, digest in op.digests.items():
                if query not in want:
                    failures[f"{op.family}.{query}"] = "MissingExpected"
                elif want[query] != digest:
                    failures[f"{op.family}.{query}"] = "DigestMismatch"
            first = self.first.setdefault(op.family, op.fingerprint)
            if first != op.fingerprint:
                failures[f"{op.family}.fingerprint"] = "Nondeterministic"
            tally.op(failures)
            ops.append(op)
        return ops

    @staticmethod
    def fingerprints(ops: List[Any]) -> List[Any]:
        return [op.fingerprint for op in ops]

    @staticmethod
    def round_wall(ops: List[Any], normalise: bool = True) -> float:
        return sum(op.wall_s / (op.slowness if normalise else 1.0) for op in ops)

    @staticmethod
    def end_to_end(rounds: List[List[Any]], normalise: bool = True) -> Dict[str, Any]:
        def typical(ops: Any, seconds: Callable[[Any], float]) -> float:
            return statistics.median(
                seconds(op) / (op.slowness if normalise else 1.0) for op in ops
            )

        families = list(zip(*rounds))  # one tuple of ops per family
        bundles_ms = [1000.0 * typical(ops, lambda op: op.bundle_s) for ops in families]
        return {
            "wall_s": sum(typical(ops, lambda op: op.wall_s) for ops in families),
            "obs_per_s": sum(ops[0].rows for ops in families)
            / sum(typical(ops, lambda op: op.production_s) for ops in families),
            "query_p50_ms": statistics.median(bundles_ms),
            "query_tail": tail(bundles_ms),
        }

    def layer_counts(self, ops: List[Any]) -> Dict[str, float]:
        fps = [op.fingerprint for op in ops]
        out = {
            "ledger.rows": sum(op.rows for op in ops),
            "net.events": sum(fp["events"] for fp in fps),
            "net.messages": sum(fp["messages"] for fp in fps),
            "net.bytes": sum(fp["bytes"] for fp in fps),
            "net.dropped": sum(fp["dropped"] for fp in fps),
            "net.fast_deliveries": sum(fp["fast"] for fp in fps),
        }
        for key in ("attempts", "successes", "retries", "timeouts", "failures", "loss_drops"):
            out[f"faults.{key}"] = sum((fp["faults"] or {}).get(key, 0) for fp in fps)
        out.update(_ledger_counts([fp["ledger"] for fp in fps]))
        return out


# ----------------------------------------------------------------------
# Stream ingest
# ----------------------------------------------------------------------


class StreamRunner:
    def __init__(self, workload: str, seed: int, spill_root: str) -> None:
        self.seed = seed
        self.spill_root = spill_root
        expected = W.load_expected().get(str(W.variant_of(seed)), {})
        self.expected_digest = expected.get(workload, {}).get("final")
        self.inputs = None
        self.first: Optional[Dict[str, Any]] = None
        self.rounds_run = 0

    def setup(self) -> Dict[str, Any]:
        self.inputs = W.stream_inputs(self.seed)
        warm = W.stream_inputs(self.seed, rows=2_000, users=200)
        W.run_stream_round(
            warm, os.path.join(self.spill_root, "warmup"), segment_rows=256,
            checkpoint_every=100,
        )
        return {"arrivals": len(self.inputs.arrivals), "generate_s": self.inputs.generate_s}

    def round(self, tally: Tally, tracer: Optional[Any] = None) -> List[Any]:
        self.rounds_run += 1
        # Rounds repeat the same inputs, so the full-scan oracle runs in
        # the first round; later rounds must reproduce its digest.
        before = W.host_slowness()
        result = W.run_stream_round(
            self.inputs, os.path.join(self.spill_root, f"round-{self.rounds_run}"),
            tracer=tracer, oracle=self.rounds_run == 1,
        )
        result.slowness = (before + W.host_slowness()) / 2.0
        failures = dict(result.failures)
        if self.expected_digest is None:
            failures["final.digest"] = "MissingExpected"
        elif result.digest != self.expected_digest:
            failures["final.digest"] = "DigestMismatch"
        if self.first is None:
            self.first = result.fingerprint
        elif self.first != result.fingerprint:
            failures["final.fingerprint"] = "Nondeterministic"
        # One op per checkpoint, plus one for the round's final checks.
        wrong_checkpoints = {k: v for k, v in failures.items() if k.startswith("checkpoint@")}
        for _ in range(len(result.checkpoint_s) - len(wrong_checkpoints)):
            tally.op({})
        for where, kind in wrong_checkpoints.items():
            tally.op({where: kind})
        tally.op({k: v for k, v in failures.items() if not k.startswith("checkpoint@")})
        return [result]

    @staticmethod
    def fingerprints(ops: List[Any]) -> List[Any]:
        return [op.fingerprint for op in ops]

    @staticmethod
    def round_wall(ops: List[Any], normalise: bool = True) -> float:
        return ops[0].wall_s / (ops[0].slowness if normalise else 1.0)

    @staticmethod
    def end_to_end(rounds: List[List[Any]], normalise: bool = True) -> Dict[str, Any]:
        results = [ops[0] for ops in rounds]

        def typical(samples: Callable[[Any], List[float]]) -> List[float]:
            return [
                statistics.median(
                    t / (r.slowness if normalise else 1.0) for t, r in zip(column, results)
                )
                for column in zip(*(samples(r) for r in results))
            ]

        chunks = typical(lambda r: r.chunk_s)
        checkpoints_ms = [1000.0 * t for t in typical(lambda r: r.checkpoint_s)]
        return {
            "wall_s": sum(chunks) + sum(checkpoints_ms) / 1000.0,
            "obs_per_s": results[0].rows / sum(chunks),
            "query_p50_ms": statistics.median(checkpoints_ms),
            "query_tail": tail(checkpoints_ms),
        }

    def layer_counts(self, ops: List[Any]) -> Dict[str, float]:
        out = {"ledger.rows": ops[0].rows}
        out.update(_ledger_counts([ops[0].fingerprint["ledger"]]))
        out["population.arrivals"] = len(self.inputs.arrivals)
        out["population.generate_ms"] = 1000.0 * self.inputs.generate_s
        return out


def _ledger_counts(accounts: List[Dict[str, int]]) -> Dict[str, float]:
    return {
        "segments.sealed": sum(a["segments_sealed"] for a in accounts),
        "segments.spilled": sum(a["segments_spilled"] for a in accounts),
        "segments.reloads": sum(a["segment_reloads"] for a in accounts),
        "segments.resident_rows": sum(a["resident_rows"] for a in accounts),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from one traced round
# ----------------------------------------------------------------------

_SELF_MS = {
    "values.collect_ms": "values.collect",
    "entities.observe_self_ms": "entities.observe",
    "ledger.record_fast_self_ms": "ledger.record_fast",
    "segments.seal_ms": "segments.seal",
    "segments.spill_ms": "segments.spill",
    "segments.load_ms": "segments.load",
    "analysis.table_ms": "analysis.table",
    "analysis.verdict_ms": "analysis.verdict",
    "analysis.coalitions_ms": "analysis.coalitions",
    "analysis.breach_ms": "analysis.breach",
    "analysis.collusion_ms": "analysis.collusion",
    "analysis.seal_catchup_ms": "analysis.seal_catchup",
    "risk.score_ms": "risk.score",
    "crypto.x25519_ms": "crypto.x25519",
    "crypto.hpke_ms": "crypto.hpke",
    "crypto.aead_ms": "crypto.aead",
    "crypto.group_exp_ms": "crypto.group_exp",
    "crypto.voprf_ms": "crypto.voprf",
    "crypto.rsa_ms": "crypto.rsa",
    "crypto.secretshare_ms": "crypto.secretshare",
}
_CALLS = {
    "values.collect_calls": "values.collect",
    "entities.observe_calls": "entities.observe",
    "ledger.record_fast_calls": "ledger.record_fast",
    "risk.runs_scored": "risk.score",
    "crypto.x25519_calls": "crypto.x25519",
}
_QUERY_SPANS = ("analysis.table", "analysis.verdict", "analysis.coalitions",
                "analysis.breach", "analysis.collusion")


def layer_metrics(tracer: Tracer, counts: Dict[str, float], wall_s: float) -> Dict[str, float]:
    spans = aggregate(tracer.spans)
    empty = {"calls": 0, "failures": 0, "total_ns": 0, "self_ns": 0}

    def row(name: str) -> Dict[str, int]:
        return spans.get(name, empty)

    out: Dict[str, float] = {}
    for phase in ("build", "drive", "settle", "analyze"):
        out[f"scenario.{phase}_ms"] = row(f"scenario.{phase}")["total_ns"] / 1e6
    residual_ns = row("scenario.drive")["self_ns"] + row("scenario.settle")["self_ns"]
    for key in ("net.events", "net.messages", "net.bytes", "net.dropped"):
        out[key] = counts.get(key, 0)
    out["net.fast_share"] = (
        counts.get("net.fast_deliveries", 0) / counts["net.messages"]
        if counts.get("net.messages") else 0.0
    )
    out["net.residual_ms"] = residual_ns / 1e6
    out["net.residual_ns_per_event"] = (
        residual_ns / counts["net.events"] if counts.get("net.events") else 0.0
    )
    for metric, name in _SELF_MS.items():
        out[metric] = row(name)["self_ns"] / 1e6
    for metric, name in _CALLS.items():
        out[metric] = row(name)["calls"]
    out["values.collected"] = tracer.counts.get("values.collect", 0)
    out["ledger.rows"] = counts["ledger.rows"]
    fast_rows = tracer.counts.get("ledger.record_fast", 0)
    out["ledger.ns_per_row"] = (
        row("ledger.record_fast")["self_ns"] / fast_rows if fast_rows else 0.0
    )
    for key in ("segments.sealed", "segments.spilled", "segments.reloads",
                "segments.resident_rows"):
        out[key] = counts[key]
    out["segments.spill_bytes"] = tracer.counts.get("segments.spill", 0)
    out["analysis.queries"] = sum(row(n)["calls"] for n in _QUERY_SPANS)
    out["analysis.failures"] = sum(row(n)["failures"] for n in _QUERY_SPANS)
    for key in ("attempts", "successes", "retries", "timeouts", "failures", "loss_drops"):
        out[f"faults.{key}"] = counts.get(f"faults.{key}", 0)
    attempts = counts.get("faults.attempts", 0)
    out["faults.success_ratio"] = counts.get("faults.successes", 0) / attempts if attempts else 0.0
    out["population.arrivals"] = counts.get("population.arrivals", 0)
    out["population.generate_ms"] = counts.get("population.generate_ms", 0.0)
    out["trace.unattributed_share"] = 1.0 - root_ns(tracer.spans) / (wall_s * 1e9)
    return out


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for spill and spans")
    args = parser.parse_args(argv)
    if args.workload == "stream-ingest":
        runner: Any = StreamRunner(args.workload, args.seed, os.path.join(args.out, "spill"))
    elif args.workload in W.FAMILIES:
        runner = FamilyRunner(args.workload, args.seed)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    setup_info = runner.setup()
    setup_end = time.monotonic()
    setup_slowness = W.host_slowness()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "slowness": setup_slowness}))
        return 0

    gc.collect()
    gc.freeze()
    tally = Tally()
    untraced: List[List[Any]] = []
    traced: List[Dict[str, float]] = []
    pair_ratios: List[float] = []
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < args.seconds:
        ops = runner.round(tally)
        untraced.append(ops)
        if tracer is None:
            continue
        tracer.reset()
        traced_ops = runner.round(tally, tracer)
        if runner.fingerprints(traced_ops) != runner.fingerprints(ops):
            tally.flag("traced-round", "TraceChangedCounts")
        pair_ratios.append(runner.round_wall(traced_ops) / runner.round_wall(ops))
        layers = layer_metrics(
            tracer, runner.layer_counts(traced_ops),
            runner.round_wall(traced_ops, normalise=False),
        )
        traced.append(layers)
    measured_s = time.perf_counter() - started
    slowness = [op.slowness for ops in untraced for op in ops]
    if tracer is not None:
        # The last traced round's spans, written once the timing is over.
        tracer.write_jsonl(os.path.join(args.out, f"{args.workload}-spans.jsonl"))

    result: Dict[str, Any] = {
        "workload": args.workload,
        "seeds": {
            "scenario": W.scenario_seed(args.seed),
            "fault_plan": W.variant_of(args.seed),
            "population": W.variant_of(args.seed),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        },
        "setup_end": setup_end,
        "setup_slowness": setup_slowness,
        "setup": setup_info,
        "rounds": len(untraced),
        "measured_s": measured_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures_by_type": tally.by_type,
        "correct": tally.correct,
        "obs_mode": obs_runtime.MODE,
        "slow_path": fastpath.SLOW_PATH,
        "slowness": {"min": min(slowness), "median": statistics.median(slowness),
                     "max": max(slowness)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": runner.end_to_end(untraced),
        "end_to_end_unnormalised": runner.end_to_end(untraced, normalise=False),
    }
    if traced:
        layers = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        layers["trace.overhead"] = statistics.median(pair_ratios)
        result["per_layer"] = layers
        result["traced_rounds"] = len(traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
