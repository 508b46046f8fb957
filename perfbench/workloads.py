"""The benchmark's four workloads: inputs, one timed round, checks.

Every workload is a closed-loop batch job: it issues one operation,
waits for it, then issues the next, the way a CLI user runs
``repro demo``, ``repro risk``, ``repro resilience`` or ``repro scale``.

* ``audit``, ``resilience`` and ``crypto`` run one *op* per scenario
  family per round.  An op is one ``run_scenario`` lifecycle (build,
  drive, settle, analyze) followed by the workload's analysis bundle.
  Each query of the bundle is attempted on its own, so a query that
  raises is counted by exception type and the rest of the op still
  runs.
* ``stream-ingest`` runs one T-series slice per round: pre-generated
  population arrivals are recorded through ``Ledger.record_fast`` into
  a segmented, spilling ledger, with evenly spaced streaming
  ``verdict`` + ``collusion_resistance`` checkpoints.  The full-scan
  oracle runs after the timed section.

Correctness: every query result is reduced to a sha256 over canonical
JSON and compared with ``expected.json`` (keyed by seed variant), and
must not change from round to round.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.risk
from repro.core.analysis import DecouplingAnalyzer
from repro.core.labels import NONSENSITIVE_DATA, SENSITIVE_DATA, SENSITIVE_IDENTITY
from repro.core.serialize import json_safe_value, scenario_run_to_dict
from repro.core.values import LabeledValue, Subject
from repro.faults import FaultPlan
from repro.population import PopulationEngine, PopulationSpec
from repro.population.workload import (
    PROXY_ENTITY,
    PROXY_ORG,
    TARGET_ENTITY,
    TARGET_ORG,
    build_scale_world,
)
from repro.scenario import run_scenario

WORKLOADS = ("audit", "resilience", "stream-ingest", "crypto")

#: ``--seed`` selects one of this many input variants (seed mod
#: VARIANTS); ``expected.json`` holds the digests of every variant.
VARIANTS = 8

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

LOSS_RATE = 0.15

# Stream-ingest shape: 20k users, 200k rows (4 rows per arrival),
# 16384-row segments with spill, a checkpoint every 500 arrivals
# (100 checkpoints, the last one at the end of ingest).
STREAM_USERS = 20_000
STREAM_ROWS = 200_000
STREAM_SEGMENT_ROWS = 16_384
STREAM_CHECKPOINT_EVERY = 500
#: The scale topology re-couples only through the proxy+target pair.
STREAM_RESISTANCE = 2


#: Best time, in ms, of :func:`host_slowness`'s reference loop on an
#: undisturbed 2-vCPU Intel Xeon virtual machine.
REFERENCE_MS = 3.9


def host_slowness() -> float:
    """How much slower than undisturbed the host runs right now.

    The best of three runs of a fixed pure-Python loop, over
    :data:`REFERENCE_MS`: 1.0 on an idle host, about 1.5 while
    neighbours on a shared host saturate it.  Timings divided by it are
    seconds at the reference speed.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best / REFERENCE_MS


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def scenario_seed(seed: int) -> int:
    return 20221114 + variant_of(seed)


# ----------------------------------------------------------------------
# Canonical digests of query results
# ----------------------------------------------------------------------


def sha256_json(document: Any) -> str:
    text = json.dumps(
        json_safe_value(document), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table_doc(table) -> Any:
    return {"title": table.title, "cells": dict(table.as_mapping())}


def _verdict_doc(verdict) -> Any:
    return {
        "decoupled": verdict.decoupled,
        "violations": sorted(str(v) for v in verdict.violations),
    }


def _coalitions_doc(coalitions) -> Any:
    return sorted(sorted(c) for c in coalitions)


def _breaches_doc(reports) -> Any:
    return sorted(
        [r.organization, r.breach_proof, sorted(s.name for s in r.coupled_subjects)]
        for r in reports
    )


def _risk_doc(report) -> Any:
    # What ``score_run`` computed; the report's lazily derived views
    # (system risk, coalition curve) cost more than scoring itself.
    return {
        "collusion_resistance": report.collusion_resistance,
        "subject_resistance": report.subject_resistance,
        "pairs": [pair.to_dict() for pair in report.pairs],
        "cells": [cell.to_dict() for cell in report.cells],
    }


def _resilience_doc(run) -> Any:
    return {
        "verdict": _verdict_doc(run.analyzer.verdict()),
        "rows": len(run.world.ledger),
        "stats": run.fault_summary["stats"],
    }


# name -> (call on the finished run, canonical document of the result)
QUERIES: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "table": (lambda run: run.table(), _table_doc),
    "verdict": (lambda run: run.analyzer.verdict(), _verdict_doc),
    "coalitions": (
        lambda run: run.analyzer.minimal_recoupling_coalitions(),
        _coalitions_doc,
    ),
    "breach_reports": (lambda run: run.analyzer.breach_reports(), _breaches_doc),
    # Looked up on the package at call time so a traced round sees the
    # rebound (wrapped) function.
    "risk": (lambda run: repro.risk.score_run(run), _risk_doc),
    # ``repro demo --json``'s document; its sha256 is the op's artifact
    # digest (it includes sim_seconds, events, messages and bytes).
    "artifact": (scenario_run_to_dict, lambda doc: doc),
    "resilience": (_resilience_doc, lambda doc: doc),
}


# ----------------------------------------------------------------------
# Scenario-family workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One scenario family of a workload, at benchmark and warm-up size."""

    scenario: str
    params: Dict[str, Any]
    warmup: Dict[str, Any]
    seeded: bool = False

    def bind(self, seed: int, warm: bool) -> Dict[str, Any]:
        params = dict(self.warmup if warm else self.params)
        if self.seeded:
            params["seed"] = scenario_seed(seed)
        if self.scenario == "odoh":
            params["key_seed"] = bytes([0x41 + variant_of(seed)]) * 32
        return params


AUDIT_FAMILIES = (
    Family("mixnet", {"senders": 400}, {"senders": 8}, seeded=True),
    Family("odns", {"queries": 1000}, {"queries": 10}),
    Family("mpr", {"requests": 1000}, {"requests": 10}),
    Family("privcount", {"users": 200}, {"users": 8}, seeded=True),
)
RESILIENCE_FAMILIES = AUDIT_FAMILIES[:3]
CRYPTO_FAMILIES = (
    Family("odoh", {"queries": 40}, {"queries": 2}),
    Family("privacy-pass", {"tokens": 60}, {"tokens": 2}, seeded=True),
    Family("digital-cash", {"coins": 40}, {"coins": 2}, seeded=True),
)

BUNDLES = {
    "audit": ("table", "verdict", "coalitions", "breach_reports", "risk", "artifact"),
    "resilience": ("verdict", "resilience"),
    "crypto": ("table", "verdict", "coalitions", "artifact"),
}
FAMILIES = {
    "audit": AUDIT_FAMILIES,
    "resilience": RESILIENCE_FAMILIES,
    "crypto": CRYPTO_FAMILIES,
}


class PhaseClock:
    """A ``run_scenario`` phase hook recording each phase's wall time."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._started = 0.0

    def __call__(self, event: str, phase: str, program: Any) -> None:
        now = time.perf_counter()
        if event == "before":
            self._started = now
        else:
            self.seconds[phase] = now - self._started


@dataclass
class OpResult:
    """One family op: timings, counts, digests and failures."""

    family: str
    phases: Dict[str, float]
    lifecycle_s: float
    bundle_s: float
    rows: int
    digests: Dict[str, str]
    failures: Dict[str, str]
    fingerprint: Dict[str, Any]
    #: :func:`host_slowness` around the op, set by the caller.
    slowness: float = 1.0

    @property
    def production_s(self) -> float:
        return sum(self.phases.get(p, 0.0) for p in ("build", "drive", "settle"))

    @property
    def wall_s(self) -> float:
        return self.lifecycle_s + self.bundle_s


def run_fingerprint(run: Any) -> Dict[str, Any]:
    """The run-object counts that tracing must not change."""
    network = run.network
    faults = run.fault_summary
    return {
        "events": network.simulator.events_processed,
        "messages": network.messages_delivered,
        "bytes": network.bytes_delivered,
        "sent": network.packets_sent,
        "dropped": network.packets_dropped,
        "duplicated": network.packets_duplicated,
        "fast": network.fast_deliveries,
        "ledger": run.world.ledger.memory_accounting(),
        "faults": None if faults is None else json_safe_value(faults["stats"]),
    }


def run_family_op(
    workload: str, family: Family, seed: int, warm: bool = False,
    tracer: Optional[Any] = None,
) -> OpResult:
    """Run one family's lifecycle and analysis bundle.

    Query failures are caught here -- this is the boundary that must
    keep the benchmark running -- and recorded by exception type.
    ``tracer`` (a :class:`tracer.Tracer`) is installed around the
    timed part only.
    """
    faults = (
        FaultPlan.uniform_loss(LOSS_RATE, seed=variant_of(seed))
        if workload == "resilience" else None
    )
    params = family.bind(seed, warm)
    clock = PhaseClock()
    results: Dict[str, Any] = {}
    failures: Dict[str, str] = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        started = time.perf_counter()
        run = run_scenario(family.scenario, hooks=(clock,), faults=faults, **params)
        lifecycle = time.perf_counter() - started
        started = time.perf_counter()
        for name in BUNDLES[workload]:
            try:
                results[name] = QUERIES[name][0](run)
            except Exception as exc:  # recorded by type, counted as failed
                failures[name] = type(exc).__name__
        bundle = time.perf_counter() - started
    digests = {
        name: sha256_json(QUERIES[name][1](value)) for name, value in results.items()
    }
    return OpResult(
        family=family.scenario,
        phases=dict(clock.seconds),
        lifecycle_s=lifecycle,
        bundle_s=bundle,
        rows=len(run.world.ledger),
        digests=digests,
        failures=failures,
        fingerprint=run_fingerprint(run),
    )


# ----------------------------------------------------------------------
# Stream ingest
# ----------------------------------------------------------------------


@dataclass
class StreamInputs:
    arrivals: list
    generate_s: float


def stream_inputs(
    seed: int, rows: Optional[int] = None, users: Optional[int] = None
) -> StreamInputs:
    """Generate the arrival stream (the load generator, untimed)."""
    rows = STREAM_ROWS if rows is None else rows
    users = STREAM_USERS if users is None else users
    started = time.perf_counter()
    engine = PopulationEngine(PopulationSpec(users=users, seed=variant_of(seed)))
    arrivals = list(engine.arrivals(limit=rows // 4))
    return StreamInputs(arrivals, time.perf_counter() - started)


def _stream_calls(arrivals: Sequence[Any]) -> list:
    """Per-arrival ``record_fast`` arguments, built fresh for one round.

    Fresh value objects each round, so no memo slot filled by an
    earlier round is read by a later one.  Shaped exactly like
    ``repro.population.workload.run_scale_workload``'s ODoH topology.
    """
    calls = []
    append = calls.append
    for arrival in arrivals:
        subject = Subject(arrival.user_name)
        ciphertext = f"ct-{arrival.index}"
        address = f"ip-{arrival.user}-{arrival.session}"
        append((
            arrival.time,
            f"px-{arrival.session}",
            [
                LabeledValue(address, SENSITIVE_IDENTITY, subject, "client address"),
                LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
            ],
            f"tg-{arrival.session}",
            [
                LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
                LabeledValue(
                    f"{arrival.action}-{arrival.index}", SENSITIVE_DATA, subject,
                    "decrypted query",
                ),
            ],
        ))
    return calls


@dataclass
class StreamResult:
    #: Ingest time of each stretch between checkpoints, in order.
    chunk_s: List[float]
    #: Latency of each checkpoint (verdict + collusion resistance).
    checkpoint_s: List[float]
    rows: int
    digest: str
    failures: Dict[str, str]
    fingerprint: Dict[str, Any]
    #: :func:`host_slowness` around the round, set by the caller.
    slowness: float = 1.0

    @property
    def ingest_s(self) -> float:
        return sum(self.chunk_s)

    @property
    def wall_s(self) -> float:
        return self.ingest_s + sum(self.checkpoint_s)


def run_stream_round(
    inputs: StreamInputs, spill_dir: str, segment_rows: Optional[int] = None,
    checkpoint_every: Optional[int] = None, tracer: Optional[Any] = None,
    oracle: bool = True,
) -> StreamResult:
    """One T-series slice: timed ingest + checkpoints, then the checks.

    ``tracer`` is installed around the timed section only.  With
    ``oracle`` the final streaming answer is compared, after the timed
    section, with a fresh full-scan analyzer over the same rows.
    """
    segment_rows = STREAM_SEGMENT_ROWS if segment_rows is None else segment_rows
    if checkpoint_every is None:
        checkpoint_every = STREAM_CHECKPOINT_EVERY
    calls = _stream_calls(inputs.arrivals)
    world = build_scale_world()
    ledger = world.ledger
    shutil.rmtree(spill_dir, ignore_errors=True)
    ledger.configure_segments(rows=segment_rows, spill=True, directory=spill_dir)
    streaming = DecouplingAnalyzer(world)
    failures: Dict[str, str] = {}
    chunks: List[float] = []
    checkpoints: List[float] = []
    gc.collect()
    try:
        clock = time.perf_counter
        with tracer if tracer is not None else contextlib.nullcontext():
            record_fast = ledger.record_fast
            chunk_started = clock()
            for count, (at, px_session, px_values, tg_session, tg_values) in enumerate(
                calls, 1
            ):
                record_fast(
                    PROXY_ENTITY, PROXY_ORG, px_values, time=at, channel="wire",
                    session=px_session,
                )
                record_fast(
                    TARGET_ENTITY, TARGET_ORG, tg_values, time=at, channel="wire",
                    session=tg_session,
                )
                if count % checkpoint_every == 0:
                    asked = clock()
                    chunks.append(asked - chunk_started)
                    decoupled = streaming.verdict().decoupled
                    resistance = streaming.collusion_resistance()
                    chunk_started = clock()
                    checkpoints.append(chunk_started - asked)
                    if not decoupled or resistance != STREAM_RESISTANCE:
                        failures[f"checkpoint@{count}"] = "WrongAnswer"
            if len(calls) % checkpoint_every:
                chunks.append(clock() - chunk_started)
        verdict = str(streaming.verdict())
        resistance = streaming.collusion_resistance()
        digest = sha256_json(
            {"verdict": verdict, "resistance": resistance, "rows": len(ledger)}
        )
        fingerprint = {"ledger": ledger.memory_accounting()}
        rows = len(ledger)
        if oracle:
            full_scan = DecouplingAnalyzer(world)
            if verdict != str(full_scan.verdict()):
                failures["final.verdict"] = "OracleMismatch"
            if resistance != full_scan.collusion_resistance():
                failures["final.collusion_resistance"] = "OracleMismatch"
    finally:
        ledger.clear()
        shutil.rmtree(spill_dir, ignore_errors=True)
    return StreamResult(chunks, checkpoints, rows, digest, failures, fingerprint)


# ----------------------------------------------------------------------
# Expected digests
# ----------------------------------------------------------------------


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
