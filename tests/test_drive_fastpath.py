"""Differential goldens: the batched drive path against its slow reference.

The fast delivery pipeline (``Network._deliver_fast`` +
``Ledger.record_fast``) must be *semantically invisible*: flipping
``repro.fastpath`` between the default fast mode and the
``REPRO_SLOW_PATH=1`` reference may change wall clock only, never one
byte of an exported artifact.  Three layers of evidence:

1. full-registry differential goldens -- ``demo <id> --json`` for every
   registered scenario, plus ``tables`` and the span/provenance JSONL
   export, byte-identical between modes (the JSONL modulo the
   ``wall_ms`` attribute, which differs between any two runs);
2. Hypothesis invariants -- batched ``Ledger.record_fast`` produces the
   same observations and query-visible state as sequential ``record``,
   and ``collect_values`` equals ``list(walk_values)`` on arbitrary
   nested payloads;
3. precondition assertions -- no fast-path delivery is ever taken in
   ``full`` observability or under the slow toggle, while an untraced
   fault plan keeps *every* delivery on the fast path with its
   arrival-time crash/partition check still applied.
"""

import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro import fastpath, obs
from repro.cli import _register_demos, main
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.ledger import Ledger
from repro.core.values import (
    LabeledValue,
    Sealed,
    Subject,
    collect_values,
    walk_values,
)
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.net.network import Network
from repro.obs import export as obs_export
from repro.obs import runtime as obs_runtime
from repro.scenario import all_specs, run_scenario

_register_demos()

ALL_SPEC_IDS = sorted(spec.id for spec in all_specs())


def _run_cli(args, slow):
    """Run the in-process CLI in the requested mode; always restore.

    Restores the *prior* mode (not hard-coded fast) so the whole file
    also runs under an ambient ``REPRO_SLOW_PATH=1`` environment -- CI
    executes it under both settings.
    """
    out = io.StringIO()
    previous = fastpath.SLOW_PATH
    fastpath.set_slow_path(slow)
    try:
        code = main(list(args), out=out)
    finally:
        fastpath.set_slow_path(previous)
    assert code == 0, f"{args} exited {code} (slow={slow})"
    return out.getvalue()


# ---------------------------------------------------------------- goldens


@pytest.mark.parametrize("name", ALL_SPEC_IDS)
def test_demo_json_identical_between_modes(name):
    """`demo <id> --json` is byte-identical for every registered scenario."""
    fast = _run_cli(["demo", name, "--json"], slow=False)
    slow = _run_cli(["demo", name, "--json"], slow=True)
    assert fast == slow


def test_tables_identical_between_modes():
    fast = _run_cli(["tables"], slow=False)
    slow = _run_cli(["tables"], slow=True)
    assert fast == slow


def _run_cli_subprocess(args, slow):
    """Run the CLI in a fresh interpreter, selecting the mode via env.

    A fresh process per run matters twice over: it exercises the
    ``REPRO_SLOW_PATH=1`` import-time wiring (not just the in-process
    ``set_slow_path`` seam), and it sidesteps cross-run global serials
    (key-id counters) that make *any* two same-process runs -- fast or
    slow -- disagree on a handful of ``value_digest`` fields.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    env.pop("REPRO_SLOW_PATH", None)
    if slow:
        env["REPRO_SLOW_PATH"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env=env,
        check=True,
    )
    return result.stdout


def _normalized_jsonl(path):
    """Trace JSONL lines, wall clock dropped and digests alpha-renamed.

    Two fields are nondeterministic between *any* two runs of the seed
    code (fast or slow, fresh process or not), so the differential
    normalizes exactly those and nothing else:

    - ``wall_ms`` is host wall clock;
    - ``value_digest`` hashes payloads that can embed HPKE encapsulation
      bytes, and ephemeral X25519 keys draw from ``secrets`` (odoh).
      Renaming each distinct digest to its first-appearance index keeps
      the *linkage structure* -- which observations carry the same
      value -- pinned while ignoring the random bytes underneath.
    """
    lines = []
    rename = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("wall_ms", None)
            digest = record.get("value_digest")
            if digest is not None:
                record["value_digest"] = rename.setdefault(
                    digest, f"digest-{len(rename)}"
                )
            lines.append(json.dumps(record, sort_keys=True))
    return lines


@pytest.mark.parametrize("name", ["odoh", "mixnet", "odns"])
def test_trace_export_identical_between_modes(name, tmp_path):
    fast_path = tmp_path / "fast.jsonl"
    slow_path = tmp_path / "slow.jsonl"
    _run_cli_subprocess(["trace", name, "--out", str(fast_path)], slow=False)
    _run_cli_subprocess(["trace", name, "--out", str(slow_path)], slow=True)
    assert _normalized_jsonl(fast_path) == _normalized_jsonl(slow_path)


def test_demo_json_identical_between_processes():
    """`REPRO_SLOW_PATH=1` in the environment reproduces fast output."""
    fast = _run_cli_subprocess(["demo", "odoh", "--json"], slow=False)
    slow = _run_cli_subprocess(["demo", "odoh", "--json"], slow=True)
    assert fast == slow


def test_tables_identical_between_processes():
    fast = _run_cli_subprocess(["tables"], slow=False)
    slow = _run_cli_subprocess(["tables"], slow=True)
    assert fast == slow


@pytest.mark.parametrize("name", ["privcount", "privcount-sharded"])
def test_privcount_demo_json_pinned_across_modes(name):
    """The PrivCount demos, explicitly: repeated runs are byte-stable
    and the slow-path differential reproduces the fast output.

    ALL_SPEC_IDS already sweeps these through the in-process parity
    test; this pins the two additional guarantees the P-series issue
    demands -- same-mode repeatability (all rng draws flow from the
    seed, Laplace noise included) and cross-process slow-path identity
    (import-time ``REPRO_SLOW_PATH=1`` wiring).
    """
    fast_a = _run_cli(["demo", name, "--json"], slow=False)
    fast_b = _run_cli(["demo", name, "--json"], slow=False)
    assert fast_a == fast_b
    slow_a = _run_cli_subprocess(["demo", name, "--json"], slow=True)
    slow_b = _run_cli_subprocess(["demo", name, "--json"], slow=False)
    assert slow_a == slow_b


# ------------------------------------------------- fast-path preconditions


def _mini_network():
    world = World()
    network = Network()
    identity = LabeledValue(
        "198.51.100.1", SENSITIVE_IDENTITY, Subject("alice"), "ip"
    )
    user = network.add_host(
        "user", world.entity("User", "device", trusted_by_user=True),
        identity=identity,
    )
    server = network.add_host("server", world.entity("Server", "server-org"))
    server.register("echo", lambda packet: None)
    return network, user, server


def _drive_once(network, user, server):
    value = LabeledValue("hello", SENSITIVE_DATA, Subject("alice"), "msg")
    user.send(server.address, value, "echo")
    network.run()


def test_fast_path_taken_by_default():
    if fastpath.SLOW_PATH:
        pytest.skip("ambient REPRO_SLOW_PATH=1: the fast path is off")
    network, user, server = _mini_network()
    _drive_once(network, user, server)
    assert network.fast_deliveries == 1


def test_no_fast_path_under_observability():
    network, user, server = _mini_network()
    obs_runtime.enable()
    try:
        _drive_once(network, user, server)
    finally:
        obs_runtime.disable()
    assert network.fast_deliveries == 0
    assert network.messages_delivered == 1


@pytest.mark.parametrize("mode", ["off", "counters"])
def test_fault_injected_deliveries_take_fast_path(mode):
    """Under an untraced fault plan every delivery is a fast one.

    The fault checks run inside the pooled pipeline (``on_send`` at
    send, ``on_deliver`` when the event fires); there is no second
    delivery route for faulted runs.
    """
    if fastpath.SLOW_PATH:
        pytest.skip("ambient REPRO_SLOW_PATH=1: the fast path is off")
    plan = FaultPlan.uniform_loss(0.15, seed=3)
    with obs.capture(mode=mode):
        run = run_scenario("odns", faults=plan)
    network = run.network
    assert run.fault_summary["stats"]["loss_drops"] > 0
    assert network.messages_delivered > 0
    assert network.fast_deliveries == network.messages_delivered


def test_crash_in_flight_drops_packet_at_delivery():
    """A destination that crashes mid-flight drops the packet on arrival."""
    network, user, server = _mini_network()
    # Sent at t=0 with the default 10 ms latency; the server
    # fail-stops at 5 ms, while the packet is on the wire.
    runtime = FaultRuntime(FaultPlan.crash("server", at=0.005), network)
    runtime.install()
    _drive_once(network, user, server)
    assert runtime.stats.crashes == 1
    assert runtime.stats.crash_drops == 1
    assert network.messages_delivered == 0
    assert network.fast_deliveries == 0
    assert network.packets_dropped == 1
    assert network.packets_in_flight == 0
    assert network.packets_sent == 1


def test_no_fast_path_under_slow_toggle():
    network, user, server = _mini_network()
    previous = fastpath.SLOW_PATH
    fastpath.set_slow_path(True)
    try:
        _drive_once(network, user, server)
    finally:
        fastpath.set_slow_path(previous)
    assert network.fast_deliveries == 0
    assert network.messages_delivered == 1


def test_observability_enabled_mid_flight_respected():
    """Precondition is re-checked at fire time, not just send time."""
    network, user, server = _mini_network()
    value = LabeledValue("hello", SENSITIVE_DATA, Subject("alice"), "msg")
    user.send(server.address, value, "echo")
    obs_runtime.enable()
    try:
        network.run()
    finally:
        obs_runtime.disable()
    assert network.fast_deliveries == 0
    assert network.messages_delivered == 1


# ----------------------------------------------- obs tiers vs fast path


def test_fast_path_retained_in_counters_mode():
    """counters mode batches metrics without leaving the fast path."""
    if fastpath.SLOW_PATH:
        pytest.skip("ambient REPRO_SLOW_PATH=1: the fast path is off")
    network, user, server = _mini_network()
    with obs.capture(mode="counters") as (tracer, registry):
        _drive_once(network, user, server)
    assert network.fast_deliveries == 1
    assert tracer.spans == []
    # The batch folded into the capture registry on exit.
    assert registry.counter_value("net.messages") == 1
    assert registry.counter_value("sim.events") >= 1
    assert registry.counter_value("ledger.observations") >= 1


def test_fast_path_retained_in_sampled_mode():
    """sampled mode traces a subset while unsampled deliveries stay fast."""
    if fastpath.SLOW_PATH:
        pytest.skip("ambient REPRO_SLOW_PATH=1: the fast path is off")
    sampler = obs.SpanSampler(rate=0.4, seed=0)
    with obs.capture(mode="sampled", sampler=sampler) as (tracer, registry):
        run = run_scenario("mixnet")
    network = run.network
    deliver_spans = [s for s in tracer.spans if s.name == "deliver"]
    assert network.fast_deliveries > 0
    assert deliver_spans, "a 0.4 sampler over a mixnet run must trace some"
    assert network.fast_deliveries + len(deliver_spans) == (
        network.messages_delivered
    )
    # Batched metrics still cover *every* delivery, traced or not.
    assert registry.counter_value("net.messages") == network.messages_delivered


def test_counters_mode_totals_byte_equal_full_mode():
    """A counters-mode registry snapshot == the full-mode one, bit for bit.

    The batch observes values in delivery order and folds each total
    exactly once into zeroed instruments, so even the float histogram
    sums come out identical.  (``snapshot()`` sorts by name, so the
    differing instrument-creation order cannot show through.)
    """
    with obs.capture(mode="counters") as (_tracer, counters_registry):
        counters_run = run_scenario("mixnet")
    with obs.capture(mode="full") as (_tracer, full_registry):
        full_run = run_scenario("mixnet")
    assert counters_run.network.messages_delivered == (
        full_run.network.messages_delivered
    )
    if not fastpath.SLOW_PATH:
        assert counters_run.network.fast_deliveries > 0
    assert full_run.network.fast_deliveries == 0
    assert json.dumps(counters_registry.snapshot(), sort_keys=True) == (
        json.dumps(full_registry.snapshot(), sort_keys=True)
    )


def _sampled_span_lines(seed):
    """Normalized span JSONL for one sampled mixnet run at ``seed``."""
    sampler = obs.SpanSampler(rate=0.4, seed=seed)
    with obs.capture(mode="sampled", sampler=sampler) as (tracer, _registry):
        run_scenario("mixnet")
    lines = []
    for span in tracer.spans:
        record = obs_export.span_to_dict(span)
        record.pop("wall_ms", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def test_sampler_same_seed_reproduces_span_set():
    """Same seed => byte-identical sampled JSONL; new seed => new set."""
    first = _sampled_span_lines(seed=0)
    second = _sampled_span_lines(seed=0)
    other = _sampled_span_lines(seed=7)
    assert first, "a 0.4 sampler over a mixnet run must trace some spans"
    assert first == second
    assert first != other


# ------------------------------------------------ record_fast invariants

_SUBJECTS = st.sampled_from([Subject("alice"), Subject("bob"), Subject("eve")])
_LABELS = st.sampled_from(
    [SENSITIVE_IDENTITY, SENSITIVE_DATA, NONSENSITIVE_DATA]
)


@st.composite
def _labeled_values(draw):
    return LabeledValue(
        payload=draw(st.text(max_size=8)),
        label=draw(_LABELS),
        subject=draw(_SUBJECTS),
        description=draw(st.sampled_from(["ip", "query", "token", ""])),
    )


@st.composite
def _batches(draw):
    """A handful of (entity, org, values, channel, session) batches."""
    batches = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["Resolver", "Proxy", "Target"]),
                st.sampled_from(["org-a", "org-b"]),
                st.lists(_labeled_values(), min_size=0, max_size=4),
                st.sampled_from(["message", "dns", "network-header"]),
                st.sampled_from(["", "pkt:1", "pkt:2"]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return batches


def _visible_state(ledger):
    """Everything a query or the analyzer can see, version excluded."""
    return {
        "observations": ledger.observations,
        "subjects": ledger.subjects(),
        "by_subject": {
            s.name: ledger.by_subject(s) for s in ledger.subjects()
        },
        "entities": {
            o.entity: ledger.by_entity(o.entity) for o in ledger.observations
        },
        "labels": {
            (o.entity, o.subject.name): ledger.labels_of(o.entity, o.subject)
            for o in ledger.observations
        },
    }


@given(_batches())
def test_record_fast_equivalent_to_sequential_record(batches):
    """Batched append == value-at-a-time append, bit for bit.

    The *only* sanctioned difference is the version counter's step
    size: ``record_fast`` bumps once per batch, ``record`` once per
    value.  Analyzer memo keys only require that an unchanged version
    implies unchanged contents, which a coarser counter preserves.
    """
    batched, sequential = Ledger(), Ledger()
    time = 0.0
    for entity, org, values, channel, session in batches:
        time += 0.1
        before = batched.version
        batched.record_fast(
            entity, org, list(values), time=time, channel=channel,
            session=session, packet_id=None,
        )
        # One version bump per non-empty batch, none for empty ones.
        expected_bumps = 1 if values else 0
        assert batched.version == before + expected_bumps
        for value in values:
            sequential.record(
                entity, org, value, time=time, channel=channel,
                session=session, packet_id=None,
            )
    assert _visible_state(batched) == _visible_state(sequential)
    assert len(batched) == len(sequential)


@st.composite
def _payload_trees(draw, depth=3):
    leaf = st.one_of(
        _labeled_values(),
        st.text(max_size=4),
        st.integers(-10, 10),
        st.none(),
    )
    if depth == 0:
        return draw(leaf)
    child = _payload_trees(depth=depth - 1)
    branch = st.one_of(
        leaf,
        st.lists(child, max_size=3).map(tuple),
        st.lists(child, max_size=3),
        st.dictionaries(st.text(max_size=3), child, max_size=2),
        st.tuples(st.sampled_from(["k1", "k2"]), child).map(
            lambda pair: Sealed.wrap(pair[0], (pair[1],))
        ),
    )
    return draw(branch)


@given(_payload_trees(), st.sets(st.sampled_from(["k1", "k2"]), max_size=2))
def test_collect_values_equals_walk_values(tree, keys):
    keyring = frozenset(keys)
    assert collect_values(tree, keyring) == list(walk_values(tree, keyring))
