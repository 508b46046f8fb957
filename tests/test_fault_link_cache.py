"""The fault runtime's per-link decisions against a per-packet oracle.

:class:`repro.faults.runtime.FaultRuntime` compiles, once per
``(src address, dst address)`` pair, the two host names, the combined
impairment of the matching ``LinkFault``s and the partitions that
sever the link.  :class:`PerPacketFaultRuntime` below is the runtime's
original ``on_send``/``on_deliver``, which resolved names and ran
every glob on every packet.  The property drives both with the same
random plans and the same random send/deliver/clock/topology sequence
and requires identical drop/keep decisions, returned delays,
``FaultStats`` and fault-RNG state.
"""

from hypothesis import example, given, strategies as st

from repro.core.entities import World
from repro.faults import FaultPlan, HostCrash, LinkFault, Partition
from repro.faults.runtime import _DUPLICATE_LAG, _REORDER_PENALTY, FaultRuntime
from repro.net.addressing import Address
from repro.net.network import Network
from repro.net.packets import Packet
from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry


class PerPacketFaultRuntime(FaultRuntime):
    """The reference: every check re-derived from the plan per packet."""

    def _host_name(self, address):
        host = self.network._hosts.get(address)
        return host.name if host is not None else str(address)

    def _is_down(self, name):
        return name in self._down

    def _severed(self, src_name, dst_name):
        now = self.network.simulator.now
        return any(
            part.active(now) and part.severs(src_name, dst_name)
            for part in self.plan.partitions
        )

    def on_send(self, packet, delay):
        src = self._host_name(packet.src)
        dst = self._host_name(packet.dst)
        if self._is_down(src) or self._is_down(dst):
            self.stats.crash_drops += 1
            self._count_drop("crash")
            return []
        if self._severed(src, dst):
            self.stats.partition_drops += 1
            self._count_drop("partition")
            return []
        loss = duplicate = reorder = jitter = 0.0
        matched = False
        for fault in self.plan.links:
            if fault.matches(src, dst):
                matched = True
                loss = max(loss, fault.loss)
                duplicate = max(duplicate, fault.duplicate)
                reorder = max(reorder, fault.reorder)
                jitter = max(jitter, fault.jitter)
        if not matched:
            return None
        if loss > 0.0 and self.rng.random() < loss:
            self.stats.loss_drops += 1
            self._count_drop("loss")
            return []
        impaired = delay
        if jitter > 0.0:
            impaired += self.rng.uniform(0.0, jitter)
            self.stats.jittered += 1
        if reorder > 0.0 and self.rng.random() < reorder:
            impaired += delay * _REORDER_PENALTY
            self.stats.reordered += 1
        delays = [impaired]
        if duplicate > 0.0 and self.rng.random() < duplicate:
            delays.append(impaired + delay * _DUPLICATE_LAG)
            self.stats.duplicates += 1
            if _obs.COUNTERS:
                get_registry().counter("faults.duplicates").inc()
        return delays

    def on_deliver(self, packet):
        dst = self._host_name(packet.dst)
        if self._is_down(dst):
            self.stats.crash_drops += 1
            self._count_drop("crash")
            return False
        src = self._host_name(packet.src)
        if self._severed(src, dst):
            self.stats.partition_drops += 1
            self._count_drop("partition")
            return False
        return True


HOST_NAMES = ("client", "client-anon", "relay-1", "relay-2", "mix-a", "server")
LATE_NAME = "relay-late"
#: Globs over host names -- and, for an address with no host yet, over
#: its dotted-quad string, which is what the runtime matches instead.
PATTERNS = (
    "*", "client*", "relay-*", "relay-?", "mix-*", "server", "nomatch",
    LATE_NAME, "10.0.6.*", "*-a*",
)

_patterns = st.sampled_from(PATTERNS)
#: Link-fault globs lean on ``*`` so that faults overlap.
_link_patterns = st.sampled_from(("*", "*", "*") + PATTERNS)
_rates = st.sampled_from((0.0, 0.3, 0.6, 0.95))
_times = st.sampled_from((0.0, 0.005, 0.01, 0.02, 0.04))


@st.composite
def _link_faults(draw):
    return LinkFault(
        src=draw(_link_patterns), dst=draw(_link_patterns), loss=draw(_rates),
        duplicate=draw(_rates), reorder=draw(_rates),
        jitter=draw(st.sampled_from((0.0, 0.002, 0.01))),
    )


@st.composite
def _partitions(draw):
    start = draw(_times)
    span = draw(st.sampled_from((None, 0.004, 0.015)))
    return Partition(
        a=draw(st.lists(_patterns, min_size=1, max_size=2)),
        b=draw(st.lists(_patterns, min_size=1, max_size=2)),
        start=start,
        end=None if span is None else start + span,
    )


@st.composite
def _plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        links=draw(st.lists(_link_faults(), max_size=3)),
        crashes=tuple(
            HostCrash(host=draw(_patterns), at=draw(_times))
            for _ in range(draw(st.integers(0, 2)))
        ),
        partitions=draw(st.lists(_partitions(), max_size=2)),
    )


#: Address indexes 0..5 are the hosts above; 6 is the late host's
#: address, which has no host until an ``add`` op runs.
_endpoints = st.integers(0, len(HOST_NAMES))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _endpoints, _endpoints,
                  st.sampled_from((0.001, 0.01))),
        st.tuples(st.just("deliver"), _endpoints, _endpoints),
        st.tuples(st.just("advance"), st.sampled_from((0.001, 0.004, 0.01))),
        st.tuples(st.just("add")),
    ),
    min_size=20,
    max_size=80,
)


def _world(runtime_cls, plan):
    world = World()
    network = Network()
    for name in HOST_NAMES:
        network.add_host(name, world.entity(name, f"org-{name}"))
    late_prefix = network.allocator.network_prefix()
    runtime = runtime_cls(plan, network)
    runtime.install()
    return world, network, runtime, late_prefix


def _packet(network, addresses, src, dst, packet_id):
    return Packet(
        src=addresses[src], dst=addresses[dst], protocol="p",
        payload=None, size=1, packet_id=packet_id,
        sent_at=network.simulator.now,
    )


def _advance(network, delta):
    simulator = network.simulator
    deadline = simulator.now + delta
    simulator.at(deadline, lambda: None)
    simulator.run_until(lambda: simulator.now >= deadline)


#: Three overlapping faults whose rates each beat the others on one
#: field, so the per-link combination must take every field's max.
OVERLAPPING = FaultPlan(
    seed=11,
    links=(
        LinkFault(loss=0.3, reorder=0.6, jitter=0.002),
        LinkFault(src="client*", duplicate=0.6, reorder=0.3, jitter=0.01),
        LinkFault(dst="relay-*", loss=0.6, duplicate=0.3),
    ),
)
EVERY_LINK = [
    ("send", src, dst, 0.01)
    for src in range(len(HOST_NAMES))
    for dst in range(len(HOST_NAMES))
] * 4


@given(_plans(), _ops)
@example(OVERLAPPING, EVERY_LINK)
def test_compiled_runtime_matches_per_packet_oracle(plan, ops):
    sides = [_world(cls, plan) for cls in (PerPacketFaultRuntime, FaultRuntime)]
    addresses = [host.address for host in sides[0][1].hosts()]
    assert [host.address for host in sides[1][1].hosts()] == addresses
    addresses.append(Address(f"{sides[0][3]}.1"))
    added = False
    for packet_id, op in enumerate(ops, start=1):
        results = []
        for world, network, runtime, late_prefix in sides:
            if op[0] == "send":
                packet = _packet(network, addresses, op[1], op[2], packet_id)
                results.append(runtime.on_send(packet, op[3]))
            elif op[0] == "deliver":
                packet = _packet(network, addresses, op[1], op[2], packet_id)
                results.append(runtime.on_deliver(packet))
            elif op[0] == "advance":
                _advance(network, op[1])
                results.append(None)
            elif not added:
                host = network.add_host(
                    LATE_NAME, world.entity(LATE_NAME, "org-late"),
                    prefix=late_prefix,
                )
                assert host.address == addresses[-1]
        if op[0] == "add":
            added = True
        else:
            assert results[0] == results[1], op
    reference, compiled = (side[2] for side in sides)
    assert reference.stats.to_dict() == compiled.stats.to_dict()
    assert reference.rng.getstate() == compiled.rng.getstate()
    assert reference._down == compiled._down


def test_host_added_after_install_is_matched_by_name():
    """A link first seen before its host existed is re-resolved.

    Before ``add_host`` the destination's name is its dotted-quad
    string, which the partition's ``relay-late`` glob does not match;
    afterwards the same address names the new host, and the cached
    "untouched" decision must not survive the topology change.
    """
    plan = FaultPlan(partitions=(Partition(a=(LATE_NAME,), b=("*",)),))
    world, network, runtime, late_prefix = _world(FaultRuntime, plan)
    client = network.hosts()[0]
    late_address = Address(f"{late_prefix}.1")
    packet = Packet(
        src=client.address, dst=late_address, protocol="p", payload=None,
        size=1, packet_id=1,
    )
    assert runtime.on_send(packet, 0.01) is None
    assert runtime.on_deliver(packet) is True
    late = network.add_host(
        LATE_NAME, world.entity(LATE_NAME, "org-late"), prefix=late_prefix
    )
    assert late.address == late_address
    assert runtime.on_send(packet, 0.01) == []
    assert runtime.on_deliver(packet) is False
    assert runtime.stats.partition_drops == 2
