"""The simulated network: hosts, links, delivery, observation.

A star of point-to-point links with per-pair latencies.  Delivery of a
packet does four things, in order:

1. the traffic trace records the packet's wire metadata;
2. every matching wire observer observes the payload *exterior* (taps
   hold no decryption keys) plus the sender identity, if the sending
   host exposes one (a user device's source address);
3. the destination host's entity observes the payload through its own
   keyring, and the sender identity;
4. the destination host's protocol handler runs; a non-``None`` return
   value is sent back as a response packet.

``transact`` layers a synchronous request/response call on top, so
protocol models read like ordinary code while the clock and trace stay
consistent.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import fastpath as _fastpath
from repro.core.entities import Entity
from repro.obs import runtime as _obs
from repro.obs.metrics import BATCH as _BATCH
from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS, get_registry
from repro.obs.tracing import NOOP_SPAN, get_tracer

from .addressing import Address, AddressAllocator
from .packets import Packet, estimate_size
from .sim import Simulator
from .trace import PacketRecord, TrafficTrace

__all__ = ["Network", "SimHost", "TransactTimeout", "WireObserver"]

Handler = Callable[[Packet], Any]

#: Cap on the network's ``_Delivery`` free list.  In-flight fan-out
#: beyond this just allocates fresh events.
_DELIVERY_POOL_LIMIT = 1024


class _Delivery:
    """A slotted, reusable delivery event.

    Every untraced packet copy -- with or without a fault injector --
    is scheduled as one of these instead of a
    ``lambda: self._deliver(packet)`` closure: the arguments live in
    slots rather than captured cells, and after firing the event
    returns to the owning network's free list to be re-armed by the
    next ``send`` -- steady-state scheduling allocates no closures.

    At fire time the event asks the injector (if any) whether the
    packet may still arrive -- a crash or partition that began while
    it was on the wire drops it here -- and then runs
    ``_deliver_fast``.  The tracing preconditions are re-checked at
    fire time too: if observability was switched to a traced tier
    while the packet was in flight, delivery goes through the fully
    instrumented ``_deliver`` instead, so no span is skipped.
    """

    __slots__ = ("network", "packet")

    def __init__(self, network: "Network", packet: Optional[Packet]) -> None:
        self.network = network
        self.packet = packet

    def __call__(self) -> None:
        network = self.network
        packet = self.packet
        self.packet = None
        pool = network._delivery_pool
        if len(pool) < _DELIVERY_POOL_LIMIT:
            pool.append(self)
        injector = network._fault_injector
        if (
            _obs.ENABLED
            or _fastpath.SLOW_PATH
            or (injector is not None and _obs.TRACING)
        ):
            network._deliver(packet)
        elif injector is None or injector.on_deliver(packet):
            network._deliver_fast(packet)
        else:
            # The destination crashed (or the link partitioned) while
            # this packet was on the wire.
            network.packets_in_flight -= 1
            network._count_dropped()


class TransactTimeout(RuntimeError):
    """A ``transact`` deadline expired with no response.

    Subclasses :class:`RuntimeError` so callers that treated a lost
    request as a generic simulator stall keep working; resilience
    policies catch this precisely to drive retry/fallback.
    """


class SimHost:
    """A network endpoint bound to an observing entity.

    ``identity`` is the labeled identity value that receiving a packet
    from this host reveals (a user device sets its owner's sensitive
    network identity; infrastructure hosts usually set none).
    """

    def __init__(
        self,
        name: str,
        entity: Entity,
        address: Address,
        network: "Network",
        identity: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.entity = entity
        self.address = address
        self.network = network
        self.identity = identity
        self._handlers: Dict[str, Handler] = {}

    def register(self, protocol: str, handler: Handler) -> None:
        """Install the handler for one protocol tag."""
        if protocol in self._handlers:
            raise ValueError(f"{self.name} already handles {protocol!r}")
        self._handlers[protocol] = handler

    def handler_for(self, protocol: str) -> Optional[Handler]:
        return self._handlers.get(protocol)

    def send(
        self,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> None:
        """Fire-and-forget one-way send."""
        self.network.send(self, dst, payload, protocol, size=size, flow=flow)

    def transact(
        self,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> Any:
        """Synchronous request/response; returns the response payload."""
        return self.network.transact(
            self, dst, payload, protocol, size=size, flow=flow
        )

    def __repr__(self) -> str:
        return f"SimHost({self.name!r}@{self.address})"


class WireObserver:
    """A passive tap: an entity that sees wire metadata and exteriors.

    ``watches`` restricts the tap to packets whose source or
    destination prefix matches (a tap inside one operator's network);
    by default the tap is global.
    """

    def __init__(
        self,
        entity: Entity,
        prefixes: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.entity = entity
        self.prefixes = prefixes
        self.trace = TrafficTrace()

    def watches(self, packet: Packet) -> bool:
        if self.prefixes is None:
            return True
        return packet.src.prefix in self.prefixes or packet.dst.prefix in self.prefixes

    def notice(self, packet: Packet, time: float) -> None:
        self.trace.record(
            PacketRecord(
                time=time,
                src=packet.src,
                dst=packet.dst,
                size=packet.size,
                protocol=packet.protocol,
                packet_id=packet.packet_id,
            )
        )
        if packet.sender_identity is not None:
            self.entity.observe(
                packet.sender_identity,
                time=time,
                channel="wire",
                session=packet.session,
                packet_id=packet.packet_id,
            )
        self.entity.observe(
            packet.payload,
            time=time,
            channel="wire",
            session=packet.session,
            packet_id=packet.packet_id,
        )


class Network:
    """The routing fabric plus the global trace and observer list."""

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        default_latency: float = 0.010,
        loss_rate: float = 0.0,
        loss_rng: Optional[_random.Random] = None,
    ) -> None:
        """``loss_rate`` (0..1) drops that fraction of packets for
        failure-injection experiments; losses use ``loss_rng`` so runs
        stay reproducible."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.simulator = simulator if simulator is not None else Simulator()
        self.default_latency = default_latency
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng if loss_rng is not None else _random.Random()
        self.packets_dropped = 0
        self.allocator = AddressAllocator()
        self.trace = TrafficTrace()
        self._hosts: Dict[Address, SimHost] = {}
        self._latencies: Dict[frozenset, float] = {}
        self._observers: List[WireObserver] = []
        self._responses: Dict[int, Any] = {}
        # Fast-path caches.  ``_observer_cache`` pre-resolves the
        # observer list per (src-prefix, dst-prefix) pair;
        # ``_latency_cache`` keys the per-pair latency by the ordered
        # address tuple (no frozenset allocation per send).  Both are
        # pure memoizations, invalidated on topology mutation.
        self._observer_cache: Dict[Tuple[str, str], Tuple["WireObserver", ...]] = {}
        self._latency_cache: Dict[Tuple[Address, Address], float] = {}
        self._delivery_pool: List[_Delivery] = []
        #: Deliveries that went through the batched fast pipeline --
        #: every untraced one, fault plan or not; zero in ``full``
        #: mode, under ``REPRO_SLOW_PATH=1`` and for a faulted run in
        #: ``sampled`` mode (asserted by tests/test_drive_fastpath.py).
        self.fast_deliveries = 0
        # Per-network id counters: two identical runs on two Network
        # instances assign identical packet/request ids, which keeps
        # exported traces and provenance records byte-reproducible
        # (a module-global counter would leak state between runs).
        self._packet_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.messages_delivered = 0
        self.bytes_delivered = 0
        # Conservation accounting: at every instant,
        #   packets_sent + packets_duplicated
        #     == messages_delivered + packets_dropped + packets_in_flight
        # (property-tested in tests/test_properties_network.py).
        self.packets_sent = 0
        self.packets_duplicated = 0
        self.packets_in_flight = 0
        #: Optional fault injector (see :mod:`repro.faults.runtime`):
        #: consulted on every send (loss/duplication/reordering/jitter)
        #: and every delivery (crashes, partitions), and told when a
        #: host is added.  ``None`` -- the default -- is a
        #: zero-overhead pass-through.
        self._fault_injector: Optional[Any] = None
        #: When set, ``transact`` raises :class:`TransactTimeout` after
        #: this many simulated seconds without a response instead of
        #: stalling until the queue drains.
        self.transact_timeout: Optional[float] = None
        #: Every delivered packet, in order -- simulation-side ground
        #: truth for adversary evaluations (not adversary-visible; the
        #: adversary gets only the metadata in ``trace``).
        self.delivered: List[Packet] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        entity: Entity,
        prefix: Optional[str] = None,
        identity: Optional[Any] = None,
    ) -> SimHost:
        """Create a host on a (possibly fresh) network prefix."""
        if prefix is None:
            prefix = self.allocator.network_prefix()
        address = self.allocator.allocate(prefix)
        host = SimHost(name, entity, address, self, identity=identity)
        self._hosts[address] = host
        if self._fault_injector is not None:
            self._fault_injector.on_topology_change()
        return host

    def host_at(self, address: Address) -> SimHost:
        try:
            return self._hosts[address]
        except KeyError:
            raise KeyError(f"no host at {address}") from None

    def set_latency(self, a: Address, b: Address, latency: float) -> None:
        """Override the one-way latency between two hosts."""
        self._latencies[frozenset((a, b))] = latency
        self._latency_cache.clear()

    def latency(self, a: Address, b: Address) -> float:
        return self._latencies.get(frozenset((a, b)), self.default_latency)

    def _latency_fast(self, a: Address, b: Address) -> float:
        key = (a, b)
        cached = self._latency_cache.get(key)
        if cached is None:
            cached = self._latencies.get(frozenset(key), self.default_latency)
            self._latency_cache[key] = cached
        return cached

    def add_observer(self, observer: WireObserver) -> None:
        self._observers.append(observer)
        self._observer_cache.clear()

    def _observers_for(
        self, src_prefix: str, dst_prefix: str
    ) -> Tuple[WireObserver, ...]:
        """The observers watching this prefix pair (memoized).

        Exactly the observers for which ``watches(packet)`` is true --
        ``watches`` depends only on the two prefixes.
        """
        key = (src_prefix, dst_prefix)
        observers = self._observer_cache.get(key)
        if observers is None:
            observers = tuple(
                o
                for o in self._observers
                if o.prefixes is None
                or src_prefix in o.prefixes
                or dst_prefix in o.prefixes
            )
            self._observer_cache[key] = observers
        return observers

    def hosts(self) -> List[SimHost]:
        """Every host, in address-allocation order."""
        return list(self._hosts.values())

    def set_fault_injector(self, injector: Any) -> None:
        """Install the (single) fault injector for this network."""
        if self._fault_injector is not None:
            raise RuntimeError("network already has a fault injector")
        self._fault_injector = injector

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def send(
        self,
        src_host: SimHost,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        request_id: Optional[int] = None,
        response_to: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> Packet:
        """Schedule a one-way packet; returns it (already in flight).

        ``flow`` (optional) names a multi-packet interaction so that
        observations from its packets stay linkable at the receiver --
        a TLS session, a cellular attach procedure.
        """
        simulator = self.simulator
        packet = Packet(
            src=src_host.address,
            dst=dst,
            protocol=protocol,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            packet_id=next(self._packet_ids),
            sender_identity=src_host.identity,
            request_id=request_id,
            response_to=response_to,
            sent_at=simulator.now,
            flow=flow,
        )
        self.packets_sent += 1
        if self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
            self._count_dropped()
            return packet  # lost in transit: never delivered
        injector = self._fault_injector
        # Every delivery is traced in ``full`` mode and on the slow
        # reference path; under a fault plan ``sampled`` mode decides
        # per copy at fire time, after the arrival check.
        traced = (
            _obs.ENABLED
            or _fastpath.SLOW_PATH
            or (injector is not None and _obs.TRACING)
        )
        if traced:
            delay = self.latency(src_host.address, dst)
        else:
            delay = self._latency_fast(src_host.address, dst)
        delays = None
        if injector is not None:
            delays = injector.on_send(packet, delay)
            if delays is not None:
                if not delays:
                    self._count_dropped()
                    return packet  # injected loss / crash / partition
                self.packets_duplicated += len(delays) - 1
        if traced:
            # Capture the span active *now* so the delivery -- which
            # fires later, outside any ``with`` block -- still links
            # causally to whatever sent it.
            origin = get_tracer().current_span() if _obs.TRACING else None
            for copy_delay in delays or (delay,):
                self.packets_in_flight += 1
                simulator.schedule(
                    copy_delay, lambda: self._deliver(packet, origin)
                )
            return packet
        sampler = _obs.SAMPLER
        if sampler is not None and sampler.decide("deliver"):
            # Sampled tier (no fault plan), head decision says trace:
            # schedule an explicitly traced delivery.
            origin = get_tracer().current_span()
            self.packets_in_flight += 1
            simulator.schedule(delay, lambda: self._deliver(packet, origin, True))
            return packet
        # One pooled slotted event per copy instead of a closure.
        pool = self._delivery_pool
        for copy_delay in delays or (delay,):
            self.packets_in_flight += 1
            if pool:
                event = pool.pop()
                event.packet = packet
            else:
                event = _Delivery(self, packet)
            simulator.schedule(copy_delay, event)
        return packet

    def _count_dropped(self) -> None:
        self.packets_dropped += 1
        if _obs.ENABLED:
            get_registry().counter("net.packets_dropped").inc()
        elif _obs.COUNTERS:
            _BATCH.dropped += 1

    def _deliver(self, packet: Packet, origin_span=None, traced=None) -> None:
        self.packets_in_flight -= 1
        if self._fault_injector is not None and not self._fault_injector.on_deliver(
            packet
        ):
            # The destination crashed (or the link partitioned) while
            # this packet was on the wire.
            self._count_dropped()
            return
        if traced is None:
            if _obs.ENABLED:
                traced = True
            else:
                sampler = _obs.SAMPLER
                traced = sampler is not None and sampler.decide("deliver")
        if not traced:
            if _obs.COUNTERS:
                now = self.simulator.now
                _BATCH.note_delivery(
                    packet.size,
                    now - packet.sent_at if packet.sent_at is not None else None,
                )
            return self._deliver_inner(packet)
        tracer = get_tracer()
        now = self.simulator.now
        if _obs.ENABLED:
            registry = get_registry()
            registry.counter("net.messages").inc()
            registry.counter("net.bytes").inc(packet.size)
            registry.histogram("net.packet_bytes", SIZE_BUCKETS).observe(
                packet.size
            )
            if packet.sent_at is not None:
                registry.histogram("net.hop_latency", LATENCY_BUCKETS).observe(
                    now - packet.sent_at
                )
        else:
            # Sampled tier: the traced subset still accounts through
            # the batch so metric totals cover *every* delivery.
            _BATCH.note_delivery(
                packet.size,
                now - packet.sent_at if packet.sent_at is not None else None,
            )
        # A delivery whose origin lies outside the network layer (a
        # one-way ``send`` from protocol or scenario code) gets a
        # synthetic ``transact`` wrapper so every delivery span sits
        # under a transact ancestor, mirroring the request/response
        # case.  Deliveries caused by other network activity (mix
        # forwarding, responses) parent to the originating span.
        parent = origin_span
        wrapper = None
        if parent is None or getattr(parent, "kind", "") != "net":
            wrapper = tracer.span(
                "transact",
                kind="net",
                sim_time=packet.sent_at if packet.sent_at is not None else now,
                parent=parent,
                protocol=packet.protocol,
                one_way=True,
            )
            wrapper.__enter__()
            parent = wrapper
        span = tracer.span(
            "deliver",
            kind="net",
            sim_time=packet.sent_at if packet.sent_at is not None else now,
            parent=parent,
            src=str(packet.src),
            dst=str(packet.dst),
            protocol=packet.protocol,
            bytes=packet.size,
            packet_id=packet.packet_id,
        )
        try:
            with span:
                self._deliver_inner(packet)
                span.end_sim(self.simulator.now)
        finally:
            if wrapper is not None:
                wrapper.end_sim(self.simulator.now)
                wrapper.__exit__(None, None, None)

    def _deliver_fast(self, packet: Packet) -> None:
        """The batched delivery pipeline.

        Taken for every untraced delivery: full observability off (the
        ``off`` / ``counters`` tiers, and the unsampled remainder of
        ``sampled`` when no fault plan is installed) and
        ``REPRO_SLOW_PATH`` unset.  A fault injector's ``on_deliver``
        check has already passed (``_Delivery.__call__``).
        Semantically identical to ``_deliver`` + ``_deliver_inner``
        under those preconditions (the differential goldens in
        tests/test_drive_fastpath.py and tests/test_fault_goldens.py
        pin byte-identical artifacts).  Differences are purely mechanical: one merged
        frame, memoized observer lists, batched ledger appends via
        ``Entity.observe``'s fast route, and -- in the batched obs
        tiers -- one slotted accumulator update instead of per-value
        registry writes.
        """
        self.packets_in_flight -= 1
        self.fast_deliveries += 1
        now = self.simulator.now
        if _obs.COUNTERS:
            # ``counters`` / ``sampled`` tiers: stay on the fast path,
            # fold the delivery into the slotted batch accumulator.
            _BATCH.note_delivery(
                packet.size,
                now - packet.sent_at if packet.sent_at is not None else None,
            )
        self.trace.record(
            PacketRecord(
                time=now,
                src=packet.src,
                dst=packet.dst,
                size=packet.size,
                protocol=packet.protocol,
                packet_id=packet.packet_id,
            )
        )
        observers = self._observers_for(packet.src.prefix, packet.dst.prefix)
        if observers:
            for observer in observers:
                observer.notice(packet, now)
        host = self._hosts.get(packet.dst)
        if host is None:
            self.host_at(packet.dst)  # raises the canonical KeyError
        session = packet.session
        packet_id = packet.packet_id
        entity = host.entity
        if packet.sender_identity is not None:
            entity.observe(
                packet.sender_identity,
                time=now,
                channel="network-header",
                session=session,
                packet_id=packet_id,
            )
        entity.observe(
            packet.payload,
            time=now,
            channel=packet.protocol,
            session=session,
            packet_id=packet_id,
        )
        self.messages_delivered += 1
        self.bytes_delivered += packet.size
        self.delivered.append(packet)

        if packet.response_to is not None:
            self._responses[packet.response_to] = packet.payload
            return
        handler = host._handlers.get(packet.protocol)
        if handler is None:
            raise KeyError(
                f"host {host.name} has no handler for {packet.protocol!r}"
            )
        result = handler(packet)
        if result is not None and packet.request_id is not None:
            self.send(
                host,
                packet.src,
                result,
                packet.protocol,
                response_to=packet.request_id,
                flow=packet.flow,
            )

    def _deliver_inner(self, packet: Packet) -> None:
        now = self.simulator.now
        self.trace.record(
            PacketRecord(
                time=now,
                src=packet.src,
                dst=packet.dst,
                size=packet.size,
                protocol=packet.protocol,
                packet_id=packet.packet_id,
            )
        )
        for observer in self._observers:
            if observer.watches(packet):
                observer.notice(packet, now)
        host = self.host_at(packet.dst)
        if packet.sender_identity is not None:
            host.entity.observe(
                packet.sender_identity,
                time=now,
                channel="network-header",
                session=packet.session,
                packet_id=packet.packet_id,
            )
        host.entity.observe(
            packet.payload,
            time=now,
            channel=packet.protocol,
            session=packet.session,
            packet_id=packet.packet_id,
        )
        self.messages_delivered += 1
        self.bytes_delivered += packet.size
        self.delivered.append(packet)

        if packet.is_response:
            self._responses[packet.response_to] = packet.payload
            return
        handler = host.handler_for(packet.protocol)
        if handler is None:
            raise KeyError(
                f"host {host.name} has no handler for {packet.protocol!r}"
            )
        result = handler(packet)
        if result is not None and packet.request_id is not None:
            self.send(
                host,
                packet.src,
                result,
                packet.protocol,
                response_to=packet.request_id,
                flow=packet.flow,
            )

    def transact(
        self,
        src_host: SimHost,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Send a request and pump the simulation until its response.

        Nested calls from inside handlers are fine (the simulator's
        ``run_until`` is re-entrant), so a resolver may ``transact``
        upstream while serving a client's ``transact``.

        ``timeout`` (or, when ``None``, the network-wide
        ``transact_timeout``) bounds the wait in simulated seconds;
        expiry raises :class:`TransactTimeout`.  With no timeout a
        lost request stalls until the queue drains, which raises the
        simulator's generic idle error.
        """
        request_id = next(self._request_ids)
        effective = timeout if timeout is not None else self.transact_timeout
        simulator = self.simulator
        responses = self._responses
        # The span is hoisted behind the obs gates: with tracing off
        # (or this transact unsampled) the shared NOOP_SPAN stands in,
        # so the hot path pays two module-attribute reads -- no tracer
        # fetch, no kwargs dict, no ``str()`` of either address.
        if _obs.ENABLED or (
            _obs.SAMPLER is not None and _obs.SAMPLER.decide("transact")
        ):
            span = get_tracer().span(
                "transact",
                kind="net",
                sim_time=simulator.now,
                src=str(src_host.address),
                dst=str(dst),
                protocol=protocol,
            )
        else:
            span = NOOP_SPAN
        with span:
            self.send(
                src_host,
                dst,
                payload,
                protocol,
                size=size,
                request_id=request_id,
                flow=flow,
            )
            if effective is None:
                simulator.run_until(lambda: request_id in responses)
            else:
                deadline = simulator.now + effective
                # The deadline marker keeps the queue non-empty up to
                # the deadline, so ``run_until`` times out instead of
                # raising its generic idle error.  It is canceled on
                # the success path so completed transacts leave no
                # dead heap entries behind.
                marker = simulator.marker_at(deadline)
                simulator.run_until(
                    lambda: request_id in responses
                    or simulator.now >= deadline
                )
                if request_id not in responses:
                    span.end_sim(simulator.now)
                    raise TransactTimeout(
                        f"no response to {protocol!r} request from {dst}"
                        f" within {effective:g}s"
                    )
                simulator.cancel(marker)
            span.end_sim(simulator.now)
            return responses.pop(request_id)

    def run(self) -> int:
        """Pump until idle (for one-way protocols such as mixing)."""
        return self.simulator.run_until_idle()
