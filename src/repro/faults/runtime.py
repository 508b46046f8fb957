"""The fault runtime: compiling a plan into simulator behaviour.

:class:`FaultRuntime` sits between a :class:`~repro.faults.plan.FaultPlan`
and a live :class:`~repro.net.network.Network`.  Installation registers
the runtime as the network's fault injector (consulted on every send
and every delivery), schedules crash events, arms the network's
``transact`` timeout when the plan can actually make a request go
unanswered, and promotes curious relays to wire observers.  The glob
matching is done once per link, not per packet: the first packet on a
``src -> dst`` address pair compiles its host names, combined link
impairment and severing partitions, and adding a host clears the
compiled links.

The runtime also implements the *protocol-level* half of resilience:
:meth:`attempt` wraps one synchronous operation in the policy's
timeout/retry/backoff loop, running an explicit fallback -- the
re-coupling path the paper never models -- once retries are
exhausted.  :class:`FaultPlanHook` is the scenario-runtime adapter: a
:data:`~repro.scenario.runtime.PhaseHook` that installs the runtime
after ``build`` (hosts exist, no traffic yet), which is how
``run_scenario(..., faults=plan)`` reaches all 21 registered specs
without touching their code.

Determinism: one ``random.Random(plan.seed)`` drives every draw, and
draws happen in packet-send order, so identical plans reproduce
identical runs byte-for-byte.  Compiling links changes no draw: a
packet draws exactly what the per-packet evaluation drew
(``tests/test_fault_link_cache.py`` checks this against that
evaluation, kept there as the oracle).
"""

from __future__ import annotations

import random
from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.addressing import Address
from repro.net.network import Network, SimHost, TransactTimeout, WireObserver
from repro.net.packets import Packet
from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry
from repro.obs.tracing import NOOP_SPAN, get_tracer

from .plan import FaultPlan, Partition
from .policy import FaultStats, ResiliencePolicy

__all__ = ["FaultRuntime", "FaultPlanHook"]

#: How far past its nominal latency a reordered packet is pushed, as a
#: multiple of that latency -- enough to land behind the next couple
#: of sends on the same link.
_REORDER_PENALTY = 2.5

#: Where a duplicated copy lands relative to the original, as a
#: multiple of the link latency.
_DUPLICATE_LAG = 0.5

#: One compiled link: source and destination host names, the combined
#: ``(loss, duplicate, reorder, jitter)`` of the matching link faults
#: (``None`` when none matches), and the partitions that sever it.
_Link = Tuple[
    str, str, Optional[Tuple[float, float, float, float]], Tuple[Partition, ...]
]


class FaultRuntime:
    """One plan, one network, one seeded stream of failures."""

    def __init__(
        self,
        plan: FaultPlan,
        network: Network,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.plan = plan
        self.network = network
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._down: Dict[str, float] = {}  # host name -> crash time
        #: (src address, dst address) -> what :meth:`_link` compiled.
        self._links: Dict[Tuple[str, str], _Link] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Arm the network.  Call once, after hosts exist."""
        if self._installed:
            raise RuntimeError("fault runtime already installed")
        self._installed = True
        self.network.set_fault_injector(self)
        if self.plan.can_drop():
            # Only a plan that can lose a request needs the transact
            # timeout; arming it unconditionally would add deadline
            # events (and change event counts) for purely-curious
            # plans that must not perturb delivery at all.
            self.network.transact_timeout = self.policy.timeout
        for crash in self.plan.crashes:
            self._schedule_crash(crash.host, crash.at)
        for pattern in self.plan.curious:
            self._promote_curious(pattern)

    def _schedule_crash(self, pattern: str, at: float) -> None:
        simulator = self.network.simulator

        def fire() -> None:
            for host in self._hosts_matching(pattern):
                if host.name not in self._down:
                    self._down[host.name] = simulator.now
                    self.stats.crashes += 1
                    if _obs.COUNTERS:
                        get_registry().counter("faults.host_crashes").inc()

        if at <= simulator.now:
            fire()
        else:
            simulator.at(at, fire)

    def _promote_curious(self, pattern: str) -> None:
        for host in self._hosts_matching(pattern):
            observer = WireObserver(host.entity, prefixes=(host.address.prefix,))
            self.network.add_observer(observer)
            self.stats.curious_taps += 1
            if _obs.COUNTERS:
                get_registry().counter("faults.curious_taps").inc()

    def _hosts_matching(self, pattern: str) -> List[SimHost]:
        return [
            host
            for host in self.network.hosts()
            if fnmatchcase(host.name, pattern)
        ]

    # ------------------------------------------------------------------
    # Injector interface (called by Network)
    # ------------------------------------------------------------------

    def _link(self, src: Address, dst: Address) -> _Link:
        """Compile (and cache) the plan's decisions for ``src -> dst``.

        An address with no host goes by its dotted-quad string; each
        impairment rate is the max over the matching link faults.  Per
        packet only the crash set and the severing partitions'
        ``active(now)`` are left to test.
        """
        hosts = self.network._hosts
        src_host = hosts.get(src)
        dst_host = hosts.get(dst)
        src_name = src_host.name if src_host is not None else str(src)
        dst_name = dst_host.name if dst_host is not None else str(dst)
        impairment = None
        for fault in self.plan.links:
            if fault.matches(src_name, dst_name):
                if impairment is None:
                    impairment = (0.0, 0.0, 0.0, 0.0)
                loss, duplicate, reorder, jitter = impairment
                impairment = (
                    max(loss, fault.loss),
                    max(duplicate, fault.duplicate),
                    max(reorder, fault.reorder),
                    max(jitter, fault.jitter),
                )
        severing = tuple(
            part
            for part in self.plan.partitions
            if part.severs(src_name, dst_name)
        )
        link = (src_name, dst_name, impairment, severing)
        self._links[(src.value, dst.value)] = link
        return link

    def on_topology_change(self) -> None:
        """A host was added: names (and so every compiled link) may change."""
        self._links.clear()

    def _severed(self, severing: Tuple[Partition, ...]) -> bool:
        now = self.network.simulator.now
        for part in severing:
            if part.active(now):
                return True
        return False

    def on_send(self, packet: Packet, delay: float) -> Optional[List[float]]:
        """Impair one outgoing packet.

        Returns ``None`` to leave the packet untouched, ``[]`` to drop
        it, or a list of delivery delays (one per copy -- length two
        means a duplicate).  The draws -- loss, jitter, reorder,
        duplicate, each only when its rate is non-zero -- come from the
        plan's one RNG in that order, packet by packet.
        """
        src = packet.src
        dst = packet.dst
        link = self._links.get((src.value, dst.value))
        if link is None:
            link = self._link(src, dst)
        src_name, dst_name, impairment, severing = link
        down = self._down
        if down and (src_name in down or dst_name in down):
            self.stats.crash_drops += 1
            self._count_drop("crash")
            return []
        if severing and self._severed(severing):
            self.stats.partition_drops += 1
            self._count_drop("partition")
            return []
        if impairment is None:
            return None
        loss, duplicate, reorder, jitter = impairment
        rng = self.rng
        if loss > 0.0 and rng.random() < loss:
            self.stats.loss_drops += 1
            self._count_drop("loss")
            return []
        impaired = delay
        if jitter > 0.0:
            impaired += rng.uniform(0.0, jitter)
            self.stats.jittered += 1
        if reorder > 0.0 and rng.random() < reorder:
            impaired += delay * _REORDER_PENALTY
            self.stats.reordered += 1
        delays = [impaired]
        if duplicate > 0.0 and rng.random() < duplicate:
            delays.append(impaired + delay * _DUPLICATE_LAG)
            self.stats.duplicates += 1
            if _obs.COUNTERS:
                get_registry().counter("faults.duplicates").inc()
        return delays

    def on_deliver(self, packet: Packet) -> bool:
        """Last-instant check: may this in-flight packet arrive?

        Catches packets that were legal when sent but whose
        destination crashed -- or whose link partitioned -- while they
        were on the wire.
        """
        src = packet.src
        dst = packet.dst
        link = self._links.get((src.value, dst.value))
        if link is None:
            link = self._link(src, dst)
        _, dst_name, _, severing = link
        if self._down and dst_name in self._down:
            self.stats.crash_drops += 1
            self._count_drop("crash")
            return False
        if severing and self._severed(severing):
            self.stats.partition_drops += 1
            self._count_drop("partition")
            return False
        return True

    def _count_drop(self, cause: str) -> None:
        if _obs.COUNTERS:
            get_registry().counter(f"faults.drops.{cause}").inc()

    # ------------------------------------------------------------------
    # Protocol-level resilience
    # ------------------------------------------------------------------

    def attempt(
        self,
        op: Callable[[], Any],
        fallback: Optional[Callable[[], Any]] = None,
        label: str = "",
    ) -> Any:
        """Run ``op`` under the policy's timeout/retry/backoff loop.

        After retries are exhausted, run ``fallback`` (if any) -- and
        record that the run left its decoupled path, because the
        fallback is exactly where re-coupling happens.  Returns the
        operation's (or fallback's) result, or ``None`` when every
        avenue failed.
        """
        policy = self.policy
        simulator = self.network.simulator
        self.stats.attempts += 1
        for attempt_no in range(policy.retries + 1):
            if attempt_no > 0:
                self.stats.retries += 1
                self._sleep(policy.backoff_before_retry(attempt_no))
            try:
                result = op()
            except TransactTimeout:
                self.stats.timeouts += 1
                if _obs.COUNTERS:
                    get_registry().counter("faults.timeouts").inc()
                continue
            self.stats.successes += 1
            return result
        if fallback is not None:
            self.stats.fallbacks += 1
            self.stats.fallback_labels.append(label or "fallback")
            if _obs.COUNTERS:
                get_registry().counter("faults.fallbacks").inc()
            # Hoisted behind the tracing gate: with spans off this
            # skips the tracer fetch and the kwargs construction, not
            # just the span record.
            if _obs.TRACING:
                span = get_tracer().span(
                    "fallback",
                    kind="faults",
                    sim_time=simulator.now,
                    label=label or "fallback",
                )
            else:
                span = NOOP_SPAN
            try:
                with span:
                    result = fallback()
                    span.end_sim(simulator.now)
                self.stats.successes += 1
                return result
            except TransactTimeout:
                self.stats.timeouts += 1
        self.stats.failures += 1
        if _obs.COUNTERS:
            get_registry().counter("faults.failures").inc()
        return None

    def _sleep(self, duration: float) -> None:
        """Let ``duration`` of simulated time pass, pumping the queue.

        Not ``Simulator.advance``: delayed or duplicated packets may
        still be in flight, and jumping the clock past their events
        would corrupt the timeline.
        """
        if duration <= 0.0:
            return
        simulator = self.network.simulator
        deadline = simulator.now + duration
        simulator.at(deadline, lambda: None)
        simulator.run_until(lambda: simulator.now >= deadline)

    def guard_phase(self, phase: str, fn: Callable[[], Any]) -> Any:
        """Run one lifecycle phase, absorbing fault-induced timeouts.

        A faulted run must still reach ``analyze`` -- a half-driven
        world with a recorded error is the datum, not a crash.  Only
        ``drive``/``settle`` are guarded, and only against
        :class:`TransactTimeout` (a request the plan left unanswered
        past the policy's retries); any other exception is a
        programming error and propagates.
        """
        try:
            return fn()
        except TransactTimeout as error:
            self.stats.phase_errors.append(
                f"{phase}: {type(error).__name__}: {error}"
            )
            if _obs.COUNTERS:
                get_registry().counter("faults.phase_errors").inc()
            return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The ``faults`` section attached to the finished run."""
        network = self.network
        return {
            "plan": self.plan.to_dict(),
            "policy": {
                "timeout": self.policy.timeout,
                "retries": self.policy.retries,
                "backoff": self.policy.backoff,
                "backoff_factor": self.policy.backoff_factor,
            },
            "stats": self.stats.to_dict(),
            "network": {
                "packets_sent": network.packets_sent,
                "packets_delivered": network.messages_delivered,
                "packets_dropped": network.packets_dropped,
                "packets_duplicated": network.packets_duplicated,
                "packets_in_flight": network.packets_in_flight,
            },
        }


class FaultPlanHook:
    """A :data:`~repro.scenario.runtime.PhaseHook` installing a plan.

    Attaches a :class:`FaultRuntime` to the program right before
    ``drive`` -- after ``build`` created every host, before any
    traffic -- and stores it as ``program.fault_runtime`` so
    :meth:`ScenarioProgram.attempt` and the phase guards engage.
    """

    def __init__(
        self, plan: FaultPlan, policy: Optional[ResiliencePolicy] = None
    ) -> None:
        self.plan = plan
        self.policy = policy

    def __call__(self, event: str, phase: str, program: Any) -> None:
        if event == "before" and phase == "drive":
            policy = self.policy
            if policy is None:
                policy = getattr(program, "resilience", None)
            runtime = FaultRuntime(self.plan, program.network, policy=policy)
            runtime.install()
            program.fault_runtime = runtime
