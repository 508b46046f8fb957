"""The drive-phase fast-path switch.

The simulation hot path (``Network.send`` -> ``Simulator`` ->
``Network._deliver_fast`` -> ``Entity.observe`` ->
``Ledger.record_fast``) has two implementations:

* the **fast path** -- slotted event records, pre-resolved observer
  lists, memoized ``estimate_size``/``digest`` caches, and batched
  ledger appends -- taken whenever full-fidelity observability is off,
  fault plan or not (a fault injector's send- and arrival-time checks
  run inside it); and
* the **slow path** -- the original per-packet pipeline (per-event
  lambda closures, uncached size/digest computation, one ledger append
  and version bump per observation), preserved verbatim as the
  reference for differential testing and as the denominator of the
  drive-phase benchmarks (``benchmarks/bench_drive.py``).

Both paths produce **byte-identical** exported artifacts (``repro demo
--json``, ``tables``, ``trace``); ``tests/test_drive_fastpath.py``
proves it for every registered scenario.

Observability composes with the fast path by tier (see
``repro.obs.runtime``): only ``full`` mode -- the one that must see
every delivery as a span -- forces the slow path.  ``counters`` and
``sampled`` keep slotted delivery and fold their metrics through the
``MetricsBatch`` accumulator; in ``sampled`` mode only the seeded
sampler's chosen packets detour through the traced pipeline while the
rest stay fast.  The one exception is a faulted run in ``sampled``
mode: there the sampler decides per copy at arrival, after the fault
check, so every copy takes the traced route.

Set ``REPRO_SLOW_PATH=1`` in the environment (read once at import), or
call :func:`set_slow_path` from tests, to force the slow path
process-wide.  This module is dependency-free on purpose: both
``repro.net`` and ``repro.core`` consult it from their hot loops.
"""

from __future__ import annotations

import os

__all__ = ["SLOW_PATH", "set_slow_path", "slow_path_enabled"]

#: The global gate.  ``True`` forces the original per-packet pipeline.
SLOW_PATH: bool = os.environ.get("REPRO_SLOW_PATH", "") == "1"


def set_slow_path(enabled: bool) -> None:
    """Force (or release) the slow reference path, process-wide."""
    global SLOW_PATH
    SLOW_PATH = bool(enabled)


def slow_path_enabled() -> bool:
    return SLOW_PATH
