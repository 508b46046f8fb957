"""Outside-in layer tracing: timing wrappers around public functions.

Nothing in ``src/`` is edited.  :class:`Tracer.install` replaces each
target with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts every original object back:

* a method is patched on the class that defines it (so every instance
  and every later-bound method sees the wrapper);
* a free function is rebound in *every* loaded ``repro`` module that
  holds it, because callers import functions by name
  (``from repro.crypto.hpke import setup_base_sender``).

Spans stay in memory as tuples and are written as JSONL only when the
run ends.  A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


def _record_fast_rows(args, kwargs, result) -> int:
    return len(kwargs["values"] if "values" in kwargs else args[3])


def _spill_bytes(args, kwargs, result) -> int:
    segment = args[0]
    return os.path.getsize(segment.spill_path) if result else 0


def _collected(args, kwargs, result) -> int:
    return len(result)


#: (span name, "module:Class.attr" or "module:function", counter)
#: ``counter(args, kwargs, result)`` adds to ``Tracer.counts[name]``.
#: A span name of ``None`` names the span after the call's phase
#: argument (``ScenarioProgram.run_phase``).
TARGETS: Tuple[Tuple[Optional[str], str, Optional[Callable]], ...] = (
    (None, "repro.scenario.runtime:ScenarioProgram.run_phase", None),
    ("values.collect", "repro.core.values:collect_values", _collected),
    ("entities.observe", "repro.core.entities:Entity.observe", None),
    ("ledger.record_fast", "repro.core.ledger:Ledger.record_fast", _record_fast_rows),
    ("analysis.seal_catchup", "repro.core.ledger:Ledger.seal_active_segment", None),
    ("segments.seal", "repro.core.segments:LedgerSegment.seal", None),
    ("segments.spill", "repro.core.segments:LedgerSegment.spill", _spill_bytes),
    ("segments.load", "repro.core.segments:LedgerSegment.load", None),
    ("analysis.table", "repro.core.analysis:DecouplingAnalyzer.table", None),
    ("analysis.verdict", "repro.core.analysis:DecouplingAnalyzer.verdict", None),
    ("analysis.coalitions",
     "repro.core.analysis:DecouplingAnalyzer.minimal_recoupling_coalitions", None),
    ("analysis.breach", "repro.core.analysis:DecouplingAnalyzer.breach_reports", None),
    ("analysis.collusion",
     "repro.core.analysis:DecouplingAnalyzer.collusion_resistance", None),
    ("risk.score", "repro.risk.score:score_run", None),
    ("crypto.x25519", "repro.crypto.x25519:x25519", None),
    ("crypto.hpke", "repro.crypto.hpke:setup_base_sender", None),
    ("crypto.hpke", "repro.crypto.hpke:setup_base_recipient", None),
    ("crypto.hpke", "repro.crypto.hpke:seal", None),
    ("crypto.hpke", "repro.crypto.hpke:open_sealed", None),
    ("crypto.hpke", "repro.crypto.hpke:HpkeSenderContext.seal", None),
    ("crypto.hpke", "repro.crypto.hpke:HpkeRecipientContext.open", None),
    ("crypto.aead", "repro.crypto.chacha20poly1305:ChaCha20Poly1305.seal", None),
    ("crypto.aead", "repro.crypto.chacha20poly1305:ChaCha20Poly1305.open", None),
    ("crypto.group_exp", "repro.crypto.group:SchnorrGroup.exp", None),
    ("crypto.group_exp", "repro.crypto.group:SchnorrGroup.exp_gen", None),
    ("crypto.voprf", "repro.crypto.voprf:VoprfServer.evaluate", None),
    ("crypto.voprf", "repro.crypto.voprf:VoprfServer.evaluate_unblinded", None),
    ("crypto.voprf", "repro.crypto.voprf:verify_dleq", None),
    ("crypto.voprf", "repro.crypto.voprf:voprf_blind", None),
    ("crypto.voprf", "repro.crypto.voprf:voprf_finalize", None),
    ("crypto.rsa", "repro.crypto.blind:blind", None),
    ("crypto.rsa", "repro.crypto.blind:unblind", None),
    ("crypto.rsa", "repro.crypto.blind:sign_blinded", None),
    ("crypto.rsa", "repro.crypto.rsa:RsaPrivateKey.raw_sign_value", None),
    ("crypto.rsa", "repro.crypto.rsa:RsaPrivateKey.sign", None),
    ("crypto.rsa", "repro.crypto.rsa:RsaPublicKey.raw_verify_value", None),
    ("crypto.rsa", "repro.crypto.rsa:RsaPublicKey.verify", None),
    ("crypto.rsa", "repro.crypto.rsa:generate_rsa_keypair", None),
    ("crypto.secretshare", "repro.crypto.secretshare:share_additive", None),
    ("crypto.secretshare", "repro.crypto.secretshare:reconstruct_additive", None),
    ("crypto.secretshare", "repro.crypto.secretshare:share_counter", None),
    ("crypto.secretshare", "repro.crypto.secretshare:combine_shares", None),
    ("crypto.secretshare", "repro.crypto.secretshare:shamir_share", None),
    ("crypto.secretshare", "repro.crypto.secretshare:shamir_reconstruct", None),
    ("crypto.secretshare", "repro.crypto.secretshare:make_boolean_proof", None),
    ("crypto.secretshare", "repro.crypto.secretshare:make_histogram_proof", None),
    ("crypto.secretshare", "repro.crypto.secretshare:check_boolean_shares", None),
    ("crypto.secretshare", "repro.crypto.secretshare:check_histogram_shares", None),
)

#: A span as stored: (name, start_ns, end_ns, self_ns, parent, ok),
#: ``parent`` being the index of the enclosing span or -1.
Span = Tuple[str, int, int, int, int, bool]


def _resolve(locator: str) -> Tuple[Any, str, Any]:
    """``module:Class.attr`` -> (class, attr, function) or, for a free
    function, (module, name, function)."""
    module_name, _, path = locator.partition(":")
    owner: Any = importlib.import_module(module_name)
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"trace target {locator} is not a plain function")
    return owner, attr, original


class Tracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[List[int]] = []  # [span index, child ns]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------

    def _wrap(self, name: Optional[str], fn: Callable, counter: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_name = name if name is not None else f"scenario.{args[1]}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (span_name, start, end, duration - frame[1], parent, ok)
            if counter is not None:
                counts[span_name] = counts.get(span_name, 0) + counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__perfbench_trace__ = True
        return traced

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans.clear()
        self.counts.clear()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, locator, counter in TARGETS:
                owner, attr, original = _resolve(locator)
                wrapper = self._wrap(name, original, counter)
                if inspect.isclass(owner):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in _repro_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute and check that none leaked."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leaks = find_leaks()
        if leaks:
            raise RuntimeError(f"trace wrappers still installed: {leaks}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, self_ns, parent, ok) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "self_ns": self_ns, "parent": parent, "ok": ok,
                }))
                handle.write("\n")


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def find_leaks() -> List[str]:
    """Every trace wrapper reachable from a loaded ``repro`` module."""
    leaks = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if getattr(value, "__perfbench_trace__", False):
                leaks.append(f"{module.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "__perfbench_trace__", False):
                        leaks.append(f"{module.__name__}.{key}.{attr}")
    return leaks


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, int]]:
    """Per span name: calls, failures, total and self nanoseconds."""
    table: Dict[str, Dict[str, int]] = {}
    for name, start, end, self_ns, _parent, ok in spans:
        row = table.setdefault(name, {"calls": 0, "failures": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["failures"] += 0 if ok else 1
        row["total_ns"] += end - start
        row["self_ns"] += self_ns
    return table


def root_ns(spans: List[Span]) -> int:
    """Time covered by top-level spans."""
    return sum(end - start for _n, start, end, _s, parent, _ok in spans if parent < 0)
