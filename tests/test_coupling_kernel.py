"""The coupling kernel against its reference oracle, at scale and exactly.

``_observations_couple`` links observations through their value digest
and session nodes only.  The oracle below is the original kernel: one
union-find node per observation, joined to its session and its digest,
with a recursive ``find`` and unranked unions.  Both must agree on every
pool; the oracle just cannot run on deep pools.
"""

import hashlib
import json
import sys
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.risk
from repro.core.analysis import DecouplingAnalyzer, _observations_couple
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.ledger import Ledger, Observation
from repro.core.values import LabeledValue, ShareInfo, Subject
from repro.obs.provenance import _find_witness, _observation_node
from repro.scenario import run_scenario

ALICE = Subject("alice")


# ----------------------------------------------------------------------
# The reference oracle: the per-observation-token kernel
# ----------------------------------------------------------------------


class _RecursiveDisjointSet:
    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def find(self, token: object) -> object:
        parent = self._parent.setdefault(token, token)
        if parent == token:
            return token
        root = self.find(parent)
        self._parent[token] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def _oracle_components(
    observations: List[Observation],
) -> Tuple[List[object], List[Tuple[str, int]]]:
    """Each observation's root, and (group, first position) per complete group."""
    dsu = _RecursiveDisjointSet()
    share_indices: Dict[str, Set[int]] = {}
    share_totals: Dict[str, int] = {}
    share_positions: Dict[str, List[int]] = {}
    for index, obs in enumerate(observations):
        token = ("obs", index)
        if obs.session:
            dsu.union(token, ("session", obs.session))
        dsu.union(token, ("digest", obs.value_digest))
        if obs.share_info is not None:
            group = obs.share_info.group
            share_indices.setdefault(group, set()).add(obs.share_info.index)
            share_totals[group] = obs.share_info.total
            share_positions.setdefault(group, []).append(index)
    reconstructed: List[Tuple[str, int]] = []
    for group, indices in share_indices.items():
        if len(indices) >= share_totals[group]:
            first, *others = share_positions[group]
            for other in others:
                dsu.union(("obs", first), ("obs", other))
            reconstructed.append((group, first))
    roots = [dsu.find(("obs", index)) for index in range(len(observations))]
    return roots, reconstructed


def oracle_couples(observations: List[Observation]) -> bool:
    if not observations:
        return False
    roots, reconstructed = _oracle_components(observations)
    identity_roots = {
        root
        for root, obs in zip(roots, observations)
        if obs.label.is_identity and obs.label.is_sensitive
    }
    data_roots = {
        root
        for root, obs in zip(roots, observations)
        if obs.label.is_data and obs.label.is_sensitive
    }
    data_roots |= {roots[first] for _, first in reconstructed}
    return bool(identity_roots & data_roots)


def oracle_witness(observations: List[Observation]) -> Optional[Tuple[int, int, str]]:
    """The original witness search: earliest identity, then earliest data."""
    if not observations:
        return None
    roots, reconstructed = _oracle_components(observations)

    def earliest(position: int) -> Tuple[float, int]:
        return observations[position].time, position

    def positions(kind: str) -> List[int]:
        return sorted(
            (
                i
                for i, obs in enumerate(observations)
                if obs.label.kind.value == kind and obs.label.is_sensitive
            ),
            key=earliest,
        )

    for identity in positions("identity"):
        for data in positions("data"):
            if roots[data] != roots[identity]:
                continue
            a, b = observations[identity], observations[data]
            if a.session and a.session == b.session:
                link = f"shared session {a.session!r}"
            elif a.value_digest == b.value_digest:
                link = "the same value seen in both observations"
            else:
                link = "transitive linkage through further observations"
            return identity, data, link
        for group, first in reconstructed:
            if roots[first] == roots[identity]:
                return (
                    identity,
                    first,
                    f"reconstruction of all secret shares of group {group!r}",
                )
    return None


# ----------------------------------------------------------------------
# Random pools: shared and missing sessions, shared digests, share groups
# ----------------------------------------------------------------------

_LABELS = (SENSITIVE_IDENTITY, NONSENSITIVE_IDENTITY, SENSITIVE_DATA, NONSENSITIVE_DATA)

# Small groups, so that complete ones (every index present) are common.
_share = st.none() | st.builds(
    ShareInfo,
    group=st.sampled_from(("g0", "g1")),
    index=st.integers(0, 2),
    total=st.integers(1, 3),
)

_row = st.tuples(
    st.sampled_from(_LABELS),
    st.sampled_from(("d0", "d1", "d2", "d3", "d4", "d5")),
    st.sampled_from(("", "", "s0", "s1", "s2", "s3")),
    _share,
    st.integers(0, 5),
)


def _pool(rows) -> List[Observation]:
    return [
        Observation(
            entity="E",
            organization="O",
            subject=ALICE,
            label=label,
            value_digest=digest,
            description="",
            time=float(time),
            channel="message",
            session=session,
            share_info=share,
        )
        for label, digest, session, share, time in rows
    ]


@settings(max_examples=200)
@given(st.lists(_row, max_size=24))
def test_kernel_matches_oracle(rows):
    pool = _pool(rows)
    assert _observations_couple(pool) == oracle_couples(pool)


@settings(max_examples=200)
@given(st.lists(_row, max_size=24))
def test_breach_witness_matches_oracle(rows):
    pool = _pool(rows)
    nodes = [_observation_node(index, obs) for index, obs in enumerate(pool)]
    witness = _find_witness(nodes)
    expected = oracle_witness(pool)
    assert (witness is not None) == oracle_couples(pool)
    if expected is None:
        assert witness is None
    else:
        identity, data, link = witness
        assert (identity["index"], data["index"], link) == expected


# ----------------------------------------------------------------------
# Deep pools: no recursion limit
# ----------------------------------------------------------------------


def _mpr_shaped_world(rows: int) -> World:
    """One subject, two relays: relay 1 sees the client address in every
    session, relay 2 the requests; a per-request connection id joins
    each pair of sessions, so the pooled component spans every row."""
    world = World()
    world.entity("User", "device", trusted_by_user=True)
    world.entity("Relay 1", "relay-1")
    world.entity("Relay 2", "relay-2")
    ledger = world.ledger
    address = LabeledValue("203.0.113.7", SENSITIVE_IDENTITY, ALICE, "client address")
    for i in range(rows // 4):
        conn = LabeledValue(f"conn-{i}", NONSENSITIVE_IDENTITY, ALICE, "connection id")
        request = LabeledValue(f"GET /{i}", SENSITIVE_DATA, ALICE, "request")
        ledger.record_fast(
            "Relay 1", "relay-1", [address, conn], time=float(i), session=f"r1:{i}"
        )
        ledger.record_fast(
            "Relay 2", "relay-2", [conn, request], time=float(i), session=f"r2:{i}"
        )
    return world


@pytest.fixture(scope="module")
def deep_world():
    return _mpr_shaped_world(100_000)


def test_oracle_recursion_is_the_defect(deep_world):
    # The pool really is deep enough to break a recursive find.
    with pytest.raises(RecursionError):
        oracle_couples(list(deep_world.ledger))


def test_deep_pool_completes_under_default_recursion_limit(deep_world):
    assert sys.getrecursionlimit() <= 1000
    assert len(deep_world.ledger) == 100_000
    assert _observations_couple(deep_world.ledger.observations)
    analyzer = DecouplingAnalyzer(deep_world)
    assert analyzer.minimal_recoupling_coalitions() == (
        frozenset({"relay-1", "relay-2"}),
    )
    assert all(report.breach_proof for report in analyzer.breach_reports())
    report = repro.risk.score_run(world=deep_world, analyzer=analyzer)
    assert report.collusion_resistance == 2
    assert report.decoupled


# ----------------------------------------------------------------------
# Risk scoring: one ledger pass, float-exact output
# ----------------------------------------------------------------------

#: sha256 of ``score_run(mixnet senders=400)`` serialized with
#: ``json.dumps(sort_keys=True)``, pinned before the population terms,
#: per-subject sensitivities and coalition summaries were hoisted out
#: of the per-pair loops.
MIXNET_400_DIGESTS = {
    False: "9112edd6643f66aee4ff4c7e8dd0c9ee62175e8bca020133b280a6eb2c915bbd",
    True: "3df334cdb612a347c4386da0e45bdad4f1fc6c533821f467eda49730fdf1ab13",
}


@pytest.fixture(scope="module")
def mixnet_400():
    return run_scenario("mixnet", senders=400)


def test_score_run_reads_the_ledger_at_most_once(mixnet_400, monkeypatch):
    passes = []
    original = Ledger.__iter__

    def counting_iter(self):
        passes.append(1)
        return original(self)

    monkeypatch.setattr(Ledger, "__iter__", counting_iter)
    repro.risk.score_run(mixnet_400)
    assert len(passes) <= 1


@pytest.mark.parametrize("include_terms", [False, True])
def test_risk_report_is_float_exact(mixnet_400, include_terms):
    report = repro.risk.score_run(mixnet_400)
    document = json.dumps(report.to_dict(include_terms=include_terms), sort_keys=True)
    digest = hashlib.sha256(document.encode()).hexdigest()
    assert digest == MIXNET_400_DIGESTS[include_terms]
