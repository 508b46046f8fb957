"""Segment lifecycle: seal, spill, reload, stream, account, clear."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_IDENTITY,
)
from repro.core.ledger import Ledger
from repro.core.segments import SpillCorrupted, encode_rows
from repro.core.serialize import ledger_to_jsonl
from repro.core.values import LabeledValue, ShareInfo, Subject, digest

ALICE = Subject("alice")
BOB = Subject("bob")


def _fill(ledger: Ledger, rows: int, *, entity="Server", org="org-s") -> None:
    for index in range(rows):
        subject = ALICE if index % 2 == 0 else BOB
        ledger.record(
            entity,
            org,
            LabeledValue(f"v{index}", NONSENSITIVE_DATA, subject, "blob"),
            session=f"s{index % 3}",
        )


class TestSegmentRoll:
    def test_active_segment_rolls_at_configured_rows(self):
        ledger = Ledger()
        ledger.configure_segments(rows=4)
        _fill(ledger, 10)
        assert len(ledger.segments) == 3
        assert [seg.count for seg in ledger.segments] == [4, 4, 2]
        assert [seg.start for seg in ledger.segments] == [0, 4, 8]
        assert len(ledger) == 10

    def test_configure_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            Ledger().configure_segments(rows=0)

    def test_record_fast_batches_never_straddle_segments(self):
        ledger = Ledger()
        ledger.configure_segments(rows=3)
        values = [
            LabeledValue(f"v{i}", NONSENSITIVE_DATA, ALICE, "blob")
            for i in range(5)
        ]
        ledger.record_fast("Server", "org-s", values, session="s1")
        # One batch = one segment-local append: the roll happens after.
        assert ledger.segments[0].count == 5
        ledger.record("Server", "org-s", values[0], session="s2")
        assert len(ledger.segments) == 2
        assert ledger.segments[1].count == 1

    def test_version_bumps_once_per_batch(self):
        ledger = Ledger()
        before = ledger.version
        values = [
            LabeledValue(f"v{i}", NONSENSITIVE_DATA, ALICE, "blob")
            for i in range(4)
        ]
        ledger.record_fast("Server", "org-s", values, session="s1")
        assert ledger.version == before + 1
        ledger.record("Server", "org-s", values[0], session="s2")
        assert ledger.version == before + 2


class TestSealAndSpill:
    def test_seal_freezes_rows_and_buckets(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(directory=str(tmp_path))
        _fill(ledger, 6)

        def answers():
            return (
                ledger.by_subject(ALICE),
                ledger.by_subject(BOB),
                ledger.by_pair("Server", ALICE),
                ledger.by_pair("Server", BOB),
            )

        before = answers()
        assert [len(rows) for rows in before] == [3, 3, 3, 3]
        segment = ledger.seal_active_segment()
        assert segment.sealed
        assert isinstance(segment.rows, tuple)
        assert answers() == before
        # A fresh active segment took over.
        assert ledger.active_segment is not segment
        assert ledger.active_segment.count == 0
        # Spill, then reload through the queries: same answers.
        assert ledger.spill_sealed_segments() == 6
        assert not segment.resident
        assert answers() == before
        assert segment.resident
        assert isinstance(segment.rows, tuple)
        # Rows appended after the seal land after the sealed ones.
        _fill(ledger, 1)
        assert ledger.by_subject(ALICE)[:3] == before[0]
        assert len(ledger.by_subject(ALICE)) == 4
        assert ledger.by_pair("Server", BOB) == before[3]

    def test_seal_empty_active_segment_is_a_noop(self):
        ledger = Ledger()
        assert ledger.seal_active_segment() is None
        assert len(ledger.segments) == 1

    def test_spill_and_reload_round_trips_rows(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        spilled = [seg for seg in ledger.segments if not seg.resident]
        assert len(spilled) == 2
        for seg in spilled:
            assert os.path.exists(seg.spill_path)
            assert seg.keys is not None
            assert "alice" in seg.keys["by_subject"]
        # Reload transparently via a bucket query.
        rows = ledger.by_subject(ALICE)
        assert len(rows) == 5
        assert [obs.value_digest for obs in ledger] == [
            digest(f"v{i}") for i in range(10)
        ]

    def test_key_summaries_avoid_reloads_for_absent_keys(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 8)
        _fill(ledger, 2, entity="Other", org="org-o")
        before = ledger.memory_accounting()["segment_reloads"]
        # "Other" only ever appears in the active segment: no reload.
        assert len(ledger.by_entity("Other")) == 2
        assert ledger.memory_accounting()["segment_reloads"] == before

    def test_stream_rows_does_not_change_residency(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        resident_before = ledger.memory_accounting()["resident_rows"]
        streamed = list(ledger.rows_between(0, len(ledger)))
        assert [obs.value_digest for obs in streamed] == [
            digest(f"v{i}") for i in range(10)
        ]
        after = ledger.memory_accounting()
        assert after["resident_rows"] == resident_before
        assert after["segment_reloads"] == 0
        # Partial slices across a spilled segment stream too.
        window = list(ledger.rows_between(2, 7))
        assert [obs.value_digest for obs in window] == [
            digest(f"v{i}") for i in range(2, 7)
        ]
        assert ledger.memory_accounting()["segment_reloads"] == 0


class TestVerifiedSpill:
    """A spill file is read back only if it still holds exactly the
    rows that were spilled; otherwise every read path raises."""

    @staticmethod
    def _truncate(path, rows):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])

    @staticmethod
    def _flip_byte(path, rows):
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))

    @staticmethod
    def _append_row(path, rows):
        # A well-formed record of the spilled rows plus one more.
        with open(path, "wb") as handle:
            handle.write(encode_rows(tuple(rows) + (rows[0],)))

    @pytest.mark.parametrize("corrupt", ["_truncate", "_flip_byte", "_append_row"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda ledger: ledger.by_subject(ALICE),
            lambda ledger: list(iter(ledger)),
            lambda ledger: list(ledger.rows_between(0, len(ledger))),
        ],
        ids=["by_subject", "iter", "rows_between"],
    )
    def test_corrupted_spill_raises(self, tmp_path, corrupt, read):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        segment = ledger.segments[0]
        getattr(self, corrupt)(segment.spill_path, segment.stream_rows())
        for _ in range(2):
            with pytest.raises(SpillCorrupted):
                read(ledger)
            # Never installed, never a shorter ledger.
            assert not segment.resident
        assert ledger.memory_accounting()["segment_reloads"] == 0

    def test_spill_round_trip_is_value_equal_and_shared(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=5, directory=str(tmp_path))
        for index in range(10):
            subject = ALICE if index % 2 == 0 else BOB
            ledger.record(
                "Server",
                "org-s",
                LabeledValue(
                    f"v{index}",
                    SENSITIVE_HUMAN_IDENTITY if index % 3 else NONSENSITIVE_DATA,
                    subject,
                    "blob",
                    provenance=("hop", f"p{index % 2}"),
                    share_info=(
                        ShareInfo("g", index, 10, index % 4 == 0)
                        if index % 2
                        else None
                    ),
                ),
                # An int time must come back an int: the export prints
                # 3 and 3.0 differently.
                time=index if index % 2 else index + 0.5,
                session=f"s{index % 3}",
                packet_id=index if index % 3 else None,
            )
        exported = ledger_to_jsonl(ledger)
        assert ledger.spill_sealed_segments() == 10
        streamed = list(ledger.rows_between(0, len(ledger)))
        assert ledger.memory_accounting()["resident_rows"] == 0
        reloaded = list(ledger)
        assert streamed == reloaded
        assert ledger_to_jsonl(ledger) == exported
        assert [type(row.time) for row in reloaded] == [float, int] * 5
        first = reloaded[0:5]
        # Reloaded rows share the ledger's subjects and one Label per
        # distinct label; strings are interned.
        assert all(row.subject is ledger.subject(row.subject.name) for row in reloaded)
        assert len({id(row.label) for row in first}) == len({row.label for row in first})
        assert all(row.session is sys.intern(row.session) for row in reloaded)


_HASH_SEED_SCRIPT = """
import json
from repro.core.analysis import DecouplingAnalyzer
from repro.core.labels import NONSENSITIVE_DATA, SENSITIVE_DATA, SENSITIVE_IDENTITY
from repro.core.values import LabeledValue, Subject
from repro.population.engine import PopulationEngine, PopulationSpec
from repro.population.workload import (
    PROXY_ENTITY, PROXY_ORG, TARGET_ENTITY, TARGET_ORG, build_scale_world,
)

world = build_scale_world()
ledger = world.ledger
ledger.configure_segments(rows=256, spill=True)
streaming = DecouplingAnalyzer(world)
checkpoints = []
for arrival in PopulationEngine(PopulationSpec(users=300, seed=3)).arrivals(limit=1200):
    subject = Subject(arrival.user_name)
    ciphertext = f"ct-{arrival.index}"
    address = f"ip-{arrival.user}-{arrival.session}"
    ledger.record_fast(PROXY_ENTITY, PROXY_ORG, [
        LabeledValue(address, SENSITIVE_IDENTITY, subject, "client address"),
        LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
    ], time=arrival.time, channel="wire", session=f"px-{arrival.session}")
    ledger.record_fast(TARGET_ENTITY, TARGET_ORG, [
        LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
        LabeledValue(f"{arrival.action}-{arrival.index}", SENSITIVE_DATA, subject,
                     "decrypted query"),
    ], time=arrival.time, channel="wire", session=f"tg-{arrival.session}")
    if arrival.index % 20 == 19:
        checkpoints.append([str(streaming.verdict()), streaming.collusion_resistance()])
accounting = ledger.memory_accounting()
fresh = DecouplingAnalyzer(world)
print(json.dumps({
    "accounting": accounting,
    "checkpoints": checkpoints,
    "streaming": [str(streaming.verdict()), streaming.collusion_resistance()],
    "fresh": [str(fresh.verdict()), fresh.collusion_resistance()],
}))
"""


def test_checkpoints_never_reload_under_any_hash_seed():
    """Regression: which coalition candidate a streaming checkpoint
    probed first followed set (hash) order, so under some
    ``PYTHONHASHSEED`` values it reloaded a spilled segment.  Under
    both seeds here the old code reloaded one; the coalition witness
    makes the count zero whatever the seed."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        env.pop("REPRO_SLOW_PATH", None)
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            capture_output=True,
            env=env,
            check=True,
            text=True,
        )
        out = json.loads(result.stdout)
        assert out["accounting"]["segments_spilled"] > 0
        assert out["accounting"]["segment_reloads"] == 0
        assert len(out["checkpoints"]) == 60
        assert out["streaming"] == out["fresh"]
        outputs.append(out)
    assert outputs[0] == outputs[1]


class TestAccountingAndClear:
    def test_memory_accounting_shape(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        accounting = ledger.memory_accounting()
        assert accounting == {
            "total_rows": 10,
            "resident_rows": 2,
            "segments": 3,
            "segments_sealed": 2,
            "segments_spilled": 2,
            "rows_spilled": 8,
            "segment_reloads": 0,
        }

    def test_clear_discards_spill_files_and_bumps_generation(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        paths = [
            seg.spill_path for seg in ledger.segments if seg.spill_path
        ]
        assert paths
        generation = ledger.generation
        ledger.clear()
        assert ledger.generation == generation + 1
        assert len(ledger) == 0
        assert len(ledger.segments) == 1
        for path in paths:
            assert not os.path.exists(path)
        accounting = ledger.memory_accounting()
        assert accounting["total_rows"] == 0
        assert accounting["segments_spilled"] == 0

    def test_seal_listener_fires_while_resident(self):
        ledger = Ledger()
        ledger.configure_segments(rows=3, spill=True)
        seen = []

        def listener(led, segment):
            seen.append((segment.index, segment.resident))

        ledger.add_seal_listener(listener)
        _fill(ledger, 7)
        assert seen == [(0, True), (1, True)]

    def test_merged_ledger_preserves_analysis(self):
        world_a, world_b = World(), World()
        for world in (world_a, world_b):
            world.entity("User", "device", trusted_by_user=True)
            world.entity("Server", "org-s")
        world_a.ledger.record(
            "Server",
            "org-s",
            LabeledValue("ip-a", SENSITIVE_IDENTITY, ALICE, "addr"),
            session="s1",
        )
        world_b.ledger.record(
            "Server",
            "org-s",
            LabeledValue("q-a", NONSENSITIVE_DATA, ALICE, "query"),
            session="s1",
        )
        merged = world_a.ledger.merged(world_b.ledger)
        assert len(merged) == 2
        assert merged.version == len(merged)


class TestSpillDirHygiene:
    def test_two_ledgers_get_distinct_spill_dirs(self):
        """Regression (satellite 6): concurrent spilling ledgers --
        e.g. ``scale_sweep(jobs=N)`` workers forked from one parent --
        must never collide on temp paths."""
        first, second = Ledger(), Ledger()
        first.configure_segments(rows=2, spill=True)
        second.configure_segments(rows=2, spill=True)
        _fill(first, 5)
        _fill(second, 5)
        dirs = {
            os.path.dirname(seg.spill_path)
            for ledger in (first, second)
            for seg in ledger.segments
            if seg.spill_path
        }
        assert len(dirs) == 2
        for directory in dirs:
            assert f"-{os.getpid()}-" in os.path.basename(directory)

    def test_explicit_directory_is_not_owned(self, tmp_path):
        target = tmp_path / "spills"
        ledger = Ledger()
        ledger.configure_segments(rows=2, spill=True, directory=str(target))
        _fill(ledger, 5)
        assert target.is_dir()
        ledger.clear()
        # The ledger deletes its files but never a directory it was
        # handed (it only removes directories it created itself).
        assert target.is_dir()


def test_analyzer_over_spilled_ledger_matches_naive(tmp_path):
    world = World()
    world.entity("User", "device", trusted_by_user=True)
    world.entity("Server", "org-s")
    world.ledger.configure_segments(rows=3, spill=True, directory=str(tmp_path))
    for index in range(10):
        world.ledger.record(
            "Server",
            "org-s",
            LabeledValue(
                f"ip-{index % 2}",
                SENSITIVE_IDENTITY,
                ALICE if index % 2 == 0 else BOB,
                "addr",
            ),
            session=f"s{index}",
        )
    streaming = DecouplingAnalyzer(world)
    naive = DecouplingAnalyzer(world, naive=True)
    assert str(streaming.verdict()) == str(naive.verdict())
