"""Append-only ledger segments: sealed, compact, spillable storage.

The streaming ledger (:class:`repro.core.ledger.Ledger`) shards its
observations into :class:`LedgerSegment` instances.  Exactly one
segment is *active* at any time -- the ledger's append path extends its
rows and nothing else.  The five per-segment index buckets are built
*lazily*: each bucket dict keeps its own cursor into the rows and is
caught up from ``rows[cursor:]`` the first time a query reads it, so an
append pays for no index and a query pays for only the one it reads.

Sealing a segment freezes its rows to a tuple.  A sealed segment can
then be *spilled*: its rows are written to disk as one compact record
(column tuples over per-segment tables of distinct values, encoded with
:mod:`marshal`, which builds plain data and never executes code) and the
in-memory rows and buckets are dropped.  The spill keeps the row count
and the sha256 of the written bytes in memory; reading the file back
checks both and raises :class:`SpillCorrupted` rather than return a
shorter or different segment.  A spilled segment reloads transparently
the first time a query needs its rows, and stays resident afterwards so
observation identity is stable for the duration of an analysis pass
(``docs/SCALE.md`` documents the lifecycle and the memory bounds).

Segments know their global ``start`` offset, so concatenating segment
buckets in segment order reproduces exactly the record-order iteration
the flat ledger promised.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from array import array
from dataclasses import astuple
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence

from .labels import Facet, Kind, Label, Sensitivity
from .values import ShareInfo, Subject

__all__ = ["LedgerSegment", "SpillCorrupted"]

_intern = sys.intern


class SpillCorrupted(Exception):
    """A spill file no longer holds exactly the rows that were spilled."""


#: Bucket name -> the key a row files under in that bucket dict.
_BUCKET_KEYS = {
    "by_entity": attrgetter("entity"),
    "by_organization": attrgetter("organization"),
    "by_subject": attrgetter("subject.name"),
    "by_entity_subject": lambda row: (row.entity, row.subject.name),
    "by_org_subject": lambda row: (row.organization, row.subject.name),
}

# -- compact spill record -----------------------------------------------

_LABELS: Dict[tuple, Label] = {}


def _label_spec(label: Label) -> tuple:
    return (label.kind.value, label.sensitivity.value, label.facet.value, label.partial)


def _label(spec: tuple) -> Label:
    label = _LABELS.get(spec)
    if label is None:
        kind, sensitivity, facet, partial = spec
        label = Label(Kind(kind), Sensitivity(sensitivity), Facet(facet), partial)
        _LABELS[spec] = label
    return label


def _same(value):
    return value


#: Observation fields in constructor order, as row attributes.  Each
#: column is stored as a per-segment table of its distinct values plus
#: one table index per row, with ``(encode, decode)`` applied to the
#: table entries; ``None`` stores the column raw (numbers: a table
#: would merge ``1`` with ``1.0``).  Subjects are stored by name and
#: decoded against the caller's interned subjects.
_COLUMNS = (
    ("entity", (_same, _intern)),
    ("organization", (_same, _intern)),
    ("subject.name", (_same, Subject)),
    ("label", (_label_spec, _label)),
    ("value_digest", (_same, _same)),
    ("description", (_same, _same)),
    ("time", None),
    ("channel", (_same, _intern)),
    ("session", (_same, _intern)),
    ("provenance", (_same, _same)),
    ("share_info", (lambda info: info and astuple(info), lambda s: s and ShareInfo(*s))),
    ("packet_id", None),
)


def encode_rows(rows: Sequence) -> bytes:
    """The spill record of ``rows``: an 8-byte row count, then the
    columns as one :mod:`marshal` record."""
    columns = []
    for name, codec in _COLUMNS:
        values = tuple(map(attrgetter(name), rows))
        if codec is None:
            columns.append(values)
            continue
        table = tuple(dict.fromkeys(values))
        position = dict(zip(table, range(len(table))))
        indices = array("I", map(position.__getitem__, values))
        columns.append((tuple(map(codec[0], table)), indices.tobytes()))
    return len(rows).to_bytes(8, "little") + marshal.dumps(tuple(columns))


def decode_rows(data: bytes, subjects: Mapping[str, Subject]) -> List:
    """Rebuild the observations :func:`encode_rows` stored.

    Table entries are decoded once per segment, so equal strings,
    subjects and labels are shared objects; subjects already in
    ``subjects`` (the ledger's interned ones) are reused.
    """
    from .ledger import Observation

    fields = []
    for (name, codec), column in zip(_COLUMNS, marshal.loads(data[8:])):
        if codec is None:
            fields.append(column)
            continue
        table, indices = column
        decode = codec[1]
        if decode is Subject:
            table = [subjects.get(key) or Subject(key) for key in table]
        else:
            table = list(map(decode, table))
        fields.append(list(map(table.__getitem__, array("I", indices))))
    count = int.from_bytes(data[:8], "little")
    if len(fields) != len(_COLUMNS) or any(len(f) != count for f in fields):
        raise SpillCorrupted("spill record columns disagree on the row count")
    return list(map(Observation, *fields))


class LedgerSegment:
    """One shard of a ledger: rows plus lazily built index buckets.

    Lifecycle: *active* (a mutable row list, appended to by the
    ledger) -> *sealed* (rows frozen to a tuple) -> optionally
    *spilled* (rows and buckets dropped; ``spill_path`` holds the
    compact record they reload from).
    """

    __slots__ = (
        "index",
        "start",
        "rows",
        "sealed",
        "spill_path",
        "spill_sha256",
        "buckets",
        "keys",
        "count",
    )

    def __init__(self, index: int, start: int) -> None:
        self.index = index
        self.start = start
        self.rows: Optional[List] = []
        self.sealed = False
        self.spill_path: Optional[str] = None
        #: sha256 of the spill file's bytes, kept in memory at spill.
        self.spill_sha256: Optional[bytes] = None
        #: bucket name -> [cursor, bucket dict]: the dict indexes
        #: ``rows[:cursor]`` (see :meth:`bucket`).
        self.buckets: Dict[str, list] = {}
        #: Once spilled: bucket name -> frozenset of that bucket dict's
        #: keys, so the ledger can answer "does this segment hold rows
        #: for key K?" without reloading the rows.  Sealed rows never
        #: change, so the summary survives a reload.
        self.keys: Optional[Dict[str, frozenset]] = None
        self.count = 0

    # -- state ---------------------------------------------------------

    @property
    def resident(self) -> bool:
        """True when the segment's rows are in memory."""
        return self.rows is not None

    def bucket(self, name: str) -> Dict:
        """Bucket dict ``name``, caught up with every resident row.

        Only this dict pays, and only for the rows appended since it
        was last read; buckets nobody queries are never built.
        """
        entry = self.buckets.get(name)
        if entry is None:
            entry = self.buckets[name] = [0, {}]
        cursor, index = entry
        rows = self.rows
        if cursor < len(rows):
            key_of = _BUCKET_KEYS[name]
            for row in rows[cursor:]:
                key = key_of(row)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            entry[0] = len(rows)
        return index

    def seal(self) -> None:
        """Freeze the segment's rows to a tuple."""
        if self.sealed:
            return
        self.rows = tuple(self.rows)
        self.count = len(self.rows)
        self.sealed = True

    # -- spill / reload ------------------------------------------------

    def spill(self, path: str) -> int:
        """Write rows to ``path`` as one compact record and drop them.

        Only sealed segments spill (the active segment is still being
        appended to).  Returns the number of rows dropped.  Idempotent:
        a segment that already spilled just drops its resident copy
        again without rewriting the file.
        """
        if not self.sealed:
            raise ValueError("only sealed segments can be spilled")
        rows = self.rows
        if rows is None:
            return 0
        if self.spill_path is None:
            data = encode_rows(rows)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
            self.spill_path = path
            self.spill_sha256 = hashlib.sha256(data).digest()
        if self.keys is None:
            # The key summaries retain dict keys that the ledger's
            # global summaries mostly hold anyway, so their marginal
            # memory is set overhead, not duplicated data -- a cheap
            # price for never reloading a segment to find a key absent.
            self.keys = {
                name: frozenset(map(key_of, rows))
                for name, key_of in _BUCKET_KEYS.items()
            }
        self.rows = None
        self.buckets = {}
        return self.count

    def _read(self, subjects: Optional[Mapping[str, Subject]]) -> List:
        """The spilled rows, verified against the spill-time record."""
        if self.spill_path is None:
            raise ValueError(f"segment {self.index} has no spill file to load")
        with open(self.spill_path, "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).digest() != self.spill_sha256:
            raise SpillCorrupted(f"{self.spill_path}: sha256 differs from the spill's")
        if int.from_bytes(data[:8], "little") != self.count:
            raise SpillCorrupted(f"{self.spill_path}: row count differs from the spill's")
        return decode_rows(data, subjects or {})

    def load(self, subjects: Optional[Mapping[str, Subject]] = None) -> None:
        """Reload a spilled segment's rows (buckets rebuild lazily).

        The rebuilt rows are value-equal (and serialize byte-identical)
        to the originals.  The segment stays resident until the owning
        ledger explicitly spills it again, which keeps observation
        identity stable across one analysis pass.
        """
        if self.rows is None:
            self.rows = tuple(self._read(subjects))

    def stream_rows(self, subjects: Optional[Mapping[str, Subject]] = None) -> Sequence:
        """The segment's rows, without changing residency.

        Resident segments return their in-memory rows; spilled segments
        decode their record and *stay spilled* -- the rows are
        value-equal to the originals but are not installed, so
        sequential scans (``Ledger.rows_between``) never inflate the
        resident set the way :meth:`load` would.
        """
        if self.rows is not None:
            return self.rows
        return self._read(subjects)

    def discard_spill(self) -> None:
        """Delete the spill file, if any (ledger clear/teardown)."""
        if self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass
            self.spill_path = None
