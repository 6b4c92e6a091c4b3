"""Versioned, CRC-checksummed serialization of compiled filter indexes.

A frozen :class:`~repro.filters.engine.EngineSnapshot` owns two compiled
indexes (blocking + exceptions).  Building them — keyword extraction per
filter and least-crowded bucket assignment — is a pure function of the
source filter lists.  This module captures that work as one artifact so
it is paid **once per subscription epoch**: the serving daemon's
hot-reload path stores the artifact beside the epoch's source snapshot
(``SnapshotStore.save_blob``) and a daemon restart loads it instead of
re-deriving bucket assignments.

Wire format (all integers little-endian ``struct`` fields)::

    magic  b"RPROCIDX"
    u32    version (= ARTIFACT_VERSION)
    u32    header length
    bytes  header JSON: {"epoch", "fingerprint", "byteorder",
                         "indexes": [{name, filters, keywords,
                                      fallback}, ...]}
    per index, length-prefixed blobs in fixed order:
           keywords ("\\n"-joined), assignment (i32 x filters)
    u32    CRC32 of every preceding byte

The artifact stores *bucket assignments*, not filter texts: attaching it
to freshly parsed lists walks the filters in subscription order and
places filter ``i`` into bucket ``assignment[i]`` (``-1`` = fallback).
Safety is layered — truncation and bit-flips fail the CRC; a version or
byte-order mismatch is rejected before any section is read; an epoch or
per-index filter-count mismatch (stale artifact against changed lists)
raises :class:`CompiledArtifactError`; and a deterministic sample of
bucket assignments is re-validated against each filter's own keyword
candidates, so an artifact from *different same-sized lists* cannot
silently misbucket.  Every rejection path leaves the caller free to fall
back to a from-scratch build.

>>> from repro.filters.filterlist import parse_filter_list
>>> from repro.filters.engine import EngineSnapshot
>>> lists = [parse_filter_list("||ads.example^\\n||track.example^",
...                            name="easylist")]
>>> snap = EngineSnapshot.build(lists)
>>> blob = serialize_artifact(snap, fingerprint="f" * 8)
>>> artifact = parse_artifact(blob)
>>> artifact.epoch, artifact.fingerprint
(2, 'ffffffff')
>>> rebuilt = artifact.build_snapshot(lists)
>>> rebuilt.blocking.keywords == snap.blocking.keywords
True
>>> parse_artifact(blob[:-1])           # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.filters.compiled.artifact.CompiledArtifactError: ...
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Iterable, Sequence

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.engine import EngineSnapshot
from repro.filters.filterlist import FilterList
from repro.filters.parser import ElementFilter, RequestFilter

__all__ = ["ARTIFACT_MAGIC", "ARTIFACT_VERSION", "CompiledArtifactError",
           "CompiledArtifact", "serialize_artifact", "parse_artifact"]

ARTIFACT_MAGIC = b"RPROCIDX"
ARTIFACT_VERSION = 2

#: How many bucketed filters per index get their assignment re-checked
#: against their own keyword candidates at attach time.
_VERIFY_SAMPLE = 32

_U32 = struct.Struct("<I")


class CompiledArtifactError(ValueError):
    """Artifact rejected: corrupt, wrong version, or stale vs the lists."""


def _pack_blob(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + payload


def _pack_i32(values: Iterable[int]) -> bytes:
    arr = array("i", values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        arr.byteswap()
    return _pack_blob(arr.tobytes())


class _Reader:
    """Bounds-checked cursor over the artifact bytes."""

    def __init__(self, data: bytes, offset: int) -> None:
        self.data = data
        self.offset = offset

    def blob(self) -> bytes:
        if self.offset + 4 > len(self.data):
            raise CompiledArtifactError("artifact truncated (blob length)")
        (length,) = _U32.unpack_from(self.data, self.offset)
        self.offset += 4
        end = self.offset + length
        if end > len(self.data):
            raise CompiledArtifactError("artifact truncated (blob body)")
        payload = self.data[self.offset:end]
        self.offset = end
        return payload

    def i32(self, expect: int) -> array:
        payload = self.blob()
        if len(payload) != 4 * expect:
            raise CompiledArtifactError(
                f"array blob holds {len(payload) // 4} ints, "
                f"expected {expect}")
        arr = array("i")
        arr.frombytes(payload)
        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            arr.byteswap()
        return arr


def serialize_artifact(snapshot: EngineSnapshot, *,
                       fingerprint: str) -> bytes:
    """Serialize a frozen snapshot's compiled indexes.

    ``fingerprint`` is the content fingerprint of the snapshot's source
    lists (``repro.state.snapshots.content_fingerprint``); together with
    the epoch it names the artifact's identity.  The snapshot must hold
    :class:`CompiledFilterIndex` instances (every frozen snapshot does).
    """
    indexes = [("blocking", snapshot.blocking),
               ("exceptions", snapshot.exceptions)]
    for name, index in indexes:
        if not isinstance(index, CompiledFilterIndex):
            raise CompiledArtifactError(
                f"snapshot's {name} index is not compiled "
                f"({type(index).__name__}); freeze the engine first")
    filter_orders = _request_filters_by_index(snapshot.lists)
    header_indexes = []
    sections: list[bytes] = []
    for name, index in indexes:
        ordered = filter_orders[name]
        if len(ordered) != len(index):
            raise CompiledArtifactError(
                f"{name} index holds {len(index)} filters but the "
                f"snapshot lists contribute {len(ordered)}")
        header_indexes.append({
            "name": name,
            "filters": len(ordered),
            "keywords": len(index.keywords),
            "fallback": len(index.fallback),
        })
        sections.append(_pack_blob(
            "\n".join(index.keywords).encode("ascii")))
        sections.append(_pack_i32(
            index.bucket_of(flt) for flt in ordered))
    header = json.dumps({
        "epoch": snapshot.epoch,
        "fingerprint": fingerprint,
        "byteorder": "little",
        "indexes": header_indexes,
    }, sort_keys=True).encode("utf-8")
    body = (ARTIFACT_MAGIC + _U32.pack(ARTIFACT_VERSION)
            + _pack_blob(header) + b"".join(sections))
    return body + _U32.pack(zlib.crc32(body))


def _request_filters_by_index(
        lists: Sequence[FilterList]) -> dict[str, list[RequestFilter]]:
    """Request filters per index, in subscription order.

    This is the canonical ordering both serialization and attach use:
    it must mirror ``AdblockEngine._add_filter``'s routing exactly so
    ``assignment[i]`` refers to the same filter on both sides.
    """
    orders: dict[str, list[RequestFilter]] = {"blocking": [],
                                              "exceptions": []}
    for filter_list in lists:
        for flt in filter_list.filters:
            if isinstance(flt, RequestFilter):
                key = "exceptions" if flt.is_exception else "blocking"
                orders[key].append(flt)
    return orders


class CompiledArtifact:
    """A parsed (CRC-verified) artifact, ready to attach to lists."""

    __slots__ = ("epoch", "fingerprint", "_sections")

    def __init__(self, *, epoch: int, fingerprint: str,
                 sections: dict[str, dict]) -> None:
        self.epoch = epoch
        self.fingerprint = fingerprint
        self._sections = sections

    @property
    def index_names(self) -> tuple[str, ...]:
        return tuple(self._sections)

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: {"filters": len(section["assignment"]),
                       "keywords": len(section["keywords"])}
                for name, section in self._sections.items()}

    def build_snapshot(self,
                       filter_lists: Iterable[FilterList]
                       ) -> EngineSnapshot:
        """Attach to freshly parsed lists, skipping index construction.

        Raises :class:`CompiledArtifactError` when the artifact is stale
        for these lists (epoch mismatch, per-index filter-count
        mismatch, or a sampled bucket assignment whose keyword is not
        among the filter's own candidates).
        """
        lists = tuple(filter_lists)
        epoch = sum(len(tuple(fl.filters)) for fl in lists)
        if epoch != self.epoch:
            raise CompiledArtifactError(
                f"stale artifact: compiled at epoch {self.epoch}, "
                f"lists now total {epoch} filters")
        orders = _request_filters_by_index(lists)
        indexes = {name: self._attach_index(name, orders[name])
                   for name in ("blocking", "exceptions")}
        element_hide: list[tuple[str, ElementFilter]] = []
        element_exceptions: list[tuple[str, ElementFilter]] = []
        list_of_filter: dict[int, str] = {}
        for filter_list in lists:
            for flt in filter_list.filters:
                list_of_filter[id(flt)] = filter_list.name
                if not isinstance(flt, RequestFilter):
                    target = (element_exceptions if flt.is_exception
                              else element_hide)
                    target.append((filter_list.name, flt))
        return EngineSnapshot(
            blocking=indexes["blocking"],
            exceptions=indexes["exceptions"],
            element_hide=element_hide,
            element_exceptions=element_exceptions,
            lists=lists,
            list_of_filter=list_of_filter,
            epoch=epoch,
        )

    def _attach_index(self, name: str,
                      ordered: list[RequestFilter]) -> CompiledFilterIndex:
        section = self._sections.get(name)
        if section is None:
            raise CompiledArtifactError(f"artifact lacks index {name!r}")
        assignment: array = section["assignment"]
        keywords: tuple[str, ...] = section["keywords"]
        if len(assignment) != len(ordered):
            raise CompiledArtifactError(
                f"stale artifact: {name} index assigns "
                f"{len(assignment)} filters, lists provide "
                f"{len(ordered)}")
        buckets: list[list[RequestFilter]] = [[] for _ in keywords]
        fallback: list[RequestFilter] = []
        for flt, kid in zip(ordered, assignment):
            if kid == -1:
                fallback.append(flt)
            elif 0 <= kid < len(buckets):
                buckets[kid].append(flt)
            else:
                raise CompiledArtifactError(
                    f"{name} assignment references bucket {kid} "
                    f"of {len(buckets)}")
        self._verify_sample(name, keywords, ordered, assignment)
        return CompiledFilterIndex.from_parts(
            name=name, keywords=keywords, buckets=buckets,
            fallback=fallback)

    @staticmethod
    def _verify_sample(name: str, keywords: tuple[str, ...],
                       ordered: list[RequestFilter],
                       assignment: array) -> None:
        """Spot-check assignments against the filters' own candidates.

        Deterministic sample (evenly strided over the bucketed filters):
        the assigned keyword must be one the filter itself could have
        chosen, which catches an artifact attached to different lists
        that merely happen to have the same shape.
        """
        bucketed = [pos for pos, kid in enumerate(assignment) if kid >= 0]
        if not bucketed:
            return
        stride = max(1, len(bucketed) // _VERIFY_SAMPLE)
        for pos in bucketed[::stride][:_VERIFY_SAMPLE]:
            flt = ordered[pos]
            keyword = keywords[assignment[pos]]
            if keyword not in flt.keyword_candidates:
                raise CompiledArtifactError(
                    f"stale artifact: {name} filter {flt.text!r} "
                    f"cannot live in bucket {keyword!r}")


def parse_artifact(data: bytes) -> CompiledArtifact:
    """Verify and decode artifact bytes (see the wire format above)."""
    if len(data) < len(ARTIFACT_MAGIC) + 12:
        raise CompiledArtifactError("artifact too short")
    if not data.startswith(ARTIFACT_MAGIC):
        raise CompiledArtifactError("bad artifact magic")
    (crc_stored,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc_stored:
        raise CompiledArtifactError("artifact CRC mismatch")
    (version,) = _U32.unpack_from(data, len(ARTIFACT_MAGIC))
    if version != ARTIFACT_VERSION:
        raise CompiledArtifactError(
            f"artifact version {version}, expected {ARTIFACT_VERSION}")
    reader = _Reader(data[:-4], len(ARTIFACT_MAGIC) + 4)
    try:
        header = json.loads(reader.blob().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CompiledArtifactError(f"bad artifact header: {exc}") from exc
    if header.get("byteorder") != "little":
        # Arrays are normalized to little-endian on write (and byte-
        # swapped back by _Reader.i32 on big-endian hosts), so any other
        # header value means a foreign or corrupted producer.
        raise CompiledArtifactError(
            f"artifact byte order {header.get('byteorder')!r}, "
            f"expected 'little'")
    sections: dict[str, dict] = {}
    for meta in header.get("indexes", ()):
        name = meta["name"]
        keyword_blob = reader.blob()
        keywords = (tuple(keyword_blob.decode("ascii").split("\n"))
                    if keyword_blob else ())
        if len(keywords) != int(meta["keywords"]):
            raise CompiledArtifactError(
                f"{name}: keyword count drifted from header")
        sections[name] = {
            "keywords": keywords,
            "assignment": reader.i32(int(meta["filters"])),
        }
    if reader.offset != len(reader.data):
        raise CompiledArtifactError("trailing bytes after last section")
    if set(sections) != {"blocking", "exceptions"}:
        raise CompiledArtifactError(
            f"artifact indexes {sorted(sections)} != "
            f"['blocking', 'exceptions']")
    return CompiledArtifact(epoch=int(header["epoch"]),
                            fingerprint=str(header["fingerprint"]),
                            sections=sections)
