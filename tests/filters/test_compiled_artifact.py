"""Round-trip, rejection, and store-integration tests for the artifact."""

import struct
import zlib

import pytest

from repro.filters.compiled import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    CompiledArtifactError,
    parse_artifact,
    serialize_artifact,
)
from repro.filters.engine import EngineSnapshot
from repro.filters.filterlist import parse_filter_list
from repro.filters.options import ContentType
from repro.obs import observe
from repro.web.dom import Element

EASYLIST = """\
||ads.example^$third-party
||track.example/banner
ads/banner^
/pop[0-9]+/
||stats.example^$script
"""
WHITELIST = """\
@@||good.example^$document
@@||partner.example/ads$subdocument
"""


def build_lists():
    return [parse_filter_list(EASYLIST, name="easylist"),
            parse_filter_list(WHITELIST, name="whitelist")]


def build_blob(lists=None, fingerprint="ab" * 4):
    lists = lists or build_lists()
    snapshot = EngineSnapshot.build(lists)
    return snapshot, serialize_artifact(snapshot, fingerprint=fingerprint)


def recrc(body: bytes) -> bytes:
    """Re-checksum a tampered body so only the *content* check trips."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestRoundTrip:
    def test_identity_header(self):
        snapshot, blob = build_blob()
        artifact = parse_artifact(blob)
        assert artifact.epoch == snapshot.epoch
        assert artifact.fingerprint == "abababab"
        assert artifact.index_names == ("blocking", "exceptions")

    def test_rebuilt_snapshot_is_equivalent(self):
        lists = build_lists()
        snapshot, blob = build_blob(lists)
        rebuilt = parse_artifact(blob).build_snapshot(lists)
        assert rebuilt.epoch == snapshot.epoch
        for name in ("blocking", "exceptions"):
            fresh, loaded = getattr(snapshot, name), getattr(rebuilt, name)
            # By text: the rebuilt snapshot holds its own filter objects.
            assert loaded.keywords == fresh.keywords
            for kid in range(len(fresh.keywords)):
                assert ([f.text for f in loaded.bucket_filters(kid)]
                        == [f.text for f in fresh.bucket_filters(kid)])
            assert ([f.text for f in loaded.fallback]
                    == [f.text for f in fresh.fallback])
            for keyword in fresh.keywords:
                url = f"http://probe.example/{keyword}?x=1"
                assert ([f.text for f in loaded.candidates(url)]
                        == [f.text for f in fresh.candidates(url)]), url
        urls = ["http://ads.example/x", "http://track.example/banner",
                "http://good.example/", "http://nothing.example/a/ads"]
        for url in urls:
            host = url.split("/")[2]
            assert (rebuilt.blocking.match_first(
                        url, ContentType.IMAGE, "p.example", host)
                    is snapshot.blocking.match_first(
                        url, ContentType.IMAGE, "p.example", host))

    def test_rebuild_verdict_parity_through_engine(self):
        lists = build_lists()
        snapshot, blob = build_blob(lists)
        rebuilt = parse_artifact(blob).build_snapshot(lists)
        for url, content_type, page in [
                ("http://ads.example/1.gif", ContentType.IMAGE, "p.example"),
                ("http://good.example/f", ContentType.SUBDOCUMENT,
                 "good.example"),
                ("http://x.example/ads/banner", ContentType.IMAGE,
                 "p.example")]:
            host = url.split("/")[2]
            fresh = snapshot.session().check_request(
                url, content_type, page_host=page, request_host=host)
            loaded = rebuilt.session().check_request(
                url, content_type, page_host=page, request_host=host)
            assert fresh.verdict == loaded.verdict
            assert ([f.text for f in fresh.blocking]
                    == [f.text for f in loaded.blocking])
            assert ([f.text for f in fresh.exceptions]
                    == [f.text for f in loaded.exceptions])

    def test_rebuilt_snapshot_indexes_element_hiding(self):
        lists = [parse_filter_list(
                     EASYLIST + "##.ad\n###top\nexample.com##div.x, span\n"
                     '##div[id^="gpt"]\n', name="easylist"),
                 parse_filter_list(WHITELIST + "example.com#@#.ad\n",
                                   name="whitelist")]
        snapshot, blob = build_blob(lists)
        rebuilt = parse_artifact(blob).build_snapshot(lists)
        for index in (snapshot.element_index, rebuilt.element_index):
            # ``div.x, span`` has an unkeyed member, so it is unkeyed.
            assert index.unkeyed == (2, 3)
            assert index.by_id == {"top": (1,)}
            assert index.by_class == {"ad": (0,)}
            assert ([flt.text for _, flt in index.filters]
                    == [flt.text for _, flt in snapshot.element_hide])
        root = Element(tag="div", attributes={"class": "ad x"})
        page = [root, root.new_child("span", id="top")]
        for host, hidden in (("example.com", [page[1]]),
                             ("other.example", page)):
            assert snapshot.session().hidden_elements(page, host) == hidden
            assert rebuilt.session().hidden_elements(page, host) == hidden

    def test_stats_shape(self):
        _, blob = build_blob()
        stats = parse_artifact(blob).stats()
        assert set(stats) == {"blocking", "exceptions"}
        assert stats["blocking"]["filters"] == 5


class TestRejection:
    def test_truncations_never_parse(self):
        _, blob = build_blob()
        for cut in (0, 4, len(ARTIFACT_MAGIC), len(blob) // 2,
                    len(blob) - 1):
            with pytest.raises(CompiledArtifactError):
                parse_artifact(blob[:cut])

    def test_bad_magic(self):
        _, blob = build_blob()
        with pytest.raises(CompiledArtifactError, match="magic"):
            parse_artifact(b"XXXXXXXX" + blob[8:])

    def test_bit_flip_fails_crc(self):
        _, blob = build_blob()
        corrupt = bytearray(blob)
        corrupt[len(blob) // 2] ^= 0x01
        with pytest.raises(CompiledArtifactError, match="CRC"):
            parse_artifact(bytes(corrupt))

    def test_version_mismatch(self):
        _, blob = build_blob()
        body = bytearray(blob[:-4])
        struct.pack_into("<I", body, len(ARTIFACT_MAGIC),
                         ARTIFACT_VERSION + 1)
        with pytest.raises(CompiledArtifactError, match="version"):
            parse_artifact(recrc(bytes(body)))

    def test_stale_epoch_rejected(self):
        lists = build_lists()
        _, blob = build_blob(lists)
        grown = [parse_filter_list(EASYLIST + "||late.example^\n",
                                   name="easylist"),
                 parse_filter_list(WHITELIST, name="whitelist")]
        with pytest.raises(CompiledArtifactError, match="stale"):
            parse_artifact(blob).build_snapshot(grown)

    def test_same_shape_different_lists_rejected(self):
        # Same filter *count* (epoch matches) but entirely different
        # patterns: the sampled bucket-assignment check must trip.
        lists = build_lists()
        _, blob = build_blob(lists)
        impostor = [parse_filter_list(
            "||zzz1.other^$third-party\n||zzz2.other/banner\n"
            "other/banner^\n/zzz[0-9]+/\n||zzz3.other^$script\n",
            name="easylist"),
            parse_filter_list(WHITELIST, name="whitelist")]
        assert sum(len(fl) for fl in impostor) == \
            sum(len(fl) for fl in lists)
        with pytest.raises(CompiledArtifactError):
            parse_artifact(blob).build_snapshot(impostor)

    def test_rejections_are_counted(self, tmp_path):
        # Counted once, where the store path falls back to a fresh
        # build; parsing alone records nothing.
        from repro.serve.reload import build_snapshot_from_sources
        from repro.state.snapshots import SnapshotStore, content_fingerprint
        sources = [("easylist", EASYLIST), ("whitelist", WHITELIST)]
        _, blob = build_blob()
        corrupt = bytearray(blob)
        corrupt[len(blob) // 2] ^= 0x01
        store = SnapshotStore(str(tmp_path / "store"))
        store.save_blob(7, content_fingerprint(sources), bytes(corrupt))
        with observe() as (registry, _):
            with pytest.raises(CompiledArtifactError):
                parse_artifact(bytes(corrupt))
            build_snapshot_from_sources(sources, store)
        assert registry.flat()[
            "filters.index.automaton_artifact{event=rejected}"] == 1


class TestStoreIntegration:
    def make_store(self, tmp_path):
        from repro.state.snapshots import SnapshotStore
        return SnapshotStore(str(tmp_path / "store"))

    SOURCES = [("easylist", EASYLIST), ("whitelist", WHITELIST)]

    def test_persist_then_boot_loads_artifact(self, tmp_path):
        from repro.serve.reload import (build_snapshot_from_sources,
                                        persist_snapshot_artifact)
        store = self.make_store(tmp_path)
        snapshot = build_snapshot_from_sources(self.SOURCES)
        persist_snapshot_artifact(store, snapshot, self.SOURCES)
        with observe() as (registry, _):
            loaded = build_snapshot_from_sources(self.SOURCES, store)
        flat = registry.flat()
        assert flat[
            "filters.index.automaton_artifact{event=load_hit}"] == 1
        assert loaded.epoch == snapshot.epoch
        assert loaded.blocking.keywords == snapshot.blocking.keywords

    def test_absent_blob_counts_a_miss_and_builds(self, tmp_path):
        from repro.serve.reload import build_snapshot_from_sources
        store = self.make_store(tmp_path)
        with observe() as (registry, _):
            snapshot = build_snapshot_from_sources(self.SOURCES, store)
        assert snapshot.filter_count == 7
        assert registry.flat()[
            "filters.index.automaton_artifact{event=load_miss}"] == 1

    def test_corrupt_blob_falls_back_to_build(self, tmp_path):
        from repro.serve.reload import (build_snapshot_from_sources,
                                        persist_snapshot_artifact)
        from repro.state.snapshots import content_fingerprint
        store = self.make_store(tmp_path)
        snapshot = build_snapshot_from_sources(self.SOURCES)
        persist_snapshot_artifact(store, snapshot, self.SOURCES)
        fingerprint = content_fingerprint(self.SOURCES)
        epoch, payload = store.load_blob(fingerprint)
        corrupt = bytearray(payload)
        corrupt[len(payload) // 2] ^= 0x10
        store.save_blob(epoch, fingerprint, bytes(corrupt))
        loaded = build_snapshot_from_sources(self.SOURCES, store)
        assert loaded.epoch == snapshot.epoch      # built from scratch
        assert loaded.blocking.keywords == snapshot.blocking.keywords

    def test_version_mismatch_counts_a_rejection_and_builds(self, tmp_path):
        from repro.serve.reload import (build_snapshot_from_sources,
                                        persist_snapshot_artifact)
        from repro.state.snapshots import content_fingerprint
        store = self.make_store(tmp_path)
        fresh = build_snapshot_from_sources(self.SOURCES)
        persist_snapshot_artifact(store, fresh, self.SOURCES)
        fingerprint = content_fingerprint(self.SOURCES)
        epoch, payload = store.load_blob(fingerprint)
        body = bytearray(payload[:-4])
        struct.pack_into("<I", body, len(ARTIFACT_MAGIC),
                         ARTIFACT_VERSION + 1)
        store.save_blob(epoch, fingerprint, recrc(bytes(body)))
        with observe() as (registry, _):
            loaded = build_snapshot_from_sources(self.SOURCES, store)
        flat = registry.flat()
        assert flat[
            "filters.index.automaton_artifact{event=rejected}"] == 1
        assert not any(key.startswith("filters.index.automaton_artifact"
                                      "{event=load_")
                       for key in flat)
        assert loaded.epoch == fresh.epoch
        for name in ("blocking", "exceptions"):
            assert (getattr(loaded, name).stats()
                    == getattr(fresh, name).stats())
            assert ([f.text for f in getattr(loaded, name)]
                    == [f.text for f in getattr(fresh, name)])

    def test_blob_for_other_lists_is_not_found(self, tmp_path):
        from repro.serve.reload import (build_snapshot_from_sources,
                                        persist_snapshot_artifact)
        store = self.make_store(tmp_path)
        snapshot = build_snapshot_from_sources(self.SOURCES)
        persist_snapshot_artifact(store, snapshot, self.SOURCES)
        other = [("easylist", "||different.example^")]
        loaded = build_snapshot_from_sources(other, store)
        assert loaded.epoch == 1                   # fresh build, no blob

    def test_reload_churn_persists_and_reuses_artifacts(self, tmp_path):
        import os
        from repro.serve.reload import Reloader, SnapshotHolder
        store = self.make_store(tmp_path)
        holder = SnapshotHolder.from_sources(self.SOURCES, store)
        reloader = Reloader(holder, store=store)
        other = [("easylist", EASYLIST + "||extra.example^\n")]
        for _ in range(3):                         # churn back and forth
            assert reloader.reload(other).status == "swapped"
            assert reloader.reload(self.SOURCES).status == "swapped"
        blobs = [name for name in os.listdir(store.directory)
                 if name.endswith(".cidx")]
        assert len(blobs) == 2                     # one per distinct content
        with observe() as (registry, _):
            assert reloader.reload(other).status == "swapped"
        assert registry.flat()[
            "filters.index.automaton_artifact{event=load_hit}"] == 1

    def test_blob_kind_validated(self, tmp_path):
        from repro.state.snapshots import SnapshotStoreError
        store = self.make_store(tmp_path)
        with pytest.raises(SnapshotStoreError):
            store.save_blob(1, "ab" * 4, b"x", kind="../evil")
