"""Ahead-of-time compiled filter-index machinery.

Two modules, one pipeline: :mod:`~repro.filters.compiled.index` turns
a built keyword index into the frozen engine's probe structure (a
keyword set plus prebuilt bucket tuples), and
:mod:`~repro.filters.compiled.artifact` serializes its bucket
assignments as a versioned, CRC-checksummed artifact that
:class:`~repro.state.snapshots.SnapshotStore` keys by epoch + content
fingerprint, so the serving daemon loads it instead of re-deriving
them.  See docs/PERFORMANCE.md for the cost model.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".artifact": (
        "ARTIFACT_MAGIC", "ARTIFACT_VERSION", "CompiledArtifact",
        "CompiledArtifactError", "parse_artifact", "serialize_artifact",
    ),
    ".index": ("TOKEN_TABLE", "CompiledFilterIndex"),
})
