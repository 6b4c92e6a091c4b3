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

from repro.filters.compiled.artifact import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    CompiledArtifact,
    CompiledArtifactError,
    parse_artifact,
    serialize_artifact,
)
from repro.filters.compiled.index import TOKEN_TABLE, CompiledFilterIndex

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "CompiledArtifact",
    "CompiledArtifactError",
    "CompiledFilterIndex",
    "TOKEN_TABLE",
    "parse_artifact",
    "serialize_artifact",
]
