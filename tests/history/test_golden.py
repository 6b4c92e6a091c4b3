"""Golden pin: the generated whitelist history, byte for byte.

The history is a pure function of ``(seed, key_bits)`` and nothing
journals it, so every run (and every resumed survey) regenerates it.
These digests pin that function: any change to the generator's output
— a reordered rng draw, a different commit, a new sitekey — fails here
before it can silently move the paper's tables.
"""

import hashlib
import json

import pytest

from repro.history.generator import generate_history

#: SHA-256 of :func:`_history_fingerprint` for ``seed=2015``.
GOLDEN = {
    128: "e6cca39681df840eaf6e5ad08d7edcab7029bcd073c39f9245efbc070f726cbd",
    512: "88563d53089dd302488dd8f723fd6f0abf26baa6782e7f5bc46efd590f090a2b",
}


def _history_fingerprint(history) -> str:
    """Every changeset, the tip, the publisher directory and the
    sitekeys, as one canonical JSON string."""
    changesets = [
        (c.rev, c.when.isoformat(), c.message, list(c.added),
         list(c.removed))
        for c in history.repository.log()
    ]
    return json.dumps({
        "changesets": changesets,
        "tip": history.tip_lines(),
        "publishers": {k: list(v)
                       for k, v in history.publisher_directory.items()},
        "sitekeys": history.sitekeys,
    }, sort_keys=True)


@pytest.mark.parametrize("key_bits", sorted(GOLDEN))
def test_history_matches_golden_digest(key_bits):
    history = generate_history(seed=2015, key_bits=key_bits)
    digest = hashlib.sha256(
        _history_fingerprint(history).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[key_bits]
