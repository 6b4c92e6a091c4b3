"""From-scratch RSA for the sitekey subsystem.

Adblock Plus sitekeys are DER-encoded RSA public keys; servers sign a
string derived from each HTTP request and the extension verifies the
signature (Section 4.2.3).  The paper's security result is that all
deployed sitekeys were 512-bit — weak enough to factor.

We implement RSA ourselves (keygen with Miller–Rabin, deterministic
PKCS#1-v1.5-style signing over SHA-256) rather than using a crypto
library, because the factoring study needs keys across the whole
strength range, including deliberately weak ones no library will mint.
Keys here must never be used for anything but this simulation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
    "is_probable_prime",
    "generate_prime",
    "KeyError_",
]

#: Public exponent used by every generated key (the RFC default).
PUBLIC_EXPONENT = 65537

_SHA256_PREFIX_LEN = 19  # DigestInfo overhead we emulate with a tag byte


class KeyError_(ValueError):
    """Raised for structurally invalid keys or unusable parameters."""


@dataclass(frozen=True, slots=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True, slots=True)
class RsaPrivateKey:
    """An RSA private key; retains ``p``/``q`` so tests can check factoring."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def bits(self) -> int:
        return self.n.bit_length()


# -- primality ---------------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_probable_prime(n: int, rounds: int = 40,
                      rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test (probabilistic for large ``n``)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a ``bits``-bit probable prime with the top two bits set.

    Setting the top two bits guarantees the product of two such primes
    has exactly ``2 * bits`` bits — so a "512-bit key" really is 512 bits,
    like the deployed sitekeys.
    """
    if bits < 8:
        raise KeyError_("prime size below 8 bits is not supported")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_keypair(bits: int = 512,
                     seed: int | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair with an ``n`` of exactly ``bits`` bits.

    ``seed`` makes generation deterministic (all study keys are seeded).
    Raises :class:`KeyError_` for sizes below 16 bits.
    """
    if bits < 16:
        raise KeyError_("modulus below 16 bits cannot host a signature")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        e = PUBLIC_EXPONENT
        if phi % 2 == 0 and _gcd(e, phi) != 1:
            continue
        if e >= phi:
            # Tiny demo keys: fall back to the smallest workable odd e.
            e = 3
            while _gcd(e, phi) != 1:
                e += 2
                if e >= phi:
                    break
            if e >= phi:
                continue
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# -- signing -----------------------------------------------------------------

def _encode_digest(message: bytes, key_bytes: int) -> int:
    """PKCS#1-v1.5-style encoding: 0x00 0x01 FF.. 0x00 | digest.

    For tiny demo moduli (< digest+padding) the digest is truncated to
    fit — acceptable because those keys exist only to be factored.
    """
    digest = hashlib.sha256(message).digest()
    room = key_bytes - 3
    if room < 8:
        digest = digest[: max(1, room)]
        padded = b"\x00\x01\x00" + digest
    else:
        digest = digest[: min(len(digest), room - 1)]
        padding = b"\xff" * (key_bytes - 3 - len(digest))
        padded = b"\x00\x01" + padding + b"\x00" + digest
    return int.from_bytes(padded[:key_bytes], "big")


def sign(message: bytes, key: RsaPrivateKey) -> bytes:
    """Sign ``message``; returns a signature of the key's byte length."""
    key_bytes = (key.n.bit_length() + 7) // 8
    m = _encode_digest(message, key_bytes) % key.n
    s = pow(m, key.d, key.n)
    return s.to_bytes(key_bytes, "big")


def verify(message: bytes, signature: bytes, key: RsaPublicKey) -> bool:
    """Verify a signature produced by :func:`sign`.  Never raises."""
    key_bytes = (key.n.bit_length() + 7) // 8
    if len(signature) != key_bytes:
        return False
    s = int.from_bytes(signature, "big")
    if s >= key.n:
        return False
    recovered = pow(s, key.e, key.n)
    expected = _encode_digest(message, key_bytes) % key.n
    return recovered == expected
