"""Sitekey subsystem: RSA, DER, the ABP sitekey protocol, parking, factoring.

Implements Section 4.2.3 end-to-end: sitekey generation and encoding,
server-side signing, client-side verification, the parked-domain scan of
Table 3, and the weak-key factoring attack of Figure 5.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".der": (
        "DerError", "decode_public_key", "encode_public_key",
        "public_key_from_base64", "public_key_to_base64",
    ),
    ".factoring": (
        "BypassDemo", "FactoredKey", "FactoringError", "factor_semiprime",
        "factor_sitekey", "pollard_p_minus_1", "pollard_rho",
        "recover_private_key", "run_bypass_demo",
    ),
    ".parking": (
        "DEFAULT_SCALE_DIVISOR", "PARKING_SERVICES", "ParkedDomainServer",
        "ParkingService", "ScanResult", "ZoneEntry", "ZoneScanner",
        "synthesize_zone",
    ),
    ".protocol": (
        "SitekeyVerification", "make_header", "signed_string", "split_header",
        "verify_presented_key",
    ),
    ".rsa": (
        "RsaPrivateKey", "RsaPublicKey", "generate_keypair", "generate_prime",
        "is_probable_prime", "sign", "verify",
    ),
})
