"""X25519 Diffie-Hellman (RFC 7748), implemented from scratch.

The Montgomery-ladder scalar multiplication over Curve25519 of RFC
7748 section 5, with its scalar clamping and little-endian encodings.
Verified against the RFC's test vectors and against a transcription
of the RFC's reference ladder in ``tests/test_crypto_x25519_hpke.py``.

The ladder is written for speed, not for constant time: it swaps with
a branch on each scalar bit, reduces only after products and inverts
with the extended Euclidean algorithm.  Timing side channels are
outside this model, which asks only who can see which values; the
substitutions table in DESIGN.md calls constant-time behaviour
irrelevant to the decoupling analysis.

This is the KEM substrate for HPKE (:mod:`repro.crypto.hpke`), which in
turn powers the ODoH and OHTTP models.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

__all__ = ["X25519PrivateKey", "x25519", "X25519_BASEPOINT"]

P = 2**255 - 19
A24 = 121665
_MASK255 = (1 << 255) - 1
X25519_BASEPOINT = b"\x09" + b"\x00" * 31


def _decode_u_coordinate(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError("u-coordinate must be 32 bytes")
    value = int.from_bytes(u, "little")
    return value & _MASK255  # mask the high bit per RFC 7748


def _encode_u_coordinate(value: int) -> bytes:
    return (value % P).to_bytes(32, "little")


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != 32:
        raise ValueError("scalar must be 32 bytes")
    raw = bytearray(scalar)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(bytes(raw), "little")


def x25519(scalar: bytes, u: bytes = X25519_BASEPOINT) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    ``scalar`` and ``u`` are 32-byte strings; returns the 32-byte
    little-endian u-coordinate of the product.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u_coordinate(u)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swapped = "0"
    # Walk bits 254..0 (clamping cleared bit 255).  A step needs the
    # pairs swapped iff its bit is 1, so swap whenever the bit changes.
    # Sums and differences go unreduced into the next product.  A
    # product that only feeds another product is folded, not reduced:
    # as 2**255 = 19 (mod p), (t & _MASK255) + 19 * (t >> 255) keeps
    # t mod p in about 260 bits, and costs less than t % P.  The four
    # values carried to the next step are reduced in full, so no value
    # grows from step to step.
    for bit in format(k, "0255b"):
        if bit != swapped:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
            swapped = bit

        a = x2 + z2
        b = x2 - z2
        aa = a * a
        aa = (aa & _MASK255) + 19 * (aa >> 255)
        bb = b * b
        bb = (bb & _MASK255) + 19 * (bb >> 255)
        e = aa - bb
        da = (x3 - z3) * a
        da = (da & _MASK255) + 19 * (da >> 255)
        cb = (x3 + z3) * b
        cb = (cb & _MASK255) + 19 * (cb >> 255)
        x3 = da + cb
        z3 = da - cb
        x3 = x3 * x3 % P
        z3 = z3 * z3 * x1 % P
        x2 = aa * bb % P
        z2 = e * (aa + A24 * e) % P

    # Clamping clears the low three bits, so the ladder ends unswapped.
    if z2 == 0:
        # Low-order input: the point at infinity, encoded as zero.
        return bytes(32)
    return _encode_u_coordinate(x2 * pow(z2, -1, P))


@dataclass(frozen=True)
class X25519PrivateKey:
    """A clamped X25519 private key with its public key."""

    private_bytes: bytes

    @staticmethod
    def generate(seed: Optional[bytes] = None) -> "X25519PrivateKey":
        """A fresh key; pass a 32-byte ``seed`` for determinism."""
        raw = seed if seed is not None else secrets.token_bytes(32)
        if len(raw) != 32:
            raise ValueError("seed must be 32 bytes")
        return X25519PrivateKey(private_bytes=raw)

    @cached_property
    def public_bytes(self) -> bytes:
        """Computed on first read and kept; equality and hashing still
        see only ``private_bytes``."""
        return x25519(self.private_bytes, X25519_BASEPOINT)

    def exchange(self, peer_public: bytes) -> bytes:
        """The shared secret with ``peer_public``.

        Raises ``ValueError`` on an all-zero result (non-contributory
        key exchange), per RFC 7748's MUST-check guidance.
        """
        shared = x25519(self.private_bytes, peer_public)
        if shared == b"\x00" * 32:
            raise ValueError("non-contributory X25519 exchange (zero shared secret)")
        return shared
