"""RFC 7748 vectors for X25519 and behaviour tests for HPKE."""

import importlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hpke import (
    HpkeKeyPair,
    open_sealed,
    seal,
    setup_base_recipient,
    setup_base_sender,
)
from repro.crypto.x25519 import (
    A24,
    P,
    X25519PrivateKey,
    X25519_BASEPOINT,
    _decode_scalar,
    _decode_u_coordinate,
    _encode_u_coordinate,
    x25519,
)
from repro.scenario import run_scenario

# ``repro.crypto`` re-exports the function under the module's name, so
# attribute access cannot reach the module itself.
x25519_module = importlib.import_module("repro.crypto.x25519")

ALICE_PRIV = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
)
ALICE_PUB = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
)
BOB_PRIV = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
)
BOB_PUB = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
)
SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
)

#: Low-order u-coordinates (order dividing 8, on the curve or its
#: twist), including the non-canonical encodings p and p + 1: a clamped
#: scalar maps each to zero, which RFC 7748 section 6.1 says to reject.
LOW_ORDER_U = [
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    P - 1,
    P,
    P + 1,
]


# A direct transcription of the RFC 7748 section 5 ladder, with a
# conditional swap on every bit, a reduction after every operation and
# Fermat inversion: the oracle ``x25519`` must agree with.
def _cswap(swap: int, a: int, b: int) -> Tuple[int, int]:
    """Conditional swap; branchless in spirit (this is a simulator)."""
    mask = -swap  # 0 or all-ones (Python ints extend infinitely)
    dummy = mask & (a ^ b)
    return a ^ dummy, b ^ dummy


def reference_x25519(scalar: bytes, u: bytes = X25519_BASEPOINT) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    ``scalar`` and ``u`` are 32-byte strings; returns the 32-byte
    little-endian u-coordinate of the product.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u_coordinate(u)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        x2, x3 = _cswap(swap, x2, x3)
        z2, z3 = _cswap(swap, z2, z3)
        swap = k_t

        a = (x2 + z2) % P
        aa = (a * a) % P
        b = (x2 - z2) % P
        bb = (b * b) % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = (d * a) % P
        cb = (c * b) % P
        x3 = (da + cb) % P
        x3 = (x3 * x3) % P
        z3 = (da - cb) % P
        z3 = (z3 * z3) % P
        z3 = (z3 * x1) % P
        x2 = (aa * bb) % P
        z2 = (e * ((aa + A24 * e) % P)) % P

    x2, x3 = _cswap(swap, x2, x3)
    z2, z3 = _cswap(swap, z2, z3)
    result = (x2 * pow(z2, P - 2, P)) % P
    return _encode_u_coordinate(result)


#: u-coordinates as 32 raw bytes: anything, then the non-canonical
#: ranges ``p <= u < 2**255`` and ``u >= 2**255`` (bit 255 set).
_U_BYTES = st.one_of(
    st.integers(0, 2**256 - 1),
    st.integers(P, 2**255 - 1),
    st.integers(2**255, 2**256 - 1),
).map(lambda value: value.to_bytes(32, "little"))


class TestX25519Rfc7748:
    def test_alice_public_key(self):
        assert X25519PrivateKey(ALICE_PRIV).public_bytes == ALICE_PUB

    def test_bob_public_key(self):
        assert X25519PrivateKey(BOB_PRIV).public_bytes == BOB_PUB

    def test_shared_secret_both_directions(self):
        assert X25519PrivateKey(ALICE_PRIV).exchange(BOB_PUB) == SHARED
        assert X25519PrivateKey(BOB_PRIV).exchange(ALICE_PUB) == SHARED

    def test_scalar_mult_vector_1(self):
        scalar = bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
        )
        u = bytes.fromhex(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
        )
        assert x25519(scalar, u).hex() == (
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        )

    def test_scalar_mult_vector_2(self):
        scalar = bytes.fromhex(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"
        )
        u = bytes.fromhex(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"
        )
        assert x25519(scalar, u).hex() == (
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        )

    def test_iterated_vectors(self):
        """RFC 7748 section 5.2: k = u = 9, then (k, u) <- (X25519(k, u), k)."""
        k = u = X25519_BASEPOINT
        k, u = x25519(k, u), k
        assert k.hex() == (
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        )
        for _ in range(999):
            k, u = x25519(k, u), k
        assert k.hex() == (
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        )

    @pytest.mark.parametrize("u", LOW_ORDER_U)
    def test_low_order_point_is_non_contributory(self, u):
        peer = u.to_bytes(32, "little")
        assert x25519(ALICE_PRIV, peer) == bytes(32)
        with pytest.raises(ValueError, match="non-contributory"):
            X25519PrivateKey(ALICE_PRIV).exchange(peer)

    @given(st.binary(min_size=32, max_size=32), _U_BYTES)
    @settings(max_examples=200)
    def test_matches_reference_ladder(self, scalar, u):
        assert x25519(scalar, u) == reference_x25519(scalar, u)

    def test_high_bit_of_u_is_masked(self):
        u_with_high_bit = bytes(31) + b"\x80"
        u_without = bytes(32)
        # both decode to u=0 -> identical (zero) output means the mask
        # applied; compare against each other rather than zero check
        assert x25519(ALICE_PRIV, u_with_high_bit) == x25519(ALICE_PRIV, u_without)

    def test_bad_input_sizes(self):
        with pytest.raises(ValueError):
            x25519(b"short", X25519_BASEPOINT)
        with pytest.raises(ValueError):
            x25519(ALICE_PRIV, b"short")
        with pytest.raises(ValueError):
            X25519PrivateKey.generate(b"short")

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @settings(max_examples=5)
    def test_diffie_hellman_commutes(self, seed_a, seed_b):
        a = X25519PrivateKey.generate(seed_a)
        b = X25519PrivateKey.generate(seed_b)
        assert x25519(a.private_bytes, b.public_bytes) == x25519(
            b.private_bytes, a.public_bytes
        )


@pytest.fixture
def x25519_calls(monkeypatch) -> List[tuple]:
    """Arguments of every call made through the module-level ``x25519``."""
    calls: List[tuple] = []
    original = x25519_module.x25519

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(x25519_module, "x25519", counting)
    return calls


class TestX25519KeyObject:
    def test_public_key_cache_keeps_field_equality(self):
        read, unread = X25519PrivateKey(ALICE_PRIV), X25519PrivateKey(ALICE_PRIV)
        assert read == unread and hash(read) == hash(unread)
        assert read.public_bytes == x25519(ALICE_PRIV, X25519_BASEPOINT)
        assert read == unread and hash(read) == hash(unread)
        assert unread.public_bytes == read.public_bytes
        assert read == unread and hash(read) == hash(unread)
        assert read != X25519PrivateKey(BOB_PRIV)

    def test_public_key_is_computed_once(self, x25519_calls):
        key = X25519PrivateKey(BOB_PRIV)
        assert key.public_bytes == key.public_bytes == BOB_PUB
        assert len(x25519_calls) == 1

    @pytest.mark.parametrize("queries", [1, 3, 6])
    def test_odoh_costs_three_scalar_mults_per_query(self, x25519_calls, queries):
        """Per query: the ephemeral key's public key, the client's DH and
        the target's DH; plus the target's public key once per run."""
        run_scenario("odoh", queries=queries)
        assert len(x25519_calls) == 3 * queries + 1


class TestHpke:
    def test_single_shot_roundtrip(self):
        keypair = HpkeKeyPair.generate(b"\x01" * 32)
        enc, ciphertext = seal(keypair.public_bytes, b"attack at dawn", info=b"test")
        assert open_sealed(enc, ciphertext, keypair, info=b"test") == b"attack at dawn"

    def test_wrong_recipient_fails(self):
        keypair = HpkeKeyPair.generate(b"\x01" * 32)
        wrong = HpkeKeyPair.generate(b"\x02" * 32)
        enc, ciphertext = seal(keypair.public_bytes, b"secret")
        with pytest.raises(ValueError):
            open_sealed(enc, ciphertext, wrong)

    def test_wrong_info_fails(self):
        keypair = HpkeKeyPair.generate(b"\x01" * 32)
        enc, ciphertext = seal(keypair.public_bytes, b"secret", info=b"a")
        with pytest.raises(ValueError):
            open_sealed(enc, ciphertext, keypair, info=b"b")

    def test_aad_is_authenticated(self):
        keypair = HpkeKeyPair.generate(b"\x01" * 32)
        enc, ciphertext = seal(keypair.public_bytes, b"secret", aad=b"header")
        with pytest.raises(ValueError):
            open_sealed(enc, ciphertext, keypair, aad=b"other")

    def test_context_sequence_of_messages(self):
        keypair = HpkeKeyPair.generate(b"\x03" * 32)
        sender = setup_base_sender(keypair.public_bytes, b"ctx")
        recipient = setup_base_recipient(sender.enc, keypair, b"ctx")
        for index in range(5):
            message = f"message {index}".encode()
            assert recipient.open(sender.seal(message)) == message

    def test_out_of_order_open_fails(self):
        keypair = HpkeKeyPair.generate(b"\x03" * 32)
        sender = setup_base_sender(keypair.public_bytes)
        recipient = setup_base_recipient(sender.enc, keypair)
        first = sender.seal(b"one")
        second = sender.seal(b"two")
        with pytest.raises(ValueError):
            recipient.open(second)  # nonce mismatch
        assert recipient.open(first) == b"one"

    def test_exporter_secrets_agree(self):
        keypair = HpkeKeyPair.generate(b"\x04" * 32)
        sender = setup_base_sender(keypair.public_bytes)
        recipient = setup_base_recipient(sender.enc, keypair)
        assert sender.export(b"label", 32) == recipient.export(b"label", 32)
        assert sender.export(b"label", 32) != sender.export(b"other", 32)

    def test_deterministic_with_ephemeral_seed(self):
        keypair = HpkeKeyPair.generate(b"\x05" * 32)
        one = seal(keypair.public_bytes, b"m", ephemeral_seed=b"\x06" * 32)
        two = seal(keypair.public_bytes, b"m", ephemeral_seed=b"\x06" * 32)
        assert one == two

    @given(st.binary(max_size=200))
    @settings(max_examples=10)
    def test_roundtrip_property(self, plaintext):
        keypair = HpkeKeyPair.generate(b"\x09" * 32)
        enc, ciphertext = seal(keypair.public_bytes, plaintext)
        assert open_sealed(enc, ciphertext, keypair) == plaintext
