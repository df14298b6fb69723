"""The one SHA-256: the builtin module, known answers against hashlib."""

import hashlib

import pytest

from repro.sim.rng import RngRegistry, sha256


@pytest.mark.parametrize("data", [
    b"",
    b"abc",
    "Grüße aus 東京 ☃".encode(),
    bytes(range(256)) * 5,      # 1 280 bytes: twenty 64-byte blocks
    b"a" * 55, b"a" * 56, b"a" * 64,    # around the padding boundary
], ids=["empty", "abc", "non-ascii", "multi-block", "55", "56", "64"])
def test_sha256_equals_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    h = sha256(data[:7])
    h.update(data[7:])
    assert h.digest() == hashlib.sha256(data).digest()


def test_fips_abc_vector():
    assert sha256(b"abc").hexdigest() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_sha256_is_not_openssl():
    assert sha256 is not hashlib.sha256
    assert sha256.__module__ in ("_sha2", "_sha256")


def test_streams_are_seeded_from_it():
    digest = hashlib.sha256(b"7:net").digest()
    expected = int.from_bytes(digest[:8], "big")
    import random
    assert RngRegistry(7).stream("net").random() == \
        random.Random(expected).random()
