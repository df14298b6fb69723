"""Simulated public-key cryptography.

The reproduction does not need RSA math -- Condor-G's behaviour depends on
*credential structure* (chains, lifetimes, delegation), not on the
hardness of factoring.  We model the math with an oracle:

* a key pair is ``(public_id, private_id)``, both opaque strings;
* :func:`sign` produces a digest bound to the private key and the data;
* :func:`verify` checks a signature against the *public* id by consulting
  the pair oracle, exactly as real verification consults the key pair's
  mathematical relationship.

Forging a signature without the private id is as impossible here as it is
with real PKI, because the oracle entry is created only at key-generation
time and the private id never travels with the certificate.
"""

from __future__ import annotations

import itertools

from ..sim.rng import sha256

# The "mathematics": which public key corresponds to which private key.
_PAIR_ORACLE: dict[str, str] = {}
_COUNTER = itertools.count(1)


def generate_keypair(label: str = "") -> tuple[str, str]:
    """Return (public_id, private_id)."""
    n = next(_COUNTER)
    seed = f"{label}:{n}"
    public = "pub-" + sha256(f"P{seed}".encode()).hexdigest()[:16]
    private = "prv-" + sha256(f"S{seed}".encode()).hexdigest()[:16]
    _PAIR_ORACLE[public] = private
    return public, private


def sign(private_id: str, data: str) -> str:
    """Signature over `data` producible only with the private key."""
    return sha256(f"{private_id}|{data}".encode()).hexdigest()


def verify(public_id: str, data: str, signature: str) -> bool:
    """True iff `signature` was produced by the pair of `public_id`."""
    private_id = _PAIR_ORACLE.get(public_id)
    if private_id is None:
        return False
    return sign(private_id, data) == signature


def reset_oracle() -> None:
    """Forget all key pairs and restart key numbering.

    Isolation helper: key ids otherwise keep counting across testbeds
    built in the same process, which would make the second run of a
    seed differ from the first.
    """
    global _COUNTER
    _PAIR_ORACLE.clear()
    _COUNTER = itertools.count(1)
