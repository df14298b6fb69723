"""GSI proxy credentials and delegation.

A :class:`ProxyCredential` is what the Condor-G agent holds and forwards:
a short-lived key pair whose certificate is signed by the user's long-term
key (or by another proxy, for multi-level delegation).  The private key of
the *user* never leaves the user's machine -- only proxy private keys
travel, and only to parties the user delegates to, which is the whole
point of the GSI design the paper leans on (§3.1).

``signing_proof()`` produces a fresh, time-stamped signature that a remote
authorizer can verify against the proxy's public key; this models the GSI
authentication handshake without modelling TLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.fastcopy import Immutable
from . import crypto
from .pki import Certificate, CertificateAuthority, CertificateError, \
    make_certificate


@dataclass(frozen=True)
class ProxyCredential(Immutable):
    """A delegatable credential: cert chain (leaf first) + leaf private key.

    The private key is present only in the credential held by the
    delegatee.  An immutable value: it is presented on every request and
    written to the proxy file by reference.
    """

    chain: tuple[Certificate, ...]
    private_key: str

    @property
    def subject(self) -> str:
        return self.chain[0].subject

    @property
    def not_after(self) -> float:
        """Effective expiry: the chain is as short-lived as its weakest link."""
        return min(cert.not_after for cert in self.chain)

    def time_left(self, now: float) -> float:
        return max(0.0, self.not_after - now)

    def expired(self, now: float) -> bool:
        return self.time_left(now) <= 0.0

    def signing_proof(self, now: float, audience: str = "") -> dict:
        """A challenge-response proof of private-key possession."""
        data = f"{self.subject}|{audience}|{now!r}"
        return {
            "chain": self.chain,
            "data": data,
            "signature": crypto.sign(self.private_key, data),
        }


@dataclass
class UserCredential:
    """The user's long-term certificate + private key (stays on disk)."""

    certificate: Certificate
    private_key: str
    _proxy_serial: int = field(default=0)

    @property
    def subject(self) -> str:
        return self.certificate.subject

    def create_proxy(self, now: float, lifetime: float) -> ProxyCredential:
        """Sign a fresh proxy key pair with the user's long-term key."""
        if not self.certificate.valid_at(now):
            raise CertificateError("user certificate is not valid now")
        self._proxy_serial += 1
        public, private = crypto.generate_keypair(f"proxy:{self.subject}")
        cert = make_certificate(
            subject=f"{self.subject}/proxy-{self._proxy_serial}",
            issuer=self.subject,
            public_key=public,
            issuer_private_key=self.private_key,
            not_before=now,
            not_after=min(now + lifetime, self.certificate.not_after),
            is_proxy=True,
        )
        return ProxyCredential(chain=(cert, self.certificate),
                               private_key=private)


def delegate(
    proxy: ProxyCredential,
    now: float,
    lifetime: Optional[float] = None,
) -> ProxyCredential:
    """Create a further-delegated proxy (e.g. forwarded to a GRAM server).

    The new proxy is signed by the *current* proxy key and can be no
    longer-lived than its parent chain.
    """
    if proxy.expired(now):
        raise CertificateError("cannot delegate an expired proxy")
    horizon = proxy.not_after if lifetime is None \
        else min(now + lifetime, proxy.not_after)
    public, private = crypto.generate_keypair(f"delegated:{proxy.subject}")
    cert = make_certificate(
        subject=f"{proxy.subject}/delegated",
        issuer=proxy.subject,
        public_key=public,
        issuer_private_key=proxy.private_key,
        not_before=now,
        not_after=horizon,
        is_proxy=True,
    )
    return ProxyCredential(chain=(cert,) + proxy.chain, private_key=private)


class GridUser:
    """Convenience bundle: a person with a CA-issued identity."""

    def __init__(
        self,
        name: str,
        ca: CertificateAuthority,
        now: float = 0.0,
    ):
        self.name = name
        self.dn = f"/O=Grid/CN={name}"
        cert, key = ca.issue(self.dn, now=now, lifetime=365.0 * 86400.0)
        self.credential = UserCredential(cert, key)

    def proxy(self, now: float, lifetime: float = 12 * 3600.0
              ) -> ProxyCredential:
        return self.credential.create_proxy(now, lifetime)
