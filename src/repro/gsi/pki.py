"""Certificates and certificate authorities (simulated X.509).

A :class:`Certificate` binds a subject DN to a public key for a validity
interval and is signed by its issuer.  A :class:`CertificateAuthority`
issues end-entity (user/host) certificates; proxies (see
:mod:`repro.gsi.proxy`) are certificates signed by a *user or proxy* key
with ``is_proxy=True`` -- the GSI single-sign-on trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.fastcopy import Immutable
from . import crypto


class CertificateError(Exception):
    """Certificate or chain validation failure."""


@dataclass(frozen=True)
class Certificate(Immutable):
    subject: str                 # distinguished name
    issuer: str                  # issuer DN
    public_key: str
    not_before: float
    not_after: float
    is_proxy: bool = False
    serial: int = 0
    signature: str = ""         # over signing_payload(), by the issuer key

    def signing_payload(self) -> str:
        return "|".join([
            self.subject, self.issuer, self.public_key,
            repr(self.not_before), repr(self.not_after),
            repr(self.is_proxy), str(self.serial),
        ])

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after


def make_certificate(
    subject: str,
    issuer: str,
    public_key: str,
    issuer_private_key: str,
    not_before: float,
    not_after: float,
    is_proxy: bool = False,
    serial: int = 0,
) -> Certificate:
    cert = Certificate(subject, issuer, public_key, not_before, not_after,
                       is_proxy, serial)
    signature = crypto.sign(issuer_private_key, cert.signing_payload())
    return Certificate(subject, issuer, public_key, not_before, not_after,
                       is_proxy, serial, signature)


@dataclass
class CertificateAuthority:
    """A trust anchor that issues end-entity certificates."""

    name: str
    _keys: tuple[str, str] = field(default_factory=tuple)
    _serial: int = 0

    def __post_init__(self) -> None:
        if not self._keys:
            self._keys = crypto.generate_keypair(f"ca:{self.name}")

    @property
    def public_key(self) -> str:
        return self._keys[0]

    @property
    def dn(self) -> str:
        return f"/CN=CA/{self.name}"

    def issue(
        self,
        subject: str,
        now: float,
        lifetime: float,
    ) -> tuple[Certificate, str]:
        """Issue a certificate; returns (certificate, private_key)."""
        self._serial += 1
        public, private = crypto.generate_keypair(subject)
        cert = make_certificate(
            subject=subject,
            issuer=self.dn,
            public_key=public,
            issuer_private_key=self._keys[1],
            not_before=now,
            not_after=now + lifetime,
            serial=self._serial,
        )
        return cert, private


def verify_chain(
    chain: list[Certificate],
    now: float,
    trust_anchors: dict[str, str],
) -> str:
    """Validate a certificate chain, leaf first.

    ``chain[-1]`` must be issued by a trust anchor (CA DN -> public key);
    every earlier certificate must be signed by the key of the one after
    it, be inside its validity interval, and (except possibly the last)
    be a proxy certificate.  Returns the *identity* DN: the subject of the
    first non-proxy certificate, which is what gets gridmapped.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    for i, cert in enumerate(chain):
        if not cert.valid_at(now):
            raise CertificateError(
                f"certificate {cert.subject!r} expired or not yet valid "
                f"(now={now}, window=[{cert.not_before}, {cert.not_after}])")
        if i + 1 < len(chain):
            signer = chain[i + 1]
            if cert.issuer != signer.subject:
                raise CertificateError(
                    f"chain broken: {cert.subject!r} issued by "
                    f"{cert.issuer!r}, next is {signer.subject!r}")
            if not crypto.verify(signer.public_key, cert.signing_payload(),
                                 cert.signature):
                raise CertificateError(
                    f"bad signature on {cert.subject!r}")
        else:
            anchor_key = trust_anchors.get(cert.issuer)
            if anchor_key is None:
                raise CertificateError(
                    f"untrusted issuer {cert.issuer!r}")
            if not crypto.verify(anchor_key, cert.signing_payload(),
                                 cert.signature):
                raise CertificateError(
                    f"bad CA signature on {cert.subject!r}")
            if cert.is_proxy:
                raise CertificateError(
                    "chain terminates in a proxy certificate")
    for cert in chain:
        if not cert.is_proxy:
            return cert.subject
    raise CertificateError("no identity certificate in chain")
