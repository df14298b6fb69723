"""GSI authentication + gridmap authorization for RPC services.

A :class:`GSIAuthorizer` plugs into :class:`repro.sim.rpc.Service`: every
incoming request's credential (a ``signing_proof()`` dict from a
:class:`~repro.gsi.proxy.ProxyCredential`) is verified -- chain signatures,
validity window, proof-of-possession -- and the resulting *identity DN* is
mapped through the site's gridmap file to a local account, which becomes
``ctx.principal``.  Sites differ in their gridmaps, reproducing the paper's
point that the Grid id -> local subject mapping is per-site and transparent
to the user (§3.2).
"""

from __future__ import annotations

from typing import Optional

from ..sim.errors import AuthenticationError, AuthorizationError
from . import crypto
from .pki import CertificateAuthority, CertificateError, verify_chain


class GridMap:
    """The site-local `grid-mapfile`: identity DN -> local account."""

    def __init__(self, entries: Optional[dict[str, str]] = None):
        self._entries = dict(entries or {})

    def add(self, dn: str, local_user: str) -> None:
        self._entries[dn] = local_user

    def lookup(self, dn: str) -> Optional[str]:
        return self._entries.get(dn)


class GSIAuthorizer:
    """Authenticate a proxy proof and authorize through the gridmap."""

    def __init__(self, trust_anchors: dict[str, str], gridmap: GridMap):
        self.trust_anchors = dict(trust_anchors)
        self.gridmap = gridmap

    @classmethod
    def for_ca(cls, ca: CertificateAuthority,
               gridmap: Optional[GridMap] = None) -> "GSIAuthorizer":
        return cls({ca.dn: ca.public_key}, gridmap or GridMap())

    def authenticate(self, credential: object, now: float) -> str:
        """Verify the proof and chain; returns the identity DN."""
        if credential is None:
            raise AuthenticationError("no credential supplied")
        if not isinstance(credential, dict) or \
                not {"chain", "data", "signature"} <= set(credential):
            raise AuthenticationError("malformed credential proof")
        chain = list(credential["chain"])
        try:
            identity = verify_chain(chain, now, self.trust_anchors)
        except CertificateError as exc:
            raise AuthenticationError(str(exc)) from exc
        leaf = chain[0]
        if not crypto.verify(leaf.public_key, credential["data"],
                             credential["signature"]):
            raise AuthenticationError(
                "proof of possession failed (signature mismatch)")
        return identity

    def authorize(self, credential: object, now: float) -> str:
        """Full GSI check; returns the mapped local account name."""
        identity = self.authenticate(credential, now)
        local_user = self.gridmap.lookup(identity)
        if local_user is None:
            raise AuthorizationError(
                f"no gridmap entry for {identity!r}")
        return local_user
