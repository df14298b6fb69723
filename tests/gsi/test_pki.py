"""Tests for simulated PKI, proxies, delegation, and gridmap auth."""

import pytest

from repro.gsi import (
    CertificateAuthority,
    CertificateError,
    GridMap,
    GridUser,
    GSIAuthorizer,
    UserCredential,
    delegate,
    verify_chain,
)
from repro.gsi import crypto
from repro.sim.errors import AuthenticationError, AuthorizationError


@pytest.fixture
def ca():
    return CertificateAuthority("TestGrid")


@pytest.fixture
def alice(ca):
    return GridUser("alice", ca, now=0.0)


class TestCrypto:
    def test_sign_verify_roundtrip(self):
        pub, prv = crypto.generate_keypair("t")
        sig = crypto.sign(prv, "hello")
        assert crypto.verify(pub, "hello", sig)

    def test_wrong_data_fails(self):
        pub, prv = crypto.generate_keypair("t")
        sig = crypto.sign(prv, "hello")
        assert not crypto.verify(pub, "HELLO", sig)

    def test_wrong_key_fails(self):
        pub1, prv1 = crypto.generate_keypair("a")
        pub2, prv2 = crypto.generate_keypair("b")
        sig = crypto.sign(prv1, "data")
        assert not crypto.verify(pub2, "data", sig)

    def test_unknown_public_key_fails(self):
        assert not crypto.verify("pub-nonexistent", "data", "sig")


class TestCertificates:
    def test_issue_and_verify_user_cert(self, ca, alice):
        anchors = {ca.dn: ca.public_key}
        identity = verify_chain([alice.credential.certificate], 100.0,
                                anchors)
        assert identity == "/O=Grid/CN=alice"

    def test_expired_cert_rejected(self, ca):
        cert, _key = ca.issue("/O=Grid/CN=bob", now=0.0, lifetime=10.0)
        with pytest.raises(CertificateError, match="expired"):
            verify_chain([cert], 11.0, {ca.dn: ca.public_key})

    def test_untrusted_issuer_rejected(self, ca, alice):
        rogue = CertificateAuthority("Rogue")
        with pytest.raises(CertificateError, match="untrusted"):
            verify_chain([alice.credential.certificate], 1.0,
                         {rogue.dn: rogue.public_key})

    def test_tampered_cert_rejected(self, ca, alice):
        import dataclasses
        cert = alice.credential.certificate
        forged = dataclasses.replace(cert, subject="/O=Grid/CN=mallory")
        with pytest.raises(CertificateError, match="signature"):
            verify_chain([forged], 1.0, {ca.dn: ca.public_key})

    def test_empty_chain_rejected(self, ca):
        with pytest.raises(CertificateError):
            verify_chain([], 0.0, {ca.dn: ca.public_key})


class TestProxies:
    def test_proxy_chain_verifies(self, ca, alice):
        proxy = alice.proxy(now=0.0, lifetime=3600.0)
        identity = verify_chain(list(proxy.chain), 100.0,
                                {ca.dn: ca.public_key})
        assert identity == alice.dn

    def test_proxy_lifetime_capped_by_user_cert(self, ca):
        cert, key = ca.issue("/O=Grid/CN=carol", now=0.0, lifetime=1000.0)
        proxy = UserCredential(cert, key).create_proxy(0.0, 10**9)
        assert proxy.not_after == 1000.0

    def test_proxy_expiry(self, ca, alice):
        proxy = alice.proxy(now=0.0, lifetime=100.0)
        assert not proxy.expired(50.0)
        assert proxy.expired(101.0)
        assert proxy.time_left(40.0) == pytest.approx(60.0)
        assert proxy.time_left(500.0) == 0.0

    def test_delegation_extends_chain(self, ca, alice):
        proxy = alice.proxy(now=0.0, lifetime=1000.0)
        forwarded = delegate(proxy, now=10.0)
        assert len(forwarded.chain) == len(proxy.chain) + 1
        identity = verify_chain(list(forwarded.chain), 100.0,
                                {ca.dn: ca.public_key})
        assert identity == alice.dn

    def test_delegation_cannot_outlive_parent(self, ca, alice):
        proxy = alice.proxy(now=0.0, lifetime=100.0)
        forwarded = delegate(proxy, now=10.0, lifetime=10**9)
        assert forwarded.not_after <= proxy.not_after

    def test_cannot_delegate_expired_proxy(self, ca, alice):
        proxy = alice.proxy(now=0.0, lifetime=10.0)
        with pytest.raises(CertificateError):
            delegate(proxy, now=20.0)


class TestAuthorizer:
    def make_auth(self, ca, mapping):
        return GSIAuthorizer.for_ca(ca, GridMap(mapping))

    def test_full_gsi_flow(self, ca, alice):
        auth = self.make_auth(ca, {alice.dn: "au_alice"})
        proxy = alice.proxy(now=0.0, lifetime=3600.0)
        proof = proxy.signing_proof(now=10.0, audience="gatekeeper")
        assert auth.authorize(proof, now=10.0) == "au_alice"

    def test_no_credential_rejected(self, ca):
        auth = self.make_auth(ca, {})
        with pytest.raises(AuthenticationError):
            auth.authorize(None, now=0.0)

    def test_expired_proxy_rejected(self, ca, alice):
        auth = self.make_auth(ca, {alice.dn: "au_alice"})
        proxy = alice.proxy(now=0.0, lifetime=10.0)
        proof = proxy.signing_proof(now=5.0)
        with pytest.raises(AuthenticationError):
            auth.authorize(proof, now=50.0)

    def test_unmapped_identity_rejected(self, ca, alice):
        auth = self.make_auth(ca, {"/O=Grid/CN=someone-else": "x"})
        proof = alice.proxy(0.0, 100.0).signing_proof(now=1.0)
        with pytest.raises(AuthorizationError):
            auth.authorize(proof, now=1.0)

    def test_stolen_chain_without_key_rejected(self, ca, alice):
        """An attacker replaying the chain with a forged proof fails."""
        auth = self.make_auth(ca, {alice.dn: "au_alice"})
        proxy = alice.proxy(now=0.0, lifetime=3600.0)
        proof = proxy.signing_proof(now=10.0)
        proof["signature"] = "forged"
        with pytest.raises(AuthenticationError, match="possession"):
            auth.authorize(proof, now=10.0)

    def test_per_site_mapping_differs(self, ca, alice):
        wisc = self.make_auth(ca, {alice.dn: "alice"})
        anl = self.make_auth(ca, {alice.dn: "u4477"})
        proof = alice.proxy(0.0, 100.0).signing_proof(now=1.0)
        assert wisc.authorize(proof, 1.0) == "alice"
        assert anl.authorize(proof, 1.0) == "u4477"

    def test_malformed_proof_rejected(self, ca):
        auth = self.make_auth(ca, {})
        with pytest.raises(AuthenticationError):
            auth.authorize({"bogus": 1}, now=0.0)
