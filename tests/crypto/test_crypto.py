"""Unit tests for hashing and simulated signatures."""

import pytest

from repro.common.types import Transfer
from repro.crypto.hashing import content_hash, short_hash
from repro.crypto.signatures import SignatureScheme


class TestContentHash:
    def test_equal_values_hash_equally(self):
        a = Transfer("a", "b", 5, issuer=0, sequence=1)
        b = Transfer("a", "b", 5, issuer=0, sequence=1)
        assert content_hash(a) == content_hash(b)

    def test_different_values_hash_differently(self):
        assert content_hash(Transfer("a", "b", 5)) != content_hash(Transfer("a", "b", 6))

    def test_structural_encoding_of_containers(self):
        assert content_hash({"x": 1, "y": 2}) == content_hash({"y": 2, "x": 1})
        assert content_hash([1, 2]) != content_hash([2, 1])
        assert content_hash({1, 2}) == content_hash({2, 1})

    def test_scalar_types_are_distinguished(self):
        assert content_hash(1) != content_hash("1")
        assert content_hash(True) != content_hash(1)
        assert content_hash(None) != content_hash("")

    def test_short_hash_is_prefix(self):
        value = ("x", 1)
        assert content_hash(value).startswith(short_hash(value))

    def test_unhashable_payloads_supported(self):
        assert content_hash([{"a": [1, 2]}]) == content_hash([{"a": [1, 2]}])


class TestSignatures:
    def test_sign_and_verify(self):
        scheme = SignatureScheme(seed=1)
        keypair = scheme.keypair_for(3)
        signature = keypair.sign("hello")
        assert scheme.verify("hello", signature)

    def test_wrong_payload_fails(self):
        scheme = SignatureScheme(seed=1)
        signature = scheme.keypair_for(3).sign("hello")
        assert not scheme.verify("goodbye", signature)

    def test_claimed_signer_must_match(self):
        scheme = SignatureScheme(seed=1)
        signature = scheme.keypair_for(3).sign("hello")
        forged = type(signature)(signer=4, tag=signature.tag)
        assert not scheme.verify("hello", forged)

    def test_verify_all(self):
        scheme = SignatureScheme(seed=1)
        signatures = [scheme.keypair_for(p).sign("x") for p in range(3)]
        assert scheme.verify_all("x", signatures)
        assert not scheme.verify_all("y", signatures)

    def test_different_scheme_seeds_are_incompatible(self):
        signature = SignatureScheme(seed=1).keypair_for(0).sign("x")
        assert not SignatureScheme(seed=2).verify("x", signature)


class TestQuorumCertificates:
    def test_certificate_with_enough_distinct_signers(self):
        scheme = SignatureScheme()
        payload = ("ack", 1)
        signatures = [scheme.keypair_for(p).sign(payload) for p in range(3)]
        certificate = scheme.make_certificate(payload, signatures)
        assert scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert len(certificate) == 3

    def test_duplicate_signers_do_not_inflate_the_quorum(self):
        scheme = SignatureScheme()
        payload = ("ack", 1)
        signature = scheme.keypair_for(0).sign(payload)
        certificate = scheme.make_certificate(payload, [signature, signature, signature])
        assert not scheme.verify_certificate(payload, certificate, quorum_size=2)

    def test_signers_outside_the_allowed_set_ignored(self):
        scheme = SignatureScheme()
        payload = ("ack", 1)
        signatures = [scheme.keypair_for(p).sign(payload) for p in range(3)]
        certificate = scheme.make_certificate(payload, signatures)
        assert not scheme.verify_certificate(
            payload, certificate, quorum_size=3, allowed_signers=frozenset({0, 1})
        )

    def test_certificate_bound_to_payload(self):
        scheme = SignatureScheme()
        signatures = [scheme.keypair_for(p).sign(("ack", 1)) for p in range(3)]
        certificate = scheme.make_certificate(("ack", 1), signatures)
        assert not scheme.verify_certificate(("ack", 2), certificate, quorum_size=3)

    def test_invalid_quorum_size_rejected(self):
        scheme = SignatureScheme()
        certificate = scheme.make_certificate("x", [])
        with pytest.raises(Exception):
            scheme.verify_certificate("x", certificate, quorum_size=0)


class TestSignTelemetry:
    """Key pairs read the metrics registry through their scheme at sign time."""

    def test_late_attached_registry_counts_every_signature(self):
        from repro.obs import MetricsRegistry

        scheme = SignatureScheme(seed=1)
        pair = scheme.keypair_for(3)  # handed out before telemetry exists
        pair.sign("warm-up")  # no registry anywhere yet: nothing to count
        registry = MetricsRegistry()
        scheme.metrics = registry
        pair.sign("a")
        pair.sign("b")
        assert registry.counter("sig.sign").value == 2

    def test_detached_registry_stops_counting(self):
        from repro.obs import MetricsRegistry

        scheme = SignatureScheme(seed=1)
        registry = MetricsRegistry()
        scheme.metrics = registry
        pair = scheme.keypair_for(3)
        pair.sign("a")
        scheme.metrics = None
        pair.sign("b")
        assert registry.counter("sig.sign").value == 1


class TestVerificationCache:
    """Re-verification is memoised; the key covers every verdict input."""

    def test_repeated_certificate_verification_hits_the_cache(self):
        from repro.obs import MetricsRegistry

        scheme = SignatureScheme(seed=1)
        registry = MetricsRegistry()
        scheme.metrics = registry
        payload = ("settle", 1, 2, 3)
        certificate = scheme.make_certificate(
            payload, [scheme.keypair_for(p).sign(payload) for p in range(3)]
        )
        assert scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert registry.counter("sig.verify_certificate_cached").value == 0
        for _ in range(5):  # relay -> inbox -> gate style re-checks
            assert scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert registry.counter("sig.verify_certificate_cached").value == 5
        # The per-signature work ran once per signer, not once per re-check.
        assert registry.counter("sig.verify").value == 3

    def test_cached_and_uncached_verdicts_agree(self):
        scheme = SignatureScheme(seed=1)
        payload = ("x", 9)
        signature = scheme.keypair_for(0).sign(payload)
        assert scheme.verify(payload, signature)
        assert scheme.verify(payload, signature)  # cached
        bad = type(signature)(signer=0, tag="0" * 64)
        assert not scheme.verify(payload, bad)
        assert not scheme.verify(payload, bad)  # cached negative

    def test_quorum_size_and_signer_set_are_part_of_the_key(self):
        scheme = SignatureScheme(seed=1)
        payload = ("y", 1)
        certificate = scheme.make_certificate(
            payload, [scheme.keypair_for(p).sign(payload) for p in range(2)]
        )
        assert scheme.verify_certificate(payload, certificate, quorum_size=2)
        # A stricter question about the same certificate must not reuse the
        # cached "yes".
        assert not scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert not scheme.verify_certificate(
            payload, certificate, quorum_size=2, allowed_signers=frozenset({0})
        )


class TestOneCheckQuorum:
    """verify_quorum/certify: one batch verdict per signer set; a forged
    member, swapped identity, mutated payload or replayed bundle never
    passes, however often the genuine bundle was checked before."""

    def _scheme_payload_bundle(self, quorum=3):
        scheme = SignatureScheme(seed=5)
        payload = ("claim", 0, 1, 7)
        bundle = tuple(scheme.keypair_for(p).sign(payload) for p in range(quorum))
        return scheme, payload, bundle

    def test_quorum_of_distinct_valid_signers_passes(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        assert scheme.verify_quorum(
            payload, bundle, quorum_size=3, allowed_signers=frozenset(range(4))
        )

    def test_duplicate_signers_do_not_inflate_the_quorum(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        padded = bundle[:2] + (bundle[1],)
        assert not scheme.verify_quorum(payload, padded, quorum_size=3)

    def test_outsider_signer_fails_the_whole_batch(self):
        # Stricter than verify_certificate: a construction site knows which
        # signers it admitted, so an outsider is divergence, not noise.
        scheme, payload, bundle = self._scheme_payload_bundle()
        certificate = scheme.make_certificate(payload, bundle)
        allowed = frozenset({0, 1})
        assert scheme.verify_certificate(
            payload, certificate, quorum_size=2, allowed_signers=allowed
        )
        assert not scheme.verify_quorum(
            payload, bundle, quorum_size=2, allowed_signers=allowed
        )

    def test_invalid_quorum_size_rejected(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        with pytest.raises(Exception):
            scheme.verify_quorum(payload, bundle, quorum_size=0)

    def test_repeated_checks_reuse_the_per_signature_verdicts(self):
        from repro.obs import MetricsRegistry

        scheme, payload, bundle = self._scheme_payload_bundle()
        registry = MetricsRegistry()
        scheme.metrics = registry
        for _ in range(7):  # the trust boundaries of both settlement legs
            assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        # Every check walks the signer set; the HMAC ran once per signer.
        assert registry.counter("sig.verify_quorum").value == 7
        assert registry.counter("sig.verify").value == 7 * 3
        assert registry.counter("sig.verify_cached").value == 6 * 3

    def test_forged_member_never_aliases_a_warm_batch(self):
        from repro.crypto.signatures import Signature

        scheme, payload, bundle = self._scheme_payload_bundle()
        for _ in range(3):
            assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        forged = bundle[:2] + (Signature(signer=2, tag="0" * 64),)
        assert not scheme.verify_quorum(payload, forged, quorum_size=3)
        swapped = bundle[:2] + (Signature(signer=3, tag=bundle[2].tag),)
        assert not scheme.verify_quorum(payload, swapped, quorum_size=3)
        assert not scheme.verify_quorum(("claim", 0, 1, 8), bundle, quorum_size=3)
        # The genuine verdict is intact afterwards.
        assert scheme.verify_quorum(payload, bundle, quorum_size=3)

    def test_stricter_questions_never_reuse_a_cached_yes(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        assert not scheme.verify_quorum(payload, bundle, quorum_size=4)
        assert not scheme.verify_quorum(
            payload, bundle, quorum_size=3, allowed_signers=frozenset({0, 1})
        )

    def test_unhashable_payloads_verify_without_the_memo(self):
        scheme = SignatureScheme(seed=5)
        payload = ["batch", [1, 2], {"k": 3}]
        bundle = tuple(scheme.keypair_for(p).sign(payload) for p in range(3))
        assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        assert scheme.verify_quorum(payload, bundle, quorum_size=3)
        assert not scheme.verify_quorum(["batch", [1, 2], {"k": 4}], bundle, quorum_size=3)

    def test_certify_returns_a_certificate_and_primes_downstream_checks(self):
        from repro.obs import MetricsRegistry

        scheme, payload, bundle = self._scheme_payload_bundle()
        registry = MetricsRegistry()
        scheme.metrics = registry
        allowed = frozenset(range(4))
        certificate = scheme.certify(payload, bundle, 3, allowed)
        assert certificate is not None
        assert certificate.signatures == bundle
        # The first downstream re-check is already a cache hit: assembly
        # primed the certificate verdict under the exact downstream key.
        assert scheme.verify_certificate(
            payload, certificate, quorum_size=3, allowed_signers=allowed
        )
        assert registry.counter("sig.verify_certificate_cached").value == 1

    def test_certify_rejects_a_divergent_batch(self):
        from repro.crypto.signatures import Signature

        scheme, payload, bundle = self._scheme_payload_bundle()
        forged = bundle[:2] + (Signature(signer=2, tag="0" * 64),)
        assert scheme.certify(payload, forged, 3, frozenset(range(4))) is None
        under_quorum = bundle[:2]
        assert scheme.certify(payload, under_quorum, 3, frozenset(range(4))) is None
