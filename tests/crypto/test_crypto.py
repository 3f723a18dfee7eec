"""Unit tests for hashing and simulated signatures."""

import hashlib
import hmac
import pickle

import pytest

from repro.cluster import codec
from repro.cluster.settlement import SettlementAckClaim, SettlementClaim
from repro.common.types import Transfer
from repro.crypto import hashing, signatures
from repro.crypto.hashing import canonical_bytes, content_hash, short_hash
from repro.crypto.signatures import KeyPair, Signature, SignatureScheme
from repro.mp.messages import BatchAnnouncement, TransferAnnouncement
from repro.obs import MetricsRegistry


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


class TestCanonicalEncodingIsHistoryFree:
    """Equal values of different nested types encode apart, whatever the
    memo saw first: ``(1,) == (True,) == (1.0,)``, but their bytes differ."""

    def test_nested_bool_after_int(self):
        int_digest = content_hash(("history-bool", 1))
        assert content_hash(("history-bool", True)) != int_digest
        assert canonical_bytes(("history-bool", True)) == b"l:[s:history-bool,B:1]"

    def test_nested_int_after_float(self):
        assert canonical_bytes(("history-float", 2.0)) == b"l:[s:history-float,f:2.0]"
        assert canonical_bytes(("history-float", 2)) == b"l:[s:history-float,i:2]"

    def test_a_signature_over_a_float_does_not_verify_an_int(self):
        scheme = SignatureScheme(seed=3)
        signature = scheme.keypair_for(0).sign(("history-sig", 1.0))
        assert scheme.verify(("history-sig", 1.0), signature)
        assert not scheme.verify(("history-sig", 1), signature)


def _counting(scheme):
    """Attach a fresh registry to ``scheme``; return its ``sig.verify_cached`` counter."""
    registry = MetricsRegistry()
    scheme.metrics = registry
    return registry.counter("sig.verify_cached")


class TestCachesLiveOnTheirObjects:
    """No memo table: an :class:`EncodedOnce` payload keeps its canonical
    bytes in its ``_canonical`` slot and a :class:`Signature` keeps its one
    ``(scheme, payload bytes, verdict)`` in its ``_verdict`` slot, so each
    lives exactly as long as the object it describes."""

    def test_a_verdict_is_reused_for_the_same_scheme_and_equal_bytes(self):
        scheme = SignatureScheme(seed=1)
        cached = _counting(scheme)
        payload = ("reuse", 1)
        signature = scheme.keypair_for(0).sign(payload)
        assert scheme.verify(payload, signature)
        assert cached.value == 0
        # An equal payload, encoded afresh: equal bytes, so the verdict holds.
        assert scheme.verify(("reuse", 1), signature)
        assert scheme.verify_certificate(
            payload, scheme.make_certificate(payload, [signature]), quorum_size=1
        )
        assert cached.value == 2

    def test_a_verdict_is_recomputed_for_another_scheme(self):
        payload = ("scheme", 1)
        first, twin, stranger = SignatureScheme(seed=1), SignatureScheme(seed=1), SignatureScheme(seed=2)
        signature = first.keypair_for(0).sign(payload)
        counters = [_counting(scheme) for scheme in (first, twin, stranger)]
        assert first.verify(payload, signature)
        assert twin.verify(payload, signature)  # same keys, another directory
        assert not stranger.verify(payload, signature)
        assert first.verify(payload, signature)  # the stranger replaced the slot
        assert [counter.value for counter in counters] == [0, 0, 0]

    def test_a_verdict_is_recomputed_for_other_bytes(self):
        scheme = SignatureScheme(seed=1)
        cached = _counting(scheme)
        signature = scheme.keypair_for(0).sign(("bytes", 1))
        assert scheme.verify(("bytes", 1), signature)
        assert not scheme.verify(("bytes", 2), signature)
        assert not scheme.verify(("bytes", True), signature)  # equal value, other bytes
        assert scheme.verify(("bytes", 1), signature)
        assert cached.value == 0

    def test_a_forged_tag_is_verified_from_scratch(self):
        scheme = SignatureScheme(seed=1)
        cached = _counting(scheme)
        payload = ("forged", 1)
        genuine = scheme.keypair_for(0).sign(payload)
        assert scheme.verify(payload, genuine)
        forged = Signature(signer=0, tag="0" * 64)
        assert not scheme.verify(payload, forged)
        assert cached.value == 0
        # A refused verdict is the forged object's own, reused like any other.
        assert not scheme.verify(payload, forged)
        assert cached.value == 1
        assert scheme.verify(payload, genuine)
        assert cached.value == 2

    @pytest.mark.parametrize("carry", ["pickle", "codec"])
    def test_neither_slot_survives_a_copy(self, carry):
        dumps, loads = {
            "pickle": (pickle.dumps, pickle.loads),
            "codec": (codec.encode, codec.decode),
        }[carry]

        def build():
            transfer = Transfer("a", "x1:b", 5, issuer=0, sequence=1)
            announcement = TransferAnnouncement(transfer, (Transfer("c", "a", 2, issuer=2, sequence=1),))
            return [
                transfer,
                announcement,
                BatchAnnouncement((announcement,)),
                SettlementClaim(
                    source_shard=0, destination_shard=1, issuer=0, sequence=1, account="b", amount=5
                ),
                SettlementAckClaim(source_shard=0, destination_shard=1, issuer=0, sequence=1),
            ]

        scheme = SignatureScheme(seed=1)
        pair = scheme.keypair_for(0)
        for payload, fresh in zip(build(), build()):
            signature = pair.sign(payload)
            assert scheme.verify(payload, signature)
            assert payload._canonical is canonical_bytes(payload)
            assert signature._verdict == (scheme, payload._canonical, True)
            # The bytes carry no cache: they equal those of an untouched twin.
            assert dumps(payload) == dumps(fresh)
            assert dumps(signature) == dumps(Signature(signer=signature.signer, tag=signature.tag))
            payload_copy, signature_copy = loads(dumps(payload)), loads(dumps(signature))
            assert payload_copy == payload and signature_copy == signature
            assert not hasattr(payload_copy, "_canonical")
            assert not hasattr(signature_copy, "_verdict")

    def test_a_plain_tuple_is_encoded_on_every_call_and_leaves_no_state(self, monkeypatch):
        before = dict(vars(hashing))
        calls = []
        encode = hashing._canonical_bytes
        depth = [0]

        def counting_encode(payload):
            # The encoder recurses through this module global: count only the
            # outermost call, one per encoded payload.
            if depth[0] == 0:
                calls.append(payload)
            depth[0] += 1
            try:
                return encode(payload)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hashing, "_canonical_bytes", counting_encode)
        payload = ("plain", 1)
        first = canonical_bytes(payload)
        assert canonical_bytes(payload) == first
        assert calls == [payload, payload]
        # An EncodedOnce payload, by contrast, is encoded once.
        transfer = Transfer("a", "b", 1)
        assert canonical_bytes(transfer) is canonical_bytes(transfer)
        assert calls == [payload, payload, transfer]
        monkeypatch.undo()
        # The module holds no table: nothing but its functions and imports,
        # the same objects as before the calls.
        assert vars(hashing).keys() == before.keys()
        assert all(vars(hashing)[name] is value for name, value in before.items())
        assert not [
            name for name, value in vars(hashing).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        ]
        assert not hasattr(SignatureScheme(seed=1), "_verify_cache")


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
    """Per-signature verdicts are memoised; the key covers every verdict
    input, and certificates are checked in full every time."""

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
        # Every signature's verdict is now a cached "yes"; a stricter
        # question about the same certificate must still fail.
        assert not scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert not scheme.verify_certificate(
            payload, certificate, quorum_size=2, allowed_signers=frozenset({0})
        )


class TestOneCheckQuorum:
    """certify: one quorum verdict per signer set at construction; a forged
    member, swapped identity, mutated payload or replayed bundle never
    certifies, however often the genuine bundle was checked before."""

    def _scheme_payload_bundle(self, quorum=3):
        scheme = SignatureScheme(seed=5)
        payload = ("claim", 0, 1, 7)
        bundle = tuple(scheme.keypair_for(p).sign(payload) for p in range(quorum))
        return scheme, payload, bundle

    def test_quorum_of_distinct_valid_signers_passes(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        allowed = frozenset(range(4))
        assert scheme.certify(payload, bundle, 3) is not None
        certificate = scheme.certify(payload, bundle, 3, allowed)
        assert certificate is not None
        assert certificate.signatures == bundle
        assert certificate == scheme.make_certificate(payload, bundle)
        assert scheme.verify_certificate(
            payload, certificate, quorum_size=3, allowed_signers=allowed
        )

    def test_duplicate_signers_do_not_inflate_the_quorum(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        padded = bundle[:2] + (bundle[1],)
        assert scheme.certify(payload, padded, 3) is None

    def test_outsider_signer_fails_the_whole_batch(self):
        # Stricter than verify_certificate: a construction site knows which
        # signers it admitted, so an outsider is divergence, not noise.
        scheme, payload, bundle = self._scheme_payload_bundle()
        certificate = scheme.make_certificate(payload, bundle)
        allowed = frozenset({0, 1})
        assert scheme.verify_certificate(
            payload, certificate, quorum_size=2, allowed_signers=allowed
        )
        assert scheme.certify(payload, bundle, 2, allowed) is None

    def test_invalid_quorum_size_rejected(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        with pytest.raises(Exception):
            scheme.certify(payload, bundle, 0)

    def test_repeated_checks_reuse_the_per_signature_verdicts(self):
        from repro.obs import MetricsRegistry

        scheme, payload, bundle = self._scheme_payload_bundle()
        registry = MetricsRegistry()
        scheme.metrics = registry
        for _ in range(7):  # the trust boundaries of both settlement legs
            assert scheme.certify(payload, bundle, 3) is not None
        # Every check walks the signer set; the HMAC ran once per signer.
        assert registry.counter("sig.certify").value == 7
        assert registry.counter("sig.verify").value == 7 * 3
        assert registry.counter("sig.verify_cached").value == 6 * 3

    def test_forged_member_never_aliases_a_warm_batch(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        for _ in range(3):
            assert scheme.certify(payload, bundle, 3) is not None
        forged = bundle[:2] + (Signature(signer=2, tag="0" * 64),)
        assert scheme.certify(payload, forged, 3) is None
        swapped = bundle[:2] + (Signature(signer=3, tag=bundle[2].tag),)
        assert scheme.certify(payload, swapped, 3) is None
        assert scheme.certify(("claim", 0, 1, 8), bundle, 3) is None
        # The genuine verdict is intact afterwards.
        assert scheme.certify(payload, bundle, 3) is not None

    def test_stricter_questions_never_reuse_a_cached_yes(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        assert scheme.certify(payload, bundle, 3) is not None
        assert scheme.certify(payload, bundle, 4) is None
        assert scheme.certify(payload, bundle, 3, frozenset({0, 1})) is None

    def test_unhashable_payloads_verify_without_the_memo(self):
        scheme = SignatureScheme(seed=5)
        payload = ["batch", [1, 2], {"k": 3}]
        bundle = tuple(scheme.keypair_for(p).sign(payload) for p in range(3))
        assert scheme.certify(payload, bundle, 3) is not None
        assert scheme.certify(payload, bundle, 3) is not None
        assert scheme.certify(["batch", [1, 2], {"k": 4}], bundle, 3) is None

    def test_certify_rejects_a_divergent_batch(self):
        scheme, payload, bundle = self._scheme_payload_bundle()
        forged = bundle[:2] + (Signature(signer=2, tag="0" * 64),)
        assert scheme.certify(payload, forged, 3, frozenset(range(4))) is None
        under_quorum = bundle[:2]
        assert scheme.certify(payload, under_quorum, 3, frozenset(range(4))) is None


class TestKeyStateTags:
    """Tags come from each key's precomputed RFC 2104 states and must equal
    the standard library's HMAC-SHA256 byte for byte: keys shorter than,
    equal to and longer than SHA-256's 64-byte block (a long key is hashed
    first), and messages from empty to several blocks."""

    @pytest.mark.parametrize("key_length", [0, 32, 64, 65, 200])
    @pytest.mark.parametrize("message_length", [0, 1, 64, 1_000])
    def test_tags_equal_hmac_new(self, key_length, message_length):
        secret = bytes((7 * index + key_length) % 256 for index in range(key_length))
        message = bytes((13 * index + 1) % 256 for index in range(message_length))
        expected = hmac.new(secret, message, hashlib.sha256).hexdigest()
        assert signatures._HmacKey(secret).tag(message) == expected
        # The same key through the public path: a signature is the tag of
        # the payload's canonical encoding.
        keypair = KeyPair(0, secret, SignatureScheme(seed=1))
        assert keypair.sign(message).tag == hmac.new(
            secret, canonical_bytes(message), hashlib.sha256
        ).hexdigest()

    def test_the_schemes_keys_sign_what_they_verify(self):
        scheme = SignatureScheme(seed=4)
        payload = ("claim", 0, 1, 2)
        for process in range(4):
            secret = hashlib.sha256(f"secret/4/{process}".encode("utf-8")).digest()
            expected = hmac.new(secret, canonical_bytes(payload), hashlib.sha256).hexdigest()
            signature = scheme.keypair_for(process).sign(payload)
            assert signature.tag == expected
            assert scheme.verify(payload, signature)

    def test_a_key_pair_with_the_wrong_secret_fails(self):
        scheme = SignatureScheme(seed=1)
        payload = ("x", 1)
        impostor = KeyPair(3, b"not the directory's secret", scheme)
        assert not scheme.verify(payload, impostor.sign(payload))
        assert scheme.verify(payload, scheme.keypair_for(3).sign(payload))

    def test_a_flipped_tag_character_fails_cached_or_cold(self):
        payload = ("x", 2)
        signature = SignatureScheme(seed=1).keypair_for(0).sign(payload)
        for position in (0, 31, 63):
            flipped = "0" if signature.tag[position] != "0" else "1"
            tag = signature.tag[:position] + flipped + signature.tag[position + 1 :]
            forged = Signature(signer=0, tag=tag)
            cold = SignatureScheme(seed=1)
            assert not cold.verify(payload, forged)
            warm = SignatureScheme(seed=1)
            assert warm.verify(payload, signature)  # the genuine verdict, cached
            assert not warm.verify(payload, forged)
            assert not warm.verify(payload, forged)  # the cached negative
            assert warm.verify(payload, signature)


# What a Byzantine sender can put on the wire instead of a signer's hex tag,
# each made from the genuine tag.
MALFORMED_TAGS = {
    "bytes": lambda tag: tag.encode("ascii"),
    "none": lambda tag: None,
    "int": lambda tag: int(tag, 16),
    "non-ascii": lambda tag: "\u00e9" * len(tag),
    "non-ascii-tail": lambda tag: tag[:-1] + "\u00e9",
}


@pytest.mark.parametrize("malform", list(MALFORMED_TAGS.values()), ids=list(MALFORMED_TAGS))
class TestMalformedTags:
    """A tag that is not an ASCII string is invalid: every check answers no,
    none raises, and the genuine signature still verifies afterwards."""

    def _scheme_payload_bundle(self, malform):
        scheme = SignatureScheme(seed=5)
        payload = ("claim", 0, 1, 7)
        bundle = tuple(scheme.keypair_for(p).sign(payload) for p in range(3))
        malformed = Signature(signer=2, tag=malform(bundle[2].tag))
        return scheme, payload, bundle, malformed

    def test_verify_answers_no(self, malform):
        scheme, payload, bundle, malformed = self._scheme_payload_bundle(malform)
        assert not scheme.verify(payload, malformed)
        assert not scheme.verify(payload, malformed)
        assert scheme.verify(payload, bundle[2])

    def test_certify_answers_none(self, malform):
        scheme, payload, bundle, malformed = self._scheme_payload_bundle(malform)
        assert scheme.certify(payload, bundle[:2] + (malformed,), 3) is None
        assert scheme.certify(payload, bundle[:2] + (malformed,), 3, frozenset(range(4))) is None
        assert scheme.certify(payload, bundle, 3) is not None

    def test_verify_certificate_answers_no(self, malform):
        scheme, payload, bundle, malformed = self._scheme_payload_bundle(malform)
        certificate = scheme.make_certificate(payload, bundle[:2] + (malformed,))
        assert not scheme.verify_certificate(payload, certificate, quorum_size=3)
        assert not scheme.verify_certificate(payload, certificate, quorum_size=2)
        assert scheme.verify_certificate(
            payload, scheme.make_certificate(payload, bundle), quorum_size=3
        )
