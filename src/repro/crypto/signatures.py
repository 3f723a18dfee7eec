"""HMAC-simulated digital signatures.

Every process owns a :class:`KeyPair`.  Signing computes an HMAC over the
canonical encoding of the payload with the pair's secret; verification
recomputes it through the :class:`SignatureScheme`, which holds the mapping
from process identifiers to verification secrets (the "public key
directory").

Unforgeability in the simulation comes from an object-capability argument:
only code holding the :class:`KeyPair` instance can call :meth:`KeyPair.sign`
for that process, and the Byzantine node implementations in this repository
only ever hold their own key pairs.  The paper's assumption that malicious
processes cannot subvert cryptographic primitives maps onto exactly this
discipline.

The scheme also supports *quorum certificates* — multisets of signatures over
the same payload from distinct signers — used by the echo broadcast and by
the k-shared BFT sequencing service.

Verification is cached.  The same certificate is re-checked at every trust
boundary it crosses (settlement relay -> inbox -> compaction gate), and the
same per-message signature at every receiving replica; both checks are pure
functions of their inputs, so the scheme memoises them.  The cache keys cover
everything the answer depends on — the payload's canonical encoding, the
claimed signer, the authentication tag, and for certificates the full
signature tuple, the carried payload hash, the quorum size and the allowed
signer set — so a forged or mutated artefact can never alias a cached
verdict: any bit it changes changes the key.

Quorum verification is *one check*.  :meth:`SignatureScheme.verify_quorum`
answers "is this signature set a valid ``quorum_size`` quorum from
``allowed_signers`` over this payload" as a single batch verdict, encoding
the payload once for the whole signer set.  :meth:`SignatureScheme.certify`
assembles a certificate through that batch verdict and primes the
certificate cache with it, so the downstream relay -> inbox -> gate re-checks
are O(1) from the moment of construction.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ProcessId
from repro.crypto.hashing import canonical_bytes

# Bound on each memo (per scheme).  Far above what any run in this repository
# produces; the limit only guards pathological workloads from unbounded
# growth (entries simply stop being added, correctness is unaffected).
_VERIFY_CACHE_LIMIT = 200_000


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature: the signer's identity plus the authentication tag."""

    signer: ProcessId
    tag: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sig(p{self.signer}:{self.tag[:8]})"


class KeyPair:
    """The signing capability of one process."""

    def __init__(self, process: ProcessId, secret: bytes, metrics=None, scheme=None) -> None:
        self.process = process
        self._secret = secret
        # Optional repro.obs.MetricsRegistry: sign counts are pure
        # accounting, never a protocol input.  When the pair knows its
        # issuing scheme it reads the registry *through it at sign time*, so
        # telemetry attached after key pairs were handed out (the cluster
        # wires shards before the observability layer) still counts every
        # signature; the direct ``metrics`` capture remains as a fallback
        # for pairs constructed without a scheme.
        self._metrics = metrics
        self._scheme = scheme

    def sign(self, payload: Any) -> Signature:
        """Sign ``payload`` as this process."""
        metrics = self._scheme.metrics if self._scheme is not None else self._metrics
        if metrics is not None:
            metrics.inc("sig.sign")
        tag = hmac.new(self._secret, canonical_bytes(payload), hashlib.sha256).hexdigest()
        return Signature(signer=self.process, tag=tag)


class SignatureScheme:
    """Key directory: generates key pairs and verifies signatures/certificates."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._secrets: Dict[ProcessId, bytes] = {}
        # Optional repro.obs.MetricsRegistry counting sign/verify volume —
        # the figure the 10x-engine work decomposes HMAC cost with.  Read
        # live on every operation (key pairs route through the scheme), so
        # it can be attached or swapped at any point in a run.
        self.metrics = None
        # Memoised verdicts.  ``_verify_cache`` maps (signer, tag, canonical
        # payload bytes) -> bool; ``_certificate_cache`` maps the full
        # certificate identity -> bool.  Both are exact: every input the
        # verdict depends on is in the key.
        self._verify_cache: Dict[tuple, bool] = {}
        self._certificate_cache: Dict[tuple, bool] = {}

    # -- key management ---------------------------------------------------------------

    def keypair_for(self, process: ProcessId) -> KeyPair:
        """Return the key pair of ``process`` (creating it on first use).

        The scheme hands each key pair to the code that plays that process;
        handing a key pair to any other code would break the simulation's
        unforgeability discipline, just as leaking a private key would in a
        real deployment.
        """
        return KeyPair(process, self._secret_for(process), scheme=self)

    def _secret_for(self, process: ProcessId) -> bytes:
        secret = self._secrets.get(process)
        if secret is None:
            material = f"secret/{self._seed}/{process}".encode("utf-8")
            secret = hashlib.sha256(material).digest()
            self._secrets[process] = secret
        return secret

    # -- verification --------------------------------------------------------------------

    def verify(self, payload: Any, signature: Signature) -> bool:
        """Check that ``signature`` is a valid signature of ``payload``."""
        return self._verify_encoded(canonical_bytes(payload), signature)

    def _verify_encoded(self, encoded: bytes, signature: Signature) -> bool:
        """Verify against pre-encoded canonical payload bytes (cached)."""
        if self.metrics is not None:
            self.metrics.inc("sig.verify")
        key = (signature.signer, signature.tag, encoded)
        cached = self._verify_cache.get(key)
        if cached is not None:
            if self.metrics is not None:
                self.metrics.inc("sig.verify_cached")
            return cached
        expected = hmac.new(
            self._secret_for(signature.signer), encoded, hashlib.sha256
        ).hexdigest()
        result = hmac.compare_digest(expected, signature.tag)
        if len(self._verify_cache) < _VERIFY_CACHE_LIMIT:
            self._verify_cache[key] = result
        return result

    def verify_all(self, payload: Any, signatures: Iterable[Signature]) -> bool:
        """Check every signature in ``signatures`` against ``payload``.

        The payload is canonically encoded once, whatever the number of
        signatures — the aggregate check a batch announcement's quorum needs.
        """
        encoded = canonical_bytes(payload)
        return all(self._verify_encoded(encoded, signature) for signature in signatures)

    def verify_quorum(
        self,
        payload: Any,
        signatures: Iterable[Signature],
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]] = None,
    ) -> bool:
        """One-check quorum verification: a batch verdict over a signer set.

        True iff ``signatures`` carries valid signatures over ``payload``
        from at least ``quorum_size`` *distinct* signers, every one of them
        inside ``allowed_signers`` (when given).  Stricter than
        :meth:`verify_certificate` on membership — a construction site knows
        exactly which signers it admitted, so an outsider signature means
        divergence, not something to skip.
        """
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        if self.metrics is not None:
            self.metrics.inc("sig.verify_quorum")
        encoded = canonical_bytes(payload)
        signers = set()
        for signature in signatures:
            if allowed_signers is not None and signature.signer not in allowed_signers:
                return False
            if not self._verify_encoded(encoded, signature):
                return False
            signers.add(signature.signer)
        return len(signers) >= quorum_size

    def certify(
        self,
        payload: Any,
        signatures: Iterable[Signature],
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]] = None,
    ) -> Optional["QuorumCertificate"]:
        """One-check certificate assembly: batch-verify, bundle, prime.

        Runs :meth:`verify_quorum` over the signature set and, on success,
        returns the assembled :class:`QuorumCertificate` with the
        certificate-verdict cache primed under the exact key the downstream
        :meth:`verify_certificate` re-checks will form — so every trust
        boundary after construction pays one dictionary hit.  Returns
        ``None`` when the batch fails; the caller falls back to per-signature
        verification to find the divergent member.  The priming is sound
        because the batch verdict is strictly stronger than the certificate
        check for the same payload, signatures, quorum and signer set.
        """
        bundle = tuple(signatures)
        if not self.verify_quorum(payload, bundle, quorum_size, allowed_signers):
            return None
        encoded = canonical_bytes(payload)
        payload_hash = hashlib.sha256(encoded).hexdigest()
        certificate = QuorumCertificate(payload_hash=payload_hash, signatures=bundle)
        key = (encoded, payload_hash, bundle, quorum_size, allowed_signers)
        if len(self._certificate_cache) < _VERIFY_CACHE_LIMIT:
            self._certificate_cache[key] = True
        return certificate

    # -- quorum certificates ------------------------------------------------------------

    def make_certificate(
        self, payload: Any, signatures: Iterable[Signature]
    ) -> "QuorumCertificate":
        """Bundle signatures over ``payload`` into a certificate."""
        return QuorumCertificate(payload_hash=self._payload_hash(payload), signatures=tuple(signatures))

    def verify_certificate(
        self,
        payload: Any,
        certificate: "QuorumCertificate",
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]] = None,
    ) -> bool:
        """Check a certificate: enough *distinct*, valid signatures over ``payload``.

        The verdict is memoised on the certificate's full identity — payload
        encoding, carried payload hash, every (signer, tag) pair, quorum size
        and allowed-signer set — so the relay/inbox/gate re-checks of one
        certificate cost one dictionary lookup after first sight, while any
        mutation (a swapped tag, an extra signer, a different payload) forms
        a different key and is verified from scratch.
        """
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        if self.metrics is not None:
            self.metrics.inc("sig.verify_certificate")
        encoded = canonical_bytes(payload)
        key = (encoded, certificate.payload_hash, certificate.signatures, quorum_size, allowed_signers)
        cached = self._certificate_cache.get(key)
        if cached is not None:
            if self.metrics is not None:
                self.metrics.inc("sig.verify_certificate_cached")
            return cached
        result = self._verify_certificate_uncached(
            encoded, certificate, quorum_size, allowed_signers
        )
        if len(self._certificate_cache) < _VERIFY_CACHE_LIMIT:
            self._certificate_cache[key] = result
        return result

    def _verify_certificate_uncached(
        self,
        encoded: bytes,
        certificate: "QuorumCertificate",
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]],
    ) -> bool:
        if certificate.payload_hash != hashlib.sha256(encoded).hexdigest():
            return False
        signers = set()
        for signature in certificate.signatures:
            if allowed_signers is not None and signature.signer not in allowed_signers:
                continue
            if not self._verify_encoded(encoded, signature):
                return False
            signers.add(signature.signer)
        return len(signers) >= quorum_size

    @staticmethod
    def _payload_hash(payload: Any) -> str:
        return hashlib.sha256(canonical_bytes(payload)).hexdigest()


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """A set of signatures binding distinct signers to one payload."""

    payload_hash: str
    signatures: Tuple[Signature, ...]

    @property
    def signers(self) -> FrozenSet[ProcessId]:
        return frozenset(signature.signer for signature in self.signatures)

    def __len__(self) -> int:
        return len(self.signers)
