"""HMAC-simulated digital signatures.

Every process owns a :class:`KeyPair`.  Signing computes an HMAC over the
canonical encoding of the payload with the pair's secret; verification
recomputes it through the :class:`SignatureScheme`, which holds the mapping
from process identifiers to verification secrets (the "public key
directory").

A tag is HMAC-SHA256 (RFC 2104) in lowercase hex, byte-identical to
``hmac.new(secret, message, hashlib.sha256).hexdigest()``.  The two keyed
halves of the construction do not depend on the message, so each key
absorbs them once: a secret longer than SHA-256's 64-byte block is first
replaced by its digest, the result is zero-padded to the block, and
``sha256(key XOR ipad)`` and ``sha256(key XOR opad)`` are kept as hash
states.  A tag is then ``outer.copy()`` updated with the digest of
``inner.copy()`` updated with the message: two state copies and no key
schedule per signature.  A key pair holds its own states; the scheme holds
one set per signer in its directory, made with that signer's secret.

Unforgeability in the simulation comes from an object-capability argument:
only code holding the :class:`KeyPair` instance can call :meth:`KeyPair.sign`
for that process, and the Byzantine node implementations in this repository
only ever hold their own key pairs.  The paper's assumption that malicious
processes cannot subvert cryptographic primitives maps onto exactly this
discipline.

The scheme also supports *quorum certificates* — multisets of signatures over
the same payload from distinct signers — used by the echo broadcast and by
the k-shared BFT sequencing service.

A signature carries its own verdict.  The same signature object is
re-checked at every receiving replica and at every trust boundary a
certificate crosses (settlement relay -> inbox -> compaction gate); the
check is a pure function of the key directory, the claimed signer, the
authentication tag and the payload's canonical encoding.  The signer and tag
are the signature's fields, so its ``_verdict`` slot keeps the one
``(scheme, payload bytes, verdict)`` it was last checked with, and a check by
the same scheme, or a view sharing its keys (:meth:`SignatureScheme.counting_into`),
over equal bytes reuses the verdict.  Another key directory, other bytes or
another signature object (a forged tag is a new object) is verified from
scratch and replaces the slot.  The verdict lives as long as the
signature does; the scheme keeps no table.  Certificates are not cached:
:meth:`SignatureScheme.certify` checks the quorum once at construction and
:meth:`SignatureScheme.verify_certificate` runs the full check at every trust
boundary, each signature answered by its slot.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ProcessId, rebuilt_by_constructor
from repro.crypto.hashing import canonical_bytes, content_hash

# RFC 2104 with H = SHA-256: block size B = 64 bytes, and the pads as byte
# translation tables (``key.translate(_IPAD)`` is ``key XOR 0x36...``).
_BLOCK_SIZE = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class _HmacKey:
    """One secret's HMAC-SHA256 key states, absorbed once."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, secret: bytes) -> None:
        if len(secret) > _BLOCK_SIZE:
            secret = hashlib.sha256(secret).digest()
        block = secret.ljust(_BLOCK_SIZE, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def tag(self, message: bytes) -> str:
        """``hmac.new(secret, message, hashlib.sha256).hexdigest()``."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()


class _VerdictOnce:
    """The ``_verdict`` slot of a :class:`Signature`: not a dataclass field,
    so it is in no ``repr``, ``==`` or pickle and a copy starts unchecked."""

    __slots__ = ("_verdict",)


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class Signature(_VerdictOnce):
    """A signature: the signer's identity plus the authentication tag."""

    signer: ProcessId
    tag: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sig(p{self.signer}:{self.tag[:8]})"


class KeyPair:
    """The signing capability of one process."""

    def __init__(self, process: ProcessId, secret: bytes, scheme: "SignatureScheme") -> None:
        self.process = process
        self._key = _HmacKey(secret)
        # The pair reads the scheme's ``sig.sign`` counter at sign time, so
        # telemetry attached after key pairs were handed out (the cluster
        # wires shards before the observability layer) still counts every
        # signature.
        self._scheme = scheme

    def sign(self, payload: Any) -> Signature:
        """Sign ``payload`` as this process."""
        return Signature(signer=self.process, tag=self.tag(payload))

    def tag(self, payload: Any) -> str:
        """The tag :meth:`sign` puts in its signature, alone: what a flat wire
        row ships beside its signer's id."""
        signed = self._scheme._signed
        if signed is not None:
            signed.value += 1
        return self._key.tag(canonical_bytes(payload))


class SignatureScheme:
    """Key directory: generates key pairs and verifies signatures/certificates."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        # The verification keys: each known signer's HMAC key states.
        self._keys: Dict[ProcessId, _HmacKey] = {}
        # No registry yet: the setter binds (here: clears) the counters.
        self.metrics = None

    # -- telemetry ---------------------------------------------------------------------

    @property
    def metrics(self):
        """The optional ``repro.obs.MetricsRegistry`` counting sign/verify volume.

        Attaching a registry binds its five ``sig.*`` counters (``sign``,
        ``verify``, ``verify_cached``, ``certify``, ``verify_certificate``)
        once; every operation then bumps a bound counter's ``value`` instead
        of looking its name up.  The registry stays live — the counters are
        its own objects — and it can be attached, swapped or detached
        (``None``) at any point in a run: key pairs read the bound counter
        through the scheme at sign time.
        """
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        if registry is None:
            self._signed = self._verified = self._verified_cached = None
            self._certified = self._certificates_verified = None
        else:
            self._signed = registry.counter("sig.sign")
            self._verified = registry.counter("sig.verify")
            self._verified_cached = registry.counter("sig.verify_cached")
            self._certified = registry.counter("sig.certify")
            self._certificates_verified = registry.counter("sig.verify_certificate")

    def counting_into(self, registry) -> "SignatureScheme":
        """A view of this key directory whose operations count into
        ``registry``: it shares the keys, so a verdict either reached is
        reused by the other."""
        view = SignatureScheme(self._seed)
        view._keys = self._keys
        view.metrics = registry
        return view

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
        material = f"secret/{self._seed}/{process}".encode("utf-8")
        return hashlib.sha256(material).digest()

    def _key_for(self, process: ProcessId) -> _HmacKey:
        key = self._keys.get(process)
        if key is None:
            key = self._keys[process] = _HmacKey(self._secret_for(process))
        return key

    # -- verification --------------------------------------------------------------------

    def verify(self, payload: Any, signature: Signature) -> bool:
        """Check that ``signature`` is a valid signature of ``payload``."""
        return self._verify_encoded(canonical_bytes(payload), signature)

    def _verify_encoded(self, encoded: bytes, signature: Signature) -> bool:
        """Verify against pre-encoded canonical payload bytes.

        The verdict is reused from the signature's ``_verdict`` slot when
        this key directory last checked it over equal bytes, and stored there
        otherwise.  A tag that is not an ASCII string (bytes, ``None``, a
        number, a non-ASCII string: what a Byzantine sender can put on the
        wire) is invalid; it is refused before it can reach
        ``compare_digest``, which would raise on it.
        """
        verified = self._verified
        if verified is not None:
            verified.value += 1
        tag = signature.tag
        if not isinstance(tag, str) or not tag.isascii():
            return False
        try:
            scheme, checked, verdict = signature._verdict
        except AttributeError:
            pass
        else:
            if scheme._keys is self._keys and checked == encoded:
                if verified is not None:
                    self._verified_cached.value += 1
                return verdict
        verdict = hmac.compare_digest(self._key_for(signature.signer).tag(encoded), tag)
        object.__setattr__(signature, "_verdict", (self, encoded, verdict))
        return verdict

    # -- quorum certificates ------------------------------------------------------------

    def certify(
        self,
        payload: Any,
        signatures: Iterable[Signature],
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]] = None,
    ) -> Optional["QuorumCertificate"]:
        """Assemble a certificate from a signature set, or ``None`` if it fails.

        The set must carry valid signatures over ``payload`` from at least
        ``quorum_size`` *distinct* signers, every one of them inside
        ``allowed_signers`` (when given).  Stricter than
        :meth:`verify_certificate` on membership: a construction site knows
        exactly which signers it admitted, so an outsider signature means
        divergence, not something to skip.  On ``None`` the caller falls
        back to per-signature checks to find the divergent member.
        """
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        if self._certified is not None:
            self._certified.value += 1
        bundle = tuple(signatures)
        encoded = canonical_bytes(payload)
        signers = set()
        for signature in bundle:
            if allowed_signers is not None and signature.signer not in allowed_signers:
                return None
            if not self._verify_encoded(encoded, signature):
                return None
            signers.add(signature.signer)
        if len(signers) < quorum_size:
            return None
        payload_hash = hashlib.sha256(encoded).hexdigest()
        return QuorumCertificate(payload_hash=payload_hash, signatures=bundle)

    def make_certificate(
        self, payload: Any, signatures: Iterable[Signature]
    ) -> "QuorumCertificate":
        """Bundle signatures over ``payload`` into a certificate, unchecked."""
        return QuorumCertificate(payload_hash=content_hash(payload), signatures=tuple(signatures))

    def verify_certificate(
        self,
        payload: Any,
        certificate: "QuorumCertificate",
        quorum_size: int,
        allowed_signers: Optional[FrozenSet[ProcessId]] = None,
    ) -> bool:
        """Check a certificate: enough *distinct*, valid signatures over ``payload``.

        Signatures from outside ``allowed_signers`` (when given) are skipped,
        not counted.  The check runs in full at every trust boundary; only
        the per-signature verdicts are memoised.
        """
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        if self._certificates_verified is not None:
            self._certificates_verified.value += 1
        encoded = canonical_bytes(payload)
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


@rebuilt_by_constructor
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
