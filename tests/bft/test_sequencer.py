"""Unit tests for the owner-quorum sequencing service (Section 6)."""

import pytest

from repro.bft.sequencer import OwnerQuorumSequencer, owner_quorum_size
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.crypto.signatures import SignatureScheme


OWNERS = frozenset({0, 1, 2})


def make_sequencers(scheme=None):
    scheme = scheme or SignatureScheme()
    owners_of = {"joint": OWNERS}
    return {
        pid: OwnerQuorumSequencer(own_id=pid, owners_of=owners_of, scheme=scheme)
        for pid in OWNERS
    }


def transfer(issuer=0, amount=5):
    return Transfer("joint", "x", amount, issuer=issuer, sequence=0)


class TestQuorumSize:
    @pytest.mark.parametrize("k,quorum", [(1, 1), (2, 2), (3, 2), (4, 3), (6, 4), (9, 6)])
    def test_quorum_sizes(self, k, quorum):
        assert owner_quorum_size(k) == quorum

    @pytest.mark.parametrize("k", range(1, 31))
    def test_quorums_intersect_in_a_correct_owner_and_survive_f_silent(self, k):
        quorum, faults = owner_quorum_size(k), (k - 1) // 3
        assert 2 * quorum - k >= faults + 1  # any two quorums share f + 1 owners
        assert quorum <= k - faults  # the correct owners alone form a quorum
        assert 2 * (quorum - 1) - k < faults + 1  # and no smaller quorum intersects so

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            owner_quorum_size(0)


class TestSequencing:
    def test_proposal_certified_after_quorum_of_endorsements(self):
        sequencers = make_sequencers()
        request = sequencers[0].make_request("joint", transfer())
        endorsements = [sequencers[pid].handle_request(request) for pid in (0, 1, 2)]
        assert all(endorsements)
        certified = None
        for endorsement in endorsements:
            certified = sequencers[0].handle_endorsement(endorsement) or certified
        assert certified is not None
        assert certified.sequence == 1
        assert certified.verify(SignatureScheme(), OWNERS)

    def test_endorser_refuses_wrong_sequence_number(self):
        sequencers = make_sequencers()
        request = sequencers[0].make_request("joint", transfer())
        stale = type(request)(
            channel=request.channel, account="joint", sequence=5,
            transfer=request.transfer, proposer=0,
        )
        assert sequencers[1].handle_request(stale) is None

    def test_endorser_never_signs_two_transfers_for_one_slot(self):
        sequencers = make_sequencers()
        first = sequencers[0].make_request("joint", transfer(issuer=0, amount=5))
        assert sequencers[1].handle_request(first) is not None
        conflicting = type(first)(
            channel=first.channel, account="joint", sequence=1,
            transfer=transfer(issuer=2, amount=9), proposer=2,
        )
        assert sequencers[1].handle_request(conflicting) is None

    def test_re_request_of_same_transfer_is_idempotent(self):
        sequencers = make_sequencers()
        request = sequencers[0].make_request("joint", transfer())
        assert sequencers[1].handle_request(request) is not None
        assert sequencers[1].handle_request(request) is not None

    def test_non_owner_cannot_propose_or_endorse(self):
        scheme = SignatureScheme()
        outsider = OwnerQuorumSequencer(own_id=9, owners_of={"joint": OWNERS}, scheme=scheme)
        with pytest.raises(ConfigurationError):
            outsider.make_request("joint", transfer())
        sequencers = make_sequencers(scheme)
        request = sequencers[0].make_request("joint", transfer())
        assert outsider.handle_request(request) is None

    def test_next_sequence_advances_with_deliveries(self):
        sequencers = make_sequencers()
        assert sequencers[1].next_sequence("joint") == 1
        sequencers[1].note_delivered("joint", 1)
        assert sequencers[1].next_sequence("joint") == 2

    def test_forged_endorsement_rejected(self):
        scheme = SignatureScheme()
        sequencers = make_sequencers(scheme)
        request = sequencers[0].make_request("joint", transfer())
        endorsement = sequencers[1].handle_request(request)
        forged = type(endorsement)(
            channel=endorsement.channel, account="joint", sequence=1,
            transfer=endorsement.transfer, endorser=2, signature=endorsement.signature,
        )
        assert sequencers[0].handle_endorsement(forged) is None

    def test_certificate_fails_verification_with_wrong_owner_set(self):
        sequencers = make_sequencers()
        request = sequencers[0].make_request("joint", transfer())
        certified = None
        for pid in OWNERS:
            endorsement = sequencers[pid].handle_request(request)
            certified = sequencers[0].handle_endorsement(endorsement) or certified
        assert certified is not None
        assert not certified.verify(SignatureScheme(), frozenset({7, 8, 9}))
