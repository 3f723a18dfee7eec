"""Closed forms for the Figure 4 message path on lossless, fault-free runs.

Each transfer is one Bracha secure broadcast: one SEND to each of the N
processes, then N ECHO and N READY all-to-all fan-outs, so N + 2N² messages
per commit.  Every message is two simulator events ("deliver", then
"process") and every client submission one more, so the event count is fixed
by the message count.  An extra message or event per commit fails here, by
formula, before any fingerprint moves.

Batched, the unit is the broadcast instance rather than the commit: N + 2N²
messages per instance, whatever number of transfers it carries.
"""

import pytest

from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ClientSubmission, ConsensuslessSystem


def lossless_run(process_count: int, batch_size: int = 1, per_process: int = 2):
    system = ConsensuslessSystem(process_count=process_count, seed=3, batch_size=batch_size)
    submissions = per_process * process_count
    scheduled = system.schedule_submissions(
        ClientSubmission(
            time=0.0002 * index,
            issuer=index % process_count,
            destination=account_of((index + 1) % process_count),
            amount=5,
        )
        for index in range(submissions)
    )
    assert scheduled == submissions
    return system, system.run(), submissions


@pytest.mark.parametrize("process_count", [4, 7, 10, 16])
def test_bracha_sends_n_plus_two_n_squared_messages_per_commit(process_count):
    system, result, submissions = lossless_run(process_count)
    assert result.committed_count == submissions and not result.rejected
    per_commit = process_count + 2 * process_count**2
    assert result.messages_sent == result.committed_count * per_commit
    assert system.network.messages_delivered == result.messages_sent


@pytest.mark.parametrize("process_count", [4, 7, 10, 16])
def test_every_message_is_two_events_and_every_submission_one(process_count):
    system, result, submissions = lossless_run(process_count)
    assert result.events_processed == 2 * system.network.messages_delivered + submissions


@pytest.mark.parametrize("process_count, messages, events", [(4, 288, 584), (16, 16_896, 33_824)])
def test_the_counts_at_the_smallest_and_largest_group(process_count, messages, events):
    result = lossless_run(process_count)[1]
    assert (result.messages_sent, result.events_processed) == (messages, events)


@pytest.mark.parametrize("process_count", [4, 7, 10, 16])
def test_batched_bracha_sends_n_plus_two_n_squared_messages_per_instance(process_count):
    """At batch 8 a process's first transfer leaves alone and the ones
    submitted while it is in flight share the next instance, so there are
    fewer instances than commits and each still costs N + 2N² messages."""
    system, result, submissions = lossless_run(process_count, batch_size=8, per_process=4)
    assert result.committed_count == submissions and not result.rejected
    stats = system.correct_node(0).broadcast_layer.stats
    instances = stats.delivered
    assert result.messages_sent == instances * (process_count + 2 * process_count**2)
    assert stats.payload_items == result.committed_count
    assert instances < result.committed_count
    assert result.events_processed == 2 * system.network.messages_delivered + submissions


@pytest.mark.parametrize("process_count", [4, 7, 10, 16])
@pytest.mark.parametrize("batch_size, per_process", [(1, 2), (8, 4)], ids=["batch-1", "batch-8"])
def test_agreement_holds_at_quiescence(process_count, batch_size, per_process):
    """The formula runs end with every process holding every transfer."""
    system, _, submissions = lossless_run(process_count, batch_size, per_process)
    report = system.check_agreement()
    assert report.ok, report.violations[:3]
    assert report.checked_transfers == process_count * submissions
