"""Closed forms for the Figure 4 message path on lossless, fault-free runs.

Each transfer is one Bracha secure broadcast: one SEND to each of the N
processes, then N ECHO and N READY all-to-all fan-outs, so N + 2N² messages
per commit.  Every message is two simulator events ("deliver", then
"process") and every client submission one more, so the event count is fixed
by the message count.  An extra message or event per commit fails here, by
formula, before any fingerprint moves.
"""

import pytest

from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ClientSubmission, ConsensuslessSystem


def lossless_run(process_count: int):
    system = ConsensuslessSystem(process_count=process_count, seed=3)
    submissions = 2 * process_count
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
