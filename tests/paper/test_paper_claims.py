"""The paper's §5 claims, each checked at the smallest size where it holds.

Section 5 compares the Figure 4 protocol with a consensus-based
implementation of the same asset transfer: 1.5×–6× the throughput (E5), up
to 2× lower latency (E6), paid for in messages (E8).  The baseline here is
PBFT-ordered transfers (``repro.bft``) fed the same closed-loop workload over
the same simulated network.  Simulated outcomes are deterministic given the
seeds, so every inequality below is exact, and the figures quoted in the
docstrings are the ones these seeds produce.  Every Figure 4 run behind
them also ends in agreement: one validated set at every process, every
submission answered.  ``examples/throughput_comparison.py``
prints the same comparison at N = 10 … 100.
"""

import dataclasses

import pytest

from repro.eval.experiments import (
    ExperimentConfig,
    compare_systems,
    latency_experiment,
    run_consensus_based,
    run_consensusless,
)
from repro.mp.system import ConsensuslessSystem
from repro.network.node import NetworkConfig

TRANSFERS_PER_PROCESS = 5
CONFIG = ExperimentConfig(
    transfers_per_process=TRANSFERS_PER_PROCESS, network=NetworkConfig(seed=7), seed=7
)


def batched_figure4(process_count):
    """Figure 4 at PBFT's batch size on the E5 workload (E8 at equal batching)."""
    system = ConsensuslessSystem(
        process_count=process_count,
        initial_balance=CONFIG.initial_balance,
        broadcast=CONFIG.broadcast,
        network_config=CONFIG.network,
        seed=CONFIG.seed,
        batch_size=CONFIG.batch_size,
    )
    system.schedule_submissions(CONFIG.workload(process_count))
    return system, system.run(max_events=CONFIG.max_events)


@pytest.fixture(scope="module", params=(4, 10, 16), ids=lambda n: f"N={n}")
def comparison(request):
    """Both systems on one closed-loop workload, PBFT at its default batch 8."""
    return compare_systems(request.param, CONFIG)


def test_e5_throughput_advantage_is_in_the_paper_band(comparison):
    """E5: Figure 4 commits the whole workload at 1.5×–6× the baseline's
    throughput (1.57 / 1.76 / 3.07× at N = 4 / 10 / 16)."""
    committed = comparison.process_count * TRANSFERS_PER_PROCESS
    assert comparison.consensusless.committed == committed
    assert comparison.consensus_based.committed == committed
    assert 1.5 <= comparison.throughput_ratio <= 6.0


def test_e6_latency_is_lower_at_low_load_and_under_load(comparison):
    """E6: "up to 2× lower latency".  At low load (8 transfers 250 ms apart,
    so neither system queues) the baseline takes 1.76 / 1.73 / 1.79× as long
    per transfer at N = 4 / 10 / 16; under the E5 load it takes longer too
    (1.67 / 1.83 / 3.37×).  Only the direction is asserted: the simulated
    low-load ratio passes 2× at N = 30 (2.03× in the example's sweep)."""
    [low_load] = latency_experiment((comparison.process_count,), transfers=8, config=CONFIG)
    assert low_load.latency_ratio > 1.0
    assert comparison.latency_ratio > 1.0


def test_e8_figure4_sends_more_messages_per_commit_than_batched_pbft(comparison):
    """E8, stated the way the measurements allow: the advantage is bought
    with messages, not saved on them.  One Bracha instance per transfer costs
    N + 2N² messages (36 at N = 4, 528 at N = 16; the formula is pinned in
    ``tests/mp/test_message_formulas.py``), while PBFT shares each
    agreement's quadratic vote cost among the transfers of a batch (20.6 and
    172.5 per commit)."""
    assert (
        comparison.consensusless.messages_per_commit
        > comparison.consensus_based.messages_per_commit
    )


def test_e8_at_equal_batching_the_crossover_moves_to_small_groups(comparison):
    """E8 with both sides at batch 8.  Each process's first transfer leaves
    alone and its other four queue behind it, so Figure 4 runs two Bracha
    instances per process: exactly 2(N + 2N²)/5 messages per commit — 14.4 /
    84.0 / 211.2 at N = 4 / 10 / 16, against PBFT's 20.55 / 59.7 / 172.54.
    Batched, Figure 4 is the cheaper one at N = 4 and the dearer one from
    N = 10 on."""
    process_count = comparison.process_count
    result = batched_figure4(process_count)[1]
    assert result.committed_count == process_count * TRANSFERS_PER_PROCESS
    per_instance = process_count + 2 * process_count**2
    assert result.messages_per_commit == 2 * per_instance / TRANSFERS_PER_PROCESS
    pbft = comparison.consensus_based.messages_per_commit
    if process_count == 4:
        assert result.messages_per_commit < pbft
    else:
        assert result.messages_per_commit > pbft


def test_e8_echo_broadcast_sends_fewer_messages_than_bracha():
    """E8 ablation: the signed echo broadcast replaces Bracha's all-to-all
    ECHO and READY rounds with acknowledgements signed back to the origin:
    25.4 against 36 messages per commit at N = 4."""
    bracha, _ = run_consensusless(4, CONFIG)
    echo, _ = run_consensusless(4, dataclasses.replace(CONFIG, broadcast="echo"))
    assert echo.committed == bracha.committed == 4 * TRANSFERS_PER_PROCESS
    assert echo.messages_per_commit < bracha.messages_per_commit


def test_pbft_batching_ablation_batch_16_is_no_slower_than_batch_1():
    """Ablation: batching is the baseline's lever against its quadratic vote
    cost.  At N = 7, batch 16 commits 683 tx/s against 534 for batch 1.

    It does not hold at N = 4 (388 against 472 tx/s).  With one outstanding
    transfer per process a batch of 16 never fills, so every batch waits out
    the batch timeout, and four replicas' votes are too cheap to repay the
    wait."""
    unbatched, _ = run_consensus_based(7, dataclasses.replace(CONFIG, batch_size=1))
    batched, _ = run_consensus_based(7, dataclasses.replace(CONFIG, batch_size=16))
    assert batched.committed == unbatched.committed == 7 * TRANSFERS_PER_PROCESS
    assert batched.throughput >= unbatched.throughput


@pytest.mark.parametrize(
    "kind, process_count",
    [*(("closed-loop", n) for n in (4, 10, 16)), *(("batch-8", n) for n in (4, 10, 16)),
     ("echo", 4)],
    ids=str,
)
def test_agreement_holds_on_the_figure4_runs(kind, process_count):
    """The Figure 4 runs behind E5, E6 and E8 end quiescent with one validated
    set at every process and every submission answered."""
    if kind == "batch-8":
        system = batched_figure4(process_count)[0]
    else:
        config = dataclasses.replace(CONFIG, broadcast="echo") if kind == "echo" else CONFIG
        system = run_consensusless(process_count, config)[1]
    report = system.check_agreement()
    assert report.ok, report.violations[:3]
    assert report.checked_transfers == process_count**2 * TRANSFERS_PER_PROCESS
