"""The consensus-based asset-transfer baseline.

This is the comparator of experiments E5/E6: the same one-account-per-process
payment workload, but every transfer is routed through a PBFT total order and
executed on a replicated ledger.  The façade mirrors
:class:`repro.mp.system.ConsensuslessSystem` — identical constructor shape,
identical :class:`~repro.mp.system.ClientSubmission` driving, identical
:class:`~repro.mp.system.SystemResult` output — so benchmark code can treat
the two systems interchangeably.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from repro.bft.pbft import PbftConfig, PbftReplica
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, ProcessId
from repro.mp.consensusless_transfer import TransferRecord, account_of
from repro.mp.system import ClientSubmission, SystemResult
from repro.network.node import Network, NetworkConfig
from repro.network.simulator import Simulator


class ConsensusTransferSystem:
    """A complete simulated deployment of the PBFT-ordered transfer system."""

    def __init__(
        self,
        process_count: int,
        initial_balance: Amount = 1_000,
        network_config: Optional[NetworkConfig] = None,
        pbft_config: Optional[PbftConfig] = None,
        seed: int = 0,
    ) -> None:
        if process_count < 4:
            raise ConfigurationError("PBFT needs at least 4 replicas")
        self.process_count = process_count
        self.initial_balance = initial_balance
        self.pbft_config = pbft_config or PbftConfig()

        self.simulator = Simulator()
        config = network_config or NetworkConfig()
        self.network = Network(
            self.simulator, dataclasses.replace(config, seed=config.seed or seed)
        )
        self._result = SystemResult()
        self._balances: Dict[AccountId, Amount] = {
            account_of(pid): initial_balance for pid in range(process_count)
        }
        self.replicas: Dict[ProcessId, PbftReplica] = {}
        for pid in range(process_count):
            replica = PbftReplica(
                node_id=pid,
                process_count=process_count,
                initial_balances=self._balances,
                config=self.pbft_config,
                on_complete=self._record_completion,
            )
            self.replicas[pid] = replica
        self.network.add_nodes(self.replicas.values())

    # -- driving ----------------------------------------------------------------------------------

    def _record_completion(self, record: TransferRecord) -> None:
        if record.success:
            self._result.committed.append(record)
        else:
            self._result.rejected.append(record)

    def schedule_submissions(self, submissions: Iterable[ClientSubmission]) -> int:
        """Schedule the same client submissions the consensusless system takes."""
        scheduled = 0
        self.network.start()
        post = self.simulator.post
        for submission in submissions:
            replica = self.replicas[submission.issuer]
            post(
                submission.time, replica.submit_transfer, (submission.destination, submission.amount)
            )
            scheduled += 1
        return scheduled

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> SystemResult:
        self.network.run(until=until, max_events=max_events)
        self._result.duration = self.simulator.now
        self._result.messages_sent = self.network.messages_sent
        self._result.events_processed = self.simulator.processed_events
        return self._result

    # -- inspection -------------------------------------------------------------------------------------

    @property
    def result(self) -> SystemResult:
        return self._result

    def initial_balances(self) -> Dict[AccountId, Amount]:
        return dict(self._balances)

    def balances_at(self, pid: ProcessId) -> Dict[AccountId, Amount]:
        return self.replicas[pid].state_machine.balances()

    def total_supply_at(self, pid: ProcessId) -> Amount:
        return self.replicas[pid].state_machine.total_supply()

    def replicas_agree(self) -> bool:
        """Do all replicas have identical execution histories?  (Safety check.)"""
        digests = {replica.execution_digest() for replica in self.replicas.values()}
        return len(digests) <= 1
