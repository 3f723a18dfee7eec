"""Differential property test: pre-partitioning against routing one payment at a time.

:func:`repro.workloads.cluster_driver.partition_submissions` places each
distinct user once per call and resolves every payment from those placements
(:meth:`ShardRouter.resolve`), building no ``Route``.  The reference is the
obvious formulation: call ``router.route`` once per submission and append what
it says.  The two must give the same per-shard lists — same shards in the same
first-seen order, same routed arrivals in stream order — and the same
cross-shard count.  ``router.route`` is itself checked against the textbook
rule written from the router's primitives (``shard_of``,
``local_process_of``, ``external_account``), so a fault in the helper both
sides share cannot hide.

User ids come mostly from a small range, so payments repeat users, pay
themselves and collide onto the same shard-local account (the bump to the
next local account); a few come from a wide range.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.cluster.routing import Route, ShardRouter
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    RoutedSubmission,
    partition_submissions,
)


def _textbook_route(router: ShardRouter, source: int, destination: int) -> Route:
    shard = router.shard_of(source)
    issuer = router.local_process_of(source)
    destination_shard = router.shard_of(destination)
    if destination_shard == shard:
        local = router.local_process_of(destination)
        if local == issuer:
            local = (local + 1) % router.replicas_per_shard
        return Route(shard, issuer, str(local), False, shard)
    account = router.external_account(destination_shard, router.local_account_of(destination))
    return Route(shard, issuer, account, True, destination_shard)


def _reference(
    submissions: List[ClusterSubmission], router: ShardRouter
) -> Tuple[Dict[int, List[RoutedSubmission]], int]:
    per_shard: Dict[int, List[RoutedSubmission]] = {}
    cross_shard = 0
    for submission in submissions:
        route = router.route(submission.source_user, submission.destination_user)
        assert route == _textbook_route(
            router, submission.source_user, submission.destination_user
        )
        cross_shard += route.cross_shard
        per_shard.setdefault(route.shard, []).append(
            RoutedSubmission(
                time=submission.time,
                issuer=route.issuer,
                destination=route.destination_account,
                amount=submission.amount,
            )
        )
    return per_shard, cross_shard


users = st.one_of(st.integers(0, 24), st.integers(0, 10**6))
payments = st.lists(
    st.tuples(users, users, st.booleans(), st.integers(0, 9)), max_size=60
)


@settings(max_examples=200, deadline=None)
@given(
    shard_count=st.integers(1, 16),
    replicas=st.integers(4, 9),
    salt=st.integers(-(2**40), 2**40),
    drawn=payments,
)
def test_partition_equals_routing_each_submission(shard_count, replicas, salt, drawn):
    router = ShardRouter(shard_count, replicas, salt=salt)
    submissions = [
        ClusterSubmission(
            time=index * 1e-3,
            source_user=source,
            destination_user=source if self_payment else destination,
            amount=amount,
        )
        for index, (source, destination, self_payment, amount) in enumerate(drawn)
    ]
    per_shard, cross_shard = partition_submissions(submissions, router)
    expected, expected_cross = _reference(submissions, router)
    assert list(per_shard.items()) == list(expected.items())
    assert cross_shard == expected_cross
    # A generator is consumed once, like the list.
    assert partition_submissions(iter(submissions), router) == (per_shard, cross_shard)
