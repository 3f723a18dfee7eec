"""High-volume, open-loop workload driver for the cluster layer.

The single-system generators in :mod:`repro.workloads.generators` speak in
terms of protocol processes.  The cluster driver speaks in terms of *users*:
up to 10⁶ simulated clients issuing payments whose destination popularity is
Zipf-skewed (a few very popular merchants) and whose arrivals form a Poisson
process at a configurable aggregate rate — the heavy-traffic shape the
ROADMAP's north star demands.  The :class:`~repro.cluster.routing.ShardRouter`
folds users onto shard-local accounts, so the same workload replays against
any cluster geometry.

Everything is driven by :class:`repro.common.rng.SeededRng`: the same config
produces bit-identical submission lists, which the reproducibility tests
assert directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRng, ZipfSampler
from repro.common.types import Amount

if TYPE_CHECKING:  # imported lazily to keep workloads free of cluster imports
    from repro.cluster.routing import ShardRouter


@dataclass(frozen=True)
class ClusterSubmission:
    """One user-level payment request: at ``time``, ``source_user`` pays
    ``destination_user``."""

    time: float
    source_user: int
    destination_user: int
    amount: Amount


@dataclass(frozen=True)
class RoutedSubmission:
    """One already-routed arrival on its owning shard, as picklable data.

    ``issuer`` is the shard-local process that debits its account and
    ``destination`` the account credited inside that shard's ledger (an
    external ``x{d}:a`` settlement account for cross-shard payments).  The
    execution backends ship per-shard lists of these into whichever process
    runs the shard, so the open-loop driver effectively moves into the
    workers with the shards it feeds.
    """

    time: float
    issuer: int
    destination: str
    amount: Amount


def partition_submissions(
    submissions: Iterable[ClusterSubmission], router: "ShardRouter"
) -> Tuple[Dict[int, List[RoutedSubmission]], int]:
    """Pre-partition user-level arrivals into per-shard routed lists.

    Returns ``(per_shard, cross_shard_count)``.  Per-shard lists preserve the
    submission stream's order (arrival times are non-decreasing, and routing
    is stateless), so scheduling each list in order submits each shard's
    arrivals in the order the stream gave them.
    """
    per_shard: Dict[int, List[RoutedSubmission]] = {}
    cross_shard = 0
    for submission in submissions:
        route = router.route(submission.source_user, submission.destination_user)
        if route.cross_shard:
            cross_shard += 1
        per_shard.setdefault(route.shard, []).append(
            RoutedSubmission(
                time=submission.time,
                issuer=route.issuer,
                destination=route.destination_account,
                amount=submission.amount,
            )
        )
    return per_shard, cross_shard


@dataclass(frozen=True)
class HotspotProfile:
    """A time-varying Zipf hotspot that shifts across shards mid-run.

    Real payment load is not stationary: a flash sale, a ticket drop, a
    regional morning rush concentrate traffic on a few merchants for a
    while, then the spotlight moves.  This profile models exactly that — in
    phase ``k`` (simulated time ``[k * period, (k+1) * period)``), a fraction
    ``intensity`` of payments is redirected to one of the ``width`` hottest
    candidate users *of the focus shard* ``k % shard_count`` (Zipf-skewed by
    ``skew`` within the candidate set, so the hotspot has its own popularity
    head).  The focus shard rotates every phase, which is what gives
    placement rebalancing something real to chase: whichever worker hosts
    the focus shard is suddenly the busy one, and a phase later it is not.

    Deterministic like everything else in the driver: the redirect draws
    come from their own forked RNG streams, so the same config yields the
    same submission list bit for bit.
    """

    period: float
    intensity: float = 0.5
    width: int = 8
    skew: float = 1.2

    def validate(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("hotspot period must be positive")
        if not 0.0 <= self.intensity <= 1.0:
            raise ConfigurationError("hotspot intensity must lie in [0, 1]")
        if self.width < 1:
            raise ConfigurationError("hotspot width must be at least 1")
        if self.skew < 0:
            raise ConfigurationError("hotspot skew must be non-negative")

    def phase(self, time: float) -> int:
        """The hotspot phase active at simulated ``time``."""
        return int(time // self.period)


def hot_candidates(
    user_count: int, router: "ShardRouter", width: int
) -> Dict[int, List[int]]:
    """The ``width`` lowest-id users of each shard — the hotspot targets.

    Low ids are the head of the Zipf popularity distribution, so the
    hotspot amplifies users that are already popular *within the focus
    shard*.  A single pass over the user ids stops as soon as every shard
    has its candidates (typically after a few dozen ids).
    """
    candidates: Dict[int, List[int]] = {shard: [] for shard in range(router.shard_count)}
    unfilled = router.shard_count
    for user in range(user_count):
        bucket = candidates[router.shard_of(user)]
        if len(bucket) < width:
            bucket.append(user)
            if len(bucket) == width:
                unfilled -= 1
                if unfilled == 0:
                    break
    return candidates


@dataclass
class ClusterWorkloadConfig:
    """Knobs of the open-loop cluster workload.

    ``user_count`` scales to 10⁶ simulated users: sampling is O(log users)
    per submission (see :class:`~repro.common.rng.ZipfSampler`), so a million
    users cost a one-off CDF build plus a binary search per payment.

    ``cross_shard_fraction`` steers what fraction of payments crosses shard
    boundaries (and therefore exercises the settlement relay).  Under pure
    hash routing the natural fraction is ``(shards - 1) / shards``; when the
    knob is set, each payment first draws whether it should cross shards and
    the Zipf destination is then resampled (bounded attempts, deterministic
    fallback scan) until its shard matches the draw.  Setting it requires a
    ``router``, because only the router knows the cluster geometry — pass the
    same :class:`~repro.cluster.routing.ShardRouter` the target
    :class:`~repro.cluster.system.ClusterSystem` uses (same salt!), or the
    realised fraction will not match.
    """

    user_count: int = 10_000
    aggregate_rate: float = 5_000.0
    duration: float = 0.5
    zipf_skew: float = 1.0
    min_amount: Amount = 1
    max_amount: Amount = 5
    cross_shard_fraction: Optional[float] = None
    # A time-varying hotspot shifting across shards (see HotspotProfile).
    # Applied after cross-shard steering — the hotspot is the scenario's
    # point, so it has the last word on the destination — and requires a
    # router for the same reason cross_shard_fraction does.
    hotspot: Optional[HotspotProfile] = None
    router: Optional["ShardRouter"] = None
    seed: int = 0

    def validate(self) -> None:
        if self.user_count < 2:
            raise ConfigurationError("need at least two users to move money between")
        if self.aggregate_rate <= 0:
            raise ConfigurationError("aggregate_rate must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.zipf_skew < 0:
            raise ConfigurationError("zipf_skew must be non-negative")
        if self.min_amount < 0 or self.max_amount < self.min_amount:
            raise ConfigurationError("invalid amount range")
        if self.cross_shard_fraction is not None:
            if not 0.0 <= self.cross_shard_fraction <= 1.0:
                raise ConfigurationError("cross_shard_fraction must lie in [0, 1]")
            if self.router is None:
                raise ConfigurationError(
                    "cross_shard_fraction needs a router (the shard geometry decides "
                    "which destinations are cross-shard)"
                )
        if self.hotspot is not None:
            self.hotspot.validate()
            if self.router is None:
                raise ConfigurationError(
                    "a hotspot needs a router (the focus shard is a property of "
                    "the cluster geometry)"
                )

    @property
    def expected_submissions(self) -> float:
        return self.aggregate_rate * self.duration


# Zipf resamples tried before the deterministic fallback scan when the
# cross-shard draw and the sampled destination's shard disagree.
_CROSS_SHARD_RESAMPLES = 32


def _steer_destination(
    config: ClusterWorkloadConfig,
    source: int,
    destination: int,
    want_cross: bool,
    sampler: ZipfSampler,
    unsatisfiable: set,
) -> int:
    """Find a destination on the wanted side of the shard boundary.

    Resamples the Zipf distribution a bounded number of times (preserving the
    popularity skew within the wanted shard class), then falls back to a
    deterministic linear scan.  If no user satisfies the draw (for instance
    ``shard_count == 1`` with a cross-shard draw), the original destination
    is kept — the knob is best-effort by construction — and the
    ``(source shard, want_cross)`` pair is memoised in ``unsatisfiable`` so
    later submissions skip the full scan: a failed scan means the wanted
    shard class holds no user other than ``source`` itself, which is a
    property of the shard, not of the individual source.
    """
    router = config.router
    assert router is not None  # guaranteed by validate()
    source_shard = router.shard_of(source)
    if (source_shard, want_cross) in unsatisfiable:
        return destination

    def matches(candidate: int) -> bool:
        return candidate != source and (router.shard_of(candidate) != source_shard) == want_cross

    if matches(destination):
        return destination
    for _ in range(_CROSS_SHARD_RESAMPLES):
        candidate = sampler.sample()
        if matches(candidate):
            return candidate
    for offset in range(1, config.user_count):
        candidate = (destination + offset) % config.user_count
        if matches(candidate):
            return candidate
    unsatisfiable.add((source_shard, want_cross))
    return destination


def iter_cluster_workload(config: ClusterWorkloadConfig) -> Iterator[ClusterSubmission]:
    """Lazily generate the Poisson/Zipf submission stream.

    Sources are uniform over the user population (everybody shops);
    destinations are Zipf-skewed (popularity concentrates on low user ids).
    A destination that collides with its source is deterministically bumped
    to the next user so every submission moves money.  When
    ``cross_shard_fraction`` is set, destinations are steered across (or away
    from) the shard boundary to realise the requested settlement load.  When
    a ``hotspot`` profile is set, a fraction of payments is redirected to
    the current phase's focus shard last — the hotspot is the scenario, so
    it overrides the other steering for the submissions it claims.
    """
    config.validate()
    rng = SeededRng(config.seed).fork("cluster-open-loop")
    arrivals = rng.fork("arrivals")
    sources = rng.fork("sources")
    amounts = rng.fork("amounts")
    crossings = rng.fork("crossings")
    destination_sampler = ZipfSampler(
        config.user_count, config.zipf_skew, rng.fork("destinations")
    )
    hotspot = config.hotspot
    if hotspot is not None:
        hotspot_draws = rng.fork("hotspot")
        hotspot_rank = ZipfSampler(hotspot.width, hotspot.skew, rng.fork("hotspot-rank"))
        candidates = hot_candidates(config.user_count, config.router, hotspot.width)
    now = 0.0
    mean_gap = 1.0 / config.aggregate_rate
    unsatisfiable: set = set()
    while True:
        now += arrivals.exponential(mean_gap)
        if now >= config.duration:
            return
        source = sources.randint(0, config.user_count - 1)
        destination = destination_sampler.sample()
        if destination == source:
            destination = (destination + 1) % config.user_count
        if config.cross_shard_fraction is not None:
            want_cross = crossings.maybe(config.cross_shard_fraction)
            destination = _steer_destination(
                config, source, destination, want_cross, destination_sampler, unsatisfiable
            )
        if hotspot is not None and hotspot_draws.maybe(hotspot.intensity):
            focus = hotspot.phase(now) % config.router.shard_count
            bucket = candidates[focus]
            if bucket:
                hot = bucket[hotspot_rank.sample() % len(bucket)]
                if hot != source:
                    destination = hot
        yield ClusterSubmission(
            time=now,
            source_user=source,
            destination_user=destination,
            amount=amounts.randint(config.min_amount, config.max_amount),
        )


def cluster_open_loop_workload(config: ClusterWorkloadConfig) -> List[ClusterSubmission]:
    """The materialised form of :func:`iter_cluster_workload`."""
    return list(iter_cluster_workload(config))


def destination_histogram(
    submissions: List[ClusterSubmission], top: int = 10
) -> Dict[int, int]:
    """Payment counts of the ``top`` most popular destination users.

    Used by tests and reports to confirm the Zipf skew actually materialises
    (the head of the popularity distribution dominates the tail).
    """
    counts: Dict[int, int] = {}
    for submission in submissions:
        counts[submission.destination_user] = counts.get(submission.destination_user, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return dict(ranked[:top])
