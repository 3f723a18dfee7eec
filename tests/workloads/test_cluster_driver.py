"""Tests for the high-volume cluster workload driver."""

import hashlib

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRng, ZipfSampler
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
    destination_histogram,
    iter_cluster_workload,
)


class TestZipfSampler:
    def test_matches_configured_range(self):
        sampler = ZipfSampler(100, 1.0, SeededRng(1))
        samples = sampler.sample_many(2000)
        assert all(0 <= s < 100 for s in samples)

    def test_low_indices_dominate_under_skew(self):
        sampler = ZipfSampler(1000, 1.2, SeededRng(2))
        samples = sampler.sample_many(5000)
        head = sum(1 for s in samples if s < 10)
        assert head > len(samples) * 0.2  # far above the 1% uniform share

    def test_zero_skew_degenerates_to_uniform(self):
        sampler = ZipfSampler(50, 0.0, SeededRng(3))
        samples = sampler.sample_many(5000)
        top = max(samples.count(v) for v in set(samples))
        assert top < 5000 * 0.1

    def test_deterministic_given_seed(self):
        a = ZipfSampler(500, 1.0, SeededRng(7)).sample_many(100)
        b = ZipfSampler(500, 1.0, SeededRng(7)).sample_many(100)
        assert a == b

    def test_large_population_is_fast_enough_to_use(self):
        # 10^6 users: one-off CDF build, then O(log n) sampling.  This exists
        # to catch an accidental return to O(n)-per-draw sampling.
        sampler = ZipfSampler(1_000_000, 1.0, SeededRng(4))
        samples = sampler.sample_many(1000)
        assert len(samples) == 1000
        assert max(samples) < 1_000_000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, SeededRng(1))
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5, SeededRng(1))


class TestClusterWorkload:
    def test_poisson_arrivals_are_ordered_and_bounded(self):
        config = ClusterWorkloadConfig(
            user_count=1000, aggregate_rate=5000, duration=0.1, seed=1
        )
        submissions = cluster_open_loop_workload(config)
        times = [s.time for s in submissions]
        assert times == sorted(times)
        assert all(0 < t < config.duration for t in times)
        # Poisson count concentrates around rate * duration = 500.
        assert 350 < len(submissions) < 650

    def test_reproducible_under_common_rng(self):
        config = ClusterWorkloadConfig(user_count=5000, aggregate_rate=2000, duration=0.1, seed=9)
        assert cluster_open_loop_workload(config) == cluster_open_loop_workload(config)

    def test_different_seed_differs(self):
        base = dict(user_count=5000, aggregate_rate=2000, duration=0.1)
        a = cluster_open_loop_workload(ClusterWorkloadConfig(seed=1, **base))
        b = cluster_open_loop_workload(ClusterWorkloadConfig(seed=2, **base))
        assert a != b

    def test_zipf_skew_statistics(self):
        config = ClusterWorkloadConfig(
            user_count=10_000, aggregate_rate=20_000, duration=0.2, zipf_skew=1.0, seed=3
        )
        submissions = cluster_open_loop_workload(config)
        top = destination_histogram(submissions, top=10)
        total = len(submissions)
        # The ten most popular of 10^4 users (a 0.1% slice) should attract a
        # grossly super-uniform share of payments under skew 1.0.
        assert sum(top.values()) > total * 0.1
        # And popularity should concentrate on low user ids (rank order).
        assert min(top) < 100

    def test_no_self_payments(self):
        config = ClusterWorkloadConfig(user_count=50, aggregate_rate=5000, duration=0.1, seed=5)
        assert all(
            s.source_user != s.destination_user for s in cluster_open_loop_workload(config)
        )

    def test_amounts_respect_bounds(self):
        config = ClusterWorkloadConfig(
            user_count=100, aggregate_rate=2000, duration=0.05, min_amount=2, max_amount=3, seed=6
        )
        assert all(2 <= s.amount <= 3 for s in cluster_open_loop_workload(config))

    def test_lazy_iterator_matches_materialised_list(self):
        config = ClusterWorkloadConfig(user_count=200, aggregate_rate=1000, duration=0.05, seed=8)
        assert list(iter_cluster_workload(config)) == cluster_open_loop_workload(config)

    def test_one_shard_cross_draws_skip_the_population_scan(self):
        """On one shard no destination is cross-shard, so a cross-shard draw
        keeps its destination after its resamples without scanning the
        population: ten payments among 10^6 users hash only the users they
        draw, not every user."""
        from repro.cluster.routing import ShardRouter

        class SpyRouter(ShardRouter):
            calls = 0

            def shard_of(self, user):
                self.calls += 1
                return super().shard_of(user)

        router = SpyRouter(1, 4)
        submissions = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=1_000_000, aggregate_rate=1_000.0, duration=0.01,
                zipf_skew=0.0, cross_shard_fraction=0.25, router=router, seed=1,
            )
        )
        assert len(submissions) == 10
        # One cross-shard draw's 32 uniform resamples, and at most a source,
        # a destination and 32 resamples per payment.
        assert 32 <= router.calls <= 34 * len(submissions)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(ClusterWorkloadConfig(user_count=1))
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(ClusterWorkloadConfig(aggregate_rate=0))
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(ClusterWorkloadConfig(duration=0))
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(ClusterWorkloadConfig(zipf_skew=-1))
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(ClusterWorkloadConfig(min_amount=5, max_amount=1))

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(duration=float("nan")),
            dict(duration=float("inf")),
            dict(aggregate_rate=float("nan")),
            dict(aggregate_rate=float("inf")),
            dict(zipf_skew=float("nan")),
            dict(zipf_skew=float("inf")),
            dict(user_count=2.5),
            dict(user_count=True),
            dict(min_amount=1.5),
            dict(max_amount=5.0),
        ],
        ids=repr,
    )
    def test_non_finite_and_non_integral_knobs_rejected(self, knobs):
        """A NaN or infinite duration or rate would never end the stream (or
        stamp ``time=nan`` on every submission), a NaN skew would sample a
        NaN CDF, and a fractional count or amount would fail deep inside the
        RNG: each is refused up front, before a single draw."""
        with pytest.raises(ConfigurationError):
            next(iter_cluster_workload(ClusterWorkloadConfig(**knobs)))


class TestHotspotProfile:
    """The time-varying Zipf hotspot: skew that shifts across shards."""

    def _router(self, shards=3):
        from repro.cluster.routing import ShardRouter

        return ShardRouter(shards, 4, salt=9)

    def _config(self, router, **kwargs):
        from repro.workloads.cluster_driver import HotspotProfile

        defaults = dict(period=0.02, intensity=0.8, width=4, skew=1.2)
        defaults.update(kwargs)
        return ClusterWorkloadConfig(
            user_count=600,
            aggregate_rate=8_000.0,
            duration=0.06,
            zipf_skew=1.0,
            hotspot=HotspotProfile(**defaults),
            router=router,
            seed=21,
        )

    def test_focus_shard_dominates_each_phase(self):
        """Per phase, the focus shard receives the lion's share of payments
        — and the focus genuinely rotates across shards."""
        router = self._router()
        config = self._config(router)
        submissions = cluster_open_loop_workload(config)
        assert submissions
        phases: dict = {}
        for submission in submissions:
            phase = config.hotspot.phase(submission.time)
            shard = router.shard_of(submission.destination_user)
            counts = phases.setdefault(phase, {})
            counts[shard] = counts.get(shard, 0) + 1
        assert len(phases) == 3  # duration / period
        for phase, counts in phases.items():
            focus = phase % router.shard_count
            total = sum(counts.values())
            # intensity=0.8 steers ~80% of payments at the focus shard; the
            # unsteered remainder spreads hash-uniformly.  0.6 is a loose,
            # flake-proof floor far above the uniform ~1/3 share.
            assert counts.get(focus, 0) > 0.6 * total, (phase, counts)

    def test_hot_candidates_cover_every_shard(self):
        from repro.workloads.cluster_driver import hot_candidates

        router = self._router()
        candidates = hot_candidates(600, router, 4)
        assert set(candidates) == {0, 1, 2}
        for shard, bucket in candidates.items():
            assert len(bucket) == 4
            assert all(router.shard_of(user) == shard for user in bucket)
            assert bucket == sorted(bucket)  # lowest ids = Zipf head

    def test_hotspot_stream_is_deterministic(self):
        router = self._router()
        first = cluster_open_loop_workload(self._config(router))
        second = cluster_open_loop_workload(self._config(router))
        assert first == second

    def test_hotspot_changes_the_stream(self):
        router = self._router()
        with_hotspot = cluster_open_loop_workload(self._config(router))
        without = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=600, aggregate_rate=8_000.0, duration=0.06,
                zipf_skew=1.0, router=router, seed=21,
            )
        )
        assert with_hotspot != without

    def test_no_self_payments_under_hotspot(self):
        router = self._router()
        for submission in cluster_open_loop_workload(
            self._config(router, intensity=1.0)
        ):
            assert submission.source_user != submission.destination_user

    def test_composes_with_cross_shard_steering(self):
        """The hotspot has the last word: with both knobs set, the focus
        shard still dominates (the fraction knob shapes only the payments
        the hotspot leaves alone)."""
        router = self._router()
        config = self._config(router)
        config = ClusterWorkloadConfig(
            user_count=600, aggregate_rate=8_000.0, duration=0.06,
            zipf_skew=1.0, cross_shard_fraction=0.5, hotspot=config.hotspot,
            router=router, seed=21,
        )
        submissions = cluster_open_loop_workload(config)
        counts: dict = {}
        for submission in submissions:
            phase = config.hotspot.phase(submission.time)
            shard = router.shard_of(submission.destination_user)
            counts.setdefault(phase, {}).setdefault(shard, 0)
            counts[phase][shard] += 1
        for phase, per_shard in counts.items():
            focus = phase % router.shard_count
            assert per_shard.get(focus, 0) > 0.5 * sum(per_shard.values())

    def test_invalid_hotspots_rejected(self):
        from repro.workloads.cluster_driver import HotspotProfile

        router = self._router()
        with pytest.raises(ConfigurationError):
            cluster_open_loop_workload(
                ClusterWorkloadConfig(hotspot=HotspotProfile(period=0.02), seed=1)
            )  # no router
        for bad in (
            dict(period=0.0),
            dict(period=0.02, intensity=1.5),
            dict(period=0.02, width=0),
            dict(period=0.02, skew=-1.0),
            dict(period=float("nan")),
            dict(period=float("inf")),
            dict(period=0.02, width=2.5),
            dict(period=0.02, skew=float("nan")),
        ):
            with pytest.raises(ConfigurationError):
                cluster_open_loop_workload(
                    ClusterWorkloadConfig(
                        hotspot=HotspotProfile(**bad), router=router, seed=1
                    )
                )


class TestArrivalsArePinned:
    """The open-loop stream, bit for bit, across every steering branch.

    The digest below was computed by the formulation that called
    ``router.shard_of`` for every candidate; the driver now hashes each
    distinct user once per generator, and no RNG draw, destination or
    fallback may move with that.  The grid holds every knob's branch: one
    shard (where a cross-shard draw is unsatisfiable: it exhausts its
    resamples and keeps its destination without a scan), two, eight and
    thirteen shards (at eight and
    thirteen, some same-shard draws exhaust their resamples and end in the
    scan), no steering, all-local, mixed and all-cross fractions, hotspot on
    and off, uniform and Zipf destinations.
    """

    GRID = [
        (shards, cross, hotspot, skew)
        for shards in (1, 2, 8, 13)
        for cross in (None, 0.0, 0.25, 1.0)
        for hotspot in (False, True)
        for skew in (0.0, 1.0)
    ]
    ARRIVALS = (5280, "38c5ecf7a769107b155be8983bb8a6f99d90c95d0f88adcf8274b664f5f42ff5")
    # (value, salt) -> stable_hash(value, salt).
    STABLE_HASHES = {
        (0, 0): 17730411816118219628,
        (1, 0): 4288716203127767941,
        (42, 1): 10269528942892304346,
        (999_999, 3): 12718190600080436766,
        (-7, 2): 14241363311849511162,
        ("user-42", 0): 15336860590341413510,
        ((3, "x"), 5): 15118023854719183433,
        (2**70, 0): 1160010737334572941,
    }

    def test_the_arrivals_digest_is_pinned(self):
        from repro.cluster.routing import ShardRouter
        from repro.workloads.cluster_driver import HotspotProfile

        digest = hashlib.sha256()
        count = 0
        for shards, cross, hotspot, skew in self.GRID:
            config = ClusterWorkloadConfig(
                user_count=400,
                aggregate_rate=4_000.0,
                duration=0.02,
                zipf_skew=skew,
                cross_shard_fraction=cross,
                hotspot=HotspotProfile(period=0.005, intensity=0.5, width=3) if hotspot else None,
                router=ShardRouter(shards, 4, salt=shards),
                seed=shards,
            )
            for s in cluster_open_loop_workload(config):
                digest.update(repr((s.time, s.source_user, s.destination_user, s.amount)).encode())
                count += 1
        assert (count, digest.hexdigest()) == self.ARRIVALS

    def test_stable_hash_is_pinned(self):
        from repro.cluster.routing import stable_hash

        assert {pair: stable_hash(*pair) for pair in self.STABLE_HASHES} == self.STABLE_HASHES
