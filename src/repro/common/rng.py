"""Deterministic randomness helpers.

All stochastic behaviour in the repository (network delays, workload
generation, adversarial schedules, Byzantine strategies) draws from a
:class:`SeededRng`.  Seeding every component explicitly keeps simulations,
tests and benchmarks reproducible bit-for-bit, which is essential when a
failing schedule needs to be replayed while debugging a protocol.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from bisect import bisect_right
from operator import truediv
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    Components that need independent randomness (e.g. each network link, each
    workload client) derive their own seed from the experiment seed and a
    stable label.  Using a hash rather than ``base_seed + i`` avoids
    accidental correlation between streams.

    >>> derive_seed(42, "link", 0) == derive_seed(42, "link", 0)
    True
    >>> derive_seed(42, "link", 0) != derive_seed(42, "link", 1)
    True
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class SeededRng:
    """A thin, explicit wrapper around :class:`random.Random`.

    The wrapper exists for three reasons: it makes the seed discoverable
    (``rng.seed``), it provides :meth:`fork` for creating independent child
    streams, and it hosts the handful of distributions the simulator needs
    (exponential and Zipf) behind intention-revealing names.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed})"

    def fork(self, *labels: object) -> "SeededRng":
        """Return an independent child generator keyed by ``labels``."""
        return SeededRng(derive_seed(self.seed, *labels))

    # -- uniform primitives -------------------------------------------------

    def random(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)``."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in ``[low, high]``."""
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniformly distributed in ``[low, high]``."""
        return self._random.uniform(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly random element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Return ``count`` distinct elements drawn uniformly from ``items``."""
        return self._random.sample(list(items), count)

    def shuffle(self, items: List[T]) -> List[T]:
        """Shuffle ``items`` in place and return it for convenience."""
        self._random.shuffle(items)
        return items

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Return a new shuffled list containing the elements of ``items``."""
        copied = list(items)
        self._random.shuffle(copied)
        return copied

    # -- distributions used by the simulator --------------------------------

    def exponential(self, mean: float) -> float:
        """Sample an exponentially distributed delay with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def zipf_index(self, size: int, skew: float = 1.0) -> int:
        """Sample an index in ``[0, size)`` with Zipfian popularity.

        Index ``0`` is the most popular element.  ``skew == 0`` degenerates to
        the uniform distribution.  The implementation samples from the exact
        discrete distribution by inverting the CDF, which is fast enough for
        the account-population sizes used in the benchmarks (≤ 10⁴).
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        if skew == 0:
            return self._random.randrange(size)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(size)]
        total = sum(weights)
        target = self._random.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if target < cumulative:
                return index
        return size - 1

    def maybe(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return self._random.random() < probability

    def pick_subset(self, items: Sequence[T], count: int) -> List[T]:
        """Return a random subset of exactly ``count`` elements."""
        if count > len(items):
            raise ValueError("cannot pick more elements than available")
        return self._random.sample(list(items), count)

    def integers(self, low: int, high: int, count: int) -> List[int]:
        """Return ``count`` integers uniformly distributed in ``[low, high]``."""
        return [self._random.randint(low, high) for _ in range(count)]

    def state(self) -> object:
        """Return the underlying generator state."""
        return self._random.getstate()

    def restore(self, state: object) -> None:
        """Restore a state captured by :meth:`state`."""
        self._random.setstate(state)  # type: ignore[arg-type]


class ZipfSampler:
    """Amortised-fast Zipf sampling over large populations.

    :meth:`SeededRng.zipf_index` walks the weight vector on every draw, which
    is O(size) and unusable for the cluster workload driver's populations of
    up to 10⁶ simulated users.  This sampler pays the O(size) weight
    computation once, keeps the cumulative distribution, and answers each
    draw with a binary search — O(log size) per sample.

    Index ``0`` is the most popular element; ``skew == 0`` degenerates to the
    uniform distribution, matching :meth:`SeededRng.zipf_index`.
    """

    def __init__(self, size: int, skew: float, rng: SeededRng) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.size = size
        self.skew = skew
        self._rng = rng
        self._cdf: Optional[List[float]] = None
        if skew > 0:
            # The weights ``1.0 / (rank + 1) ** skew`` stream into the running
            # sum through C-level maps: only the CDF is ever held, not a
            # second list of ``size`` floats beside it.
            powers = map(pow, range(1, size + 1), itertools.repeat(skew))
            self._cdf = list(itertools.accumulate(map(truediv, itertools.repeat(1.0), powers)))
            self._total = self._cdf[-1]
            # The same stream as ``rng.random()``, one call frame fewer per draw.
            self._uniform = rng._random.random

    def sample(self) -> int:
        """Draw one index in ``[0, size)`` with Zipfian popularity."""
        cdf = self._cdf
        if cdf is None:
            return self._rng.randint(0, self.size - 1)
        return min(self.size - 1, bisect_right(cdf, self._uniform() * self._total))

    def sample_many(self, count: int) -> List[int]:
        """Draw ``count`` independent indices."""
        return [self.sample() for _ in range(count)]


def default_rng(seed: Optional[int] = None) -> SeededRng:
    """Return a :class:`SeededRng` with an explicit or conventional seed.

    Library code never calls this with ``seed=None``; the default exists only
    for interactive exploration where reproducibility is not required.
    """
    return SeededRng(0xC0FFEE if seed is None else seed)
