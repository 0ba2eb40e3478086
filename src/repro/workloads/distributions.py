"""Flow-size distributions for the dynamic workloads (Sec. 6.1).

The paper evaluates on two empirically measured workloads:

* **web search** (from the DCTCP paper): about half the flows are smaller
  than 100 KB but 95% of the bytes come from the ~30% of flows larger than
  1 MB;
* **enterprise** (from the CONGA paper): even more skewed, with 95% of the
  flows smaller than 10 KB.

We encode both as piecewise-linear empirical CDFs with those statistics;
the experiments only rely on the qualitative shape (heavy tails, fraction
of sub-BDP flows).
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from abc import ABC, abstractmethod
from typing import Sequence, Tuple


class FlowSizeDistribution(ABC):
    """Samples flow sizes in bytes."""

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (bytes)."""

    @abstractmethod
    def mean(self) -> float:
        """Mean flow size (bytes), used to compute Poisson arrival rates."""


class EmpiricalFlowSizeDistribution(FlowSizeDistribution):
    """Piecewise-linear inverse-CDF sampling from ``(size, cdf)`` points.

    The first point's CDF value need not be zero: all probability mass below
    it is assigned to the first size (a point mass, matching how these
    workload CDFs are usually published).
    """

    def __init__(self, points: Sequence[Tuple[float, float]], name: str = "empirical"):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [float(s) for s, _ in points]
        cdf = [float(c) for _, c in points]
        if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if any(c2 < c1 for c1, c2 in zip(cdf, cdf[1:])):
            raise ValueError("CDF values must be non-decreasing")
        if cdf[-1] != 1.0:
            raise ValueError("the last CDF value must be 1.0")
        if cdf[0] < 0.0:
            raise ValueError("CDF values must be non-negative")
        self.name = name
        self._sizes = tuple(sizes)
        self._cdf = tuple(cdf)

    def quantile(self, u: float) -> float:
        """Inverse CDF: the flow size at cumulative probability ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        if u <= self._cdf[0]:
            return self._sizes[0]
        index = bisect.bisect_left(self._cdf, u)
        index = min(index, len(self._cdf) - 1)
        c0, c1 = self._cdf[index - 1], self._cdf[index]
        s0, s1 = self._sizes[index - 1], self._sizes[index]
        if c1 == c0:
            return s1
        # Interpolate in log-size space: flow sizes span orders of magnitude.
        log_size = math.log(s0) + (math.log(s1) - math.log(s0)) * (u - c0) / (c1 - c0)
        return math.exp(log_size)

    def cdf(self, size: float) -> float:
        """Cumulative probability of a flow being at most ``size`` bytes."""
        if size <= self._sizes[0]:
            return self._cdf[0] if size >= self._sizes[0] else 0.0
        if size >= self._sizes[-1]:
            return 1.0
        index = bisect.bisect_right(self._sizes, size)
        s0, s1 = self._sizes[index - 1], self._sizes[index]
        c0, c1 = self._cdf[index - 1], self._cdf[index]
        return c0 + (c1 - c0) * (math.log(size) - math.log(s0)) / (math.log(s1) - math.log(s0))

    def sample(self, rng: random.Random) -> int:
        return max(1, int(round(self.quantile(rng.random()))))

    def mean(self) -> float:
        """Mean of the piecewise distribution (point mass + log-linear pieces).

        Computed numerically by quantile integration, which is accurate
        enough for sizing Poisson arrival rates.
        """
        return _quantile_mean(self._sizes, self._cdf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmpiricalFlowSizeDistribution({self.name!r})"


@functools.lru_cache(maxsize=32)
def _quantile_mean(sizes: Tuple[float, ...], cdf: Tuple[float, ...]) -> float:
    """Midpoint-rule quantile integral of one CDF (~6 ms), once per process.

    Keyed by the CDF points, not the instance: Poisson generators ask on
    every ``arrivals()`` call and the named workloads build a fresh instance.
    """
    quantile = EmpiricalFlowSizeDistribution(list(zip(sizes, cdf))).quantile
    steps = 10_000
    total = 0.0
    for i in range(steps):
        total += quantile((i + 0.5) / steps)
    return total / steps


class ParetoFlowSizeDistribution(FlowSizeDistribution):
    """Bounded Pareto distribution, a standard heavy-tailed synthetic workload."""

    def __init__(self, shape: float = 1.2, minimum: float = 1e3, maximum: float = 1e7):
        if shape <= 0:
            raise ValueError("shape must be positive")
        if not 0 < minimum < maximum:
            raise ValueError("require 0 < minimum < maximum")
        self.shape = shape
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        a, lo, hi = self.shape, self.minimum, self.maximum
        # Inverse CDF of the bounded Pareto distribution.
        x = (-(u * hi ** a - u * lo ** a - hi ** a) / (hi ** a * lo ** a)) ** (-1.0 / a)
        return max(1, int(round(x)))

    def mean(self) -> float:
        a, lo, hi = self.shape, self.minimum, self.maximum
        if math.isclose(a, 1.0):
            return lo * hi / (hi - lo) * math.log(hi / lo)
        return (lo ** a / (1 - (lo / hi) ** a)) * (a / (a - 1)) * (
            1 / lo ** (a - 1) - 1 / hi ** (a - 1)
        )


class UniformFlowSizeDistribution(FlowSizeDistribution):
    """Uniform flow sizes, useful in controlled unit studies."""

    def __init__(self, minimum: float, maximum: float):
        if not 0 < minimum <= maximum:
            raise ValueError("require 0 < minimum <= maximum")
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, rng: random.Random) -> int:
        return max(1, int(round(rng.uniform(self.minimum, self.maximum))))

    def mean(self) -> float:
        return (self.minimum + self.maximum) / 2.0


def web_search_distribution() -> EmpiricalFlowSizeDistribution:
    """The web-search workload (DCTCP measurement), Sec. 6.1.

    Roughly 50% of flows are below 100 KB while ~95% of the bytes belong to
    flows larger than 1 MB.
    """
    return EmpiricalFlowSizeDistribution(
        [
            (6_000, 0.15),
            (13_000, 0.20),
            (19_000, 0.30),
            (33_000, 0.40),
            (53_000, 0.53),
            (133_000, 0.60),
            (667_000, 0.70),
            (1_340_000, 0.80),
            (3_300_000, 0.90),
            (6_700_000, 0.97),
            (20_000_000, 0.999),
            (30_000_000, 1.0),
        ],
        name="web-search",
    )


def enterprise_distribution() -> EmpiricalFlowSizeDistribution:
    """The enterprise workload (CONGA measurement), Sec. 6.1.

    Extremely skewed: ~95% of flows are smaller than 10 KB (most are one or
    two packets), but the few large flows carry most of the bytes.
    """
    return EmpiricalFlowSizeDistribution(
        [
            (1_000, 0.40),
            (2_000, 0.60),
            (3_000, 0.70),
            (5_000, 0.85),
            (10_000, 0.95),
            (50_000, 0.965),
            (200_000, 0.975),
            (1_000_000, 0.985),
            (5_000_000, 0.995),
            (50_000_000, 1.0),
        ],
        name="enterprise",
    )
