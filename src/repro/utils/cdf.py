"""Empirical CDF helpers.

Every distribution-shaped figure in the paper (Figures 5, 13, 14) is an
empirical CDF of a per-sample statistic.  This module provides a small,
dependency-free CDF object with the handful of queries the experiment
harness needs: evaluation at a point and quantiles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence

from repro.exceptions import MeasurementError

__all__ = ["EmpiricalCDF", "quantile"]


class EmpiricalCDF:
    """The empirical cumulative distribution of a finite sample.

    The CDF is right-continuous: ``cdf(x)`` is the fraction of samples
    that are ``<= x``.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        values = sorted(float(v) for v in samples)
        if not values:
            raise MeasurementError("cannot build a CDF from an empty sample")
        self._values = values

    @property
    def n(self) -> int:
        """Number of samples backing the CDF."""
        return len(self._values)

    @property
    def values(self) -> Sequence[float]:
        """The sorted sample values."""
        return tuple(self._values)

    @property
    def min(self) -> float:
        return self._values[0]

    @property
    def max(self) -> float:
        return self._values[-1]

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values)

    def __call__(self, x: float) -> float:
        """Fraction of samples ``<= x``."""
        return bisect_right(self._values, x) / len(self._values)

    def quantile(self, q: float) -> float:
        """Smallest sample value ``v`` with ``cdf(v) >= q``.

        ``q`` must lie in ``(0, 1]``; ``quantile(1.0)`` is the maximum.
        """
        if not 0.0 < q <= 1.0:
            raise MeasurementError(f"quantile level must be in (0, 1], got {q}")
        # Index of the smallest value whose CDF reaches q.
        index = max(0, -(-int(q * len(self._values) + 1e-9)) - 1)
        # Guard against floating error pushing the index past the end.
        index = min(index, len(self._values) - 1)
        # Recompute exactly: find first position where rank/n >= q.
        lo, hi = 0, len(self._values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if (mid + 1) / len(self._values) >= q:
                hi = mid
            else:
                lo = mid + 1
        return self._values[lo]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmpiricalCDF(n={self.n}, min={self.min:.4g}, "
            f"median={self.quantile(0.5):.4g}, max={self.max:.4g})"
        )


def quantile(samples: Iterable[float], q: float) -> float:
    """Convenience wrapper: ``EmpiricalCDF(samples).quantile(q)``."""
    return EmpiricalCDF(samples).quantile(q)

