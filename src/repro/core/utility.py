"""Utility functions over job completion time (paper §2.2, §5.1).

Users express each deadline's importance as a utility of completion time
rather than a fair-share weight.  The evaluation uses a piecewise-linear
shape: flat at 1 until the deadline, dropping to −1 ten minutes later, and
to −1000 a thousand minutes later.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Tuple

from repro.settable import is_positive_finite


class UtilityError(ValueError):
    """Raised for malformed utility functions."""


@dataclass(frozen=True)
class PiecewiseLinearUtility:
    """Utility as a piecewise-linear function of completion time (seconds).

    Flat extrapolation before the first point; beyond the last point the
    final segment's slope continues, so an utterly-late job still prefers
    finishing sooner — this is what drives the controller to "continuously
    increase the amount of resources" when behind (§4.4).
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise UtilityError("need at least two points")
        times = [t for t, _u in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise UtilityError(f"times must be strictly increasing: {times}")
        # What value() reads: the breakpoints and each segment's two ends.
        object.__setattr__(self, "_times", tuple(times))
        object.__setattr__(self, "_segments", tuple(
            (t0, u0, t1, u1)
            for (t0, u0), (t1, u1) in zip(self.points, self.points[1:])
        ))

    def value(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            (t0, u0), (t1, u1) = pts[-2], pts[-1]
            slope = (u1 - u0) / (t1 - t0)
            return u1 + slope * (t - t1)
        # The first segment with t0 <= t <= t1: a t on an inner breakpoint
        # ends the segment before it.  Only NaN bisects to 0.
        i = bisect_left(self._times, t)
        if i == 0:
            raise AssertionError("unreachable")  # pragma: no cover
        t0, u0, t1, u1 = self._segments[i - 1]
        w = (t - t0) / (t1 - t0)
        return u0 * (1 - w) + u1 * w

    __call__ = value

    def shifted_left(self, delta: float) -> "PiecewiseLinearUtility":
        """The dead-zone transform (§4.3): treat every boundary as ``delta``
        seconds earlier, so a 60-minute deadline acts like 57 minutes."""
        if delta < 0:
            raise UtilityError(f"negative shift {delta!r}")
        return PiecewiseLinearUtility(
            tuple((t - delta, u) for t, u in self.points)
        )

    @property
    def max_value(self) -> float:
        return max(u for _t, u in self.points)


def deadline_utility(deadline_seconds: float) -> PiecewiseLinearUtility:
    """The paper's experimental utility for a deadline of ``d``: through
    (0, 1), (d, 1), (d + 10 min, −1), (d + 1000 min, −1000)."""
    d = float(deadline_seconds)
    if not is_positive_finite(d):
        raise UtilityError(
            f"deadline must be positive and finite, got {deadline_seconds!r}"
        )
    return PiecewiseLinearUtility(
        points=(
            (0.0, 1.0),
            (d, 1.0),
            (d + 600.0, -1.0),
            (d + 60_000.0, -1000.0),
        )
    )


__all__ = ["PiecewiseLinearUtility", "UtilityError", "deadline_utility"]
