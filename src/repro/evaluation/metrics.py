"""Metrics and statistics used to report results.

The paper reports top-1 accuracy with 95% confidence intervals over three
training seeds (Appendix A.2); :func:`mean_confidence_interval` reproduces
that statistic with a Student-t interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

__all__ = ["mean_confidence_interval", "student_t_ppf", "Aggregate"]


@dataclass
class Aggregate:
    """Mean with a symmetric 95% confidence half-width."""

    mean: float
    half_width: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.half_width:.2f}"

    def overlaps(self, other: "Aggregate") -> bool:
        """Whether the two 95% intervals overlap (the paper's tie criterion)."""
        return abs(self.mean - other.mean) <= (self.half_width + other.half_width)


def mean_confidence_interval(values: Sequence[float],
                             confidence: float = 0.95) -> Aggregate:
    """Student-t confidence interval of the mean of ``values``.

    With a single observation the half-width is 0 (no spread information),
    matching how single-seed smoke runs are reported.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty list of values")
    mean = float(values.mean())
    if values.size == 1:
        return Aggregate(mean=mean, half_width=0.0, count=1)
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    t_critical = student_t_ppf((1 + confidence) / 2.0, df=values.size - 1)
    return Aggregate(mean=mean, half_width=t_critical * sem, count=int(values.size))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, with ``y = 1 - x`` passed
    in so that neither tail loses precision to the subtraction.

    Evaluates the continued fraction (modified Lentz) on the side of the
    distribution's mean where it converges fast, using the symmetry
    ``I_x(a, b) = 1 - I_y(b, a)`` on the other side.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-16:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge at x={x}")


def student_t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Bisects the upper tail ``P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2``
    down to adjacent floats, so the result is as exact as the tail itself.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
    target = 1.0 - p

    def upper_tail(t: float) -> float:
        return 0.5 * _betainc(df / 2.0, 0.5, df / (df + t * t),
                              t * t / (df + t * t))

    lo, hi = 0.0, 1.0
    while upper_tail(hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if upper_tail(mid) > target:
            lo = mid
        else:
            hi = mid
