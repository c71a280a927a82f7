"""Slowly growing weight functions w(x) for the mesh-condition bounds.

A valid weight function satisfies w(x) >= 1, is nondecreasing, and tends to
infinity.  Three built-ins: a double logarithm with a scale factor, a power,
and a user step table.  Each family knows how to invert itself exactly
(``least_x``), which lets the block-size chooser return astronomically large
answers by closed form instead of scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ResourceCapError

if TYPE_CHECKING:  # imported where used, so CLI start-up does not pay for it
    import mpmath

__all__ = [
    "GrowthFunction",
    "DoubleLog",
    "Power",
    "StepTable",
    "GrowthRangeError",
    "parse_growth",
    "validate_growth",
    "least_nu",
]

# Inversion refuses to materialize integers with more digits than this.
LEAST_X_DIGIT_CAP = 100_000


class GrowthRangeError(ResourceCapError):
    """The inverted argument has too many digits to materialize."""


class GrowthFunction:
    """Base class; subclasses implement the formula and its inverse."""

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def eval_mp(self, x) -> mpmath.mpf:
        raise NotImplementedError

    def least_x(self, target: float):
        """Least real x >= 1 with w(x) >= target (mpmath value)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class DoubleLog(GrowthFunction):
    """w(x) = max(1, c * log(1 + log(1 + x)))."""

    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # NaN fails too
            raise ValueError(f"c must be positive and finite, got {self.c}")

    def __call__(self, x: float) -> float:
        return max(1.0, self.c * math.log1p(math.log1p(x)))

    def eval_mp(self, x) -> mpmath.mpf:
        import mpmath

        one = mpmath.mpf(1)
        return max(one, self.c * mpmath.log(1 + mpmath.log(1 + mpmath.mpf(x))))

    def least_x(self, target: float):
        import mpmath

        if target <= 1:
            return mpmath.mpf(1)
        inner = target / self.c
        digits = (math.exp(inner) - 1) / math.log(10) if inner < 30 else float("inf")
        if inner >= 30 or digits > LEAST_X_DIGIT_CAP:
            raise GrowthRangeError(
                f"inverting {self.describe()} at {target} needs ~exp(exp({inner:.3g})) "
                "which exceeds the digit cap"
            )
        with mpmath.workdps(int(digits) + 40):
            return mpmath.exp(mpmath.exp(mpmath.mpf(target) / self.c) - 1) - 1

    def describe(self) -> str:
        return f"doublelog:{self.c:g}"


@dataclass(frozen=True)
class Power(GrowthFunction):
    """w(x) = max(1, x ** eps)."""

    eps: float

    def __post_init__(self):
        if not 0 < self.eps < math.inf:  # NaN fails too
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def __call__(self, x: float) -> float:
        return max(1.0, x**self.eps)

    def eval_mp(self, x) -> mpmath.mpf:
        import mpmath

        return max(mpmath.mpf(1), mpmath.mpf(x) ** self.eps)

    def least_x(self, target: float):
        import mpmath

        if target <= 1:
            return mpmath.mpf(1)
        digits = math.log10(target) / self.eps
        if digits > LEAST_X_DIGIT_CAP:
            raise GrowthRangeError(
                f"inverting {self.describe()} at {target} exceeds the digit cap"
            )
        with mpmath.workdps(int(digits) + 40):
            return mpmath.mpf(target) ** (1.0 / self.eps)

    def describe(self) -> str:
        return f"power:{self.eps:g}"


@dataclass(frozen=True)
class StepTable(GrowthFunction):
    """Piecewise-constant w from (threshold, value) pairs.

    Values must be >= 1 and nondecreasing; below the first threshold the
    first value applies.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        steps = tuple((float(x), float(v)) for x, v in self.steps)
        if not steps:
            raise ValueError("step table needs at least one entry")
        if not all(math.isfinite(t) for step in steps for t in step):
            raise ValueError("step thresholds and values must be finite")
        steps = tuple(sorted(steps))
        values = [v for _, v in steps]
        if any(v < 1 for v in values):
            raise ValueError("step values must be >= 1")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("step values must be nondecreasing")
        object.__setattr__(self, "steps", steps)

    def __call__(self, x: float) -> float:
        value = self.steps[0][1]
        for threshold, v in self.steps:
            if x >= threshold:
                value = v
            else:
                break
        return value

    def eval_mp(self, x) -> mpmath.mpf:
        import mpmath

        return mpmath.mpf(self(float(x)))

    def least_x(self, target: float):
        import mpmath

        if target <= self.steps[0][1]:
            return mpmath.mpf(1)
        for threshold, v in self.steps:
            if v >= target:
                return mpmath.mpf(threshold)
        raise GrowthRangeError(
            f"step table tops out at {self.steps[-1][1]} < target {target}"
        )

    def describe(self) -> str:
        return "step:" + ",".join(f"{x:g}={v:g}" for x, v in self.steps)


def parse_growth(descriptor: str) -> GrowthFunction:
    """Parse "doublelog:C", "power:EPS" or "step:x=v,x=v,..."."""
    kind, _, rest = descriptor.partition(":")
    if kind == "doublelog":
        return DoubleLog(float(rest) if rest else 1.0)
    if kind == "power":
        return Power(float(rest))
    if kind == "step":
        pairs = []
        for item in rest.split(","):
            x, _, v = item.partition("=")
            pairs.append((float(x), float(v)))
        return StepTable(tuple(pairs))
    raise ValueError(f"unknown growth descriptor {descriptor!r}")


def validate_growth(w: GrowthFunction) -> None:
    """Check w >= 1, nondecreasing, and growing across 60 geometric points
    from 1 to 1e12."""
    grid = [1e12 ** (i / 59) for i in range(60)]
    values = [w(x) for x in grid]
    if any(v < 1 for v in values):
        raise ValueError("w must be >= 1")
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        raise ValueError("w must be nondecreasing")
    if values[-1] <= values[0]:
        raise ValueError("w shows no growth up to 1e+12")


def least_nu(w: GrowthFunction, K: float, target: float, nu_min: int = 16) -> int:
    """Least integer nu >= nu_min with w(K * nu) >= target.

    Uses the family's closed-form inverse and then refines by exact
    evaluation, so the answer is the true minimal integer even when it has
    hundreds of digits.
    """
    import mpmath

    if K <= 0:
        raise ValueError("K must be positive")
    if w(K * nu_min) >= target:
        return nu_min
    x_star = w.least_x(target)
    # Resolve at the magnitude of the answer: consecutive integers there
    # change w by roughly 1/nu, far below double precision.
    dps = max(50, int(mpmath.mag(abs(x_star) + 1) * 0.30103) + 40)
    with mpmath.workdps(dps):
        kk = mpmath.mpf(K)
        nu = max(int(mpmath.ceil(mpmath.mpf(x_star) / kk)), nu_min)
        while nu > nu_min and w.eval_mp(kk * (nu - 1)) >= target:
            nu -= 1
        while w.eval_mp(kk * nu) < target:
            nu += 1
    return nu
