"""Slowly growing weight functions w(x) for the mesh-condition bounds.

A valid weight function satisfies w(x) >= 1, is nondecreasing, and tends to
infinity.  Three built-ins: a double logarithm with a scale factor, a power,
and a user step table.  Each is defined at every float x >= 0, inf included:
a value past the largest float is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GrowthFunction",
    "DoubleLog",
    "Power",
    "StepTable",
    "parse_growth",
    "validate_growth",
]


class GrowthFunction:
    """Base class; subclasses implement the formula and its description."""

    def __call__(self, x: float) -> float:
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
        try:
            return max(1.0, x**self.eps)
        except OverflowError:  # x**eps past the largest float
            return math.inf

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

