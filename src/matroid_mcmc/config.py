"""Chain configuration and step statistics shared by both walks."""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

from .errors import ValidationError

MIX_CONSTANT = 4.0


def check_int(name: str, x, lo: int = 1, hi: int | None = None, span: str = ">= 1") -> None:
    """The one integer rule for a run's counts and seed: raise ValidationError
    unless x is an integer (numpy's too; a bool is not one) in [lo, hi)."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < lo
            or (hi is not None and x >= hi)):
        raise ValidationError(f"{name} must be an integer {span}, got {x!r}")


def check_seed(seed) -> None:
    """Raise ValidationError unless seed is an integer in [0, 2^64), the width of
    every stream key (a seed outside it would replay one inside)."""
    check_int("seed", seed, 0, 1 << 64, "in [0, 2^64)")


@dataclass(frozen=True)  # so its checks hold for its life
class ChainConfig:
    epsilon: float = 0.1
    seed: int = 0
    step_override: int | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.step_override is not None:
            check_int("step_override", self.step_override)
        check_seed(self.seed)

    def steps(self, n: int) -> int:
        """Transition count: step_override, else ceil(MIX_CONSTANT * n * ln(n/eps))."""
        if self.step_override is not None:
            return self.step_override
        try:
            return math.ceil(MIX_CONSTANT * n * math.log(n / self.epsilon))
        except OverflowError:
            raise ValidationError("epsilon asks for more steps than a float can count") from None


@dataclass
class StepStats:
    proposals: int = 0
    rejections: int = 0
    steps: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.proposals if self.proposals else 0.0

    def merge(self, other: "StepStats") -> None:
        self.proposals += other.proposals
        self.rejections += other.rejections
        self.steps += other.steps


def debug_asserts_enabled() -> bool:
    return os.environ.get("MATROID_MCMC_DEBUG_ASSERTS", "") == "1"
