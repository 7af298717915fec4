"""Learning-rate schedules from the paper's training details (Appendix A.3).

The Transfer and Multi-task modules decay the rate at fixed epochs
(:class:`MultiStepLR`), FixMatch uses the ``cos(7*pi*k / 16*K)``
schedule (:class:`FixMatchCosineLR`), and Meta Pseudo Labels uses a plain
cosine decay (:class:`CosineAnnealingLR`).
"""

from __future__ import annotations

import math
from typing import Sequence

from .optim import Optimizer

__all__ = [
    "LRScheduler",
    "ConstantLR",
    "MultiStepLR",
    "CosineAnnealingLR",
    "FixMatchCosineLR",
]


class LRScheduler:
    """Base class: compute a learning rate for each integer step."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.initial_lr
        self.last_step = -1

    def get_lr(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step and apply the new learning rate."""
        self.last_step += 1
        lr = self.get_lr(self.last_step)
        self.optimizer.set_lr(lr)
        return lr


class ConstantLR(LRScheduler):
    def get_lr(self, step: int) -> float:
        return self.base_lr


class MultiStepLR(LRScheduler):
    """Decay the LR by ``gamma`` at each milestone step."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int],
                 gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def get_lr(self, step: int) -> float:
        passed = sum(1 for m in self.milestones if step >= m)
        return self.base_lr * self.gamma ** passed


class CosineAnnealingLR(LRScheduler):
    """Cosine decay ``lr/2 * (1 + cos(pi * k / K))`` used by Meta Pseudo Labels."""

    def __init__(self, optimizer: Optimizer, total_steps: int):
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.total_steps = total_steps

    def get_lr(self, step: int) -> float:
        k = min(step, self.total_steps)
        return self.base_lr / 2.0 * (1.0 + math.cos(math.pi * k / self.total_steps))


class FixMatchCosineLR(LRScheduler):
    """FixMatch schedule ``lr * cos(7 * pi * k / (16 * K))``."""

    def __init__(self, optimizer: Optimizer, total_steps: int):
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.total_steps = total_steps

    def get_lr(self, step: int) -> float:
        k = min(step, self.total_steps)
        return self.base_lr * math.cos(7.0 * math.pi * k / (16.0 * self.total_steps))

