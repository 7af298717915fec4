"""Parameter initialization schemes for :mod:`repro.nn` modules."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["kaiming_uniform", "zeros", "normal"]


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) < 1:
        raise ValueError("cannot compute fan for a scalar shape")
    if len(shape) == 1:
        return shape[0]
    return int(np.prod(shape[:-1]))


def kaiming_uniform(shape: Tuple[int, ...],
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He/Kaiming uniform init, appropriate for ReLU networks."""
    rng = rng if rng is not None else np.random.default_rng()
    fan_in = _fan_in(shape)
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: Tuple[int, ...], std: float = 0.01,
           rng: Optional[np.random.Generator] = None) -> np.ndarray:
    rng = rng if rng is not None else np.random.default_rng()
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)
