"""Tests for learning-rate schedulers."""

import math

import numpy as np
import pytest

from repro.nn import (SGD, Adam, ConstantLR, CosineAnnealingLR, FixMatchCosineLR,
                      MultiStepLR, Parameter)


@pytest.fixture()
def optimizer():
    return SGD([Parameter(np.zeros(3))], lr=1.0)


class TestSchedules:
    def test_constant(self, optimizer):
        scheduler = ConstantLR(optimizer)
        assert [scheduler.step() for _ in range(3)] == [1.0, 1.0, 1.0]

    def test_multistep(self, optimizer):
        scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.5)
        lrs = [scheduler.step() for _ in range(6)]
        np.testing.assert_allclose(lrs, [1.0, 1.0, 0.5, 0.5, 0.25, 0.25])

    def test_cosine_endpoints(self, optimizer):
        scheduler = CosineAnnealingLR(optimizer, total_steps=10)
        first = scheduler.get_lr(0)
        last = scheduler.get_lr(10)
        assert first == pytest.approx(1.0)
        assert last == pytest.approx(0.0, abs=1e-12)

    def test_fixmatch_cosine_matches_formula(self, optimizer):
        total = 16
        scheduler = FixMatchCosineLR(optimizer, total_steps=total)
        for k in [0, 4, 8, 16]:
            expected = math.cos(7 * math.pi * k / (16 * total))
            assert scheduler.get_lr(k) == pytest.approx(expected)

    def test_applies_lr_to_optimizer(self, optimizer):
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        scheduler.step()
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.1)

    def test_invalid_arguments(self, optimizer):
        with pytest.raises(ValueError):
            CosineAnnealingLR(optimizer, total_steps=0)
        with pytest.raises(ValueError):
            FixMatchCosineLR(optimizer, total_steps=-1)
