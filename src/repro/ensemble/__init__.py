"""``repro.ensemble`` — combining taglet predictions into soft pseudo labels."""

from .voting import TagletEnsemble, renormalized_mean

__all__ = ["TagletEnsemble", "renormalized_mean"]
