"""Fairness-aware ride-pooling: batched dispatch, objective design, income redistribution."""

__version__ = "0.1.0"
