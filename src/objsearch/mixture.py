"""Uncertainty math for a mixture-of-logits classification head.

A head output is J weighted class distributions.  Epistemic uncertainty is
the weighted disagreement of the mixtures, aleatoric uncertainty the weighted
entropy within them, and their sum feeds a Gaussian-CDF rule that relabels
overly uncertain detections as unknown.  The classification loss is provided
as a value-only function; no gradients are computed anywhere.

This is a standalone library: the synthetic camera does not produce head
outputs, and the episode loop does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CalibrationError, DegenerateLossError, DomainError
from .matching import UNKNOWN_LABEL

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class MixtureOutput:
    """Mixture weights ``pi`` (J,) and per-mixture class distributions ``mu`` (J, C)."""

    pi: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        if pi.ndim != 1 or mu.ndim != 2 or mu.shape[0] != pi.shape[0]:
            raise DomainError(f"mixture shapes inconsistent: pi {pi.shape}, mu {mu.shape}")
        if pi.shape[0] < 1 or mu.shape[1] < 2:
            raise DomainError("need at least 1 mixture and 2 classes")
        if (pi < 0.0).any() or abs(float(pi.sum()) - 1.0) > _WEIGHT_TOL:
            raise DomainError("mixture weights must be non-negative and sum to 1")
        if (mu < 0.0).any():
            raise DomainError("mixture rows must be non-negative")
        if np.abs(mu.sum(axis=1) - 1.0).max() > _WEIGHT_TOL:
            raise DomainError("every mixture row must sum to 1")
        pi.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)

    @property
    def num_mixtures(self) -> int:
        return int(self.pi.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.mu.shape[1])


@dataclass(frozen=True)
class UncertaintyStats:
    """Gaussian fit of total uncertainty on a reference sample."""

    mean: float
    std: float
    n: int

    def __post_init__(self) -> None:
        if self.std <= 0.0 or not math.isfinite(self.std):
            raise DomainError("uncertainty std must be positive and finite")
        if self.n < 2:
            raise DomainError("uncertainty stats need at least 2 samples")


def epistemic(m: MixtureOutput) -> float:
    """Weighted squared deviation of mixture rows from the weighted mean row."""
    mean_row = m.pi @ m.mu
    deviations = ((m.mu - mean_row) ** 2).sum(axis=1)
    return float((m.pi * deviations).sum())


def aleatoric(m: MixtureOutput) -> float:
    """Weighted entropy of the mixture rows (nats); 0 log 0 counts as 0."""
    mu = m.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mu > 0.0, -mu * np.log(mu), 0.0)
    return float((m.pi * terms.sum(axis=1)).sum())


def total_uncertainty(m: MixtureOutput) -> float:
    return epistemic(m) + aleatoric(m)


def classification_loss(m: MixtureOutput, label: int) -> float:
    """Weighted cross-entropy of the mixtures against a one-hot label."""
    if not 0 <= label < m.num_classes:
        raise DomainError(f"label {label} outside [0, {m.num_classes})")
    picked = m.mu[:, label]
    if (picked == 0.0).any():
        raise DegenerateLossError(f"a mixture assigns zero probability to class {label}")
    return float(-(m.pi * np.log(picked)).sum())


def calibrate(samples: Sequence[float]) -> UncertaintyStats:
    """Sample mean and (n-1)-denominator std of total-uncertainty values."""
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 2:
        raise CalibrationError("calibration needs at least 2 samples")
    if not np.isfinite(values).all():
        raise CalibrationError("calibration samples must be finite")
    std = float(values.std(ddof=1))
    if std == 0.0:
        raise CalibrationError("calibration samples have zero variance")
    return UncertaintyStats(mean=float(values.mean()), std=std, n=int(values.shape[0]))


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def relabel_unknown(label: str, total_uncert: float, stats: UncertaintyStats) -> str:
    """Flip a label to unknown when its total uncertainty is in the top decile."""
    z = (total_uncert - stats.mean) / stats.std
    if gaussian_cdf(z) > 0.9:
        return UNKNOWN_LABEL
    return label
