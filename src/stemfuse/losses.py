"""Training objectives over per-source estimates.

The frequency-domain loss is the squared Euclidean norm of the complex
spectrogram error summed over sources; its analytic Wirtinger gradient
is exposed for finite-difference verification. Time-domain terms are an
aggregated L1 and a negative-cosine similarity, combined with the
frequency loss by a single mixing weight.
"""

from __future__ import annotations

import numpy as np

from .core import SourceSpectrogramSet, SourceWaveformSet, _check_alike

COSINE_EPS = 1e-8


def freq_mse(truth: SourceSpectrogramSet, est: SourceSpectrogramSet) -> float:
    """Sum over sources, channels, frames and bins of |Y - Y_hat|^2."""
    _check_alike("truth and estimate", truth.sources, est.sources)
    total = 0.0
    for t, e in zip(truth.sources, est.sources):
        diff = e.bins - t.bins
        total += float(np.sum(diff.real ** 2 + diff.imag ** 2))
    return total


def freq_mse_grad(truth: SourceSpectrogramSet, est: SourceSpectrogramSet) -> list:
    """Per-source Wirtinger gradient dL/d(conj Y_hat) = Y_hat - Y.

    A perturbation d of the estimate moves the loss by 2 * Re<g, d> to
    first order, with <a, b> = sum(conj(a) * b).
    """
    _check_alike("truth and estimate", truth.sources, est.sources)
    return [e.bins - t.bins for t, e in zip(truth.sources, est.sources)]


def l1_waveform(truth: SourceWaveformSet, est: SourceWaveformSet) -> float:
    """Aggregated L1 norm between per-source waveforms."""
    _check_alike("truth and estimate", truth.sources, est.sources)
    total = 0.0
    for t, e in zip(truth.sources, est.sources):
        total += float(np.sum(np.abs(e.samples - t.samples)))
    return total


def time_domain_loss(truth: SourceWaveformSet, est: SourceWaveformSet) -> float:
    """Negative cosine similarity summed over sources; range [-J, J].

    The epsilon in the denominator keeps silent estimates finite.
    """
    _check_alike("truth and estimate", truth.sources, est.sources)
    total = 0.0
    for t, e in zip(truth.sources, est.sources):
        y = t.samples.ravel()
        y_hat = e.samples.ravel()
        denom = float(np.linalg.norm(y) * np.linalg.norm(y_hat)) + COSINE_EPS
        total -= float(np.dot(y, y_hat)) / denom
    return total


def combined_loss(
    truth_specs: SourceSpectrogramSet,
    est_specs: SourceSpectrogramSet,
    truth_waves: SourceWaveformSet,
    est_waves: SourceWaveformSet,
    mix_weight: float = 0.5,
) -> float:
    """mix_weight * freq_mse + (1 - mix_weight) * time_domain_loss."""
    if not 0.0 <= mix_weight <= 1.0:
        raise ValueError(f"mix_weight must lie in [0, 1], got {mix_weight}")
    return mix_weight * freq_mse(truth_specs, est_specs) + (1.0 - mix_weight) * time_domain_loss(
        truth_waves, est_waves
    )
