"""Core data containers shared across the toolkit.

Conventions: waveforms are channel-major float64 arrays of shape
``(channels, length)``; spectrograms are one-sided complex tensors of
shape ``(channels, frames, fft_size // 2 + 1)``. Stems come in the fixed
source order (drums, bass, other, vocals). Every file the toolkit writes
goes through `_atomic_write`.
"""

from __future__ import annotations

import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from .errors import ConfigMismatch, SampleRateMismatch, ShapeMismatch

SOURCE_NAMES = ("drums", "bass", "other", "vocals")

_COLA_TOL = 1e-10


def _is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true/false are not counts)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def _is_real(value) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def source_labels(count: int) -> tuple:
    """Stem labels for a set of `count` sources: the canonical four-name
    order when count is 4, generic names otherwise."""
    if count == len(SOURCE_NAMES):
        return SOURCE_NAMES
    return tuple(f"source_{i}" for i in range(count))


@dataclass
class Waveform:
    """Multichannel time-domain signal.

    samples : (channels, length) float64, finite
    sample_rate : Hz, positive integer
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("waveform needs at least one channel")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        rate = self.sample_rate
        if not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        self.samples = samples
        self.sample_rate = int(rate)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.length / self.sample_rate


def _cola_deviation(window: np.ndarray, hop: int) -> float:
    # Overlap-add the window over enough frames that the middle of the
    # buffer sees every contributing shift, then measure its flatness.
    n = window.size
    total = 6 * n
    acc = np.zeros(total)
    for start in range(0, total - n + 1, hop):
        acc[start:start + n] += window
    interior = acc[n:total - 2 * n]
    return float(interior.max() - interior.min())


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters for the short-time Fourier transform.

    The (window, hop) pair must satisfy constant overlap-add; for the
    hann window that means hop = fft_size/2, fft_size/4, ...
    """

    fft_size: int = 4096
    hop: int = 1024
    window: str = "hann"
    center_pad: bool = True

    def __post_init__(self):
        n = self.fft_size
        if not _is_int(n) or n < 2 or n & (n - 1):
            raise ValueError(f"fft_size must be a power of two, got {n!r}")
        if not (_is_int(self.hop) and 0 < self.hop <= n):
            raise ValueError(f"hop must be an integer in (0, fft_size], got {self.hop!r}")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")
        if not isinstance(self.center_pad, (bool, np.bool_)):
            raise ValueError(f"center_pad must be true or false, got {self.center_pad!r}")
        dev = _cola_deviation(self.window_array(), self.hop)
        if dev > _COLA_TOL:
            raise ValueError(
                f"window={self.window!r} hop={self.hop} fails constant overlap-add "
                f"(deviation {dev:.3e})"
            )

    def window_array(self) -> np.ndarray:
        """Periodic hann window of fft_size samples (peak exactly 1.0)."""
        n = np.arange(self.fft_size)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.fft_size)

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class Spectrogram:
    """One-sided complex time-frequency tensor.

    bins : (channels, frames, fft_size // 2 + 1) complex128, finite
    """

    bins: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 3:
            raise ValueError(f"bins must be 3-D (channels, frames, bins), got shape {bins.shape}")
        if bins.shape[2] != self.config.num_bins:
            raise ShapeMismatch(
                f"expected {self.config.num_bins} frequency bins for "
                f"fft_size={self.config.fft_size}, got {bins.shape[2]}"
            )
        if not np.all(np.isfinite(bins)):
            raise ValueError("spectrogram contains non-finite bins")
        self.bins = bins
        self.sample_rate = int(self.sample_rate)

    @property
    def channels(self) -> int:
        return self.bins.shape[0]

    @property
    def frames(self) -> int:
        return self.bins.shape[1]

    @property
    def num_bins(self) -> int:
        return self.bins.shape[2]


@dataclass
class SourceWaveformSet:
    """Ordered per-source waveforms with identical shapes and rates."""

    sources: List[Waveform]

    def __post_init__(self):
        if len(self.sources) < 1:
            raise ValueError("source set needs at least one member")
        first = self.sources[0]
        for w in self.sources[1:]:
            if w.samples.shape != first.samples.shape:
                raise ShapeMismatch(
                    f"source shapes differ: {w.samples.shape} vs {first.samples.shape}"
                )
            if w.sample_rate != first.sample_rate:
                raise SampleRateMismatch(
                    f"source rates differ: {w.sample_rate} vs {first.sample_rate}"
                )

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def channels(self) -> int:
        return self.sources[0].channels

    @property
    def length(self) -> int:
        return self.sources[0].length

    @property
    def sample_rate(self) -> int:
        return self.sources[0].sample_rate

    def stacked(self) -> np.ndarray:
        """(num_sources, channels, length) copy of all samples."""
        return np.stack([w.samples for w in self.sources])


@dataclass
class SourceSpectrogramSet:
    """Ordered per-source spectrograms with identical shapes and configs."""

    sources: List[Spectrogram]

    def __post_init__(self):
        if len(self.sources) < 1:
            raise ValueError("source set needs at least one member")
        first = self.sources[0]
        for s in self.sources[1:]:
            if s.bins.shape != first.bins.shape:
                raise ShapeMismatch(f"source shapes differ: {s.bins.shape} vs {first.bins.shape}")
            if s.config != first.config:
                raise ConfigMismatch("source spectrograms carry different STFT configs")
            if s.sample_rate != first.sample_rate:
                raise SampleRateMismatch(
                    f"source rates differ: {s.sample_rate} vs {first.sample_rate}"
                )

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def channels(self) -> int:
        return self.sources[0].channels

    def stacked(self) -> np.ndarray:
        """(num_sources, channels, frames, bins) copy of all bins."""
        return np.stack([s.bins for s in self.sources])


def _atomic_write(path, data) -> None:
    """Write str or bytes to `path` through a temp file and a rename."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise
