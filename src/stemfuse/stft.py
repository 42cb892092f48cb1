"""Short-time Fourier transform and its inverse.

Analysis takes hann-windowed frames of a real signal and keeps the
one-sided spectrum. Synthesis overlap-adds windowed inverse FFTs and
divides by the overlap-added squared window, which reconstructs the
input exactly (to rounding) for any config that passes the
constant-overlap-add check in StftConfig.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigMismatch, EmptySignal
from .core import Spectrogram, StftConfig, Waveform


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Forward transform to (channels, frames, fft_size // 2 + 1).

    With center_pad, frame t is centered on sample t * hop and the frame
    count is length // hop + 1.
    """
    if w.length < 1:
        raise EmptySignal("cannot transform an empty signal")
    n, hop = cfg.fft_size, cfg.hop
    window = cfg.window_array()
    x = w.samples
    if cfg.center_pad:
        x = np.pad(x, ((0, 0), (n // 2, n // 2)))
        frames = w.length // hop + 1
    else:
        if w.length < n:
            raise EmptySignal(
                f"signal of {w.length} samples is shorter than one {n}-sample frame; "
                "enable center_pad"
            )
        frames = (w.length - n) // hop + 1
    segments = sliding_window_view(x, n, axis=-1)[:, ::hop][:, :frames] * window
    return Spectrogram(np.fft.rfft(segments, axis=-1), cfg, w.sample_rate)


def istft(s: Spectrogram, cfg: StftConfig | None = None, length: int | None = None) -> Waveform:
    """Inverse transform via normalized overlap-add.

    `cfg`, when given, must equal the config the spectrogram was made
    with. `length` trims/selects the output extent; it defaults to
    (frames - 1) * hop, the shortest signal length consistent with the
    frame count.
    """
    if cfg is not None and cfg != s.config:
        raise ConfigMismatch(f"spectrogram was produced with {s.config}, not {cfg}")
    cfg = s.config
    n, hop = cfg.fft_size, cfg.hop
    frames = s.frames
    if frames < 1:
        raise EmptySignal("spectrogram has no frames")
    window = cfg.window_array()

    frames_td = np.fft.irfft(s.bins, n=n, axis=-1)  # (channels, frames, n)
    frames_td *= window
    total = (frames - 1) * hop + n
    # Overlap-add in hop-sample blocks: block k of every frame lands on
    # output blocks k .. k + frames - 1 in one strided add. Going from the
    # last block to the first adds each output sample's frames in
    # increasing frame order, the order of a frame-by-frame loop.
    blocks = -(-n // hop)
    acc = np.zeros((s.channels, frames + blocks - 1, hop))
    envelope = np.zeros((frames + blocks - 1, hop))
    wsq = window * window
    for k in reversed(range(blocks)):
        part = slice(k * hop, min((k + 1) * hop, n))
        width = part.stop - part.start
        acc[:, k:k + frames, :width] += frames_td[:, :, part]
        envelope[k:k + frames, :width] += wsq[part]
    acc = acc.reshape(s.channels, -1)[:, :total]
    out = acc / np.maximum(envelope.reshape(-1)[:total], 1e-12)

    start = n // 2 if cfg.center_pad else 0
    available = total - start
    if length is None:
        length = (frames - 1) * hop
    if length > available:
        raise ConfigMismatch(
            f"requested {length} samples but only {available} are reconstructable "
            f"from {frames} frames"
        )
    return Waveform(out[:, start:start + length], s.sample_rate)


def magnitude(s: Spectrogram) -> np.ndarray:
    """Elementwise modulus, shape (channels, frames, bins)."""
    return np.abs(s.bins)
