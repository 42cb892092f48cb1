"""Short-time Fourier transform and its inverse.

Analysis takes hann-windowed frames of a real signal and keeps the
one-sided spectrum. Synthesis overlap-adds windowed inverse FFTs and
divides by the overlap-added squared window, which reconstructs the
input exactly (to rounding) for any config that passes the
constant-overlap-add check in StftConfig.

Both directions also work on a range of frames at a time
(`_analysis_frames`, `_OverlapAdd`), with the same bits as the
whole-signal transforms, so a caller can stream a long signal in blocks.
The per-block parts (analysis, and synthesis up to the windowed inverse
FFTs) depend on nothing but the block; only the overlap-add needs the
blocks in frame order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigMismatch, EmptySignal
from .core import Spectrogram, StftConfig, Waveform, _conformed_frames


def frame_count(length: int, cfg: StftConfig) -> int:
    """Frames `stft` produces for a signal of `length` samples."""
    if length < 1:
        raise EmptySignal("cannot transform an empty signal")
    if cfg.center_pad:
        return length // cfg.hop + 1
    if length < cfg.fft_size:
        raise EmptySignal(
            f"signal of {length} samples is shorter than one {cfg.fft_size}-sample frame; "
            "enable center_pad"
        )
    return (length - cfg.fft_size) // cfg.hop + 1


def _analysis_frames(signal, cfg: StftConfig, start: int, stop: int, window: np.ndarray,
                     out: np.ndarray | None = None, windowed: np.ndarray | None = None,
                     samples: np.ndarray | None = None) -> np.ndarray:
    """(channels, stop - start, bins) spectra of frames start .. stop - 1 of
    `signal`, a Waveform or `WavReader`.

    `window` is `cfg.window_array()`, computed once by the caller. Only the
    samples those frames cover, zero-extended by fft_size // 2 on both sides
    with center_pad, are read, through `_conformed_frames` into `samples`
    (channels, (stop - start - 1) * hop + fft_size); the spectra go into
    `out` and the C-ordered windowed frames into `windowed`, each when given.
    """
    n, hop = cfg.fft_size, cfg.hop
    lo = start * hop - (n // 2 if cfg.center_pad else 0)
    x = _conformed_frames(signal, lo, lo + (stop - start - 1) * hop + n, samples)
    windowed = np.multiply(sliding_window_view(x, n, axis=-1)[:, ::hop], window, out=windowed)
    return np.fft.rfft(windowed, axis=-1, out=out)


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Forward transform to (channels, frames, fft_size // 2 + 1).

    With center_pad, frame t is centered on sample t * hop and the frame
    count is length // hop + 1.
    """
    frames = frame_count(w.length, cfg)
    return Spectrogram(_analysis_frames(w, cfg, 0, frames, cfg.window_array()), cfg,
                       w.sample_rate)


class _OverlapAdd:
    """Normalized overlap-add synthesis fed with blocks of frames in frame order.

    `synthesize` turns a block of spectra into windowed time frames; it
    keeps no state, so blocks can be synthesized in any order or at once.
    `add` takes the next block's time frames, of any size, and returns
    the output samples no later frame can change, in a buffer the next
    call reuses. Between calls only the last fft_size / hop - 1
    hop-sample blocks of the sums are carried, in the first rows of sums
    made once, to fit the largest block. Each output sample adds its
    frames in increasing frame order starting from zero, whatever the
    block sizes, so the output is bitwise that of one call with every
    frame.
    """

    def __init__(self, lead_shape: tuple, cfg: StftConfig, frames: int, length: int | None = None):
        n, hop = cfg.fft_size, cfg.hop
        if frames < 1:
            raise EmptySignal("spectrogram has no frames")
        self._start = n // 2 if cfg.center_pad else 0
        available = (frames - 1) * hop + n - self._start
        if length is None:
            length = (frames - 1) * hop
        if length > available:
            raise ConfigMismatch(
                f"requested {length} samples but only {available} are reconstructable "
                f"from {frames} frames"
            )
        self._cfg = cfg
        self._window = cfg.window_array()
        self._frames_left = frames
        self._stop = self._start + length  # output extent, in padded-signal samples
        self._done = 0  # hop blocks already returned
        self._carry = n // hop - 1  # a whole number of hops: StftConfig's rule
        self._acc = np.zeros(tuple(lead_shape) + (self._carry, hop))
        self._envelope = np.zeros((self._carry, hop))
        self._out = np.empty(0)

    def synthesize(self, spectra: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(..., frames, fft_size) windowed inverse FFTs of (..., frames, bins)
        spectra, into `out` when given."""
        frames_td = np.fft.irfft(spectra, n=self._cfg.fft_size, axis=-1, out=out)
        frames_td *= self._window
        return frames_td

    def add(self, frames_td: np.ndarray) -> tuple:
        """Overlap-add the next block of `synthesize` output; return (offset, samples).

        `samples` (..., count) are the finished output samples starting
        at output sample `offset`; the call with the last frame returns
        everything that is left.
        """
        hop = self._cfg.hop
        frames = frames_td.shape[-2]
        self._frames_left -= frames
        carry, rows = self._carry, frames + self._carry
        if self._envelope.shape[0] < rows:  # the first block, or a larger one
            self._acc, self._envelope = _grown(self._acc, rows), _grown(self._envelope, rows)
        acc, envelope = self._acc[..., :rows, :], self._envelope[:rows]
        acc[..., carry:, :] = 0.0  # the carried sums stay in the first rows
        envelope[carry:] = 0.0
        # Hop-sample block k of every frame lands on blocks k .. k + frames - 1
        # in one strided add. Going from the last block to the first adds
        # each output sample's frames in increasing frame order.
        wsq = self._window * self._window
        for k in reversed(range(carry + 1)):
            acc[..., k:k + frames, :] += frames_td[..., k * hop:(k + 1) * hop]
            envelope[k:k + frames] += wsq[k * hop:(k + 1) * hop]
        finished = frames if self._frames_left else rows
        size = acc[..., 0, 0].size * finished * hop
        if self._out.size < size:
            self._out = np.empty(size)
        out = np.divide(acc[..., :finished, :], np.maximum(envelope[:finished], 1e-12),
                        out=self._out[:size].reshape(acc.shape[:-2] + (finished, hop)))
        for lead in np.ndindex(acc.shape[:-2]):  # rows of one lead do not overlap: no copy
            acc[lead][:rows - finished] = acc[lead][finished:]
        envelope[:rows - finished] = envelope[finished:]
        first = self._done * hop
        self._done += finished
        lo = max(first, self._start)
        hi = min(self._done * hop, self._stop)
        out = out.reshape(out.shape[:-2] + (-1,))[..., lo - first:max(hi, lo) - first]
        return lo - self._start, out


def _grown(sums: np.ndarray, rows: int) -> np.ndarray:
    """(..., rows, hop) zeros that start with the rows of `sums`."""
    out = np.zeros(sums.shape[:-2] + (rows, sums.shape[-1]))
    out[..., :sums.shape[-2], :] = sums
    return out


def istft(s: Spectrogram, cfg: StftConfig | None = None, length: int | None = None) -> Waveform:
    """Inverse transform via normalized overlap-add.

    `cfg`, when given, must equal the config the spectrogram was made
    with. `length` trims/selects the output extent; it defaults to
    (frames - 1) * hop, the shortest signal length consistent with the
    frame count.
    """
    if cfg is not None and cfg != s.config:
        raise ConfigMismatch(f"spectrogram was produced with {s.config}, not {cfg}")
    synthesis = _OverlapAdd((s.channels,), s.config, s.frames, length)
    _, samples = synthesis.add(synthesis.synthesize(s.bins))
    return Waveform(samples, s.sample_rate)


def magnitude(s: Spectrogram) -> np.ndarray:
    """Elementwise modulus, shape (channels, frames, bins)."""
    return np.abs(s.bins)
