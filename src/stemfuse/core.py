"""Core data containers shared across the toolkit.

Conventions: waveforms are channel-major float64 arrays of shape
``(channels, length)``; spectrograms are one-sided complex tensors of
shape ``(channels, frames, fft_size // 2 + 1)``. Stems come in the fixed
source order (drums, bass, other, vocals). Every file the toolkit writes
goes through `_AtomicFiles`, every check that stem sets agree through `_check_alike`.
"""

from __future__ import annotations

import errno
import json
import math
import numbers
import os
import secrets
import stat
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List

import numpy as np

from .errors import ConfigMismatch, NonFiniteSamples, SampleRateMismatch, ShapeMismatch
from .errors import LengthMismatch

SOURCE_NAMES = ("drums", "bass", "other", "vocals")

_MAX_FFT_SIZE = 1 << 20


def _is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true/false are not counts)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def _is_real(value) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_positive_finite(value) -> bool:
    """True for a real number > 0, not a bool, that a float holds finitely."""
    try:
        return _is_real(value) and value > 0 and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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
            raise NonFiniteSamples("waveform contains non-finite samples")
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

    def frames(self, start: int, stop: int, out=None) -> np.ndarray:
        """samples[:, start:stop], copied into `out` if given (as `WavReader.frames`)."""
        if out is None:
            return self.samples[:, start:stop]
        np.copyto(out, self.samples[:, start:stop])
        return out


def _conformed_frames(signal, start: int, stop: int, out=None) -> np.ndarray:
    """Frames start .. stop - 1 of `signal` (a Waveform or `WavReader`), zeros
    before sample 0 and past its end, into `out` when given: the one padded
    read of a stem longer or shorter than the mixture, and of STFT frames."""
    if out is None:
        out = np.empty((signal.channels, stop - start))
    lo = min(max(start, 0), stop)
    hi = max(min(stop, signal.length), lo)
    out[:, :lo - start] = 0.0
    if hi > lo:
        signal.frames(lo, hi, out[:, lo - start:hi - start])
    out[:, hi - start:] = 0.0
    return out


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters for the short-time Fourier transform.

    The (window, hop) pair must satisfy constant overlap-add: for the periodic
    hann window, exactly when fft_size / hop is a whole number >= 2 (Allen &
    Rabiner 1977). Synthesis then carries fft_size / hop - 1 hop blocks.
    """

    fft_size: int = 4096
    hop: int = 1024
    window: str = "hann"
    center_pad: bool = True

    def __post_init__(self):
        n = self.fft_size
        if not _is_int(n) or n < 2 or n & (n - 1) or n > _MAX_FFT_SIZE:
            raise ValueError(f"fft_size must be a power of two <= 2**20, got {n!r}")
        if not (_is_int(self.hop) and 0 < self.hop <= n):
            raise ValueError(f"hop must be an integer in (0, fft_size], got {self.hop!r}")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")
        if not isinstance(self.center_pad, (bool, np.bool_)):
            raise ValueError(f"center_pad must be true or false, got {self.center_pad!r}")
        if n % self.hop or self.hop == n:
            raise ValueError(f"window={self.window!r} hop={self.hop} fails constant overlap-add "
                             f"(hop must divide fft_size={n} and be smaller than it)")

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


def _sizes(signal) -> tuple:
    """(size, value, error) of every size in which alike signals agree, in checking order."""
    if isinstance(signal, Spectrogram):
        channels, frames, bins = signal.bins.shape
        return (("channels", channels, ShapeMismatch), ("bins", bins, ShapeMismatch),
                ("frames", frames, LengthMismatch), ("STFT config", signal.config, ConfigMismatch),
                ("sample rate", signal.sample_rate, SampleRateMismatch))
    return (("channels", signal.channels, ShapeMismatch), ("length", signal.length, LengthMismatch),
            ("sample rate", signal.sample_rate, SampleRateMismatch))


def _check_alike(what: str, *groups, tolerance: int = 0) -> None:
    """Raise unless the groups of signals (Waveforms, WAV readers or Spectrograms:
    one set's members, or the members of sets that meet) have one number of
    members and every member agrees with the first in each of its `_sizes`,
    lengths within `tolerance` samples.

    The one shape contract of stem sets: a different source, channel or bin
    count is a ShapeMismatch, a different length or frame count a
    LengthMismatch, rate a SampleRateMismatch, STFT config a ConfigMismatch.
    The message names `what`, the size, both values and the files of the
    two members compared, where they have one.
    """
    if not groups[0]:
        raise ValueError("source set needs at least one member")
    first = _sizes(groups[0][0])
    for group in groups:
        if len(group) != len(groups[0]):
            raise ShapeMismatch(f"{what} differ in sources: {len(groups[0])} vs {len(group)}")
        for signal in group:
            for (size, a, error), (_, b, _) in zip(first, _sizes(signal)):
                if a != b and not (size == "length" and abs(a - b) <= tolerance):
                    paths = [str(s.path) for s in (groups[0][0], signal) if hasattr(s, "path")]
                    named = f" ({' vs '.join(paths)})" if paths else ""
                    raise error(f"{what} differ in {size}: {a} vs {b}{named}")


@dataclass
class _SourceSet:
    """Members of one shape and rate, and the sizes they all have."""

    sources: list

    def __post_init__(self):
        _check_alike("sources", self.sources)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def channels(self) -> int:
        return self.sources[0].channels

    @property
    def sample_rate(self) -> int:
        return self.sources[0].sample_rate


@dataclass
class SourceWaveformSet(_SourceSet):
    """Ordered per-source waveforms with identical shapes and rates."""

    sources: List[Waveform]

    @property
    def length(self) -> int:
        return self.sources[0].length

    def stacked(self) -> np.ndarray:
        """(num_sources, channels, length) copy of all samples."""
        return np.stack([w.samples for w in self.sources])


@dataclass
class SourceSpectrogramSet(_SourceSet):
    """Ordered per-source spectrograms with identical shapes and configs."""

    sources: List[Spectrogram]

    def stacked(self) -> np.ndarray:
        """(num_sources, channels, frames, bins) copy of all bins."""
        return np.stack([s.bins for s in self.sources])


class _AtomicFiles:
    """Files written through temp files beside them: `with
    _AtomicFiles(paths, head) as files` gives one binary file object per
    path, each with the bytes `head` written. When the block ends without
    an error, each temp file is renamed over its path; on any error, every
    temp file is unlinked, even one an interrupt cut off as it was made. A
    directory, or an OSError making or renaming a temp file, is an OSError
    naming its path. A temp file gets open()'s mode, or the replaced file's bits.
    """

    def __init__(self, paths, head: bytes = b""):
        self.paths = [Path(p) for p in paths]
        self._head = head
        self._temps = []  # [file, name] of each temp file not yet renamed, named before it is made

    def __enter__(self) -> list:
        try:
            for path in self.paths:
                try:
                    old = os.stat(path).st_mode
                except FileNotFoundError:
                    old = None
                if old is not None and stat.S_ISDIR(old):  # found now, not after the work
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
                self._temps.append([None, f"{path}.{secrets.token_hex(8)}.tmp"])
                fd = os.open(self._temps[-1][1], os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666 if old is None else old & 0o777)  # as open(): less the umask
                fh = self._temps[-1][0] = os.fdopen(fd, "wb")
                if old is not None:
                    with suppress(OSError):  # a file system that keeps no modes keeps os.open's
                        os.fchmod(fd, old & 0o777)
                fh.write(self._head)
        except BaseException as exc:
            if isinstance(exc, OSError) and self._temps and self._temps[-1][0] is None:
                del self._temps[-1]  # os.open made no file, or the name is another's
            self._discard()
            if isinstance(exc, OSError) and exc.filename is not None:  # a temp file's name
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            raise
        return [fh for fh, _ in self._temps]

    def __exit__(self, error_type, *_) -> None:
        try:
            if error_type is None:  # every file is complete before any is renamed
                for fh, _ in self._temps:
                    fh.close()
                for path in self.paths:
                    try:
                        os.replace(self._temps[0][1], path)
                    except OSError as exc:  # named by its target, not by the temp file
                        raise OSError(exc.errno, exc.strerror, str(path)) from exc
                    del self._temps[0]
        finally:
            self._discard()

    def _discard(self) -> None:
        for fh, name in self._temps:
            if fh is not None:
                with suppress(OSError):  # a failed flush: the file goes anyway
                    fh.close()
            with suppress(FileNotFoundError):  # interrupted before os.open made it
                os.unlink(name)
        self._temps = []


def _json_bytes(payload) -> bytes:
    """The bytes of a JSON output file: `payload` indented by 2, and a newline."""
    return (json.dumps(payload, indent=2) + "\n").encode()


def _atomic_write(path, parts: Iterable) -> None:
    """Write bytes-like `parts` in order to `path`: one file of `_AtomicFiles`.

    A part may be bytes or a C-contiguous array, whose memory is written
    as is; `parts` may be a generator, so no part need outlive its write.
    """
    with _AtomicFiles([path]) as (fh,):
        for part in parts:
            fh.write(part)
