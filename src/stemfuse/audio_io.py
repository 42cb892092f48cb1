"""WAV stem reading and writing.

Stems are exchanged with external separation models as one WAV file per
source. Only little-endian RIFF/WAVE containers are handled: PCM16,
PCM24 and IEEE float32 for reading, also when the fmt chunk is
WAVE_FORMAT_EXTENSIBLE with the PCM or IEEE-float sub-format, and PCM16
and float32 for writing.
Chunks other than ``fmt `` and ``data`` are skipped. `WavReader` decodes
any range of frames of an open file, on several threads of the block
engine (`sweeps`) at once; `read_wav` is it read whole.
`_WavFiles` writes several files block by block, atomically (temp files
renamed after the last block); `write_wav` is one block of one file.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from typing import Optional

import numpy as np

from .errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteSamples,
    TruncatedData,
    UnsupportedEncoding,
)
from .core import Waveform, _AtomicFiles
from .sweeps import _Workspace

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# the sub-format GUIDs of WAVE_FORMAT_EXTENSIBLE share these last 14 bytes
# after the little-endian 16-bit format tag: {tag-0000-0010-8000-00AA00389B71}
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

ENCODINGS = ("pcm16", "float32")
_WRITE_FRAMES = 1 << 16  # frames converted and written at a time
_READ_FRAMES = 1 << 16  # frames `WavReader.frames` reads and decodes at a time


def _parse_fmt(body: bytes, path) -> tuple:
    if len(body) < 16:
        raise MalformedHeader(f"{path}: fmt chunk too short ({len(body)} bytes)")
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", body, 0)
    if channels < 1:
        raise MalformedHeader(f"{path}: zero channels in fmt chunk")
    if rate <= 0:
        raise MalformedHeader(f"{path}: non-positive sample rate {rate}")
    if tag == _FORMAT_EXTENSIBLE:  # cbSize, valid bits, channel mask, sub-format GUID
        if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
            raise MalformedHeader(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk lacks its extension")
        guid = bytes(body[24:40])
        tag = struct.unpack_from("<H", guid)[0]
        if guid[2:] != _GUID_TAIL or tag not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
            raise UnsupportedEncoding(
                f"{path}: WAVE_FORMAT_EXTENSIBLE sub-format {guid.hex()} is not PCM or IEEE float")
    if tag == _FORMAT_PCM:
        if bits not in (16, 24):
            raise UnsupportedEncoding(f"{path}: PCM {bits}-bit is not supported (use 16 or 24)")
    elif tag == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncoding(f"{path}: float {bits}-bit is not supported (use 32)")
    else:
        raise UnsupportedEncoding(f"{path}: wFormatTag 0x{tag:04x} is not PCM or IEEE float")
    return tag, channels, rate, bits


_READS = _Workspace()  # the raw bytes of a piece: one buffer per thread, for every reader


class WavReader:
    """A WAV file opened once, its header checked, its frames decoded on demand.

    `frames` reads a regular file at explicit offsets (`os.preadv`), so it
    never moves the file position, `_READ_FRAMES` frames at a time
    through the calling thread's buffer, which every reader shares and
    which holds one such piece: threads may read one reader, or several,
    at once, and a read of any length holds no more. A pipe or FIFO
    cannot be read at offsets, so its bytes are read whole when it is
    opened. Close the reader, or use it as a context manager.
    """

    def __init__(self, path):
        self.path = path
        self._blob = None
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        try:
            if not stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode):
                self._blob = self._fh.read()
            self._parse_header()
        except OSError as exc:
            self._fh.close()
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        except BaseException:
            self._fh.close()
            raise

    def _pread(self, offset: int, size: int) -> bytes:
        """Up to `size` bytes at `offset`, fewer at the end of the file."""
        if self._blob is not None:
            return self._blob[offset:offset + size]
        return os.pread(self._fh.fileno(), size, offset)

    def _parse_header(self) -> None:
        path = self.path
        end = len(self._blob) if self._blob is not None else os.fstat(self._fh.fileno()).st_size
        head = self._pread(0, 12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedHeader(f"{path} is not a RIFF/WAVE file")
        fmt = data = None
        pos = 12
        while pos + 8 <= end:
            chunk_id, size = struct.unpack("<4sI", self._pread(pos, 8))
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(self._pread(pos + 8, min(size, end - pos - 8)), path)
            elif chunk_id == b"data":
                data = (pos + 8, size)
            pos += 8 + size + (size & 1)  # chunks are word-aligned
        if fmt is None:
            raise MalformedHeader(f"{path}: no fmt chunk")
        if data is None:
            raise MalformedHeader(f"{path}: no data chunk")
        self._offset, declared = data
        if end - self._offset < declared:
            raise TruncatedData(f"{path}: data chunk declares {declared} bytes but only "
                                f"{end - self._offset} are present")
        _tag, self.channels, self.sample_rate, self._bits = fmt
        self._frame_bytes = self.channels * self._bits // 8
        if declared % self._frame_bytes:
            raise MalformedHeader(f"{path}: data size {declared} is not a whole number of frames")
        self.length = declared // self._frame_bytes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._fh.close()

    def frames(self, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Frames start .. stop - 1 as float64 (channels, stop - start), into `out` if given.

        Integer PCM is scaled to [-1, 1] by 2**(bits-1); float32 samples
        are taken verbatim, and a NaN or infinite one is a NonFiniteSamples
        naming the file.
        """
        if not 0 <= start <= stop <= self.length:
            raise ValueError(f"{self.path}: frames {start}..{stop} outside 0..{self.length}")
        if out is None:
            out = np.empty((self.channels, stop - start))
        for first in range(start, stop, _READ_FRAMES):
            last = min(first + _READ_FRAMES, stop)
            size, offset = (last - first) * self._frame_bytes, self._offset + first * self._frame_bytes
            if self._blob is not None:
                raw = np.frombuffer(self._blob, np.uint8, size, offset)
            else:
                raw = _READS.take("raw", (_READ_FRAMES * self._frame_bytes,), np.uint8)[:size]
                try:
                    read = os.preadv(self._fh.fileno(), [raw], offset)
                except OSError as exc:
                    raise IoFailure(f"cannot read {self.path}: {exc}") from exc
                if read != size:
                    raise TruncatedData(f"{self.path}: data ended early while it was being read")
            self._decode(raw, out[:, first - start:last - start].T, first)
        return out

    def _decode(self, raw: np.ndarray, samples: np.ndarray, at: int) -> None:
        """Decode `raw` frames into `samples` (frames, channels), as the file interleaves them."""
        if self._bits == 16:  # cast, then scaled in place: no ufunc casting buffers
            np.copyto(samples, raw.view("<i2").reshape(samples.shape))
            samples /= float(1 << 15)
        elif self._bits == 24:
            b = raw.reshape(-1, 3).astype(np.int64)
            value = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            value = (value ^ 0x800000) - 0x800000  # sign-extend 24 -> 64 bit
            np.divide(value.reshape(samples.shape), float(1 << 23), out=samples)
        else:
            # a signalling NaN is reported below, by name; float32 values cannot
            # overflow a float64 sum, so the sum is finite iff every sample is
            with np.errstate(invalid="ignore"):
                np.copyto(samples, raw.view("<f4").reshape(samples.shape))
                finite = math.isfinite(np.sum(samples))
            if not finite:
                raise NonFiniteSamples(f"{self.path}: non-finite samples in frames "
                                       f"{at}..{at + len(samples) - 1}")


def read_wav(path) -> Waveform:
    """Read a WAV file into a channel-major float64 Waveform: a `WavReader` read whole.

    `WavReader.frames` decodes it `_READ_FRAMES` frames at a time, so
    nothing but the samples grows with the file. No command holds a file
    whole: `separate` and `wiener` read their mixture block by block.
    """
    with WavReader(path) as reader:
        return Waveform(reader.frames(0, reader.length), reader.sample_rate)


def write_wav(w: Waveform, path, encoding: str = "float32") -> None:
    """Write a Waveform as PCM16 or IEEE float32 WAV: one block of `_WavFiles`.

    PCM16 rounds to nearest and clamps to [-1, 1 - 2**-15]; float32 is a
    plain narrowing cast, so float32-valued samples round-trip exactly. A
    size too large for its header field is a ValueError, before any file is made.
    """
    with _WavFiles([path], w.channels, w.sample_rate, w.length, encoding) as files:
        files.write([w.samples])


class _WavFiles(_AtomicFiles):
    """WAV files of one channel count, rate and length, written together
    block by block: each temp file gets its header first, from the known
    length, then the samples of every `write`, and all are renamed into
    place only when the `with` block ends with every frame written (see
    `_AtomicFiles`). Encodings are those of `write_wav`. A size too large
    for its header field is a ValueError, before any file is made; an
    OSError is an IoFailure naming the files.
    """

    def __init__(self, paths, channels: int, sample_rate: int, length: int,
                 encoding: str = "float32"):
        if encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
        super().__init__(paths, _wav_header(paths[0], channels, sample_rate, length, encoding))
        self._encoding, self._length, self._written = encoding, length, 0

    def __enter__(self):
        try:
            self._files = super().__enter__()
        except OSError as exc:
            raise self._io_failure(exc) from exc
        return self

    def write(self, blocks) -> None:
        """Append one (channels, count) block of samples to each file."""
        for fh, path, samples in zip(self._files, self.paths, blocks):
            try:
                for part in _payload(samples, self._encoding):
                    fh.write(part)
            except OSError as exc:
                raise IoFailure(f"cannot write {path}: {exc}") from exc
        self._written += blocks[0].shape[-1]

    def __exit__(self, error_type, *_) -> None:
        if error_type is None and self._written != self._length:
            super().__exit__(ValueError)
            raise ValueError(f"{self.paths[0]}: {self._written} of {self._length} frames written")
        try:
            super().__exit__(error_type)
        except OSError as exc:
            raise self._io_failure(exc) from exc

    def _io_failure(self, exc: OSError) -> IoFailure:
        return IoFailure(f"cannot write {', '.join(map(str, self.paths))}: {exc}")


def _wav_header(path, channels: int, sample_rate: int, length: int, encoding: str) -> bytes:
    """The RIFF, fmt, fact (float32) and data headers of a WAV file of `length` frames."""
    tag, bits = (_FORMAT_IEEE_FLOAT, 32) if encoding == "float32" else (_FORMAT_PCM, 16)
    block_align = channels * bits // 8
    payload_bytes = length * block_align  # even: no pad byte

    def field(name: str, value: int, width: int = 32) -> int:
        if value >> width:
            raise ValueError(f"cannot write {path}: its {name} {value} does not fit {width} bits")
        return value

    fmt_body = struct.pack("<HHIIHH", tag, channels, sample_rate,
                           field("byte rate", sample_rate * block_align),
                           field("block align", block_align, 16), bits)
    header = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if tag == _FORMAT_IEEE_FLOAT:
        header += b"fact" + struct.pack("<II", 4, length)
    header += b"data" + struct.pack("<I", field("data size", payload_bytes))
    riff_size = field("RIFF size", 4 + len(header) + payload_bytes)
    return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + header


def _payload(samples: np.ndarray, encoding: str):
    """The interleaved bytes of (channels, count) samples, `_WRITE_FRAMES` frames at a time."""
    interleaved = samples.T  # (frames, channels)
    for start in range(0, interleaved.shape[0], _WRITE_FRAMES):
        block = interleaved[start:start + _WRITE_FRAMES]
        if encoding == "float32":
            yield np.ascontiguousarray(block, dtype="<f4")
            continue
        scaled = block * float(1 << 15)
        np.round(scaled, out=scaled)
        np.clip(scaled, -(1 << 15), (1 << 15) - 1, out=scaled)
        yield np.ascontiguousarray(scaled, dtype="<i2")
