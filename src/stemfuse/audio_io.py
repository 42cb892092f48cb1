"""WAV stem reading and writing.

Stems are exchanged with external separation models as one WAV file per
source. Only little-endian RIFF/WAVE containers are handled: PCM16,
PCM24 and IEEE float32 for reading, also when the fmt chunk is
WAVE_FORMAT_EXTENSIBLE with the PCM or IEEE-float sub-format, and PCM16
and float32 for writing.
Chunks other than ``fmt `` and ``data`` are skipped. Writes are atomic
(temp file + rename).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteSamples,
    TruncatedData,
    UnsupportedEncoding,
)
from .core import Waveform, _atomic_write

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# the sub-format GUIDs of WAVE_FORMAT_EXTENSIBLE share these last 14 bytes
# after the little-endian 16-bit format tag: {tag-0000-0010-8000-00AA00389B71}
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

ENCODINGS = ("pcm16", "float32")
_WRITE_FRAMES = 1 << 16  # frames converted and written at a time


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


def _decode_pcm24(raw: bytes) -> np.ndarray:
    b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    value = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    value = (value ^ 0x800000) - 0x800000  # sign-extend 24 -> 64 bit
    return value.astype(np.float64) / float(1 << 23)


def read_wav(path) -> Waveform:
    """Read a WAV file into a channel-major float64 Waveform.

    Integer PCM is scaled to [-1, 1] by 2**(bits-1); float32 samples are
    taken verbatim.
    """
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())  # chunks are parsed as views, never copied
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedHeader(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    declared = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        size = struct.unpack_from("<I", blob, pos + 4)[0]
        body = blob[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(body, path)
        elif chunk_id == b"data":
            data = body
            declared = size
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedHeader(f"{path}: no fmt chunk")
    if data is None:
        raise MalformedHeader(f"{path}: no data chunk")
    if len(data) < declared:
        raise TruncatedData(
            f"{path}: data chunk declares {declared} bytes but only {len(data)} are present"
        )

    tag, channels, rate, bits = fmt
    bytes_per_frame = channels * bits // 8
    if declared % bytes_per_frame:
        raise MalformedHeader(f"{path}: data size {declared} is not a whole number of frames")
    frames = declared // bytes_per_frame

    if tag == _FORMAT_PCM and bits == 16:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / float(1 << 15)
    elif tag == _FORMAT_PCM:
        flat = _decode_pcm24(data)
    else:
        with np.errstate(invalid="ignore"):  # a signalling NaN is reported below, by name
            flat = np.frombuffer(data, dtype="<f4").astype(np.float64)

    samples = flat.reshape(frames, channels).T  # de-interleave to channel-major
    try:
        return Waveform(samples, rate)
    except NonFiniteSamples as exc:
        raise NonFiniteSamples(f"{path}: {exc}") from exc


def write_wav(w: Waveform, path, encoding: str = "float32") -> None:
    """Write a Waveform as PCM16 or IEEE float32 WAV.

    PCM16 rounds to nearest and clamps to [-1, 1 - 2**-15]; float32 is a
    plain narrowing cast, so float32-valued samples round-trip exactly.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")

    tag, bits = (_FORMAT_IEEE_FLOAT, 32) if encoding == "float32" else (_FORMAT_PCM, 16)
    channels = w.channels
    block_align = channels * bits // 8
    payload_bytes = w.length * block_align  # even: no pad byte
    fmt_body = struct.pack(
        "<HHIIHH", tag, channels, w.sample_rate, w.sample_rate * block_align, block_align, bits
    )
    header = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if tag == _FORMAT_IEEE_FLOAT:
        header += b"fact" + struct.pack("<II", 4, w.length)
    header += b"data" + struct.pack("<I", payload_bytes)
    riff = b"RIFF" + struct.pack("<I", 4 + len(header) + payload_bytes) + b"WAVE"

    def parts():
        yield riff + header
        interleaved = w.samples.T  # (frames, channels)
        for start in range(0, w.length, _WRITE_FRAMES):
            block = interleaved[start:start + _WRITE_FRAMES]
            if encoding == "float32":
                yield np.ascontiguousarray(block, dtype="<f4")
                continue
            scaled = block * float(1 << 15)
            np.round(scaled, out=scaled)
            np.clip(scaled, -(1 << 15), (1 << 15) - 1, out=scaled)
            yield np.ascontiguousarray(scaled, dtype="<i2")

    try:
        _atomic_write(path, parts())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
