import os
import struct
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stemfuse import (
    Waveform,
    read_magnitudes,
    read_wav,
    write_magnitudes,
    write_wav,
)
from stemfuse.audio_io import WavReader
from stemfuse.errors import (
    IoFailure,
    MalformedHeader,
    NonFiniteSamples,
    StemfuseError,
    TruncatedData,
    UnsupportedEncoding,
)

from helpers import bytes_read_wav, bytes_wav_blob


def build_wav(payload: bytes, tag=1, channels=2, rate=44100, bits=16,
              declared_size=None, extra_chunk=b""):
    """Hand-assemble WAV bytes so reader tests do not depend on the writer."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += extra_chunk
    size = len(payload) if declared_size is None else declared_size
    chunks += b"data" + struct.pack("<I", size) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        # one stereo frame: [0, 16384] -> 0.0 and 16384 / 2**15 = 0.5
        path = tmp_path / "a.wav"
        path.write_bytes(build_wav(struct.pack("<hh", 0, 16384)))
        w = read_wav(path)
        assert w.sample_rate == 44100
        assert w.samples.shape == (2, 1)
        assert w.samples[0, 0] == 0.0
        assert w.samples[1, 0] == 0.5

    def test_all_zero_pcm16(self, tmp_path):
        path = tmp_path / "z.wav"
        path.write_bytes(build_wav(b"\x00" * 400))
        w = read_wav(path)
        assert w.length == 100
        assert np.all(w.samples == 0.0)

    def test_float32_sample_verbatim(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(build_wav(struct.pack("<f", 0.25), tag=3, channels=1, bits=32))
        w = read_wav(path)
        assert w.samples[0, 0] == 0.25

    def test_pcm24_scaling(self, tmp_path):
        value = -(1 << 23)  # most negative 24-bit sample -> -1.0
        raw = struct.pack("<i", value)[:3]
        path = tmp_path / "p24.wav"
        path.write_bytes(build_wav(raw, channels=1, bits=24))
        w = read_wav(path)
        assert w.samples[0, 0] == -1.0

    def test_skips_unknown_chunks(self, tmp_path):
        junk = b"LIST" + struct.pack("<I", 6) + b"junk!!"
        path = tmp_path / "j.wav"
        path.write_bytes(build_wav(struct.pack("<hh", 0, 0), extra_chunk=junk))
        assert read_wav(path).length == 1

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedHeader):
            read_wav(path)

    def test_missing_fmt(self, tmp_path):
        blob = b"RIFF" + struct.pack("<I", 12) + b"WAVE" + b"data" + struct.pack("<I", 0)
        path = tmp_path / "nofmt.wav"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "adpcm.wav"
        path.write_bytes(build_wav(b"\x00\x00", tag=2))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(build_wav(b"\x00", channels=1, bits=8))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(build_wav(b"\x00" * 10, declared_size=100))
        with pytest.raises(TruncatedData):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_wav(tmp_path / "nope.wav")


def extensible_wav(payload: bytes, sub_format: int, bits: int, channels=2, rate=44100,
                   cb_size=22, guid_tail=bytes.fromhex("000000001000800000aa00389b71")):
    """Hand-assembled WAVE_FORMAT_EXTENSIBLE bytes: the 16-byte fmt fields,
    then cbSize, valid bits, channel mask and the sub-format GUID."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    fmt += struct.pack("<HHI", cb_size, bits, 3) + struct.pack("<H", sub_format) + guid_tail
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestWaveFormatExtensible:
    @pytest.mark.parametrize("tag, bits", [(1, 16), (1, 24), (3, 32)])
    def test_reads_as_the_plain_format(self, tmp_path, tag, bits):
        rng = np.random.default_rng(9)
        if tag == 3:
            payload = rng.uniform(-1, 1, size=2 * 7).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 256, size=2 * 7 * bits // 8, dtype=np.uint8).tobytes()
        (tmp_path / "plain.wav").write_bytes(build_wav(payload, tag=tag, bits=bits))
        (tmp_path / "ext.wav").write_bytes(extensible_wav(payload, tag, bits))
        plain, ext = read_wav(tmp_path / "plain.wav"), read_wav(tmp_path / "ext.wav")
        assert ext.sample_rate == plain.sample_rate
        assert np.array_equal(ext.samples, plain.samples)

    @pytest.mark.parametrize("sub_format, guid_tail", [
        (2, bytes.fromhex("000000001000800000aa00389b71")),  # ADPCM
        (1, bytes.fromhex("000000001000800000aa00389b72")),  # PCM tag, foreign GUID
    ])
    def test_other_sub_formats_are_unsupported(self, tmp_path, sub_format, guid_tail):
        path = tmp_path / "x.wav"
        path.write_bytes(extensible_wav(b"\x00" * 8, sub_format, 16, guid_tail=guid_tail))
        with pytest.raises(UnsupportedEncoding, match="sub-format"):
            read_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(extensible_wav(b"\x00" * 8, 1, 32))
        with pytest.raises(UnsupportedEncoding, match="PCM 32-bit"):
            read_wav(path)

    @pytest.mark.parametrize("cb_size", [0, 21])
    def test_too_short_extension_is_malformed(self, tmp_path, cb_size):
        path = tmp_path / "x.wav"
        path.write_bytes(extensible_wav(b"\x00" * 8, 1, 16, cb_size=cb_size))
        with pytest.raises(MalformedHeader, match="extension"):
            read_wav(path)

    def test_fmt_chunk_that_ends_after_cb_size_is_malformed(self, tmp_path):
        fmt = struct.pack("<HHIIHHH", 0xFFFE, 2, 44100, 44100 * 4, 4, 16, 22)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 0)
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(MalformedHeader, match="extension"):
            read_wav(path)


class TestWriteWav:
    def test_zeros_roundtrip(self, tmp_path):
        w = Waveform(np.zeros((2, 50)), 48000)
        path = tmp_path / "z.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert back.sample_rate == 48000
        assert np.array_equal(back.samples, w.samples)

    def test_float32_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.normal(size=(2, 333)).astype(np.float32), 44100)
        path = tmp_path / "f.wav"
        write_wav(w, path, encoding="float32")
        assert np.array_equal(read_wav(path).samples, w.samples)

    def test_pcm16_clamps_overrange(self, tmp_path):
        w = Waveform(np.array([[1.5, -2.0]]), 44100)
        path = tmp_path / "c.wav"
        write_wav(w, path, encoding="pcm16")
        back = read_wav(path)
        assert back.samples[0, 0] == 1.0 - 2.0 ** -15
        assert back.samples[0, 1] == -1.0

    def test_channel_order_preserved(self, tmp_path):
        left = np.linspace(-0.5, 0.5, 64, dtype=np.float32)
        right = np.cos(np.linspace(0, 3, 64)).astype(np.float32)
        w = Waveform(np.stack([left, right]), 44100)
        path = tmp_path / "lr.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert np.array_equal(back.samples[0], left.astype(np.float64))
        assert np.array_equal(back.samples[1], right.astype(np.float64))

    def test_bad_encoding_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(Waveform(np.zeros((1, 4)), 8000), tmp_path / "x.wav", encoding="mp3")

    def test_io_failure_on_bad_directory(self, tmp_path):
        with pytest.raises(IoFailure):
            write_wav(Waveform(np.zeros((1, 4)), 8000), tmp_path / "no" / "dir" / "x.wav")

    @pytest.mark.parametrize("channels, length, rate, field, width", [
        (2, 1, 0xFFFFFFF0, "byte rate", 32),
        (1 << 14, 1, 44100, "block align", 16),
        (2, 1 << 29, 44100, "data size", 32),  # 4 GiB of float32 frames
        (2, (1 << 29) - 5, 44100, "RIFF size", 32),  # 40 bytes short of 4 GiB, 44 header bytes
    ])
    def test_a_size_too_large_for_its_header_field_is_a_value_error(
            self, tmp_path, channels, length, rate, field, width):
        # a stand-in with the sizes of a Waveform and no samples: none are read
        signal = SimpleNamespace(channels=channels, length=length, sample_rate=rate, samples=None)
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match=f"cannot write {path}: its {field} .* {width} bits"):
            write_wav(signal, path)
        assert list(tmp_path.iterdir()) == []


class TestRoundTripProperties:
    def test_float32_identity_1000_signals(self, tmp_path):
        rng = np.random.default_rng(42)
        path = tmp_path / "rt.wav"
        for _ in range(1000):
            channels = int(rng.integers(1, 3))
            length = int(rng.integers(1, 64))
            w = Waveform(rng.uniform(-1, 1, size=(channels, length)).astype(np.float32),
                         44100)
            write_wav(w, path, encoding="float32")
            assert np.array_equal(read_wav(path).samples, w.samples)

    def test_pcm16_within_one_lsb_1000_signals(self, tmp_path):
        rng = np.random.default_rng(43)
        path = tmp_path / "rt16.wav"
        lsb = 2.0 ** -15
        for _ in range(1000):
            channels = int(rng.integers(1, 3))
            length = int(rng.integers(1, 64))
            w = Waveform(rng.uniform(-1, 1 - lsb, size=(channels, length)), 44100)
            write_wav(w, path, encoding="pcm16")
            assert np.max(np.abs(read_wav(path).samples - w.samples)) <= lsb


class TestAgainstBytesCopies:
    """Reader and writer against the whole-file bytes forms in helpers.py."""

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    @pytest.mark.parametrize("channels,length", [(1, 1), (1, 777), (2, 777), (3, 50)])
    @pytest.mark.parametrize("write_frames", [64, None])
    def test_written_bytes_unchanged(self, tmp_path, monkeypatch, encoding, channels, length,
                                     write_frames):
        if write_frames is not None:  # several payload blocks per file
            monkeypatch.setattr(sys.modules["stemfuse.audio_io"], "_WRITE_FRAMES", write_frames)
        rng = np.random.default_rng(channels * 1000 + length)
        samples = rng.uniform(-1.2, 1.2, size=(channels, length))
        for w in (Waveform(samples, 22050), Waveform(np.asfortranarray(samples), 22050)):
            write_wav(w, tmp_path / "a.wav", encoding=encoding)
            assert (tmp_path / "a.wav").read_bytes() == bytes_wav_blob(w, encoding)

    @pytest.mark.parametrize("tag,bits,channels,frames", [
        (1, 16, 2, 301), (1, 24, 1, 301), (1, 24, 3, 5), (3, 32, 2, 301)])
    def test_read_samples_unchanged(self, tmp_path, tag, bits, channels, frames):
        rng = np.random.default_rng(bits + channels)
        payload = rng.integers(0, 256, size=frames * channels * bits // 8,
                               dtype=np.uint8).tobytes()
        if tag == 3:  # random bytes can be NaN/inf floats; use finite samples
            payload = rng.normal(size=frames * channels).astype("<f4").tobytes()
        blob = build_wav(payload, tag=tag, channels=channels, bits=bits,
                         extra_chunk=b"LIST" + struct.pack("<I", 3) + b"abc\x00")
        if len(payload) & 1:  # odd data chunk: pad byte, then one more chunk
            blob += b"\x00" + b"junk" + struct.pack("<I", 2) + b"zz"
            blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        path = tmp_path / "r.wav"
        path.write_bytes(blob)
        samples, rate = bytes_read_wav(path)
        w = read_wav(path)
        assert w.sample_rate == rate
        assert w.samples.shape == (channels, frames)
        assert w.samples.tobytes() == samples.tobytes()


class TestNonFiniteSamples:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_float_wav_with_non_finite_sample_names_the_file(self, tmp_path, value):
        payload = np.array([0.25, value, -0.5, 0.0], dtype="<f4").tobytes()
        path = tmp_path / "bad.wav"
        path.write_bytes(build_wav(payload, tag=3, bits=32))
        with pytest.raises(NonFiniteSamples, match=f"^{path}: .*non-finite") as err:
            read_wav(path)
        assert err.value.code == "non-finite-samples"
        assert isinstance(err.value, ValueError)

    def test_waveform_constructor_raises_it_too(self):
        with pytest.raises(NonFiniteSamples):
            Waveform(np.array([[0.0, np.nan]]), 44100)


# --- WavReader: any range of frames, decoded in place --------------------

@st.composite
def wav_files(draw):
    """(bytes, plain, channels, frames) of a PCM16, PCM24 or float32 WAV, plain
    or WAVE_FORMAT_EXTENSIBLE, with or without a chunk before the data and a
    pad byte and chunk after it; `plain` holds the same payload in a plain
    fmt chunk and nothing else."""
    tag, bits = draw(st.sampled_from([(1, 16), (1, 24), (3, 32)]))
    channels = draw(st.integers(1, 2))
    frames = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tag == 3:
        payload = rng.normal(size=frames * channels).astype("<f4").tobytes()
    else:
        payload = rng.integers(0, 256, size=frames * channels * bits // 8, dtype=np.uint8).tobytes()
    plain = build_wav(payload, tag=tag, channels=channels, bits=bits)
    if draw(st.booleans()):
        blob = extensible_wav(payload, tag, bits, channels=channels)
    else:
        blob = build_wav(payload, tag=tag, channels=channels, bits=bits,
                         extra_chunk=draw(st.sampled_from([b"", b"LIST" + struct.pack("<I", 3)
                                                           + b"abc\x00"])))
    if len(payload) & 1 or draw(st.booleans()):  # a pad byte if odd, then one more chunk
        blob += b"\x00" * (len(payload) & 1) + b"junk" + struct.pack("<I", 2) + b"zz"
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
    return blob, plain, channels, frames


@settings(max_examples=150, deadline=None)
@given(data=st.data(), wav=wav_files())
def test_reader_frames_are_bitwise_the_whole_file_read(tmp_path_factory, data, wav):
    blob, plain, channels, frames = wav
    path = tmp_path_factory.getbasetemp() / "frames.wav"
    path.write_bytes(plain)
    whole, _ = bytes_read_wav(path)  # the whole-file bytes parser knows no extensible fmt
    path.write_bytes(blob)
    assert read_wav(path).samples.tobytes() == np.ascontiguousarray(whole).tobytes()
    with WavReader(path) as reader:
        assert (reader.channels, reader.length) == (channels, frames)
        for _ in range(4):  # ranges of any size, in any order: the scratch grows and is reused
            start = data.draw(st.integers(0, frames))
            stop = data.draw(st.integers(start, frames))
            want = whole[:, start:stop]
            assert reader.frames(start, stop).tobytes() == np.ascontiguousarray(want).tobytes()
            out = np.full((channels, stop - start + 5), np.pi)[:, 2:-3]  # a strided destination
            assert reader.frames(start, stop, out=out) is out
            assert np.array_equal(out, want)


def test_reader_names_the_frames_of_a_non_finite_sample(tmp_path):
    samples = np.zeros((2, 10), dtype="<f4")
    samples[1, 6] = np.inf
    path = tmp_path / "late.wav"
    path.write_bytes(build_wav(samples.T.tobytes(), tag=3, bits=32))
    with WavReader(path) as reader:
        assert np.all(reader.frames(0, 4) == 0.0)  # the header is fine; the samples come later
        with pytest.raises(NonFiniteSamples, match=f"^{path}: non-finite samples in frames 2..9$"):
            reader.frames(2, 10)


def test_two_threads_reading_the_same_readers_get_read_wavs_samples(tmp_path):
    # each thread decodes every reader through its own scratch buffer, which
    # grows as the ranges do; a shared one would mix the threads' bytes
    rng = np.random.default_rng(5)
    frames = 40_000
    paths = [tmp_path / "f32.wav", tmp_path / "p24.wav"]
    paths[0].write_bytes(build_wav(rng.normal(size=2 * frames).astype("<f4").tobytes(),
                                   tag=3, bits=32))
    paths[1].write_bytes(build_wav(rng.integers(0, 256, size=2 * frames * 3, dtype=np.uint8)
                                   .tobytes(), bits=24))
    want = [read_wav(p).samples for p in paths]
    # ranges of one size after a few that grow it, long enough that decoding
    # one lets the other thread run
    edges = [0, 10, 300, 2000] + list(range(4000, frames, 2000)) + [frames]
    ranges = list(zip(edges[:-1], edges[1:]))
    got = [np.full(w.shape, np.nan) for w in want]
    start_together, failures = threading.Barrier(2, timeout=60), []

    def read(first, readers):
        try:
            start_together.wait()
            for _ in range(200):
                for start, stop in ranges[first::2]:
                    for reader, out in zip(readers, got):
                        reader.frames(start, stop, out[:, start:stop])
        except Exception as exc:  # reported by the test's own thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a shared buffer shows
    try:
        with WavReader(paths[0]) as f32, WavReader(paths[1]) as p24:
            threads = [threading.Thread(target=read, args=(k, [f32, p24])) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    for samples, whole in zip(got, want):
        assert samples.tobytes() == whole.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_wav_given_through_a_pipe_is_read_whole(tmp_path):
    rng = np.random.default_rng(3)
    write_wav(Waveform(rng.uniform(-1, 1, size=(2, 300)), 8000), tmp_path / "x.wav")
    blob = (tmp_path / "x.wav").read_bytes()
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(blob)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = read_wav(fifo)
    finally:
        writer.join()
    assert got.samples.tobytes() == read_wav(tmp_path / "x.wav").samples.tobytes()


def test_reader_of_a_file_cut_after_it_was_opened_raises_truncated_data(tmp_path):
    path = tmp_path / "cut.wav"
    path.write_bytes(build_wav(b"\x00" * 400))
    with WavReader(path) as reader:
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(TruncatedData, match="ended early"):
            reader.frames(0, reader.length)


def test_reader_rejects_frames_outside_the_file(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(build_wav(b"\x00" * 40))
    with WavReader(path) as reader:
        for start, stop in ((-1, 2), (3, 2), (0, 11)):
            with pytest.raises(ValueError, match="outside"):
                reader.frames(start, stop)


def read_in_pieces(path):
    """A WavReader's every frame, read as two ranges."""
    with WavReader(path) as reader:
        half = reader.length // 2
        return reader.frames(0, half), reader.frames(half, reader.length)


# --- hostile bytes: each file reader parses or raises a StemfuseError ------

@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    """(reader, bytes) of small valid PCM24, PCM16 and float32 WAVs (one of them
    WAVE_FORMAT_EXTENSIBLE), each for `read_wav` and for a WavReader read in
    pieces, and a DSMAG1 file."""
    rng = np.random.default_rng(7)
    directory = tmp_path_factory.mktemp("valid")
    samples = rng.uniform(-0.9, 0.9, size=(2, 12))
    blobs = [(read_wav, build_wav(rng.integers(0, 256, size=2 * 12 * 3, dtype=np.uint8)
                                  .tobytes(), channels=2, bits=24))]
    for encoding in ("pcm16", "float32"):
        write_wav(Waveform(samples, 8000), directory / "x.wav", encoding=encoding)
        blobs.append((read_wav, (directory / "x.wav").read_bytes()))
    blobs.append((read_wav, extensible_wav(samples.T.astype("<f4").tobytes(), 3, 32)))
    blobs += [(read_in_pieces, blob) for _, blob in blobs]
    write_magnitudes(directory / "x.mag", rng.uniform(0, 1, size=(2, 3, 5)))
    blobs.append((read_magnitudes, (directory / "x.mag").read_bytes()))
    return blobs


# 32-bit words that tend to matter: zero and huge sizes, NaN, +-inf, -0.0
INTERESTING_WORDS = (0, 1, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FC00000, 0x7F800000, 0xFF800000,
                     0x80000000)


@st.composite
def mutations(draw, blob):
    """`blob` with a few bytes or 32-bit words set, bytes cut out or
    inserted, or the file cut short."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["set", "word", "cut", "insert", "truncate"]))
        if action == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif action == "word":
            data[pos:pos + 4] = struct.pack("<I", draw(st.sampled_from(INTERESTING_WORDS)))
        elif action == "cut":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif action == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        else:
            del data[pos:]
    return bytes(data)


def parses_or_raises_stemfuse_error(reader, path, blob):
    path.write_bytes(blob)
    try:
        reader(path)
    except StemfuseError:
        pass


@pytest.mark.parametrize("reader", [read_wav, read_in_pieces, read_magnitudes],
                         ids=["wav", "wav-reader", "dsmag1"])
@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=96) | st.binary(max_size=40).map(
    lambda tail: b"RIFF\x00\x00\x00\x00WAVEfmt " + tail) | st.binary(max_size=40).map(
    lambda tail: b"DSMAG1" + tail))
def test_any_bytes_parse_or_raise_stemfuse_error(tmp_path_factory, reader, blob):
    path = tmp_path_factory.getbasetemp() / "any.bin"
    parses_or_raises_stemfuse_error(reader, path, blob)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_files_parse_or_raise_stemfuse_error(tmp_path_factory, valid_blobs, data):
    reader, blob = data.draw(st.sampled_from(valid_blobs))
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    parses_or_raises_stemfuse_error(reader, path, data.draw(mutations(blob)))


@pytest.mark.parametrize("shape", [(0, 3, 5), (2, 0, 5), (2, 3, 0), (0xFFFF, 1, 0)])
def test_magnitude_header_with_a_zero_dimension_is_malformed(tmp_path, shape):
    path = tmp_path / "empty.mag"
    path.write_bytes(b"DSMAG1" + struct.pack("<III", *shape))
    with pytest.raises(MalformedHeader, match="zero dimension"):
        read_magnitudes(path)
