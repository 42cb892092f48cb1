"""`stemfuse blend` sums the stem files block by block on the sweep
workers and writes each block as it is summed: its stems are the bytes of
the whole-track sum at every block size and worker count, a bad sample
in the last block still leaves nothing behind, and memory does not grow
with the stems."""

import tracemalloc

import numpy as np
import pytest

from stemfuse import SourceWaveformSet, Waveform, blend, default_weights, load_stem_dir, write_wav
from stemfuse import sweeps
from stemfuse.cli import main

from helpers import write_stem_dir

SR = 44100
SOURCES = ("drums", "bass", "other", "vocals")


def model_dirs(root, rng, length, models=3, channels=2):
    """`models` stem directories of float32 stems, with exact zeros and
    negative zeros, whose sums keep their sign only if summed from +0.0."""
    dirs = []
    for m in range(models):
        stems = []
        for _ in SOURCES:
            samples = rng.normal(scale=0.3, size=(channels, length)).astype(np.float32)
            samples[:, ::7] = 0.0
            samples[:, 3::11] = -0.0
            stems.append(Waveform(samples.astype(np.float64), SR))
        dirs.append(write_stem_dir(root / f"m{m}", SourceWaveformSet(stems)))
    return dirs


def whole_track_blend(dirs, weights, out_dir):
    """The bytes of the stems the whole-array sum gives, written by `write_wav`:
    each source's stems read whole, weighted and added to zeros in model order."""
    stem_sets = [load_stem_dir(d) for d in dirs]
    fused = np.zeros((len(SOURCES),) + stem_sets[0].sources[0].samples.shape)
    for m, stems in enumerate(stem_sets):
        for j, stem in enumerate(stems.sources):
            fused[j] += np.multiply(weights.weights[m, j], stem.samples)
    out_dir.mkdir()
    for name, samples in zip(SOURCES, fused):
        write_wav(Waveform(samples, SR), out_dir / f"{name}.wav")
    return fused, [(out_dir / f"{name}.wav").read_bytes() for name in SOURCES]


def blended(monkeypatch, dirs, out_dir, block_samples=None, workers=None):
    """The bytes `stemfuse blend` writes, in blocks of `block_samples`
    stereo samples on `workers` threads; None keeps the default."""
    if block_samples is not None:
        monkeypatch.setattr(sweeps, "_BLOCK_BYTES", block_samples * len(SOURCES) * 2 * 8)
    if workers is not None:
        monkeypatch.setattr(sweeps, "_worker_count", lambda: workers)
    assert main(["blend", "--stems", *map(str, dirs), "--out", str(out_dir)]) == 0
    return [(out_dir / f"{name}.wav").read_bytes() for name in SOURCES]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_samples", [1, 97, None], ids=["small", "several", "default"])
def test_blend_writes_the_bytes_of_the_whole_track_sum(tmp_path, monkeypatch, block_samples,
                                                       workers):
    dirs = model_dirs(tmp_path, np.random.default_rng(block_samples or 0), 1000)
    weights = default_weights()
    fused, want = whole_track_blend(dirs, weights, tmp_path / "whole")
    assert blended(monkeypatch, dirs, tmp_path / "fused", block_samples, workers) == want
    in_memory = blend([load_stem_dir(d) for d in dirs], weights)
    assert np.stack([s.samples for s in in_memory.sources]).tobytes() == fused.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_nan_in_the_last_block_is_one_error_line_and_leaves_nothing(tmp_path, monkeypatch,
                                                                       capsys, workers):
    dirs = model_dirs(tmp_path, np.random.default_rng(7), 1000)
    bad = dirs[-1] / "vocals.wav"
    blob = bytearray(bad.read_bytes())
    last = len(blob) - 4  # the last model's last sample: channel 1 of its last frame
    blob[last:] = np.array([np.nan], dtype="<f4").tobytes()
    bad.write_bytes(bytes(blob))
    monkeypatch.setattr(sweeps, "_BLOCK_BYTES", 97 * len(SOURCES) * 2 * 8)
    monkeypatch.setattr(sweeps, "_worker_count", lambda: workers)
    out_dir = tmp_path / "out" / "fused"
    assert main(["blend", "--stems", *map(str, dirs), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error non-finite-samples: {bad}: non-finite samples in frames ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("*.tmp"))


def traced_peak(args) -> int:
    assert main(args) == 0  # untraced first: the interpreter's own tables grow here
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blend_memory_grows_by_blocks_not_by_the_stems(tmp_path, monkeypatch):
    # numpy reports its buffers to tracemalloc. Reading the three models'
    # stems whole grew ~34 MB from 2 s to 6 s; block by block, one worker
    # holds one block and its read buffer at any length
    monkeypatch.setattr(sweeps, "_worker_count", lambda: 1)
    peaks = []
    for seconds in (2, 6):
        dirs = model_dirs(tmp_path / f"s{seconds}", np.random.default_rng(seconds), seconds * SR)
        peaks.append(traced_peak(["blend", "--stems", *map(str, dirs),
                                  "--out", str(tmp_path / f"fused{seconds}")]))
    assert peaks[1] - peaks[0] <= 2 * sweeps._BLOCK_BYTES
