"""`separate` and `wiener` read their mixture block by block, through the
same padded range read as every stem: memory that does not grow with the
mixture, the same stems from a pipe as from a file, a non-finite mixture
sample reported by name in every config, and no file left open."""

import json
import os
import threading
from importlib import resources

import numpy as np
import pytest

from stemfuse import (
    SOURCE_NAMES,
    SourceWaveformSet,
    StftConfig,
    Waveform,
    read_wav,
    stft,
    write_magnitudes,
    write_wav,
)
from stemfuse.cli import main

from helpers import run_child, write_stem_dir

SR = 44100
SMALL_STFT = StftConfig(fft_size=512, hop=128)
TOY_CONFIG = resources.files("stemfuse") / "data" / "toy_pipeline.json"


def write_mixture(path, seconds, seed=0, nan_at=None):
    """A float32 stereo mixture of `seconds`, with one NaN at frame `nan_at` when given."""
    samples = 0.3 * np.random.default_rng(seed).normal(size=(2, int(seconds * SR)))
    write_wav(Waveform(samples, SR), path)
    if nan_at is not None:  # the data chunk ends the file, 8 bytes a stereo frame
        blob = bytearray(path.read_bytes())
        offset = len(blob) - 8 * (samples.shape[1] - nan_at)
        blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
    return path


def small_config(path, models):
    """A `separate` config of `models` (name, domain, source) at SMALL_STFT, weighted equally."""
    path.write_text(json.dumps({
        "models": [{"name": n, "domain": d, "source": s} for n, d, s in models],
        "stft": {"fft_size": SMALL_STFT.fft_size, "hop": SMALL_STFT.hop},
        "weights": {"models": [n for n, _, _ in models], "sources": list(SOURCE_NAMES),
                    "weights": [[1.0 / len(models)] * 4] * len(models)},
    }))
    return path


def t_only_config(tmp_path, length):
    """A config whose one model is a directory of stereo T stems of `length` frames."""
    rng = np.random.default_rng(1)
    stems = [Waveform(0.1 * rng.normal(size=(2, length)), SR) for _ in SOURCE_NAMES]
    stem_dir = write_stem_dir(tmp_path / "t", SourceWaveformSet(stems))
    return small_config(tmp_path / "t_only.json", [("t", "T", str(stem_dir))])


def stem_bytes(directory):
    return [(directory / f"{name}.wav").read_bytes() for name in SOURCE_NAMES]


# In a fresh interpreter, so no table that earlier tests grew lands in the
# traced run; untraced first: a process-wide table of the interpreter that
# grows during a run grows there, not in the traced run.
_TRACED_PEAK = """
import sys, tracemalloc
from stemfuse.cli import main
assert main(sys.argv[1:]) == 0
tracemalloc.start()
assert main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


def test_separate_memory_does_not_grow_with_the_mixture(tmp_path):
    # numpy reports its buffers to tracemalloc. Reading the mixture whole
    # holds 16 bytes per stereo frame, 8.5 MB more at 16 s than at 4 s; read
    # block by block, only the blocks' buffers are held, whatever the length
    config = small_config(tmp_path / "toy.json", [("toy", "TF", "builtin-toy")])
    peaks = []
    for seconds in (4, 16):
        mix = write_mixture(tmp_path / f"mix{seconds}.wav", seconds)
        peaks.append(int(run_child(["-c", _TRACED_PEAK, "separate", "--input", str(mix),
                                    "--config", str(config), "--out", str(tmp_path / "out")])))
    assert peaks[1] - peaks[0] < 1_000_000, peaks


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_separate_from_a_pipe_writes_the_stems_of_the_file(tmp_path):
    mix = write_mixture(tmp_path / "mix.wav", 0.5)
    config = small_config(tmp_path / "toy.json", [("toy", "TF", "builtin-toy")])
    assert main(["separate", "--input", str(mix), "--config", str(config),
                 "--out", str(tmp_path / "file")]) == 0
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(mix.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code = main(["separate", "--input", str(fifo), "--config", str(config),
                     "--out", str(tmp_path / "pipe")])
    finally:
        writer.join()
    assert code == 0
    assert stem_bytes(tmp_path / "pipe") == stem_bytes(tmp_path / "file")


@pytest.mark.parametrize("config", ["shipped-toy", "t-only"])
@pytest.mark.parametrize("nan_at", [0, 3000])
def test_a_nan_in_the_mixture_is_one_line_naming_it(tmp_path, capsys, config, nan_at):
    mix = write_mixture(tmp_path / "mix.wav", 0.2, nan_at=nan_at)
    path = TOY_CONFIG if config == "shipped-toy" else t_only_config(tmp_path, int(0.2 * SR))
    out = tmp_path / "out"
    assert main(["separate", "--input", str(mix), "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error non-finite-samples: {mix}: non-finite samples in frames "), err
    assert err.count("\n") == 1
    assert not out.exists()


def wiener_inputs(tmp_path, nan_at=None):
    """A mixture and a directory of two `.mag` files made from its spectrogram."""
    mix = write_mixture(tmp_path / "mix.wav", 0.2)
    mags = np.abs(stft(read_wav(mix), SMALL_STFT).bins)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    for name, gain in (("a", 0.7), ("b", 0.3)):
        write_magnitudes(mag_dir / f"{name}.mag", gain * mags)
    if nan_at is not None:
        write_mixture(mix, 0.2, nan_at=nan_at)
    return mix, mag_dir


def open_files():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command", ["separate", "wiener"])
@pytest.mark.parametrize("nan_at", [None, 100])
def test_no_command_leaves_a_file_open(tmp_path, capsys, command, nan_at):
    if command == "separate":
        mix = write_mixture(tmp_path / "mix.wav", 0.2, nan_at=nan_at)
        args = ["separate", "--input", str(mix), "--config", str(TOY_CONFIG)]
    else:
        mix, mag_dir = wiener_inputs(tmp_path, nan_at)
        args = ["wiener", "--mix", str(mix), "--mags", str(mag_dir),
                "--fft-size", str(SMALL_STFT.fft_size), "--stft-hop", str(SMALL_STFT.hop)]
    before = open_files()
    code = main(args + ["--out", str(tmp_path / "out")])
    assert open_files() == before
    assert code == (0 if nan_at is None else 1), capsys.readouterr().err
    assert (tmp_path / "out").exists() == (nan_at is None)
