"""Seeded synthetic inputs for the stemfuse benchmark, made with numpy alone.

The four sources are band-limited noise in the bands the built-in toy
model assigns them (bass 0-250 Hz, drums 250-2k, other 2k-8k, vocals 8k
up), with a -30 dB out-of-band floor so every source leaks into every
band. Each source is panned to its own stereo position and carries an
independent decorrelated side component, so each source's 2x2 spatial
covariance, and so the mixture's, is full rank. Vocals are exactly
silent from 1 s to 2 s, which makes the second 1-s SDR frame a
silent-reference frame that `eval` and `search-weights` must exclude.

Nothing here imports stemfuse: WAVs are written by the float32 writer
below, so the inputs never depend on the code under test.

    python3 perfbench/gen.py --workload eval --seed 3 --out some/dir
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
SOURCES = ("drums", "bass", "other", "vocals")
WORKLOADS = ("separate", "eval", "search")

# Seconds of audio per workload.
DURATION_S = {"separate": 10.0, "eval": 10.0, "search": 2.0}

_BANDS_HZ = {"drums": (250.0, 2000.0), "bass": (0.0, 250.0),
             "other": (2000.0, 8000.0), "vocals": (8000.0, np.inf)}
_LEAK_DB = -30.0
_RMS = {"drums": 0.10, "bass": 0.12, "other": 0.08, "vocals": 0.06}
_PAN_RAD = {"drums": 0.35, "bass": 0.78, "other": 1.15, "vocals": 0.60}
_SIDE_GAIN = 0.3
_SILENT_SOURCE = "vocals"
_SILENT_S = (1.0, 2.0)
_FADE_S = 0.05

# eval estimates: reference plus leakage of every other source plus noise.
_EVAL_LEAK = 0.04
_EVAL_NOISE_DB = -11.0
# Distortion noise follows the reference's level over this many samples,
# so each frame's SDR, and so the medians, hardly depend on the seed.
_NOISE_SMOOTHING = 1024

# search-weights model stems: per-model, per-source noise level (dB below
# the reference). Each source has a different best model, as in the
# paper's weight table, and a blend beats every single model.
MODELS = ("xumx", "unet", "demucs")
_MODEL_NOISE_DB = {
    "xumx": {"drums": -6.0, "bass": -14.0, "other": -18.0, "vocals": -10.0},
    "unet": {"drums": -10.0, "bass": -9.0, "other": -8.0, "vocals": -16.0},
    "demucs": {"drums": -16.0, "bass": -6.0, "other": -12.0, "vocals": -12.0},
}


def write_wav_float32(path: Path, samples: np.ndarray, rate: int = SAMPLE_RATE) -> np.ndarray:
    """Write (channels, length) samples as IEEE float32 WAV; return what was stored."""
    stored = np.ascontiguousarray(samples.T, dtype="<f4")
    channels = samples.shape[0]
    payload = stored.tobytes()
    block = channels * 4
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * block, block, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return stored.T.astype(np.float64)


def _band_noise(rng, length: int, band) -> np.ndarray:
    lo, hi = band
    freqs = np.fft.rfftfreq(length, 1.0 / SAMPLE_RATE)
    gain = np.where((freqs >= lo) & (freqs < hi), 1.0, 10.0 ** (_LEAK_DB / 20.0))
    x = np.fft.irfft(np.fft.rfft(rng.standard_normal(length)) * gain, length)
    return x / np.std(x)


def _envelope(rng, name: str, t: np.ndarray) -> np.ndarray:
    rate = rng.uniform(0.2, 0.5)
    env = 0.85 + 0.15 * np.sin(2.0 * np.pi * rate * t + rng.uniform(0.0, 2.0 * np.pi))
    if name == "drums":  # a beat: decaying pulse every half second
        env = env * (0.4 + np.exp(-np.mod(t, 0.5) / 0.06))
    if name == _SILENT_SOURCE:
        start, stop = _SILENT_S
        fade_in = np.clip((start - t) / _FADE_S, 0.0, 1.0)
        fade_out = np.clip((t - stop) / _FADE_S, 0.0, 1.0)
        env = env * np.maximum(fade_in, fade_out)
    return env


def make_sources(rng, length: int) -> np.ndarray:
    """(4, 2, length) float64 sources in SOURCES order."""
    t = np.arange(length) / SAMPLE_RATE
    out = np.empty((len(SOURCES), 2, length))
    for j, name in enumerate(SOURCES):
        main = _band_noise(rng, length, _BANDS_HZ[name])
        side = _band_noise(rng, length, _BANDS_HZ[name])
        pan = _PAN_RAD[name] + rng.uniform(-0.05, 0.05)
        stereo = np.stack([np.cos(pan) * main + _SIDE_GAIN * side,
                           np.sin(pan) * main - _SIDE_GAIN * side])
        out[j] = _RMS[name] * stereo * _envelope(rng, name, t)
    return out


def _noisy_copy(rng, refs: np.ndarray, j: int, leak: float, noise_db: float) -> np.ndarray:
    """refs[j] plus `leak` times the other sources plus noise `noise_db` below it."""
    box = np.ones(_NOISE_SMOOTHING) / _NOISE_SMOOTHING
    level = np.sqrt(np.convolve(np.mean(refs[j] ** 2, axis=0), box, mode="same"))
    noise = rng.standard_normal(refs[j].shape) * level * 10.0 ** (noise_db / 20.0)
    others = refs.sum(axis=0) - refs[j]
    return refs[j] + leak * others + noise


def _write_stem_dir(directory: Path, stems: np.ndarray) -> np.ndarray:
    directory.mkdir(parents=True, exist_ok=True)
    return np.stack([write_wav_float32(directory / f"{name}.wav", stem)
                     for name, stem in zip(SOURCES, stems)])


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload under `out`.

    Returns the stored (float32-rounded, as float64) arrays the checks
    need: "references" (4, 2, n) and, per workload, "mixture" (2, n) or
    "models" {name: (4, 2, n)}.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    length = int(DURATION_S[workload] * SAMPLE_RATE)
    out.mkdir(parents=True, exist_ok=True)
    refs = _write_stem_dir(out / "references", make_sources(rng, length))
    inputs = {"references": refs}
    if workload == "separate":
        inputs["mixture"] = write_wav_float32(out / "mixture.wav", refs.sum(axis=0))
    elif workload == "eval":
        estimates = np.stack([_noisy_copy(rng, refs, j, _EVAL_LEAK, _EVAL_NOISE_DB)
                              for j in range(len(SOURCES))])
        _write_stem_dir(out / "estimates", estimates)
    else:
        inputs["models"] = {
            model: _write_stem_dir(out / model, np.stack([
                _noisy_copy(rng, refs, j, 0.0, _MODEL_NOISE_DB[model][name])
                for j, name in enumerate(SOURCES)]))
            for model in MODELS
        }
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
