"""End-to-end separation flow: mixture to fused stems.

Each configured model contributes one stem set: time-domain (T) entries
supply waveforms directly, time-frequency (TF) entries supply per-source
magnitudes that are refined by the multichannel Wiener filter. The
per-model stems are blended with the configured per-source weights.
Every branch that yields spectrograms (TF models and builtin-toy T
models) is blended in the spectral domain and synthesized with one
inverse STFT per source; the inverse STFT is linear, so this equals
blending the resynthesized stems up to rounding.

External models plug in through the file system: a T entry points at a
directory of drums/bass/other/vocals WAV stems, a TF entry at a
directory of ``<source>.mag`` magnitude tensors (DSMAG1 format: 6 ASCII
magic bytes, three little-endian u32 dims channels/frames/bins, then
float32 values with bins fastest). ``builtin-toy`` entries run the
band-mask toy model instead.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from .blend import (
    BlendWeights,
    check_weights_fit,
    default_weights,
    load_weights,
    weighted_accumulate,
    weights_from_json_dict,
)
from .errors import (
    LengthMismatch,
    MalformedHeader,
    MissingStem,
    SampleRateMismatch,
    ShapeMismatch,
    TruncatedData,
    WeightModelMismatch,
)
from .audio_io import read_wav
from .core import (
    SOURCE_NAMES,
    SourceWaveformSet,
    Spectrogram,
    StftConfig,
    Waveform,
    _atomic_write,
    _is_real,
)
from .stft import istft, stft
from .toy_models import BandMaskModel
from .wiener import MwfConfig, mwf

BUILTIN_TOY = "builtin-toy"
MAGNITUDE_SUFFIX = ".mag"
_MAGIC = b"DSMAG1"

T_DOMAIN = "T"
TF_DOMAIN = "TF"


@dataclass(frozen=True)
class ModelEntry:
    """One model branch: name, input domain, and where stems come from."""

    name: str
    domain: str
    source: str
    leakage: float = 0.1  # only used by builtin-toy entries

    def __post_init__(self):
        for key in ("name", "source"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"model {key} must be a string, got {getattr(self, key)!r}")
        if self.domain not in (T_DOMAIN, TF_DOMAIN):
            raise ValueError(f"domain must be 'T' or 'TF', got {self.domain!r}")
        if not (_is_real(self.leakage) and 0.0 <= self.leakage < 1.0):
            raise ValueError(f"leakage must be a number in [0, 1), got {self.leakage!r}")


@dataclass
class PipelineConfig:
    model_entries: List[ModelEntry]
    stft: StftConfig = field(default_factory=StftConfig)
    mwf: MwfConfig = field(default_factory=MwfConfig)
    weights: Optional[BlendWeights] = None

    def __post_init__(self):
        if not self.model_entries:
            raise ValueError("pipeline needs at least one model entry")
        if self.weights is None:
            self.weights = default_weights()
        if self.weights.num_models != len(self.model_entries):
            raise WeightModelMismatch(
                f"{len(self.model_entries)} model entries but "
                f"{self.weights.num_models} weight rows"
            )


def _config_section(payload: dict, key: str, cls, path):
    """Build `cls` from the optional object `payload[key]`; bad keys are a ValueError."""
    raw = payload.get(key, {})
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: '{key}' must be an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: unknown '{key}' keys {unknown}")
    return cls(**raw)


def load_pipeline_config(path) -> PipelineConfig:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("models"), list):
        raise ValueError(f"{path}: pipeline config must be an object with a 'models' list")
    entries = []
    for raw in payload["models"]:
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: model entry {raw!r} is not an object")
        try:
            entries.append(
                ModelEntry(
                    name=raw["name"],
                    domain=raw["domain"],
                    source=raw["source"],
                    leakage=raw.get("leakage", 0.1),
                )
            )
        except KeyError as exc:
            raise ValueError(f"{path}: model entry lacks required key {exc}") from exc
    stft_cfg = _config_section(payload, "stft", StftConfig, path)
    mwf_cfg = _config_section(payload, "mwf", MwfConfig, path)
    weights_raw = payload.get("weights")
    if weights_raw is None:
        weights = None
    elif isinstance(weights_raw, str):
        weights = load_weights(weights_raw)
    else:
        weights = weights_from_json_dict(weights_raw)
    return PipelineConfig(entries, stft_cfg, mwf_cfg, weights)


# --- DSMAG1 magnitude tensors ------------------------------------------

def write_magnitudes(path, mags: np.ndarray) -> None:
    """Write a (channels, frames, bins) magnitude tensor as DSMAG1."""
    mags = np.asarray(mags)
    if mags.ndim != 3:
        raise ShapeMismatch(f"magnitude tensor must be 3-D, got shape {mags.shape}")
    header = _MAGIC + struct.pack("<III", *mags.shape)
    _atomic_write(path, header + np.ascontiguousarray(mags, dtype="<f4").tobytes())


def read_magnitudes(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 12 or blob[:len(_MAGIC)] != _MAGIC:
        raise MalformedHeader(f"{path} is not a DSMAG1 magnitude file")
    channels, frames, bins = struct.unpack_from("<III", blob, len(_MAGIC))
    expected = channels * frames * bins * 4
    body = blob[len(_MAGIC) + 12:]
    if len(body) < expected:
        raise TruncatedData(
            f"{path}: header declares {expected} payload bytes, found {len(body)}"
        )
    flat = np.frombuffer(body[:expected], dtype="<f4").astype(np.float64)
    return flat.reshape(channels, frames, bins)


# --- stem-set ingestion -------------------------------------------------

def load_stem_dir(directory, like: Optional[Waveform] = None,
                  length_tolerance: int = 0) -> SourceWaveformSet:
    """Read drums/bass/other/vocals WAVs from a directory.

    When `like` is given, each stem must match its sample rate and
    channel count, and lengths within `length_tolerance` samples are
    padded/truncated to match; larger deviations are errors.
    """
    directory = Path(directory)
    stems = []
    for name in SOURCE_NAMES:
        path = directory / f"{name}.wav"
        if not path.is_file():
            raise MissingStem(f"{directory} lacks {name}.wav")
        stem = read_wav(path)
        if like is not None:
            stem = _conform(stem, like, length_tolerance, path)
        stems.append(stem)
    return SourceWaveformSet(stems)


def _conform(stem: Waveform, like: Waveform, tolerance: int, path) -> Waveform:
    if stem.sample_rate != like.sample_rate:
        raise SampleRateMismatch(
            f"{path}: stem rate {stem.sample_rate} != mixture rate {like.sample_rate}"
        )
    if stem.channels != like.channels:
        raise ShapeMismatch(
            f"{path}: stem has {stem.channels} channels, mixture has {like.channels}"
        )
    delta = stem.length - like.length
    if abs(delta) > tolerance:
        raise LengthMismatch(
            f"{path}: stem length {stem.length} deviates from mixture length "
            f"{like.length} by more than {tolerance} samples"
        )
    if delta > 0:
        return Waveform(stem.samples[:, :like.length], stem.sample_rate)
    if delta < 0:
        return Waveform(np.pad(stem.samples, ((0, 0), (0, -delta))), stem.sample_rate)
    return stem


def _load_magnitude_dir(directory, mix_spec: Spectrogram) -> List[np.ndarray]:
    directory = Path(directory)
    mags = []
    for name in SOURCE_NAMES:
        path = directory / f"{name}{MAGNITUDE_SUFFIX}"
        if not path.is_file():
            raise MissingStem(f"{directory} lacks {name}{MAGNITUDE_SUFFIX}")
        tensor = read_magnitudes(path)
        if tensor.shape != mix_spec.bins.shape:
            raise ShapeMismatch(
                f"{path}: magnitude shape {tensor.shape} does not match "
                f"mixture spectrogram {mix_spec.bins.shape}"
            )
        mags.append(tensor)
    return mags


# --- branches and the full run ------------------------------------------

def tf_branch(
    mags, mix_spec: Spectrogram, mwf_cfg: MwfConfig, length: int
) -> SourceWaveformSet:
    """TF model path: magnitudes through MWF, then per-source resynthesis."""
    filtered = mwf(mags, mix_spec, mwf_cfg)
    return SourceWaveformSet([istft(s, length=length) for s in filtered.sources])


def _toy_masks(entry: ModelEntry, mix_spec: Spectrogram) -> np.ndarray:
    model = BandMaskModel.default(leakage=entry.leakage)
    return model.bin_masks(mix_spec.sample_rate, mix_spec.config.fft_size)


def _magnitudes(entry: ModelEntry, mix_spec: Spectrogram) -> List[np.ndarray]:
    if entry.source != BUILTIN_TOY:
        return _load_magnitude_dir(entry.source, mix_spec)
    mag = np.abs(mix_spec.bins)
    return [mag * mask for mask in _toy_masks(entry, mix_spec)]


def _spectral_stems(entry: ModelEntry, mix_spec: Spectrogram, cfg: PipelineConfig):
    """Per-source complex stems of a TF model or a builtin-toy T model."""
    if entry.domain == T_DOMAIN:  # builtin-toy T: mask the complex spectrogram directly
        return (mix_spec.bins * mask for mask in _toy_masks(entry, mix_spec))
    # No local name holds the magnitudes, so mwf can free them before its EM passes.
    return (s.bins for s in mwf(_magnitudes(entry, mix_spec), mix_spec, cfg.mwf).sources)


def run(mix: Waveform, cfg: PipelineConfig) -> SourceWaveformSet:
    """Produce fused stems for a mixture. Deterministic for fixed inputs.

    Spectral branches are summed with their weights into one
    (sources, channels, frames, bins) array and synthesized once per
    source; external T stems are weighted and added in the time domain.
    """
    weights = cfg.weights
    num_sources = len(SOURCE_NAMES)
    check_weights_fit(weights, len(cfg.model_entries), num_sources)
    fused = np.zeros((num_sources, mix.channels, mix.length))
    mix_spec = spectral = None
    for m, entry in enumerate(cfg.model_entries):
        if entry.domain == T_DOMAIN and entry.source != BUILTIN_TOY:
            stems = load_stem_dir(entry.source, like=mix, length_tolerance=cfg.stft.hop)
            weighted_accumulate(fused, weights.weights[m], (s.samples for s in stems.sources))
            continue
        if mix_spec is None:
            mix_spec = stft(mix, cfg.stft)
            spectral = np.zeros((num_sources,) + mix_spec.bins.shape, dtype=np.complex128)
        weighted_accumulate(spectral, weights.weights[m], _spectral_stems(entry, mix_spec, cfg))
    if spectral is not None:
        for j in range(num_sources):
            spec = Spectrogram(spectral[j], cfg.stft, mix.sample_rate)
            fused[j] += istft(spec, length=mix.length).samples
    return SourceWaveformSet([Waveform(f, mix.sample_rate) for f in fused])
