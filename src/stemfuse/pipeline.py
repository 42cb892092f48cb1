"""End-to-end separation flow: mixture to fused stems.

Each configured model contributes one stem set: time-domain (T) entries
supply waveforms directly, time-frequency (TF) entries supply per-source
magnitudes that are refined by the multichannel Wiener filter and
resynthesized. The per-model stems are then blended with the configured
per-source weights.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .blend import (
    BlendWeights,
    blend as blend_stems,
    default_weights,
    load_weights,
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
        if self.domain not in (T_DOMAIN, TF_DOMAIN):
            raise ValueError(f"domain must be 'T' or 'TF', got {self.domain!r}")


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


def load_pipeline_config(path) -> PipelineConfig:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "models" not in payload:
        raise ValueError(f"{path}: pipeline config must be an object with a 'models' list")
    entries = []
    for raw in payload["models"]:
        try:
            entries.append(
                ModelEntry(
                    name=raw["name"],
                    domain=raw["domain"],
                    source=raw["source"],
                    leakage=float(raw.get("leakage", 0.1)),
                )
            )
        except KeyError as exc:
            raise ValueError(f"{path}: model entry lacks required key {exc}") from exc
    stft_cfg = StftConfig(**payload.get("stft", {}))
    mwf_cfg = MwfConfig(**payload.get("mwf", {}))
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


def _toy_t_stems(mix_spec: Spectrogram, entry: ModelEntry, length: int) -> SourceWaveformSet:
    # T-domain toy: mask the complex spectrogram and resynthesize directly.
    model = BandMaskModel.default(leakage=entry.leakage)
    masks = model.bin_masks(mix_spec.sample_rate, mix_spec.config.fft_size)
    stems = []
    for mask in masks:
        masked = Spectrogram(mix_spec.bins * mask[None, None, :], mix_spec.config,
                             mix_spec.sample_rate)
        stems.append(istft(masked, length=length))
    return SourceWaveformSet(stems)


def run(mix: Waveform, cfg: PipelineConfig) -> SourceWaveformSet:
    """Produce fused stems for a mixture. Deterministic for fixed inputs."""
    mix_spec = None

    def spec() -> Spectrogram:
        nonlocal mix_spec
        if mix_spec is None:
            mix_spec = stft(mix, cfg.stft)
        return mix_spec

    per_model = []
    for entry in cfg.model_entries:
        if entry.domain == T_DOMAIN:
            if entry.source == BUILTIN_TOY:
                stems = _toy_t_stems(spec(), entry, mix.length)
            else:
                stems = load_stem_dir(entry.source, like=mix, length_tolerance=cfg.stft.hop)
        else:
            if entry.source == BUILTIN_TOY:
                model = BandMaskModel.default(leakage=entry.leakage)
                masks = model.bin_masks(mix.sample_rate, cfg.stft.fft_size)
                mag = np.abs(spec().bins)
                mags = [mag * mask[None, None, :] for mask in masks]
            else:
                mags = _load_magnitude_dir(entry.source, spec())
            stems = tf_branch(mags, spec(), cfg.mwf, mix.length)
        per_model.append(stems)
    return blend_stems(per_model, cfg.weights)
