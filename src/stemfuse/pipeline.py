"""End-to-end separation flow: mixture to fused stems.

Each configured model contributes one stem set: time-domain (T) entries
supply waveforms directly, time-frequency (TF) entries supply per-source
magnitudes that are refined by the multichannel Wiener filter. The
per-model stems are blended with the configured per-source weights.
Every branch that yields spectrograms (TF models and builtin-toy T
models) is blended in the spectral domain and synthesized with one
inverse STFT per source; the inverse STFT is linear, so this equals
blending the resynthesized stems up to rounding. `run` streams those
branches through the mixture in blocks of a few frames, so it never
holds a whole-track spectrogram; each block reads the mixture samples
its frames cover (`stft._analysis_frames`), so neither is held whole.
`stemfuse wiener` enters the same engine with one TF model and its own
source names, those of its `.mag` files.

Within one sweep over the blocks (the engine of `sweeps`), a block's
work depends only on the block and on the spatial covariances of
finished EM passes. A block's STFT frames, |x| and the mixture products
of the first EM pass are made once and shared by every branch; each TF
branch turns its magnitudes into real mask gains, and its first pass's
per-frame terms come from those gains without forming complex
estimates. The ordered work adds the EM terms to the running sums and,
in the last sweep, overlap-adds the synthesized frames and runs the
output step (`_add_spectral`), so `stemfuse separate` and `wiener` write
the stems as the blocks finish. A config of external T stems alone has
no spectral sweep: its stems are their weighted sum, made as `stemfuse
blend` makes it.

External models plug in through the file system: a T entry points at a
directory of drums/bass/other/vocals WAV stems, a TF entry at a
directory of ``<source>.mag`` magnitude tensors (DSMAG1 format: 6 ASCII
magic bytes, three little-endian u32 dims channels/frames/bins, then
float32 values with bins fastest; NaN, infinite and negative values are
rejected as they are read). ``builtin-toy`` entries run the band-mask
toy model instead.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from .blend import (
    BlendWeights,
    _blend_blocks,
    _collected,
    _weighted_sum,
    check_weights_fit,
    default_weights,
    load_weights,
    weighted_accumulate,
    weights_from_json_dict,
)
from .errors import (
    MalformedHeader,
    MissingStem,
    NegativeMagnitude,
    NonFiniteSamples,
    ShapeMismatch,
    TruncatedData,
    WeightModelMismatch,
)
from .audio_io import _READ_FRAMES, WavReader
from .core import (
    SOURCE_NAMES,
    SourceWaveformSet,
    StftConfig,
    Waveform,
    _atomic_write,
    _check_alike,
    _conformed_frames,
    _is_real,
)
from .stft import _analysis_frames, _OverlapAdd, frame_count
from .sweeps import _Sweeps
from .toy_models import BandMaskModel
from .wiener import (
    MwfConfig,
    _block_psd,
    _check_channels,
    _em_pass,
    _filter_sources,
    _frame_blocks,
    _mask_gains,
    _Mixture,
    _pass_terms,
    _refilter,
)

BUILTIN_TOY = "builtin-toy"
MAGNITUDE_SUFFIX = ".mag"
_MAGIC = b"DSMAG1"
_HEADER_BYTES = len(_MAGIC) + 12  # magic, then channels, frames, bins as u32

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


def _from_object(cls, raw, where: str, path):
    """`cls` built from the JSON object `raw` at `where` in the config file
    `path`: a non-object, a key that is not a field of `cls` and a missing
    field that has no default are each a ValueError."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {where} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: unknown {where} keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{path}: {where} lacks required keys {missing}")
    return cls(**raw)


def load_pipeline_config(path) -> PipelineConfig:
    """Read a pipeline JSON config.

    A relative `weights` path or model `source` directory is taken
    relative to the directory of the config file, so a config works from
    any working directory; absolute paths and `builtin-toy` are kept.
    Weight rows are matched to the model entries by name (see
    `_rows_by_entry`); with no weights, the shipped defaults apply by
    position.
    """

    def beside_config(value: str) -> str:
        return value if value == BUILTIN_TOY else os.path.join(os.path.dirname(path), value)

    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("models"), list):
        raise ValueError(f"{path}: pipeline config must be an object with a 'models' list")
    unknown = sorted(set(payload) - {"models", "stft", "mwf", "weights"})
    if unknown:
        raise ValueError(f"{path}: unknown top-level keys {unknown}")
    entries = [_from_object(ModelEntry, raw, "model entry", path) for raw in payload["models"]]
    entries = [replace(e, source=beside_config(e.source)) for e in entries]
    stft_cfg = _from_object(StftConfig, payload.get("stft", {}), "'stft'", path)
    mwf_cfg = _from_object(MwfConfig, payload.get("mwf", {}), "'mwf'", path)
    weights = payload.get("weights")
    if weights is not None:
        weights = _rows_by_entry(load_weights(beside_config(weights)) if isinstance(weights, str)
                                 else weights_from_json_dict(weights), entries, path)
    return PipelineConfig(entries, stft_cfg, mwf_cfg, weights)


def _rows_by_entry(weights: BlendWeights, entries: List[ModelEntry], path) -> BlendWeights:
    """`weights` with one row per model entry, in entry order, matched by name."""
    names = [e.name for e in entries]
    for listed, where in ((names, "model entries"), (weights.model_names, "weights")):
        repeated = sorted({n for n in listed if listed.count(n) > 1})
        if repeated:
            raise WeightModelMismatch(f"{path}: {where} repeat the model names {repeated}")
    unknown = [n for n in weights.model_names if n not in names]
    if unknown:
        raise WeightModelMismatch(f"{path}: weights name models {unknown} that are not entries")
    missing = [n for n in names if n not in weights.model_names]
    if missing:
        raise WeightModelMismatch(f"{path}: model entries {missing} have no weight row")
    rows = [weights.model_names.index(n) for n in names]
    return BlendWeights(weights.weights[rows], tuple(names), weights.source_names)


# --- DSMAG1 magnitude tensors ------------------------------------------

def write_magnitudes(path, mags: np.ndarray) -> None:
    """Write a (channels, frames, bins) magnitude tensor as DSMAG1."""
    mags = np.asarray(mags)
    if mags.ndim != 3:
        raise ShapeMismatch(f"magnitude tensor must be 3-D, got shape {mags.shape}")
    header = _MAGIC + struct.pack("<III", *mags.shape)
    _atomic_write(path, [header, np.ascontiguousarray(mags, dtype="<f4")])


def _magnitude_shape(fh, path) -> tuple:
    """(channels, frames, bins) of an open DSMAG1 file whose payload has the declared size."""
    head = fh.read(_HEADER_BYTES)
    if len(head) < _HEADER_BYTES or head[:len(_MAGIC)] != _MAGIC:
        raise MalformedHeader(f"{path} is not a DSMAG1 magnitude file")
    shape = struct.unpack_from("<III", head, len(_MAGIC))
    if 0 in shape:  # an empty tensor would still be read one channel at a time
        raise MalformedHeader(f"{path}: zero dimension in shape {shape}")
    expected = 4 * shape[0] * shape[1] * shape[2]
    found = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
    if found != expected:  # trailing bytes are as wrong as missing ones
        error = TruncatedData if found < expected else MalformedHeader
        raise error(f"{path}: header declares {expected} payload bytes, found {found}")
    return shape


def _read_frames(fh, path, shape: tuple, start: int, stop: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """float32 (channels, stop - start, bins) frames of an open DSMAG1 file,
    into C-ordered `out` when given.

    Reads at explicit offsets and never moves the file position, so
    threads can read blocks of one file at the same time. NaN, infinite
    and negative magnitudes are rejected here, with the frames they are
    in, so nothing downstream checks them again.
    """
    channels, frames, bins = shape
    if out is None:
        out = np.empty((channels, stop - start, bins), dtype="<f4")
    for c in range(channels):
        offset = _HEADER_BYTES + 4 * bins * (c * frames + start)
        if os.preadv(fh.fileno(), [out[c]], offset) != out[c].nbytes:
            raise TruncatedData(f"{path}: payload ended early while it was being read")
    if not np.all(np.isfinite(out)):
        raise NonFiniteSamples(f"{path}: NaN or infinite magnitudes in frames {start}..{stop - 1}")
    if np.any(out < 0):
        raise NegativeMagnitude(f"{path}: negative magnitudes in frames {start}..{stop - 1}")
    return out


def read_magnitudes(path) -> np.ndarray:
    with open(path, "rb") as fh:
        shape = _magnitude_shape(fh, path)
        return _read_frames(fh, path, shape, 0, shape[1]).astype(np.float64)


# --- stem-set ingestion -------------------------------------------------

def load_stem_dir(directory, like: Optional[Waveform] = None,
                  length_tolerance: int = 0) -> SourceWaveformSet:
    """Read drums/bass/other/vocals WAVs from a directory.

    Each stem is checked as it is opened, so a fault names its file: it
    must match the first stem, or `like` when given. Against `like`,
    lengths within `length_tolerance` samples are padded/truncated to
    match; larger deviations are errors.
    """
    with ExitStack() as files:
        stems = _stem_readers(directory, files, like, length_tolerance)
        length = stems[0].length if like is None else like.length
        return SourceWaveformSet([Waveform(_conformed_frames(s, 0, length), s.sample_rate)
                                  for s in stems])


def _stem_readers(directory, files: ExitStack, like: Optional[Waveform] = None,
                  tolerance: int = 0) -> list:
    """The stems of a directory as `WavReader`s kept open in `files`, in
    SOURCE_NAMES order, each checked as `load_stem_dir` checks it; the
    samples are read, and checked, when they are used. Every command
    opens its stem directories here; a missing stem is a MissingStem."""
    stems = []
    for name in SOURCE_NAMES:
        path = Path(directory) / f"{name}.wav"
        if not path.is_file():
            raise MissingStem(f"{directory} lacks {name}.wav")
        stem = files.enter_context(WavReader(path))
        if like is None:
            _check_alike("sources", [stems[0] if stems else stem, stem])
        else:
            _check_alike("mixture and stem", [like, stem], tolerance=tolerance)
        stems.append(stem)
    return stems


def _open_magnitude_dir(directory, names, shape: tuple, files: ExitStack) -> Callable:
    """Validate the `.mag` file of each source in `names` and keep it open in `files`.

    Returns `frames(start, stop, space)`: the float64 (sources, channels,
    stop - start, bins) magnitudes of frames start .. stop - 1, read from
    the files through the float32 buffer "read" into the buffer "gains"
    of workspace `space`.
    """
    directory = Path(directory)
    opened = []
    for name in names:
        path = directory / f"{name}{MAGNITUDE_SUFFIX}"
        if not path.is_file():
            raise MissingStem(f"{directory} lacks {name}{MAGNITUDE_SUFFIX}")
        fh = files.enter_context(open(path, "rb"))
        found = _magnitude_shape(fh, path)
        if found != shape:
            raise ShapeMismatch(
                f"{path}: magnitude shape {found} does not match mixture spectrogram {shape}"
            )
        opened.append((fh, path))

    def frames(start, stop, space):
        mags = space.take("gains", (len(opened), shape[0], stop - start, shape[2]))
        read = space.take("read", mags.shape[1:], "<f4")
        for out, (fh, path) in zip(mags, opened):
            out[...] = _read_frames(fh, path, shape, start, stop, read)
        return mags

    return frames


# --- branches and the full run ------------------------------------------

@dataclass
class _SpectralBranch:
    """A TF model or a builtin-toy T model, evaluated one block of frames at a time.

    `gains(mixture, start, stop)` gives the real gains of mixture frames
    start .. stop - 1, as (J, C, b, F) or broadcast to it; `spatial` holds
    the R of each EM pass of a TF branch finished so far, and is None for
    a T branch, whose stems are its gains times the mixture.
    """

    weights: np.ndarray
    gains: Callable
    spatial: Optional[list]

    def em_terms(self, mixture: _Mixture, start: int, stop: int, cfg: MwfConfig):
        """The `_SpatialSums` terms of the next EM pass for frames start .. stop - 1."""
        g = self.gains(mixture, start, stop)  # `_refilter` keeps them for the first pass
        return _pass_terms(_refilter(g, mixture, self.spatial, cfg.eps), mixture.space, mixture)

    def stems(self, mixture: _Mixture, start: int, stop: int, cfg: MwfConfig):
        """The complex stems of mixture frames start .. stop - 1, source by
        source, each in the workspace buffer "stem" the next overwrites."""
        g = self.gains(mixture, start, stop)
        stem = mixture.space.take("stem", mixture.x.shape, np.complex128)
        if not self.spatial:
            return (np.multiply(gj, mixture.x, out=stem) for gj in g)
        y = _refilter(g, mixture, self.spatial[:-1], cfg.eps)  # but for the last pass
        return _filter_sources(_block_psd(y, mixture), self.spatial[-1], mixture.x, cfg.eps,
                               stem[None], mixture.space)


def _spectral_branch(entry: ModelEntry, weights: np.ndarray, names, shape: tuple,
                     sample_rate: int, cfg: PipelineConfig, files: ExitStack) -> _SpectralBranch:
    if entry.domain == TF_DOMAIN:  # before any file, so the mixture is blamed first
        _check_channels(shape[0])

    def gains(mixture, mags):  # the mask gains of (J, C, b, F) magnitudes, in place
        return _mask_gains(mags, cfg.mwf.mask_power, mixture.space.take("scratch", mixture.x.shape))

    if entry.source != BUILTIN_TOY:
        mag_frames = _open_magnitude_dir(entry.source, names, shape, files)
        return _SpectralBranch(weights, lambda mixture, start, stop: gains(
            mixture, mag_frames(start, stop, mixture.space)), [])
    model = BandMaskModel.default(leakage=entry.leakage)
    masks = model.bin_masks(sample_rate, cfg.stft.fft_size)[:, None, None, :]
    if entry.domain == T_DOMAIN:  # the band masks mask the complex mixture directly
        return _SpectralBranch(weights, lambda mixture, start, stop: masks, None)
    def masked_magnitude(mixture, start, stop):  # |x| times each band mask, into the gains
        out = mixture.space.take("gains", (len(masks),) + mixture.x.shape)
        return gains(mixture, np.multiply(mixture.magnitude, masks, out=out))

    return _SpectralBranch(weights, masked_magnitude, [])


def _add_spectral(mix, cfg: PipelineConfig, branches: List[_SpectralBranch],
                  t_stems: list, shape: tuple, sink: Callable) -> None:
    """Hand the fused stems of the spectral branches and of the external
    T stems `t_stems` to `sink` (see `_stream`).

    Works on blocks of frames. Each EM pass of the TF branches is one
    sweep that rebuilds every block's estimates and adds them to that
    pass's sums over frames; a last sweep re-filters every branch, weights
    and sums the blocks and overlap-adds them. Its ordered step, the
    output step, adds the finished samples to the T stems' sum
    (`blend._weighted_sum`), checks the block finite and hands it on.
    """
    num_sources, channels, frames = len(branches[0].weights), shape[0], shape[1]
    synthesis = _OverlapAdd((num_sources, channels), cfg.stft, frames, mix.length)
    window = cfg.stft.window_array()
    tf = [b for b in branches if b.spatial is not None]
    sweeps = _Sweeps(_frame_blocks(num_sources, shape))
    space = sweeps.workspace

    def mixture(start, stop):
        # spectra written C-ordered, so every product of them is contiguous; the
        # windowed frames borrow the buffer the weighted spectra fill later, made at their size
        x_shape = (channels, stop - start, cfg.stft.num_bins)
        span = (stop - start - 1) * cfg.stft.hop + cfg.stft.fft_size
        space.take("spectral", (num_sources,) + x_shape, np.complex128)
        return _Mixture(_analysis_frames(
            mix, cfg.stft, start, stop, window, space.take("x", x_shape, np.complex128),
            space.take("spectral", x_shape[:2] + (cfg.stft.fft_size,)),
            space.take("samples", (channels, span))), space)

    def em_terms(start, stop):
        block = mixture(start, stop)
        return [branch.em_terms(block, start, stop, cfg.mwf) for branch in tf]

    def fused_frames(start, stop):
        block = mixture(start, stop)
        spectral = space.take("spectral", (num_sources,) + block.x.shape, np.complex128)
        spectral.fill(0.0)
        for branch in branches:
            weighted_accumulate(spectral, branch.weights, branch.stems(block, start, stop, cfg.mwf))
        [frames_td] = space.keep((spectral.shape[:-1] + (cfg.stft.fft_size,), np.float64))
        return synthesis.synthesize(spectral, frames_td)

    def output(frames_td):  # on the draining worker, in block order
        offset, synthesized = synthesis.add(frames_td)
        if not synthesized.shape[-1]:
            return
        block = _weighted_sum(space.take("block", synthesized.shape), t_stems, offset,
                              space.take("read", synthesized.shape[1:]))
        block += synthesized
        if not np.all(np.isfinite(block)):
            last = offset + block.shape[-1] - 1
            raise NonFiniteSamples(f"fused samples {offset}..{last} are not finite")
        sink(offset, block)

    for _ in range(cfg.mwf.iterations if tf else 0):
        for branch, spatial in zip(tf, _em_pass(sweeps, em_terms, cfg.mwf.eps)):
            branch.spatial.append(spatial)
    sweeps.ordered(fused_frames, output)


def run(mix: Waveform, cfg: PipelineConfig, names=SOURCE_NAMES) -> SourceWaveformSet:
    """Produce fused stems for a mixture. Deterministic for fixed inputs.

    The stems of `_stream`, collected into arrays: beyond the returned
    stems, memory does not grow with the track.
    """
    return _collected((len(names), mix.channels, mix.length), mix.sample_rate,
                      lambda sink: _stream(mix, cfg, names, sink))


def _stream(mix, cfg: PipelineConfig, names, sink: Callable) -> None:
    """Hand the fused stems of a mixture (a Waveform or `WavReader`) to
    sink(offset, block), block by block in order: samples offset .. offset
    + count - 1 as (sources, channels, count), in a buffer later blocks reuse.

    `names` are the sources, one stem each: a TF directory holds one
    `<name>.mag` file per source. T directories and builtin-toy models
    give the four `SOURCE_NAMES` stems, so they need the default. A
    block of output is the weighted sum of the external T stems, read
    from their files in model order, plus the synthesized spectral
    branches (`_add_spectral`), so every sample keeps the sum order of a
    whole-track run. Every model's files are opened and their headers
    checked before any block is filtered.
    """
    weights = cfg.weights
    num_sources = len(names)
    check_weights_fit(weights, len(cfg.model_entries), num_sources)
    fixed = [e.name for e in cfg.model_entries if e.domain == T_DOMAIN or e.source == BUILTIN_TOY]
    if fixed and tuple(names) != SOURCE_NAMES:
        raise ShapeMismatch(f"models {fixed} give the sources {SOURCE_NAMES}, not {tuple(names)}")
    with ExitStack() as files:
        branches, t_stems = [], []
        shape = None  # (channels, frames, bins) of the mixture spectrogram
        for m, entry in enumerate(cfg.model_entries):
            if entry.domain == T_DOMAIN and entry.source != BUILTIN_TOY:
                t_stems.append((weights.weights[m],
                                _stem_readers(entry.source, files, mix, cfg.stft.hop)))
                continue
            if shape is None:
                shape = (mix.channels, frame_count(mix.length, cfg.stft), cfg.stft.num_bins)
            branches.append(_spectral_branch(entry, weights.weights[m], names, shape,
                                             mix.sample_rate, cfg, files))
        if branches:
            _add_spectral(mix, cfg, branches, t_stems, shape, sink)
        else:  # T stems times a weight column are finite; no block reads the mixture,
            for start in range(0, mix.length, _READ_FRAMES):  # so it is read here to check it
                mix.frames(start, min(start + _READ_FRAMES, mix.length))
            _blend_blocks(t_stems, (num_sources, mix.channels, mix.length), sink)
