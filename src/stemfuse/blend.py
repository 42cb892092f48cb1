"""Per-source weighted fusion of stems from several separation models.

The fused stem for each source is a weighted average of that source's
stems across models; each source's weight column is constrained to the
probability simplex. An exhaustive grid search over the simplex finds
the column maximizing median SDR against reference stems.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import bsseval
from .errors import (
    ColumnSumViolation,
    ModelCountMismatch,
    NegativeWeight,
    ShapeMismatch,
)
from .core import SOURCE_NAMES, SourceWaveformSet, Waveform, _atomic_write, source_labels
from .core import _check_alike, _is_positive_finite
from .sweeps import _Sweeps, _blocks

COLUMN_SUM_TOL = 1e-6
# Search scores within this many dB of the best tie. Closed-form scores
# carry rounding of ~1e-12 dB at typical SDRs, which must not pick a column.
TIE_TOL_DB = 1e-9
# Simplex columns scored per batch, so memory does not grow with grid density.
_COLUMN_BLOCK = 1024
# Columns one search may score, so a hostile grid step cannot run without
# end: grid 0.001 over three models is 501,501.
_MAX_COLUMNS = 1 << 20

_DEFAULT_WEIGHTS_RESOURCE = "data/default_weights.json"


@dataclass
class BlendWeights:
    """Model-by-source mixing matrix; every source column sums to one."""

    weights: np.ndarray
    model_names: Tuple[str, ...]
    source_names: Tuple[str, ...] = SOURCE_NAMES

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D (models x sources), got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain non-finite entries")
        if weights.shape[0] != len(self.model_names):
            raise ValueError(
                f"{weights.shape[0]} weight rows but {len(self.model_names)} model names"
            )
        if weights.shape[1] != len(self.source_names):
            raise ValueError(
                f"{weights.shape[1]} weight columns but {len(self.source_names)} source names"
            )
        negative = np.argwhere(weights < 0)
        if negative.size:
            m, j = negative[0]
            raise NegativeWeight(
                f"weight for model {self.model_names[m]!r}, source "
                f"{self.source_names[j]!r} is negative ({weights[m, j]})"
            )
        sums = weights.sum(axis=0)
        for j, total in enumerate(sums):
            if abs(total - 1.0) > COLUMN_SUM_TOL:
                raise ColumnSumViolation(
                    f"source {self.source_names[j]!r} weights sum to {total}, expected 1"
                )
        self.weights = weights
        self.model_names = tuple(self.model_names)
        self.source_names = tuple(self.source_names)

    @property
    def num_models(self) -> int:
        return self.weights.shape[0]

    @property
    def num_sources(self) -> int:
        return self.weights.shape[1]


def validate_weights(
    raw,
    model_names: Optional[Sequence[str]] = None,
    source_names: Sequence[str] = SOURCE_NAMES,
) -> BlendWeights:
    """Check a raw model-by-source matrix; there is no renormalization."""
    weights = np.asarray(raw, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (models x sources), got shape {weights.shape}")
    if model_names is None:
        model_names = tuple(f"model_{i}" for i in range(weights.shape[0]))
    return BlendWeights(weights, tuple(model_names), tuple(source_names))


def check_weights_fit(w: BlendWeights, num_models: int, num_sources: int) -> None:
    """Raise unless `w` has one row per model and one column per source."""
    if num_models != w.num_models:
        raise ModelCountMismatch(f"{num_models} stem sets but {w.num_models} weight rows")
    if num_sources != w.num_sources:
        raise ShapeMismatch(
            f"stem sets carry {num_sources} sources but weights have {w.num_sources}"
        )


def weighted_accumulate(acc: np.ndarray, weights: np.ndarray, stems: Iterable[np.ndarray]) -> None:
    """acc[j] += weights[j] * stems[j] for every source j, in place, each
    product formed in its stem.

    Calling it once per model in model order gives every fused value the
    same sum, in the same order, whatever the array's domain.
    """
    for j, stem in enumerate(stems):
        acc[j] += np.multiply(weights[j], stem, out=stem)


def _conformed_frames(stem, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Frames start .. stop - 1 of `stem` (a Waveform or `WavReader`), zeros
    past its end, into `out` when given: a stem shorter than the mixture
    is zero-padded to its length, a longer one truncated."""
    if out is None:
        out = np.empty((stem.channels, stop - start))
    end = max(start, min(stop, stem.length))
    if end > start:
        stem.frames(start, end, out[:, :end - start])
    out[:, end - start:] = 0.0
    return out


def _weighted_sum(block: np.ndarray, weighted: list, offset: int, read: np.ndarray) -> np.ndarray:
    """The weighted sum of stem sets over frames offset .. offset + count - 1,
    into the (sources, channels, count) `block`: `weighted` holds each
    model's (weights, stems), in model order, and the stems are read
    through `_conformed_frames` into `read` (channels, count). Every value
    is summed from +0.0 in model order, so its bytes do not depend on the
    blocks."""
    block.fill(0.0)
    for weights, stems in weighted:
        weighted_accumulate(block, weights, (_conformed_frames(
            s, offset, offset + block.shape[-1], read) for s in stems))
    return block


def _blend_blocks(weighted: list, shape: tuple, sink: Callable) -> None:
    """Hand `_weighted_sum` of (sources, channels, length) `shape` to
    sink(offset, block), block by block in order, from the workers of one
    sweep over blocks of samples; a block is in a buffer that its worker's
    later blocks reuse."""
    sources, channels, length = shape
    sweeps = _Sweeps(_blocks(length, sources * channels * 8))
    space = sweeps.workspace

    def work(start, stop):
        [block] = space.keep(((sources, channels, stop - start), np.float64))
        return start, _weighted_sum(block, weighted, start,
                                    space.take("read", (channels, stop - start)))

    sweeps.ordered(work, lambda result: sink(*result))


def _blend_plan(per_model_stems: Sequence, w: BlendWeights) -> tuple:
    """The (sources, channels, length) shape of the blend of stem sets of
    Waveforms or `WavReader`s, once they fit `w` and each other, and
    stream(sink), which hands its blocks to sink (see `_blend_blocks`)."""
    num_sources = per_model_stems[0].num_sources if per_model_stems else w.num_sources
    check_weights_fit(w, len(per_model_stems), num_sources)
    _check_alike("stem sets", *(stems.sources for stems in per_model_stems))
    weighted = list(zip(w.weights, (stems.sources for stems in per_model_stems)))
    first = per_model_stems[0].sources[0]
    shape = (num_sources, first.channels, first.length)
    return shape, lambda sink: _blend_blocks(weighted, shape, sink)


def _collected(shape: tuple, sample_rate: int, stream: Callable) -> SourceWaveformSet:
    """The stems of (sources, channels, length) `shape` whose blocks
    stream(sink) hands to sink(offset, block), collected."""
    fused = np.empty(shape)

    def fill(offset, block):
        fused[..., offset:offset + block.shape[-1]] = block

    stream(fill)
    return SourceWaveformSet([Waveform(f, sample_rate) for f in fused])


def blend(per_model_stems: Sequence[SourceWaveformSet], w: BlendWeights) -> SourceWaveformSet:
    """fused_j = sum_m w[m, j] * stems_m[j], sample-wise: the blocks of
    `_blend_plan`, collected."""
    shape, stream = _blend_plan(per_model_stems, w)
    return _collected(shape, per_model_stems[0].sample_rate, stream)


def _simplex_columns(num_models: int, steps: int) -> Iterator[Tuple[int, ...]]:
    """All nonnegative integer columns summing to `steps`, lexicographically."""
    if num_models == 1:
        yield (steps,)
        return
    for head in range(steps + 1):
        for rest in _simplex_columns(num_models - 1, steps - head):
            yield (head,) + rest


def search_weights(
    per_model_stems: Sequence[SourceWaveformSet],
    references: SourceWaveformSet,
    grid_step: float = 0.01,
    eval_config: Optional[bsseval.EvalConfig] = None,
    model_names: Optional[Sequence[str]] = None,
) -> BlendWeights:
    """Exhaustive per-source grid search for blend weights.

    Each source column is chosen independently from the simplex grid
    with spacing grid_step to maximize the median SDR of the blended
    stem. Scores within TIE_TOL_DB of the best tie, and a tie goes to
    the lexicographically smallest column. A source silent in every
    frame gets the lexicographically smallest column. A grid of more than
    `_MAX_COLUMNS` columns is a ValueError, raised before any stem is read.
    """
    if len(per_model_stems) < 1:
        raise ValueError("need at least one model")
    if not _is_positive_finite(grid_step):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    if not math.isfinite(1.0 / grid_step):
        raise ValueError(f"grid_step {grid_step} is too small: 1 / grid_step is not finite")
    steps = round(1.0 / grid_step)
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not divide 1 evenly")
    count = math.comb(steps + len(per_model_stems) - 1, len(per_model_stems) - 1)
    if count > _MAX_COLUMNS:
        raise ValueError(f"grid_step {grid_step} gives {count} columns for "
                         f"{len(per_model_stems)} models, more than {_MAX_COLUMNS}")
    _check_alike("stem sets", *(stems.sources for stems in per_model_stems), references.sources)
    cfg = eval_config if eval_config is not None else bsseval.EvalConfig()

    num_models = len(per_model_stems)
    num_sources = references.num_sources
    scorer = bsseval.BlendScorer(references, per_model_stems, cfg)
    columns = _simplex_columns(num_models, steps)
    records = [[] for _ in range(num_sources)]
    while block := list(itertools.islice(columns, _COLUMN_BLOCK)):
        for kept, scores in zip(records, scorer.median_sdr(np.asarray(block) / steps)):
            _add_records(kept, block, scores)
    uniform_lex = next(_simplex_columns(num_models, steps))  # every frame excluded: fall back to it
    chosen = [kept[0][0] if kept else uniform_lex for kept in records]
    weights = np.asarray(chosen, dtype=np.float64).T / steps
    return validate_weights(weights, model_names, source_labels(num_sources))


def _add_records(kept: list, columns: list, scores: np.ndarray) -> None:
    """Add one source's `scores` of `columns` to `kept`, the (column, score)
    records within TIE_TOL_DB of the best score so far: the columns that
    score above every column before them. NaN is never a record, so the
    first record left after the last column is the first column within
    TIE_TOL_DB of the best, as the tie rule picks it."""
    best = kept[-1][1] if kept else -math.inf
    before = np.fmax.accumulate(np.concatenate([[best], scores[:-1]]))
    kept += [(columns[k], scores[k]) for k in np.flatnonzero(scores > before)]
    if kept:
        kept[:] = [(column, score) for column, score in kept if score >= kept[-1][1] - TIE_TOL_DB]


# --- weights file I/O ---------------------------------------------------

def _weights_bytes(w: BlendWeights) -> bytes:
    """The bytes of a weights JSON file: what `save_weights` writes."""
    return (json.dumps({
        "models": list(w.model_names),
        "sources": list(w.source_names),
        "weights": [[float(v) for v in row] for row in w.weights],
    }, indent=2) + "\n").encode()


def save_weights(w: BlendWeights, path) -> None:
    _atomic_write(path, [_weights_bytes(w)])


def weights_from_json_dict(payload: dict) -> BlendWeights:
    if not isinstance(payload, dict) or set(payload) != {"models", "sources", "weights"}:
        found = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        raise ValueError(f"weights JSON must hold exactly models, sources and weights, got {found}")
    models, sources = payload["models"], payload["sources"]
    for key, names in (("models", models), ("sources", sources)):
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"weights JSON '{key}' must be a list of strings, got {names!r}")
    return validate_weights(payload["weights"], model_names=models, source_names=sources)


def load_weights(path) -> BlendWeights:
    with open(path) as fh:
        return weights_from_json_dict(json.load(fh))


def default_weights() -> BlendWeights:
    """The shipped per-source defaults for a spectrogram/spectrogram/
    waveform model trio (xumx, unet, demucs rows)."""
    text = resources.files("stemfuse").joinpath(_DEFAULT_WEIGHTS_RESOURCE).read_text()
    return weights_from_json_dict(json.loads(text))
