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
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import bsseval
from .errors import (
    ColumnSumViolation,
    ModelCountMismatch,
    NegativeWeight,
    SampleRateMismatch,
    ShapeMismatch,
)
from .core import SOURCE_NAMES, SourceWaveformSet, Waveform, _atomic_write, source_labels

COLUMN_SUM_TOL = 1e-6
# Search scores within this many dB of the best tie. Closed-form scores
# carry rounding of ~1e-12 dB at typical SDRs, which must not pick a column.
TIE_TOL_DB = 1e-9
# Simplex columns scored per batch, so memory does not grow with grid density.
_COLUMN_BLOCK = 1024

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


def _check_stem_sets(per_model_stems: Sequence[SourceWaveformSet]) -> None:
    first = per_model_stems[0]
    shape = (first.num_sources, first.channels, first.length)
    for stems in per_model_stems[1:]:
        if (stems.num_sources, stems.channels, stems.length) != shape:
            raise ShapeMismatch("per-model stem sets have different shapes")
        if stems.sample_rate != first.sample_rate:
            raise SampleRateMismatch(
                f"stem sets have different rates: {stems.sample_rate} vs {first.sample_rate}"
            )


def check_weights_fit(w: BlendWeights, num_models: int, num_sources: int) -> None:
    """Raise unless `w` has one row per model and one column per source."""
    if num_models != w.num_models:
        raise ModelCountMismatch(f"{num_models} stem sets but {w.num_models} weight rows")
    if num_sources != w.num_sources:
        raise ShapeMismatch(
            f"stem sets carry {num_sources} sources but weights have {w.num_sources}"
        )


def weighted_accumulate(
    acc: np.ndarray, weights: np.ndarray, stems: Iterable[np.ndarray]
) -> None:
    """acc[j] += weights[j] * stems[j] for every source j, in place.

    Calling it once per model in model order gives every fused value the
    same sum, in the same order, whatever the array's domain.
    """
    for j, stem in enumerate(stems):
        acc[j] += weights[j] * stem


def blend(per_model_stems: Sequence[SourceWaveformSet], w: BlendWeights) -> SourceWaveformSet:
    """fused_j = sum_m w[m, j] * stems_m[j], sample-wise."""
    num_sources = per_model_stems[0].num_sources if per_model_stems else w.num_sources
    check_weights_fit(w, len(per_model_stems), num_sources)
    _check_stem_sets(per_model_stems)
    first = per_model_stems[0]
    fused = np.zeros((w.num_sources, first.channels, first.length))
    for m, stems in enumerate(per_model_stems):
        weighted_accumulate(fused, w.weights[m], (s.samples for s in stems.sources))
    return SourceWaveformSet([Waveform(f, first.sample_rate) for f in fused])


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
    frame gets the lexicographically smallest column.
    """
    if len(per_model_stems) < 1:
        raise ValueError("need at least one model")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    steps = round(1.0 / grid_step)
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not divide 1 evenly")
    _check_stem_sets(list(per_model_stems) + [references])
    cfg = eval_config if eval_config is not None else bsseval.EvalConfig()

    num_models = len(per_model_stems)
    num_sources = references.num_sources
    weights = np.zeros((num_models, num_sources))
    for j in range(num_sources):
        stems_j = np.stack([stems.sources[j].samples for stems in per_model_stems])
        scorer = bsseval.BlendScorer(references.sources[j], stems_j, cfg)
        columns = _simplex_columns(num_models, steps)
        scores = []
        while block := list(itertools.islice(columns, _COLUMN_BLOCK)):
            scores.append(scorer.median_sdr(np.asarray(block) / steps))
        scores = np.concatenate(scores)
        best = 0  # every frame excluded: fall back to uniform-lex
        if not np.all(np.isnan(scores)):
            best = int(np.argmax(scores >= np.nanmax(scores) - TIE_TOL_DB))
        column = next(itertools.islice(_simplex_columns(num_models, steps), best, None))
        weights[:, j] = np.asarray(column, dtype=np.float64) / steps
    if model_names is None:
        model_names = tuple(f"model_{i}" for i in range(num_models))
    return BlendWeights(weights, tuple(model_names), source_labels(num_sources))


# --- weights file I/O ---------------------------------------------------

def weights_to_json_dict(w: BlendWeights) -> dict:
    return {
        "models": list(w.model_names),
        "sources": list(w.source_names),
        "weights": [[float(v) for v in row] for row in w.weights],
    }


def save_weights(w: BlendWeights, path) -> None:
    _atomic_write(path, json.dumps(weights_to_json_dict(w), indent=2) + "\n")


def weights_from_json_dict(payload: dict) -> BlendWeights:
    try:
        models = payload["models"]
        sources = payload["sources"]
        weights = payload["weights"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"weights JSON lacks required key: {exc}") from exc
    for key, names in (("models", models), ("sources", sources)):
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"weights JSON '{key}' must be a list of strings, got {names!r}")
    return validate_weights(weights, model_names=models, source_names=sources)


def load_weights(path) -> BlendWeights:
    with open(path) as fh:
        return weights_from_json_dict(json.load(fh))


def default_weights() -> BlendWeights:
    """The shipped per-source defaults for a spectrogram/spectrogram/
    waveform model trio (xumx, unet, demucs rows)."""
    text = resources.files("stemfuse").joinpath(_DEFAULT_WEIGHTS_RESOURCE).read_text()
    return weights_from_json_dict(json.loads(text))
