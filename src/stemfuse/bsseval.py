"""SDR scoring via the least-squares distortion decomposition.

An estimate is decomposed against short FIR filterings of the reference
signals: the projection onto delayed copies of the evaluated source is
the target, the remainder of the projection onto all sources is
interference, and what is left is artifact. SDR is the dB ratio of
target energy to everything else, computed on consecutive windows with
median aggregation; it needs only the evaluated source's reference, the
others enter only the interference split of `project_subspace`.
Silent-reference frames are excluded and perfect frames are reported at
a +300 dB sentinel.

The Gram matrix of delayed references is block-Toeplitz; it is built
from FFT cross-correlations and solved densely, which keeps the result
identical to explicit normal equations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    RankDeficient,
    SampleRateMismatch,
    ShapeMismatch,
    SilentReference,
)
from .core import SourceWaveformSet, Waveform, _atomic_write, source_labels

SDR_CAP_DB = 300.0
SILENT_FRAME_ENERGY = 1e-12
GRAM_REG = 1e-10


@dataclass(frozen=True)
class EvalConfig:
    """filter_len: distortion-filter taps; win/hop: window seconds."""

    filter_len: int = 512
    win: float = 1.0
    hop: float = 1.0

    def __post_init__(self):
        if self.filter_len < 1:
            raise ValueError(f"filter_len must be >= 1, got {self.filter_len}")
        if not all(math.isfinite(v) and v > 0 for v in (self.win, self.hop)):
            raise ValueError(f"win/hop must be finite and positive, got {self.win}, {self.hop}")


@dataclass
class SdrReport:
    """Framewise SDR per source; NaN entries mark excluded frames."""

    per_source_frames: Dict[str, List[float]]
    per_source_median: Dict[str, float]
    overall_avg: float


@dataclass
class AggregateReport:
    """Across-track medians per source plus their arithmetic mean."""

    per_source_median: Dict[str, float]
    overall_avg: float


def _lagged_corr(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """c[..., d + max_lag - 1] = sum_u a(u) b[..., u + d], d in (-max_lag, max_lag).

    `b` may stack several signals along leading axes; `a` is 1-D.
    """
    needed = a.size + max_lag
    nfft = 1 << (needed - 1).bit_length()
    fa = np.fft.rfft(a, nfft)
    fb = np.fft.rfft(b, nfft)
    full = np.fft.irfft(np.conj(fa) * fb, nfft)
    head = full[..., :max_lag]  # d = 0 .. max_lag-1
    tail = full[..., nfft - max_lag + 1:]  # d = -(max_lag-1) .. -1
    return np.concatenate([tail, head], axis=-1)


def _gram(refs: np.ndarray, filter_len: int) -> np.ndarray:
    """Block-Toeplitz Gram of the delayed copies of `refs` (num_refs, length)."""
    num_refs = refs.shape[0]
    size = num_refs * filter_len
    gram = np.empty((size, size))
    for i in range(num_refs):
        for k in range(i, num_refs):
            corr = _lagged_corr(refs[i], refs[k], filter_len)
            # block[a, b] = corr[a - b + filter_len - 1], a view of the lag vector
            block = np.lib.stride_tricks.sliding_window_view(corr, filter_len)[:, ::-1]
            gram[i * filter_len:(i + 1) * filter_len, k * filter_len:(k + 1) * filter_len] = block
            if k != i:
                gram[k * filter_len:(k + 1) * filter_len, i * filter_len:(i + 1) * filter_len] = (
                    block.T
                )
    return gram


def _ridge_solve(gram: np.ndarray, trace: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (gram + GRAM_REG * trace / size * I) x = rhs; trace must be positive."""
    size = gram.shape[0]
    ridged = gram.copy()
    ridged.flat[::size + 1] += GRAM_REG * trace / size
    try:
        coef = np.linalg.solve(ridged, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"projection Gram matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise RankDeficient("projection coefficients are non-finite")
    return coef


def _projection(refs: np.ndarray, est: np.ndarray, filter_len: int) -> np.ndarray:
    """Least-squares projection of `est` onto delayed copies of `refs`.

    refs : (num_refs, length); est : (length,). Returns the projected
    signal of length length + filter_len - 1 (full ring-out).
    """
    num_refs, length = refs.shape
    rhs = np.concatenate(
        [_lagged_corr(refs[i], est, filter_len)[filter_len - 1:] for i in range(num_refs)]
    )
    gram = _gram(refs, filter_len)
    trace = float(np.trace(gram))
    if trace <= 0.0:
        return np.zeros(length + filter_len - 1)
    coef = _ridge_solve(gram, trace, rhs).reshape(num_refs, filter_len)
    projected = np.zeros(length + filter_len - 1)
    for i in range(num_refs):
        projected += np.convolve(refs[i], coef[i])
    return projected


def _check_pair(refs, est) -> None:
    """An estimate (or set) must match its references in channels, length and rate."""
    if refs.channels != est.channels:
        raise ShapeMismatch(f"channel counts differ: {refs.channels} vs {est.channels}")
    if refs.length != est.length:
        raise LengthMismatch(f"lengths differ: {refs.length} vs {est.length}")
    if refs.sample_rate != est.sample_rate:
        raise SampleRateMismatch(f"rates differ: {refs.sample_rate} vs {est.sample_rate}")


def project_subspace(
    references: SourceWaveformSet, estimate: Waveform, filter_len: int, source_index: int
):
    """Decompose `estimate` into (s_target, e_interf, e_artif).

    Each part has shape (channels, length + filter_len - 1); their sum
    equals the zero-padded estimate exactly. Channels are decomposed
    independently.
    """
    if filter_len < 1:
        raise ValueError(f"filter_len must be >= 1, got {filter_len}")
    if not 0 <= source_index < references.num_sources:
        raise ValueError(f"source_index {source_index} out of range")
    _check_pair(references, estimate)
    target = references.sources[source_index]
    if float(np.sum(target.samples ** 2)) <= 0.0:
        raise SilentReference(f"reference of source {source_index} is identically zero")

    stacked = references.stacked()  # (J, channels, length): interference needs every source
    padded_len = references.length + filter_len - 1
    s_target = np.zeros((estimate.channels, padded_len))
    p_all = np.zeros_like(s_target)
    for c in range(estimate.channels):
        s_target[c] = _projection(target.samples[c:c + 1], estimate.samples[c], filter_len)
        p_all[c] = _projection(stacked[:, c], estimate.samples[c], filter_len)
    est_padded = np.pad(estimate.samples, ((0, 0), (0, filter_len - 1)))
    return s_target, p_all - s_target, est_padded - p_all


def _frame_sdr(ref: np.ndarray, est: np.ndarray, filter_len: int) -> float:
    """SDR of one window: (ch, n) target reference vs (ch, n) estimate."""
    if np.array_equal(est, ref):
        return SDR_CAP_DB  # exact match short-circuits to the sentinel
    target_energy = 0.0
    error_energy = 0.0
    for c in range(est.shape[0]):
        projected = _projection(ref[c:c + 1], est[c], filter_len)
        padded = np.concatenate([est[c], np.zeros(filter_len - 1)])
        target_energy += float(np.sum(projected ** 2))
        error_energy += float(np.sum((padded - projected) ** 2))
    if error_energy <= 0.0:
        return SDR_CAP_DB
    if target_energy <= 0.0:
        return -SDR_CAP_DB
    value = 10.0 * math.log10(target_energy / error_energy)
    return float(min(max(value, -SDR_CAP_DB), SDR_CAP_DB))


def _windows(reference: Waveform, cfg: EvalConfig) -> List[Optional[slice]]:
    """cfg's win/hop windows over `reference`, None where it is silent.

    A window is silent when the reference energy in it is below 1e-12.
    A signal shorter than one window is scored whole.
    """
    length, rate = reference.length, reference.sample_rate
    # capped at length + 1 samples: any finite win/hop converts, the windows stay the same
    win = max(1, round(min(cfg.win * rate, length + 1)))
    hop = max(1, round(min(cfg.hop * rate, length + 1)))
    starts = range(0, length - win + 1, hop) if length >= win else range(1)
    windows = []
    for start in starts:
        window = slice(start, start + win)
        silent = float(np.sum(reference.samples[:, window] ** 2)) < SILENT_FRAME_ENERGY
        windows.append(None if silent else window)
    return windows


def _source_frames(reference: Waveform, estimate: Waveform, cfg: EvalConfig) -> List[float]:
    """Framewise SDR of one source's estimate; NaN marks a silent frame."""
    return [
        math.nan if window is None else _frame_sdr(
            reference.samples[:, window], estimate.samples[:, window], cfg.filter_len
        )
        for window in _windows(reference, cfg)
    ]


def sdr_frames(
    references: SourceWaveformSet, estimates: SourceWaveformSet, cfg: EvalConfig = EvalConfig()
) -> SdrReport:
    """Framewise SDR per source with median aggregation.

    Frames whose reference energy falls below 1e-12 are recorded as NaN
    and excluded from the median; the overall average is the arithmetic
    mean of the per-source medians.
    """
    if references.num_sources != estimates.num_sources:
        raise ShapeMismatch(
            f"source counts differ: {references.num_sources} vs {estimates.num_sources}"
        )
    _check_pair(references, estimates)
    labels = source_labels(references.num_sources)
    frames = {
        label: _source_frames(ref, est, cfg)
        for label, ref, est in zip(labels, references.sources, estimates.sources)
    }
    medians = {label: _median_ignoring_nan(values) for label, values in frames.items()}
    overall = float(np.mean(list(medians.values())))
    return SdrReport(frames, medians, overall)


def median_sdr(
    references: SourceWaveformSet,
    estimate: Waveform,
    source_index: int,
    cfg: EvalConfig = EvalConfig(),
) -> float:
    """Median framewise SDR of a single source's estimate."""
    if not 0 <= source_index < references.num_sources:
        raise ValueError(f"source_index {source_index} out of range")
    _check_pair(references, estimate)
    return _median_ignoring_nan(_source_frames(references.sources[source_index], estimate, cfg))


class BlendScorer:
    """Median framewise SDR of weighted blends of one source's model stems.

    For one frame and channel, with r the reference and E the
    (num_models, n) model stems, a blend e = E^T w has projection
    coefficients K w, where K = (G + ridge)^-1 B solves the Gram G of
    r's delayed copies against the stems' right-hand sides B once.
    Summed over channels, the target energy is w^T (K^T G K) w and the
    error energy w^T (E E^T - B^T K - K^T B + K^T G K) w; both are exact
    because the projection keeps its full ring-out. So one solve per
    frame and channel scores every weight column, where `median_sdr` on
    each synthesised blend solves once per column.

    The forms carry a rounding error of a few ulps of the blend's energy
    bound (sum_m w_m |E_m|)^2, which is 1e-9 dB of SDR near 60 dB. Where a
    form is at most CANCELLATION_TOL times that bound (exact matches,
    zero estimates, blends above ~50 dB), the frame is scored instead by
    `_frame_sdr` on the synthesised blend, exactly as `median_sdr` does,
    so the cap and the sentinel come from the same code.
    """

    CANCELLATION_TOL = 1e-5

    def __init__(self, reference: Waveform, stems: np.ndarray, cfg: EvalConfig = EvalConfig()):
        """stems : (num_models, channels, length), one model's stem per row."""
        self._ref = reference.samples
        self._stems = stems
        self._filter_len = cfg.filter_len
        self._windows = [window for window in _windows(reference, cfg) if window is not None]
        num_models = stems.shape[0]
        self._target = np.zeros((len(self._windows), num_models, num_models))
        self._error = np.zeros_like(self._target)
        self._norms = np.zeros((len(self._windows), num_models))
        for f, window in enumerate(self._windows):
            seg = stems[:, :, window]
            self._norms[f] = np.sqrt(np.sum(seg ** 2, axis=(1, 2)))
            for c in range(seg.shape[1]):
                self._add_channel(f, self._ref[c, window], seg[:, c])

    def _add_channel(self, frame: int, ref: np.ndarray, stems: np.ndarray) -> None:
        """Accumulate one channel's forms: (n,) reference, (num_models, n) stems."""
        filter_len = self._filter_len
        self._error[frame] += stems @ stems.T
        gram = _gram(ref[None], filter_len)
        trace = float(np.trace(gram))
        if trace <= 0.0:  # the projection is zero: everything is error
            return
        rhs = _lagged_corr(ref, stems, filter_len)[:, filter_len - 1:].T
        coef = _ridge_solve(gram, trace, rhs)
        projected = coef.T @ gram @ coef
        cross = rhs.T @ coef
        self._target[frame] += projected
        self._error[frame] += projected - cross - cross.T

    def median_sdr(self, columns: np.ndarray) -> np.ndarray:
        """Median SDR of each blend; columns is (count, num_models) weights.

        NaN for every column when every frame is silent.
        """
        columns = np.asarray(columns, dtype=np.float64)
        if not self._windows:
            return np.full(columns.shape[0], math.nan)
        target = np.sum((columns @ self._target) * columns, axis=-1)  # (frames, count)
        error = np.sum((columns @ self._error) * columns, axis=-1)
        bound = self.CANCELLATION_TOL * (self._norms @ columns.T) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sdr = np.clip(10.0 * np.log10(target / error), -SDR_CAP_DB, SDR_CAP_DB)
        for f, n in zip(*np.nonzero((error <= bound) | (target <= bound))):
            sdr[f, n] = self._synthesised_sdr(f, columns[n])
        return np.median(sdr, axis=0)

    def _synthesised_sdr(self, frame: int, weights: np.ndarray) -> float:
        window = self._windows[frame]
        seg = self._stems[:, :, window]
        blend = np.zeros(seg.shape[1:])
        for m, weight in enumerate(weights):
            if weight:
                blend += weight * seg[m]
        return _frame_sdr(self._ref[:, window], blend, self._filter_len)


def _median_ignoring_nan(values: Sequence[float]) -> float:
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        return math.nan
    return float(np.median(kept))


def aggregate(reports: Sequence[SdrReport]) -> AggregateReport:
    """Median over tracks of per-source track medians; Avg is their mean."""
    if not reports:
        raise EmptyInput("no reports to aggregate")
    labels = list(reports[0].per_source_median)
    for report in reports[1:]:
        if list(report.per_source_median) != labels:
            raise ValueError("reports carry different source labels")
    medians = {}
    for label in labels:
        values = [r.per_source_median[label] for r in reports]
        medians[label] = _median_ignoring_nan(values)
    overall = float(np.mean(list(medians.values())))
    return AggregateReport(medians, overall)


# --- serialization -----------------------------------------------------

def report_to_json_dict(report: SdrReport) -> dict:
    """JSON-safe dict; NaN (excluded frames) becomes null."""
    def clean(value):
        return None if math.isnan(value) else value

    return {
        "per_source_frames": {
            label: [clean(v) for v in values]
            for label, values in report.per_source_frames.items()
        },
        "per_source_median": {
            label: clean(v) for label, v in report.per_source_median.items()
        },
        "overall_avg": clean(report.overall_avg),
    }


def report_to_csv(report) -> str:
    """One-row CSV summary in Table order: Drums,Bass,Other,Vocals,Avg."""
    medians = report.per_source_median
    header = ",".join([label.capitalize() for label in medians] + ["Avg"])
    row = ",".join([f"{medians[label]:.6f}" for label in medians] + [f"{report.overall_avg:.6f}"])
    return header + "\n" + row + "\n"


def save_report_json(report: SdrReport, path) -> None:
    _atomic_write(path, json.dumps(report_to_json_dict(report), indent=2) + "\n")


def save_report_csv(report, path) -> None:
    _atomic_write(path, report_to_csv(report))
