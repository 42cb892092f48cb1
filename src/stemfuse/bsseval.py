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

The Gram matrix of delayed references is block-Toeplitz and built from
lags of the signals' correlations, which one overlap-save FFT correlator,
`_block_lags`, computes; `project_subspace` solves every channel's Gram
at once, densely. Framewise scores go through `BlendScorer`, whose workers
(the block engine of `sweeps`) read one window of every signal at a time (in
memory or from a WAV file) and correlate it; batches of windows are solved in
window order, each by one Durbin recursion and the Gohberg-Semencul formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import EmptyInput, RankDeficient, SilentReference
from .core import SourceWaveformSet, Waveform, _atomic_write, _check_alike, source_labels
from .core import _is_int, _is_positive_finite, _json_bytes
from .sweeps import _Sweeps

SDR_CAP_DB = 300.0
SILENT_FRAME_ENERGY = 1e-12
GRAM_REG = 1e-10
_SOLVE_VALUES = 1 << 16  # systems times taps per `_levinson` call: 64 stereo frames at 512 taps
_FFT_VALUES = 1 << 13  # systems times FFT length times right-hand sides per chunk of its FFTs


@dataclass(frozen=True)
class EvalConfig:
    """filter_len: distortion-filter taps; win/hop: window seconds."""

    filter_len: int = 512
    win: float = 1.0
    hop: float = 1.0

    def __post_init__(self):
        if not (_is_int(self.filter_len) and self.filter_len >= 1):
            raise ValueError(f"filter_len must be an integer >= 1, got {self.filter_len!r}")
        if not all(_is_positive_finite(v) for v in (self.win, self.hop)):
            raise ValueError(f"win/hop must be finite and positive, got {self.win!r}, {self.hop!r}")
        object.__setattr__(self, "filter_len", int(self.filter_len))  # a numpy integer too


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


def _block_plan(n: int, taps: int) -> tuple:
    """(nfft, step) of `_block_lags` for n-sample windows: a power of two >= 4 taps
    and >= 1024, or the least power of two >= n + taps - 1 if that is smaller."""
    nfft = max(1024, 4 << (taps - 1).bit_length())  # smaller is <= 5% faster but moves last bits
    nfft = min(nfft, 1 << (n + taps - 2).bit_length())
    return nfft, nfft - taps + 1


def _block_lags(padded: np.ndarray, nfft: int, step: int, taps: int, spec=None, head=None):
    """(count, channels, taps): lag d < taps of sum_u x[0, c, u] x[k, c, u + d].

    padded : (count, channels, blocks * step + taps - 1), the signals x and
    then zeros, the reference x[0] first. Overlap-save: each `step`-sample
    block of the reference meets the step + taps - 1 samples of every
    signal that start with it in nfft-point transforms, and the products
    are summed over blocks before one inverse transform, which `spec` and
    `head` take if given (buffers of the forward transforms' shapes).
    """
    heads = padded[0, :, :padded.shape[-1] - taps + 1].reshape(padded.shape[1], -1, step)
    spans = np.lib.stride_tricks.sliding_window_view(padded, step + taps - 1, axis=-1)
    spec = np.fft.rfft(spans[..., ::step, :], nfft, out=spec)
    head = np.fft.rfft(heads, nfft, out=head)
    spec *= np.conj(head, out=head)
    return np.fft.irfft(spec.sum(axis=-2), nfft)[..., :taps]


def _levinson(first_row: np.ndarray, rhs: np.ndarray):
    """Solve toeplitz(first_row[s]) x[s, m] = rhs[s, m] for all systems s at once.

    first_row : (systems, taps) with a positive diagonal; rhs : (systems, count,
    taps). Durbin's recursion (Golub & Van Loan, Alg. 4.7.1) gives T [1; y] = beta e_1
    for T = toeplitz(first_row[s]) / first_row[s, 0]; x = (L L^T - M M^T) rhs[s] /
    (beta first_row[s, 0]) for L, M the lower triangular Toeplitz matrices of [1; y]
    and [0; y reversed] (Gohberg & Semencul 1972), by FFT and refined once on its
    residual (circulant embedding). Also returns a mask of the systems whose reflection
    coefficients all have |rho| < 1 and whose x is finite; the others' x is garbage.
    """
    systems, taps = first_row.shape
    # two systems at least: numpy sums a lone column in another order than several
    rows = first_row if systems > 1 else np.concatenate([first_row, first_row])
    rev = np.ascontiguousarray((rows[:, :0:-1] / rows[:, :1]).T)  # rev[taps - 1 - d]: lag d
    y = np.zeros_like(rev)  # after step k, y[:k] solves toeplitz(lags < k) y = -lags 1 .. k
    beta, low = np.ones(len(rows)), np.ones(len(rows))  # low: the least beta, < 0 if |rho| > 1
    nfft, x = 2 << (taps - 1).bit_length(), np.zeros(rhs.shape)  # nfft >= 2 taps: no wrap
    chunk = max(1, _FFT_VALUES // (nfft * rhs.shape[1]))
    with np.errstate(all="ignore"):  # a broken-down system is flagged below
        for k in range(1, taps):
            rho = -(rev[taps - 1 - k] + np.einsum("js,js->s", rev[taps - k:], y[:k - 1])) / beta
            y[:k - 1] += rho * y[:k - 1][::-1]
            y[k - 1] = rho
            beta *= 1.0 - rho ** 2
            np.minimum(low, beta, out=low)
        for part in (slice(s, min(s + chunk, systems)) for s in range(0, systems, chunk)):
            kernels = np.zeros((part.stop - part.start, 3, nfft))  # [1; y], [0; y reversed], lags
            kernels[:, 0, 1:taps], kernels[:, 1, 1:taps] = y[:, part].T, y[::-1, part].T
            kernels[:, 0, 0], kernels[:, 2, :taps] = 1.0, first_row[part]
            kernels[:, 2, nfft - taps + 1:] = kernels[:, 2, taps - 1:0:-1]  # a circulant's column
            spec = np.fft.rfft(kernels)[:, :, None]
            adjoint = spec[:, :2].conj() / (beta[part] * first_row[part, 0])[:, None, None, None]
            residual = rhs[part]  # of x = 0: the first pass skips its transform
            for k in range(2):  # the solve, then one refinement step on its residual
                if k:
                    tx = np.fft.irfft(spec[:, 2].real * np.fft.rfft(x[part], nfft), nfft)
                    residual = rhs[part] - tx[..., :taps]
                half = np.fft.rfft(residual, nfft)[:, None] * adjoint
                full = spec[:, :2] * np.fft.rfft(np.fft.irfft(half, nfft)[..., :taps], nfft)
                x[part] += np.fft.irfft(full[:, 0] - full[:, 1], nfft)[..., :taps]
    ok = (low[:systems] > 0.0) & np.all(np.isfinite(x), axis=(1, 2))
    return x, ok


def _pair_lags(signals: np.ndarray, refs: int, taps: int) -> np.ndarray:
    """(channels, refs, count, taps): lag d < taps of sum_u x[i, c, u] x[k, c, u + d] for the
    (count, channels, n) signals x and i < refs, by one `_block_lags` call per reference x[i]."""
    count, channels, n = signals.shape
    nfft, step = _block_plan(n, taps)
    padded = np.zeros((count, channels, -(-n // step) * step + taps - 1))
    padded[..., :n] = signals
    return np.stack([_block_lags(padded[np.r_[i, :count]], nfft, step, taps)[1:]
                     for i in range(refs)]).transpose(2, 0, 1, 3)


def _gram(lags: np.ndarray) -> np.ndarray:
    """Block-Toeplitz Grams of delayed signals from their (..., count, count, taps)
    `_pair_lags`: block (i, k)[a, b] is lag a - b of (i, k), for a < b lag b - a of (k, i)."""
    *batch, count, _, taps = lags.shape
    # full[..., i, k, taps - 1 + d] is lag d of (i, k), -taps < d < taps, and
    # blocks[..., i, k, a, b] a view of its lag a - b
    full = np.concatenate([np.swapaxes(lags, -3, -2)[..., :0:-1], lags], axis=-1)
    blocks = np.lib.stride_tricks.sliding_window_view(full, taps, axis=-1)[..., ::-1]
    return np.swapaxes(blocks, -3, -2).reshape(*batch, count * taps, count * taps)


def _ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (gram + GRAM_REG * trace / size * I) x = rhs for every (size, size) Gram of
    gram (..., size, size), rhs (..., size, m); x is zero where the Gram's trace is not positive."""
    size = gram.shape[-1]
    trace = np.trace(gram, axis1=-2, axis2=-1)
    live = ~(trace <= 0.0)  # a NaN trace is solved and fails as non-finite
    ridged = gram[live]
    ridged[:, np.arange(size), np.arange(size)] += (GRAM_REG * trace[live] / size)[:, None]
    coef = np.zeros(rhs.shape)
    try:
        coef[live] = np.linalg.solve(ridged, rhs[live])
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"projection Gram matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise RankDeficient("projection coefficients are non-finite")
    return coef


def _projection(refs: np.ndarray, est: np.ndarray, filter_len: int) -> np.ndarray:
    """Least-squares projection of each channel of `est` onto delayed copies of `refs`.

    refs : (num_refs, channels, length); est : (channels, length). Returns
    the projected (channels, length + filter_len - 1) signal (full ring-out).
    """
    num_refs, channels, length = refs.shape
    lags = _pair_lags(np.concatenate([refs, est[None]]), num_refs, filter_len)
    rhs = lags[:, :, num_refs].reshape(channels, -1, 1)
    coef = _ridge_solve(_gram(lags[:, :, :num_refs]), rhs).reshape(channels, num_refs, filter_len)
    projected = np.zeros((channels, length + filter_len - 1))
    for i, c in np.ndindex(num_refs, channels):  # np.convolve is 1-D; each channel in ref order
        projected[c] += np.convolve(refs[i, c], coef[c, i])
    return projected


def project_subspace(
    references: SourceWaveformSet, estimate: Waveform, filter_len: int, source_index: int
):
    """Decompose `estimate` into (s_target, e_interf, e_artif).

    Each part has shape (channels, length + filter_len - 1); their sum
    equals the zero-padded estimate exactly. Channels are decomposed
    independently.
    """
    filter_len = EvalConfig(filter_len).filter_len
    if not (_is_int(source_index) and 0 <= source_index < references.num_sources):
        raise ValueError(f"source_index {source_index!r} out of range or not an integer")
    _check_alike("references and estimate", references.sources[:1], [estimate])
    if float(np.sum(references.sources[source_index].samples ** 2)) <= 0.0:
        raise SilentReference(f"reference of source {source_index} is identically zero")

    stacked = references.stacked()  # (J, channels, length): interference needs every source
    s_target = _projection(stacked[source_index:source_index + 1], estimate.samples, filter_len)
    p_all = _projection(stacked, estimate.samples, filter_len)
    est_padded = np.pad(estimate.samples, ((0, 0), (0, filter_len - 1)))
    return s_target, p_all - s_target, est_padded - p_all


def _frame_sdr(ref: np.ndarray, est: np.ndarray, filter_len: int) -> float:
    """SDR of one window: (ch, n) target reference vs (ch, n) estimate."""
    if np.array_equal(est, ref):
        return SDR_CAP_DB  # exact match short-circuits to the sentinel
    projected = _projection(ref[None], est, filter_len)
    padded = np.pad(est, ((0, 0), (0, filter_len - 1)))
    # each channel's energy, then a left-to-right sum over channels (np.sum may reorder it)
    target_energy = float(np.cumsum(np.sum(projected ** 2, axis=-1))[-1])
    error_energy = float(np.cumsum(np.sum((padded - projected) ** 2, axis=-1))[-1])
    if target_energy <= 0.0:  # before the error energy, which is 0 too for a zero estimate
        return -SDR_CAP_DB
    if error_energy <= 0.0:
        return SDR_CAP_DB
    value = 10.0 * math.log10(target_energy / error_energy)
    return float(min(max(value, -SDR_CAP_DB), SDR_CAP_DB))


def _windows(reference, cfg: EvalConfig) -> List[slice]:
    """cfg's win/hop windows over `reference`, all of one length.

    A signal shorter than one window is scored whole. A filter longer
    than the scored window is a ValueError.
    """
    length, rate = reference.length, reference.sample_rate
    # capped at length + 1 samples: any finite win/hop converts, the windows stay the same
    win = max(1, round(min(cfg.win * rate, length + 1)))
    hop = max(1, round(min(cfg.hop * rate, length + 1)))
    n = min(win, length)
    if cfg.filter_len > n:
        raise ValueError(f"filter_len {cfg.filter_len} exceeds the {n}-sample frame")
    starts = range(0, length - win + 1, hop) if length >= win else range(1)
    return [slice(start, start + n) for start in starts]


def sdr_frames(
    references: SourceWaveformSet, estimates: SourceWaveformSet, cfg: EvalConfig = EvalConfig()
) -> SdrReport:
    """Framewise SDR per source with median aggregation.

    Frames whose reference energy falls below 1e-12 are recorded as NaN
    and excluded from the median; the overall average is the arithmetic
    mean of the per-source medians (see `_mean_of_medians`).
    """
    _check_alike("references and estimates", references.sources, estimates.sources)
    rows = BlendScorer(references, [estimates], cfg).frame_sdr([[1.0]], BlendScorer.REPORT_TOL)
    frames = {label: row[:, 0].tolist() for label, row in zip(source_labels(len(rows)), rows)}
    medians = {label: _median_ignoring_nan(values) for label, values in frames.items()}
    return SdrReport(frames, medians, _mean_of_medians(medians.values()))


def median_sdr(
    references: SourceWaveformSet,
    estimate: Waveform,
    source_index: int,
    cfg: EvalConfig = EvalConfig(),
) -> float:
    """Median framewise SDR of a single source's estimate."""
    if not (_is_int(source_index) and 0 <= source_index < references.num_sources):
        raise ValueError(f"source_index {source_index!r} out of range or not an integer")
    target = SourceWaveformSet([references.sources[source_index]])
    return sdr_frames(target, SourceWaveformSet([estimate]), cfg).overall_avg


class BlendScorer:
    """Framewise SDR of weighted blends of model stems, every source at once.

    For one source, frame and channel, with r the reference and E the
    (num_models, n) model stems, a blend e = E^T w has projection
    coefficients K w, where K = (G + ridge)^-1 B. G, the Gram of r's
    delayed copies, is symmetric Toeplitz: its first row and B are lags
    of r's correlations with itself and with E (`_block_lags`), and a
    `_levinson` call solves a batch of frames and channels (`_gram` of
    those lags where it breaks down). Summed over channels, the target
    energy is w^T (K^T G K) w, with K^T G K = B^T K - ridge K^T K, and the
    error energy w^T (E E^T - B^T K - K^T B + K^T G K) w; both are exact
    because the projection keeps its full ring-out. So one solve per frame
    and channel scores every weight column.

    The forms carry a rounding error of a few ulps of the blend's energy
    bound (sum_m w_m |E_m|)^2: 1e-9 dB of SDR near 60 dB, 1e-12 relative
    up to 30 dB. Where a form is at most `tol` times that bound (exact
    matches, zero estimates, blends past ~50 dB for the search's 1e-9 dB
    ties, past ~+-30 dB for reported frames), the frame is scored instead
    by `_frame_sdr` on the synthesised blend, so the cap and the sentinel
    come from the same code.

    The windows are read on the workers of one sweep (see `sweeps`),
    a block per window of each source: a worker reads the window of
    every signal into its own buffers and makes the silence check, the
    stems' Gram and the lags. In window order the frames are recorded
    and each full batch of lags, and the last, is solved, on whichever
    worker drains. So the forms, and the first failure raised, are those
    of one thread. A batch is never split over threads: Durbin's loop over taps
    is Python that holds the interpreter lock, and each call pays its
    fixed cost; the FFT stage runs in chunks of `_FFT_VALUES` values.
    """

    CANCELLATION_TOL = 1e-5  # ranking blends: one solve per frame for any good grid
    REPORT_TOL = 1e-3  # reported frames: at most one projection per frame

    def __init__(self, references: SourceWaveformSet,
                 per_model_stems: Sequence[SourceWaveformSet], cfg: EvalConfig = EvalConfig()):
        """per_model_stems[m].sources[j] is model m's stem of source j. Every
        signal is read through its `frames`: a Waveform's, or a `WavReader`'s
        when `eval` and `search-weights` score stem files."""
        # per source: the reference, then every model's stem
        self._signals = [[ref] + [stems.sources[j] for stems in per_model_stems]
                         for j, ref in enumerate(references.sources)]
        self._filter_len = taps = cfg.filter_len
        first = references.sources[0]
        self._windows = windows = _windows(first, cfg)
        n = windows[0].stop - windows[0].start
        # the windows, then what no window covers: a file's every sample is read, so checked
        gaps = zip([w.stop for w in windows], [w.start for w in windows[1:]] + [first.length])
        spans = windows + [slice(a, min(a + n, b)) for stop, b in gaps for a in range(stop, b, n)]
        num_models, channels = len(per_model_stems), references.channels
        nfft, step = _block_plan(n, taps)
        padded_shape = (1 + num_models, channels, -(-n // step) * step + taps - 1)
        spec_shape = padded_shape[:2] + (-(-n // step), nfft // 2 + 1)
        # a worker's padded signals and both forward transforms share one buffer: numpy
        # backs one of 4 MiB or more with huge pages, which a new thread faults in fewer traps
        layout = [(padded_shape, np.float64), (spec_shape, np.complex128),
                  (spec_shape[1:], np.complex128)]
        ends = list(itertools.accumulate(math.prod(shape) * np.dtype(dtype).itemsize
                                         for shape, dtype in layout))
        self._scored = np.zeros((len(self._signals), len(windows)), dtype=bool)
        self._error = error = np.zeros((self._scored.size, num_models, num_models))
        self._target, self._norms = np.empty_like(error), np.empty(error.shape[:2])
        # the lags of frames done .. scored - 1, solved in batches that bound a solve's memory
        lags = np.empty((max(1, _SOLVE_VALUES // (channels * taps)),) + padded_shape[:2] + (taps,))
        sweeps = _Sweeps(itertools.product(range(len(self._signals)), range(len(spans))))
        space = sweeps.workspace
        done, scored, left = 0, 0, len(sweeps.blocks)  # frames solved, scored; windows not added

        def window(j, w):  # a worker reads and correlates window w of source j in its buffers
            span = spans[w]
            whole = space.take("window", (ends[-1],), np.uint8)
            padded, spec, head = (whole[a:b].view(dtype).reshape(shape) for (shape, dtype), a, b
                                  in zip(layout, [0] + ends, ends))
            padded[..., n:] = 0.0
            for row, signal in zip(padded, self._signals[j]):
                signal.frames(span.start, span.stop, out=row[:, :span.stop - span.start])
            r, seg = padded[0, :, :n], padded[1:, :, :n]
            # the products are done with before the transforms fill `spec`
            product = spec.view(np.float64).reshape(-1)[:channels * n].reshape(channels, n)
            if w >= len(windows) or np.sum(np.multiply(r, r, product)) < SILENT_FRAME_ENERGY:
                return None
            gram = np.empty((num_models, num_models))
            for a, b in itertools.combinations_with_replacement(range(num_models), 2):
                gram[a, b] = gram[b, a] = np.sum(np.multiply(seg[a], seg[b], product))
            return j, w, gram, _block_lags(padded, nfft, step, taps, spec, head).copy()

        def add(result):  # in window order, on one worker at a time
            nonlocal done, scored, left
            left -= 1
            if result is not None:  # (j, w, the stems' Gram, the lags) of window w of source j
                j, w, error[scored], lags[scored - done] = result
                self._scored[j, w] = True
                scored += 1
            if scored - done == len(lags) or not left:  # a full or the last batch
                done = self._solve(lags[:scored - done], done)

        sweeps.ordered(window, add)
        self._error, self._target, self._norms = (
            a[:done] for a in (error, self._target, self._norms))

    def _solve(self, lags: np.ndarray, start: int) -> int:
        """The forms of the frames from `start` on from their (frames, 1 + num_models,
        channels, taps) `_block_lags`, in one `_levinson` call; returns the next frame."""
        frames, count, channels, taps = lags.shape
        done = slice(start, start + frames)
        systems = lags.transpose(0, 2, 1, 3).reshape(frames * channels, count, taps)
        acf, rhs = systems[:, 0], systems[:, 1:]
        ridge = GRAM_REG * acf[:, 0]  # GRAM_REG * trace / size, as `_ridge_solve` adds it
        coef = np.zeros_like(rhs)  # zero where the reference channel is silent
        live = np.flatnonzero(acf[:, 0] > 0.0)
        first_row = acf[live]
        first_row[:, 0] += ridge[live]
        coef[live], solved = _levinson(first_row, rhs[live])
        for s in live[~solved]:  # a dense solve on the Gram of the same lags
            coef[s] = _ridge_solve(_gram(acf[s, None, None]), rhs[s].T).T
        cross = np.einsum("sml,skl->smk", rhs, coef)  # B^T K
        projected = cross - ridge[:, None, None] * np.einsum("sml,skl->smk", coef, coef)
        per_channel = (frames, channels, count - 1, count - 1)
        self._norms[done] = np.sqrt(np.diagonal(self._error[done], axis1=1, axis2=2))  # |E_m|
        self._target[done] = projected.reshape(per_channel).sum(axis=1)
        extra = projected - cross - cross.transpose(0, 2, 1)
        self._error[done] += extra.reshape(per_channel).sum(axis=1)
        return done.stop

    def frame_sdr(self, columns: np.ndarray, tol: float = CANCELLATION_TOL) -> np.ndarray:
        """(sources, windows, count) SDR of each blend of columns (count, num_models),
        windows in `_windows` order; NaN where the source's reference is silent."""
        columns = np.asarray(columns, dtype=np.float64)
        target = np.sum((columns @ self._target) * columns, axis=-1)  # (frames, count)
        error = np.sum((columns @ self._error) * columns, axis=-1)
        bound = tol * (self._norms @ columns.T) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sdr = np.clip(10.0 * np.log10(target / error), -SDR_CAP_DB, SDR_CAP_DB)
        scored = np.argwhere(self._scored)  # (source, window) of each frame, in the sweep's order
        for f, n in zip(*np.nonzero((error <= bound) | (target <= bound))):
            sdr[f, n] = self._synthesised_sdr(*scored[f], columns[n])
        frames = np.full(self._scored.shape + (columns.shape[0],), math.nan)
        frames[self._scored] = sdr
        return frames

    def median_sdr(self, columns: np.ndarray) -> np.ndarray:
        """(sources, count) median of `frame_sdr` over each source's scored
        windows; NaN for a source that is silent in every window."""
        frames = self.frame_sdr(columns)
        return np.stack([_median(rows[scored]) for rows, scored in zip(frames, self._scored)])

    def _synthesised_sdr(self, j: int, w: int, weights: np.ndarray) -> float:
        window = self._windows[w]
        ref, *stems = (signal.frames(window.start, window.stop) for signal in self._signals[j])
        blend = np.zeros(ref.shape)
        for stem, weight in zip(stems, weights):
            if weight:
                blend += weight * stem
        return _frame_sdr(ref, blend, self._filter_len)


def _median(values: np.ndarray) -> np.ndarray:
    """np.median over axis 0 bit for bit (NaN for no values), without its numpy.ma import."""
    if not len(values):
        return np.full(values.shape[1:], math.nan)
    ordered = np.sort(values, axis=0)  # a NaN sorts last and makes its column's median NaN
    half = len(ordered) // 2
    middle = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
    return np.where(np.isnan(ordered[-1]), math.nan, middle)


def _median_ignoring_nan(values: Sequence[float]) -> float:
    return float(_median(np.array([v for v in values if not math.isnan(v)])))


def _mean_of_medians(medians) -> float:
    """The mean of the finite per-source medians: a source silent in every
    frame has none and is left out. NaN only when no source has one."""
    finite = [m for m in medians if math.isfinite(m)]
    return float(np.mean(finite)) if finite else math.nan


def aggregate(reports: Sequence[SdrReport]) -> AggregateReport:
    """Median over tracks of per-source track medians; Avg is their mean."""
    if not reports:
        raise EmptyInput("no reports to aggregate")
    labels = list(reports[0].per_source_median)
    for report in reports[1:]:
        if list(report.per_source_median) != labels:
            raise ValueError("reports carry different source labels")
    medians = {label: _median_ignoring_nan([r.per_source_median[label] for r in reports])
               for label in labels}
    return AggregateReport(medians, _mean_of_medians(medians.values()))


# --- serialization -----------------------------------------------------

def report_to_json_dict(report: SdrReport) -> dict:
    """JSON-safe dict; NaN (excluded frames) becomes null."""
    def clean(value):
        return None if math.isnan(value) else value

    return {"per_source_frames": {label: [clean(v) for v in values]
                                  for label, values in report.per_source_frames.items()},
            "per_source_median": {label: clean(v) for label, v in report.per_source_median.items()},
            "overall_avg": clean(report.overall_avg)}


def report_to_csv(report) -> str:
    """One-row CSV summary in Table order: Drums,Bass,Other,Vocals,Avg."""
    medians = report.per_source_median
    header = ",".join([label.capitalize() for label in medians] + ["Avg"])
    row = ",".join([f"{medians[label]:.6f}" for label in medians] + [f"{report.overall_avg:.6f}"])
    return header + "\n" + row + "\n"


def save_report_json(report: SdrReport, path) -> None:
    _atomic_write(path, [_json_bytes(report_to_json_dict(report))])


def save_report_csv(report, path) -> None:
    _atomic_write(path, [report_to_csv(report).encode()])
