"""Shared fixtures-in-code for the test suite: signal builders and the
independent brute-force oracles the derived expectations come from."""

import itertools
from pathlib import Path

import numpy as np

from stemfuse import (
    SOURCE_NAMES,
    BandMaskModel,
    SourceWaveformSet,
    Spectrogram,
    Waveform,
    istft,
    load_stem_dir,
    median_sdr,
    read_magnitudes,
    stft,
    write_wav,
)


def make_waveform(rng, channels=2, length=256, sample_rate=44100, scale=0.5):
    return Waveform(scale * rng.normal(size=(channels, length)), sample_rate)


def make_waveform_set(rng, num_sources=4, channels=2, length=256, sample_rate=44100, scale=0.5):
    return SourceWaveformSet(
        [make_waveform(rng, channels, length, sample_rate, scale) for _ in range(num_sources)]
    )


def make_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def write_stem_dir(directory, stems: SourceWaveformSet, names=("drums", "bass", "other", "vocals")):
    directory.mkdir(parents=True, exist_ok=True)
    for name, stem in zip(names, stems.sources):
        write_wav(stem, directory / f"{name}.wav", encoding="float32")
    return directory


# --- dense least-squares SDR oracle (independent of the FFT solver) ------

def dense_delay_matrix(ref: np.ndarray, filter_len: int) -> np.ndarray:
    """Columns are zero-padded delayed copies of `ref` (length L+flen-1)."""
    length = ref.size
    matrix = np.zeros((length + filter_len - 1, filter_len))
    for m in range(filter_len):
        matrix[m:m + length, m] = ref
    return matrix


def dense_projection(refs: np.ndarray, est: np.ndarray, filter_len: int) -> np.ndarray:
    """Explicit normal-equations projection of est onto delayed refs."""
    blocks = np.hstack([dense_delay_matrix(r, filter_len) for r in refs])
    padded = np.concatenate([est, np.zeros(filter_len - 1)])
    coef, *_ = np.linalg.lstsq(blocks, padded, rcond=None)
    return blocks @ coef


def dense_frame_sdr(ref_frames: np.ndarray, est_frame: np.ndarray, filter_len: int,
                    source_index: int) -> float:
    """Brute-force framewise SDR: (J, ch, n) references, (ch, n) estimate."""
    num = 0.0
    den = 0.0
    for c in range(est_frame.shape[0]):
        proj = dense_projection(ref_frames[source_index:source_index + 1, c],
                                est_frame[c], filter_len)
        padded = np.concatenate([est_frame[c], np.zeros(filter_len - 1)])
        num += float(np.sum(proj ** 2))
        den += float(np.sum((padded - proj) ** 2))
    return 10.0 * np.log10(num / den)


# --- scalar EM oracle (pure Python, mirrors the three MWF steps) ----------

def em_once_oracle(est_bins, mix_bins, eps):
    """One EM pass computed with Python scalars.

    est_bins: list per source of (channels, frames, bins) arrays;
    mix_bins: (channels, frames, bins). Returns the re-filtered list.
    """
    num_sources = len(est_bins)
    channels, frames, bins = mix_bins.shape

    psd = [[[0.0] * bins for _ in range(frames)] for _ in range(num_sources)]
    for j in range(num_sources):
        for t in range(frames):
            for f in range(bins):
                acc = 0.0
                for c in range(channels):
                    acc += abs(complex(est_bins[j][c][t][f])) ** 2
                psd[j][t][f] = acc / channels

    cov = []
    for j in range(num_sources):
        per_bin = []
        for f in range(bins):
            numer = [[0.0 + 0.0j] * channels for _ in range(channels)]
            denom = eps
            for t in range(frames):
                denom += psd[j][t][f]
                for a in range(channels):
                    for b in range(channels):
                        numer[a][b] += complex(est_bins[j][a][t][f]) * complex(
                            est_bins[j][b][t][f]
                        ).conjugate()
            r = [[numer[a][b] / denom for b in range(channels)] for a in range(channels)]
            sym = [
                [0.5 * (r[a][b] + r[b][a].conjugate()) for b in range(channels)]
                for a in range(channels)
            ]
            per_bin.append(sym)
        cov.append(per_bin)

    out = [np.zeros((channels, frames, bins), dtype=complex) for _ in range(num_sources)]
    for t in range(frames):
        for f in range(bins):
            mix_cov = [[0.0 + 0.0j] * channels for _ in range(channels)]
            for j in range(num_sources):
                for a in range(channels):
                    for b in range(channels):
                        mix_cov[a][b] += psd[j][t][f] * cov[j][f][a][b]
            for a in range(channels):
                mix_cov[a][a] += eps
            if channels == 1:
                inv = [[1.0 / mix_cov[0][0]]]
            else:
                det = mix_cov[0][0] * mix_cov[1][1] - mix_cov[0][1] * mix_cov[1][0]
                inv = [
                    [mix_cov[1][1] / det, -mix_cov[0][1] / det],
                    [-mix_cov[1][0] / det, mix_cov[0][0] / det],
                ]
            x = [complex(mix_bins[c][t][f]) for c in range(channels)]
            z = [
                sum(inv[c][b] * x[b] for b in range(channels))
                for c in range(channels)
            ]
            for j in range(num_sources):
                for a in range(channels):
                    gain = sum(cov[j][f][a][b] * z[b] for b in range(channels))
                    out[j][a][t][f] = psd[j][t][f] * gain
    return out


# --- brute-force blend-weight search oracle -------------------------------

def brute_force_column_scores(per_model_stems, references, source_index, steps, cfg):
    """Simplex columns in lexicographic order, each scored by median_sdr on
    the synthesised blend, as the search did before its closed form."""
    num_models = len(per_model_stems)
    columns = [c for c in itertools.product(range(steps + 1), repeat=num_models)
               if sum(c) == steps]
    stems = [m.sources[source_index].samples for m in per_model_stems]
    scores = []
    for column in columns:
        candidate = np.zeros_like(stems[0])
        for m in range(num_models):
            if column[m]:
                candidate += (column[m] / steps) * stems[m]
        scores.append(median_sdr(references, Waveform(candidate, references.sample_rate),
                                 source_index, cfg))
    return columns, np.array(scores)


def tie_rule_pick(scores, tol_db=1e-9) -> int:
    """Index of the first score within tol_db of the best; 0 if all are NaN."""
    kept = [s for s in scores if not np.isnan(s)]
    if not kept:
        return 0
    best = max(kept)
    return next(k for k, s in enumerate(scores) if s >= best - tol_db)


# --- Wiener filter and pipeline run with the complex-matrix arithmetic ----
# These keep the per-source, full-matrix form the array filter replaced:
# a 4-entry complex einsum for R, a complex determinant, and one inverse
# STFT per model and source followed by a time-domain blend.

def einsum_model_step(est_bins, eps):
    """[(psd (T, F), R (F, C, C))] per source from (C, T, F) estimates."""
    models = []
    for y in est_bins:
        v = np.mean(y.real ** 2 + y.imag ** 2, axis=0)
        numer = np.einsum("ctf,dtf->fcd", y, np.conj(y))
        denom = np.sum(v, axis=0) + eps
        cov = numer / denom[:, None, None]
        models.append((v, 0.5 * (cov + np.conj(np.swapaxes(cov, 1, 2)))))
    return models


def complex_det_filter_step(models, mix_bins, eps):
    """[(C, T, F)] re-filtered estimates; 2x2 inverse via a complex determinant."""
    x = mix_bins
    c = [[sum(v * r[:, a, b] for v, r in models) for b in range(x.shape[0])]
         for a in range(x.shape[0])]
    if x.shape[0] == 1:
        z0 = x[0] / (c[0][0] + eps)
        return [(v * r[:, 0, 0] * z0)[None] for v, r in models]
    c00, c11 = c[0][0] + eps, c[1][1] + eps
    det = c00 * c11 - c[0][1] * c[1][0]
    z0 = (c11 * x[0] - c[0][1] * x[1]) / det
    z1 = (c00 * x[1] - c[1][0] * x[0]) / det
    return [np.stack([v * (r[:, 0, 0] * z0 + r[:, 0, 1] * z1),
                      v * (r[:, 1, 0] * z0 + r[:, 1, 1] * z1)]) for v, r in models]


def oracle_mwf(mags, mix_bins, cfg):
    """Power-ratio masks, then cfg.iterations matrix-form EM passes."""
    powered = np.stack(mags) ** cfg.mask_power
    masks = powered / (np.sum(powered, axis=0) + 1e-12)
    est = [mask * mix_bins for mask in masks]
    for _ in range(cfg.iterations):
        est = complex_det_filter_step(einsum_model_step(est, cfg.eps), mix_bins, cfg.eps)
    return est


def oracle_run(mix, cfg):
    """(sources, channels, length) fused stems: every model synthesized on
    its own, then weighted and summed in model order."""
    spec = stft(mix, cfg.stft)
    fused = np.zeros((len(SOURCE_NAMES), mix.channels, mix.length))
    for m, entry in enumerate(cfg.model_entries):
        if entry.domain == "T" and entry.source != "builtin-toy":
            stems = [s.samples for s in load_stem_dir(
                entry.source, like=mix, length_tolerance=cfg.stft.hop).sources]
        else:
            if entry.source == "builtin-toy":
                masks = BandMaskModel.default(leakage=entry.leakage).bin_masks(
                    mix.sample_rate, cfg.stft.fft_size)
            if entry.domain == "T":
                bins = [spec.bins * mask for mask in masks]
            elif entry.source == "builtin-toy":
                bins = oracle_mwf([np.abs(spec.bins) * mask for mask in masks], spec.bins,
                                  cfg.mwf)
            else:
                mags = [read_magnitudes(Path(entry.source) / f"{name}.mag")
                        for name in SOURCE_NAMES]
                bins = oracle_mwf(mags, spec.bins, cfg.mwf)
            stems = [istft(Spectrogram(b, cfg.stft, mix.sample_rate), length=mix.length).samples
                     for b in bins]
        for j, stem in enumerate(stems):
            fused[j] += cfg.weights.weights[m, j] * stem
    return fused
