"""Shared fixtures-in-code for the test suite: signal builders and the
independent brute-force oracles the derived expectations come from."""

import itertools
import math
import os
import struct
import subprocess
import sys
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
    read_magnitudes,
    read_wav,
    stft,
    write_wav,
)
from stemfuse import bsseval
from stemfuse.blend import weighted_accumulate
from stemfuse.wiener import (_cross, _filter_step, _gain_power, _mask_gains, _Mixture, _power,
                             _spatial)


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


def run_child(argv, env=None) -> str:
    """Standard output of `python *argv` in a child process whose environment
    adds `env`; the child imports the same stemfuse as this process."""
    import stemfuse

    path = [str(Path(stemfuse.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **(env or {}))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def child_minor_faults(args, env) -> int:
    """Minor page faults of `python -m stemfuse.cli *args` in a child process
    whose environment adds `env`, read as the RUSAGE_CHILDREN delta."""
    import resource  # POSIX only

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    run_child(["-m", "stemfuse.cli", *args], env)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


# --- constant overlap-add by scanning the overlap-added window -------------

COLA_TOL = 1e-10


def cola_deviation(window: np.ndarray, hop: int) -> float:
    """Flatness of `window` overlap-added at `hop`: max - min of the sum.

    Overlaps enough frames that the middle of the buffer sees every
    contributing shift. The oracle for StftConfig's divisibility rule.
    """
    n = window.size
    total = 6 * n
    acc = np.zeros(total)
    for start in range(0, total - n + 1, hop):
        acc[start:start + n] += window
    interior = acc[n:total - 2 * n]
    return float(interior.max() - interior.min())


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


# --- framewise SDR by one projection per frame and channel -----------------
# The scoring path before `sdr_frames` went through `BlendScorer`'s closed
# form: `_frame_sdr` projects every window on its own, all its channels in
# one batched solve, and measures both energies on the projected signal.

def oracle_source_frames(reference, estimate, cfg):
    """Framewise SDR of one source's estimate; NaN marks a silent frame."""
    frames = []
    for window in bsseval._windows(reference, cfg):
        ref = reference.samples[:, window]
        silent = float(np.sum(ref ** 2)) < bsseval.SILENT_FRAME_ENERGY
        frames.append(math.nan if silent else bsseval._frame_sdr(
            ref, estimate.samples[:, window], cfg.filter_len))
    return frames


def assert_frames_match_oracle(got, want):
    """NaN, the +300 sentinel and the +-300 cap exactly; other frames within
    1e-12 relative (of 1 dB for frames within 1 dB of 0)."""
    assert [math.isnan(v) for v in got] == [math.isnan(v) for v in want]
    for g, w in zip(got, want):
        if math.isnan(w):
            continue
        if abs(w) == 300.0 or abs(g) == 300.0:
            assert g == w
        else:
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (g, w)


def oracle_median_sdr(references, estimate, source_index, cfg):
    """Median of `oracle_source_frames` over the non-silent frames."""
    kept = [v for v in oracle_source_frames(references.sources[source_index], estimate, cfg)
            if not math.isnan(v)]
    return float(np.median(kept)) if kept else math.nan


def longdouble_frame_sdr(ref: np.ndarray, est: np.ndarray, filter_len: int) -> float:
    """SDR of one (ch, n) window in long double: time-domain correlations,
    the ridge of `_ridge_solve`, Gaussian elimination with partial pivoting
    and energies measured on the convolved projection."""
    target = error = np.longdouble(0)
    for r, e in zip(ref.astype(np.longdouble), est.astype(np.longdouble)):
        n = r.size
        acf = np.array([np.dot(r[:n - d], r[d:]) for d in range(filter_len)])
        rhs = np.array([np.dot(r[:n - d], e[d:]) for d in range(filter_len)])
        lags = np.abs(np.subtract.outer(np.arange(filter_len), np.arange(filter_len)))
        system = np.hstack([acf[lags] + bsseval.GRAM_REG * acf[0] * np.eye(filter_len),
                            rhs[:, None]])
        for k in range(filter_len):
            pivot = k + int(np.argmax(np.abs(system[k:, k])))
            system[[k, pivot]] = system[[pivot, k]]
            system[k + 1:] -= np.outer(system[k + 1:, k] / system[k, k], system[k])
        coef = np.zeros(filter_len, dtype=np.longdouble)
        for k in reversed(range(filter_len)):
            coef[k] = (system[k, -1] - np.dot(system[k, k + 1:-1], coef[k + 1:])) / system[k, k]
        projected = np.convolve(r, coef)
        target += np.sum(projected ** 2)
        error += np.sum((np.concatenate([e, np.zeros(filter_len - 1, np.longdouble)])
                         - projected) ** 2)
    return float(10 * np.log10(target / error))


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


# --- whole-array Wiener filter ---------------------------------------------
# `mwf`, `em_iterate` and `estimate_spatial_model` before they swept
# blocks of frames: every step runs on whole (J, C, T, F) arrays, one
# source at a time, and each sum over frames is one `np.sum` of the whole
# signal. The library's elementwise steps (mask gains, |y|^2, y0 conj(y1),
# the filter step) are reused; the sums and the order of the passes are
# this form's own.

def whole_array_model_step(per_source, shape, eps):
    """(psd (J, T, F), (R diagonal (J, C, F), R01 (J, F) or None)) of
    estimates whose |y_c|^2 (C, T, F) and y0 conj(y1) (T, F) `per_source` yields."""
    num_sources, channels, _, bins = shape
    psd = np.empty((num_sources,) + shape[2:])
    power = np.empty((num_sources, channels, bins))
    cross = None if channels == 1 else np.empty((num_sources, bins), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (power_j, cross_j) in enumerate(per_source):
            psd[j] = np.mean(power_j, axis=0)
            power[j] = np.sum(power_j, axis=1)
            if cross is not None:
                cross[j] = np.sum(cross_j, axis=0)
        scale = 1.0 / (np.sum(psd, axis=1) + eps)
        return psd, (power * scale[:, None], None if cross is None else cross * scale)


def whole_array_passes(y, x, passes, eps):
    """`passes` EM passes, each overwriting the (J, C, T, F) estimates `y`."""
    for _ in range(passes):
        per_source = ((_power(yj), _cross(yj[0], yj[1]) if y.shape[1] == 2 else None)
                      for yj in y)
        psd, spatial = whole_array_model_step(per_source, y.shape, eps)
        _filter_step(psd, _spatial(*spatial), x, eps, out=y)
    return y


def whole_array_mwf(mags, x, cfg):
    """(J, C, T, F) stems of `mwf`: the first pass on the real mask gains."""
    g = _mask_gains(np.stack([np.asarray(v, dtype=np.float64) for v in mags]), cfg.mask_power)
    if cfg.iterations == 0:
        return np.multiply(g, x)
    mixture = _Mixture(x)
    per_source = ((_gain_power(gj, mixture.power),
                   None if mixture.cross is None else gj[0] * gj[1] * mixture.cross) for gj in g)
    psd, spatial = whole_array_model_step(per_source, g.shape, cfg.eps)
    y = _filter_step(psd, _spatial(*spatial), x, cfg.eps,
                     out=np.empty(g.shape, dtype=np.complex128))
    return whole_array_passes(y, x, cfg.iterations - 1, cfg.eps)


def whole_array_em_iterate(est_bins, x, cfg):
    """(J, C, T, F) result of `em_iterate` on estimates (J, C, T, F)."""
    return whole_array_passes(np.array(est_bins, dtype=np.complex128), x, cfg.iterations, cfg.eps)


def whole_array_spatial_model(est_bins, eps):
    """[(psd (T, F), R (F, C, C))] per source, as `estimate_spatial_model` gives them."""
    y = np.asarray(est_bins)
    per_source = ((_power(yj), _cross(yj[0], yj[1]) if y.shape[1] == 2 else None) for yj in y)
    psd, (r_diag, r01) = whole_array_model_step(per_source, y.shape, eps)
    num_sources, channels, bins = r_diag.shape
    cov = np.zeros((num_sources, bins, channels, channels), dtype=np.complex128)
    for c in range(channels):
        cov[:, :, c, c] = r_diag[:, c]
    if r01 is not None:
        cov[:, :, 0, 1] = r01
        cov[:, :, 1, 0] = np.conj(r01)
    return list(zip(psd, cov))


# --- brute-force blend-weight search oracle -------------------------------

def brute_force_column_scores(per_model_stems, references, source_index, steps, cfg):
    """Simplex columns in lexicographic order, each scored by one projection
    per frame of the synthesised blend, as the search did before its
    closed form."""
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
        scores.append(oracle_median_sdr(references, Waveform(candidate, references.sample_rate),
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


# --- Wiener filter on materialised masked estimates ------------------------
# The form before the first EM pass ran on real mask gains: the complex
# masked mixture y_j = g_j x is built, every pass takes its sums of |y|^2
# and y0 conj(y1), and the library's own filter step re-filters y.

def masked_mixture(mags, x, mask_power):
    """(J, C, T, F) soft-masked mixture, each power formed twice."""
    def power(v):
        return v * v if mask_power == 2.0 else v ** mask_power

    total = power(mags[0])
    for v in mags[1:]:
        total += power(v)
    total += 1e-12
    y = np.empty((len(mags),) + x.shape, dtype=np.complex128)
    for j, v in enumerate(mags):
        mask = power(v)
        mask /= total
        np.multiply(mask, x, out=y[j])
    return y


def materialised_model_step(y, eps):
    """(psd (J, T, F), (R diagonal (J, C, F), R01 (J, F) or None)) of estimates y."""
    psd = np.stack([np.mean(yj.real ** 2 + yj.imag ** 2, axis=0) for yj in y])
    power = np.stack([np.sum(yj.real ** 2 + yj.imag ** 2, axis=1) for yj in y])
    scale = 1.0 / (np.stack([np.sum(v, axis=0) for v in psd]) + eps)
    r01 = None
    if y.shape[1] == 2:
        r01 = np.stack([np.einsum("tf,tf->f", yj[0], np.conj(yj[1])) for yj in y]) * scale
    return psd, (power * scale[:, None], r01)


def materialised_mwf(mags, x, cfg):
    """(stems, [(psd, (R diagonal, R01)) of every pass]) of the materialised filter."""
    y = masked_mixture(mags, x, cfg.mask_power)
    passes = []
    for _ in range(cfg.iterations):
        psd, spatial = materialised_model_step(y, cfg.eps)
        passes.append((psd, spatial))
        _filter_step(psd, _spatial(*spatial), x, cfg.eps, out=y)
    return y, passes


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


# --- WAV reader and writer built on whole-file bytes copies ---------------
# The form before the reader parsed through a memoryview and the writer
# wrote header and payload as separate parts: every chunk body is a bytes
# slice, and the file is one concatenated blob.

def bytes_read_wav(path):
    """(samples (channels, frames) float64, rate) of a PCM16/PCM24/float32 WAV."""
    blob = Path(path).read_bytes()
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(blob):
        size = struct.unpack_from("<I", blob, pos + 4)[0]
        body = blob[pos + 8:pos + 8 + size]
        if blob[pos:pos + 4] == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif blob[pos:pos + 4] == b"data":
            data = body[:size]
        pos += 8 + size + (size & 1)
    tag, channels, rate, _, _, bits = fmt
    if tag == 1 and bits == 16:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / float(1 << 15)
    elif tag == 1:
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        value = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        flat = ((value ^ 0x800000) - 0x800000).astype(np.float64) / float(1 << 23)
    else:
        flat = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return flat.reshape(-1, channels).T, rate


def bytes_wav_blob(w, encoding):
    """The complete WAV file write_wav produces, as one bytes object."""
    interleaved = w.samples.T
    if encoding == "float32":
        tag, bits = 3, 32
        payload = np.ascontiguousarray(interleaved, dtype="<f4").tobytes()
    else:
        tag, bits = 1, 16
        clamped = np.clip(np.round(interleaved * float(1 << 15)), -(1 << 15), (1 << 15) - 1)
        payload = np.ascontiguousarray(clamped, dtype="<i2").tobytes()
    block_align = w.channels * bits // 8
    fmt_body = struct.pack("<HHIIHH", tag, w.channels, w.sample_rate,
                           w.sample_rate * block_align, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if tag == 3:
        chunks += b"fact" + struct.pack("<II", 4, w.length)
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


# --- whole-track `stemfuse wiener` -------------------------------------------
# The TF path `wiener` ran before it went through the streamed engine: one
# STFT of the whole mixture, the whole-array Wiener filter, then one istft
# per source.

def whole_track_wiener(mix, mags, stft_cfg, mwf_cfg):
    """(sources, channels, length) stems of `mags`, bitwise as `run` must give them."""
    filtered = whole_array_mwf(mags, stft(mix, stft_cfg).bins, mwf_cfg)
    return np.stack([istft(Spectrogram(s, stft_cfg, mix.sample_rate), length=mix.length).samples
                     for s in filtered])


# --- whole-track pipeline run ----------------------------------------------
# The run before it streamed frame blocks: one STFT of the whole mixture,
# every spectral branch filtered by the whole-array Wiener filter and summed with
# its weights into one (sources, channels, frames, bins) array, then one
# istft per source; external T stems are weighted in the time domain first.

def whole_array_run(mix, cfg):
    """(sources, channels, length) fused stems, bitwise as `run` must give them."""
    weights = cfg.weights.weights
    fused = np.zeros((len(SOURCE_NAMES), mix.channels, mix.length))
    spec = spectral = None
    for m, entry in enumerate(cfg.model_entries):
        if entry.domain == "T" and entry.source != "builtin-toy":
            # whole stems, zero-padded or truncated to the mixture's length
            stems = [read_wav(Path(entry.source) / f"{name}.wav").samples[:, :mix.length]
                     for name in SOURCE_NAMES]
            weighted_accumulate(fused, weights[m], (
                np.pad(s, ((0, 0), (0, mix.length - s.shape[1]))) for s in stems))
            continue
        if spec is None:
            spec = stft(mix, cfg.stft)
            spectral = np.zeros((len(SOURCE_NAMES),) + spec.bins.shape, dtype=np.complex128)
        if entry.source == "builtin-toy":
            masks = BandMaskModel.default(leakage=entry.leakage).bin_masks(
                mix.sample_rate, cfg.stft.fft_size)
            mags = [np.abs(spec.bins) * mask for mask in masks]
        else:
            mags = [read_magnitudes(Path(entry.source) / f"{name}.mag") for name in SOURCE_NAMES]
        if entry.domain == "T":
            stems = [spec.bins * mask for mask in masks]
        else:
            stems = whole_array_mwf(mags, spec.bins, cfg.mwf)
        weighted_accumulate(spectral, weights[m], stems)
    if spectral is not None:
        for j in range(len(SOURCE_NAMES)):
            fused[j] += istft(Spectrogram(spectral[j], cfg.stft, mix.sample_rate),
                              length=mix.length).samples
    return fused
