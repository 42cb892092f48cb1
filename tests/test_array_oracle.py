"""The array Wiener filter and spectral-domain fusion against the
matrix-form oracles in helpers.py (complex einsum, complex determinant,
one inverse STFT per model and source, then a time-domain blend)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stemfuse import (
    ModelEntry,
    MwfConfig,
    PipelineConfig,
    SourceSpectrogramSet,
    SourceWaveformSet,
    SpatialModel,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_filter,
    estimate_spatial_model,
    mwf,
    run,
    stft,
    validate_weights,
    write_magnitudes,
)

from helpers import (
    complex_det_filter_step,
    einsum_model_step,
    make_complex,
    make_waveform_set,
    oracle_mwf,
    oracle_run,
    write_stem_dir,
)

CFG = StftConfig(fft_size=16, hop=4)
SR = 44100
# Rounding-level bound on max|array - oracle| / max|oracle|. Both forms lose
# digits in proportion to the mixture covariance's condition number, which
# is large when a source's R is estimated from very few frames; scenes of
# 16+ random frames keep it moderate.
REL_TOL = 1e-12


def scene(seed, channels, sources, frames):
    rng = np.random.default_rng(seed)
    truths = [make_complex(rng, (channels, frames, CFG.num_bins)) for _ in range(sources)]
    return Spectrogram(sum(truths), CFG, SR), [np.abs(t) for t in truths], truths


def rel_diff(got, want):
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / np.max(np.abs(want))


seeds = st.integers(0, 2**32 - 1)
channel_counts = st.sampled_from([1, 2])
source_counts = st.integers(1, 4)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, channels=channel_counts, sources=source_counts,
       iterations=st.integers(0, 3), mask_power=st.sampled_from([1.0, 2.0, 3.0]),
       frames=st.integers(16, 32))
def test_mwf_matches_matrix_oracle(seed, channels, sources, iterations, mask_power, frames):
    mix, mags, _ = scene(seed, channels, sources, frames)
    cfg = MwfConfig(iterations=iterations, mask_power=mask_power)
    got = [s.bins for s in mwf(mags, mix, cfg).sources]
    assert rel_diff(got, oracle_mwf(mags, mix.bins, cfg)) <= REL_TOL


@settings(max_examples=60, deadline=None)
@given(seed=seeds, channels=channel_counts, sources=source_counts,
       frames=st.integers(1, 32), eps=st.sampled_from([1e-10, 1e-3, 1.0]))
def test_model_step_entries_equal_einsum_bitwise(seed, channels, sources, frames, eps):
    _, _, truths = scene(seed, channels, sources, frames)
    est = SourceSpectrogramSet([Spectrogram(t, CFG, SR) for t in truths])
    models = estimate_spatial_model(est, eps)
    for model, (psd, cov) in zip(models, einsum_model_step(truths, eps)):
        assert np.array_equal(model.psd, psd)
        assert np.array_equal(model.spatial_cov, cov)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, channels=channel_counts, sources=source_counts, frames=st.integers(16, 32))
def test_apply_filter_matches_complex_determinant(seed, channels, sources, frames):
    mix, _, truths = scene(seed, channels, sources, frames)
    oracle_models = einsum_model_step(truths, 1e-10)
    models = [SpatialModel(psd, cov) for psd, cov in oracle_models]
    got = [s.bins for s in apply_filter(models, mix, 1e-10).sources]
    want = complex_det_filter_step(oracle_models, mix.bins, 1e-10)
    assert rel_diff(got, want) <= REL_TOL


# --- spectral-domain fusion in pipeline.run --------------------------------

RUN_CFG = StftConfig(fft_size=512, hop=128)
RUN_WEIGHTS = {
    "mixed": [[0.5, 0.0, 1.0, 0.2], [0.0, 0.5, 0.0, 0.3], [0.5, 0.25, 0.0, 0.5],
              [0.0, 0.25, 0.0, 0.0]],
    "one-per-source": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0]],
    "uniform": [[0.25] * 4] * 4,
}


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("weights", sorted(RUN_WEIGHTS))
def test_run_matches_per_model_synthesis(tmp_path, channels, weights):
    rng = np.random.default_rng(31 + channels)
    length = 3000
    truths = make_waveform_set(rng, channels=channels, length=length, scale=0.3)
    mix = Waveform(sum(s.samples for s in truths.sources), SR)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    for name, src in zip(("drums", "bass", "other", "vocals"), truths.sources):
        write_magnitudes(mag_dir / f"{name}.mag", np.abs(stft(src, RUN_CFG).bins))
    stem_dir = write_stem_dir(tmp_path / "stems", SourceWaveformSet(
        [Waveform(s.samples + 0.05 * rng.normal(size=s.samples.shape), SR)
         for s in truths.sources]))
    cfg = PipelineConfig(
        [ModelEntry("tf_toy", "TF", "builtin-toy", leakage=0.2),
         ModelEntry("t_toy", "T", "builtin-toy", leakage=0.1),
         ModelEntry("t_dir", "T", str(stem_dir)),
         ModelEntry("tf_dir", "TF", str(mag_dir))],
        RUN_CFG, MwfConfig(iterations=1), validate_weights(RUN_WEIGHTS[weights]),
    )
    got = np.stack([s.samples for s in run(mix, cfg).sources])
    assert rel_diff(got, oracle_run(mix, cfg)) <= REL_TOL
