"""The array Wiener filter and spectral-domain fusion against the
matrix-form oracles in helpers.py (complex einsum, complex determinant,
one inverse STFT per model and source, then a time-domain blend), and
the first EM pass on real mask gains against the materialised masked
estimates it replaced."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    em_iterate,
    estimate_spatial_model,
    initial_estimates,
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
    masked_mixture,
    materialised_mwf,
    oracle_mwf,
    oracle_run,
    whole_array_em_iterate,
    whole_array_mwf,
    whole_array_spatial_model,
    write_stem_dir,
)

wiener = sys.modules["stemfuse.wiener"]
sweeps = sys.modules["stemfuse.sweeps"]
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


def condition_number(passes, eps):
    """Largest condition number of the mixture covariances the filter steps invert."""
    worst = 1.0
    for psd, (r_diag, r01) in passes:
        if r01 is None:
            continue
        c00, c11 = (np.einsum("jtf,jf->tf", psd, r_diag[:, c]) + eps for c in (0, 1))
        c01 = np.einsum("jtf,jf->tf", psd, r01)
        mid, radius = 0.5 * (c00 + c11), np.sqrt(0.25 * (c00 - c11) ** 2 + np.abs(c01) ** 2)
        worst = max(worst, float(np.max((mid + radius) / (mid - radius))))
    return worst


@settings(max_examples=120, deadline=None)
@given(seed=seeds, channels=channel_counts, sources=source_counts,
       iterations=st.integers(0, 3), mask_power=st.sampled_from([1.0, 2.0, 3.0]),
       frames=st.integers(1, 40), silent=st.sampled_from([0.0, 0.3, 1.0]))
def test_gain_pass_matches_materialised_estimates(seed, channels, sources, iterations,
                                                  mask_power, frames, silent):
    mix, mags, _ = scene(seed, channels, sources, frames)
    zero = np.random.default_rng(seed).uniform(size=mix.bins.shape) < silent
    for v in mags:
        v[zero] = 0.0  # bins where every source is silent
    cfg = MwfConfig(iterations=iterations, mask_power=mask_power)
    want, passes = materialised_mwf(mags, mix.bins, cfg)
    masked = [s.bins for s in initial_estimates(mags, mix, mask_power).sources]
    assert np.array_equal(masked, masked_mixture(mags, mix.bins, mask_power))

    steps = []  # the PSD and R that each of mwf's filter steps is given
    filter_step = wiener._filter_step

    def recording(psd, spatial, x, eps, out, space=None):
        steps.append((psd.copy(), spatial[:2]))  # R's diagonal and R01
        return filter_step(psd, spatial, x, eps, out, space)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wiener, "_filter_step", recording)
        got = np.array([s.bins for s in mwf(mags, mix, cfg).sources])
    assert len(steps) == iterations

    # The first pass's PSD and R are sums of the same terms rounded
    # differently. A filter step's rounding grows with the condition number
    # of the covariance it inverts (rank one plus eps for one frame of one
    # stereo source), and so does everything computed after one.
    tol = REL_TOL
    for (psd, (r_diag, r01)), (want_psd, (want_diag, want_r01)) in zip(steps, passes):
        for a, b in ((psd, want_psd), (r_diag, want_diag), (r01, want_r01)):
            assert (a is None) == (b is None)
            assert a is None or np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))
        tol = REL_TOL + 16 * condition_number(passes, cfg.eps) * np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, channels=channel_counts, sources=source_counts,
       channel_fastest=st.booleans(), iterations=st.integers(0, 3), frames=st.integers(1, 40),
       silent_bins=st.booleans(), workers=st.sampled_from([1, 2]))
# one frame and silent bins: np.sum turns a lone -0.0 cross term into +0.0
@example(seed=1, channels=2, sources=2, channel_fastest=False, iterations=1, frames=1,
         silent_bins=True, workers=1)
def test_library_functions_are_bitwise_the_whole_array_form(
        seed, channels, sources, channel_fastest, iterations, frames, silent_bins, workers):
    rng = np.random.default_rng(seed)
    shape = (frames, CFG.num_bins, channels) if channel_fastest else (channels, frames, CFG.num_bins)
    truths = np.array([make_complex(rng, shape) for _ in range(sources)])
    if channel_fastest:  # as `stft` of a `read_wav` input lays them out
        truths = truths.transpose(0, 3, 1, 2)
    if silent_bins:  # zero gains: their cross terms are -0.0 where x0 conj(x1) is negative
        truths[..., ::5] = 0.0
    mix = Spectrogram(make_complex(rng, shape).transpose(2, 0, 1) if channel_fastest
                      else make_complex(rng, shape), CFG, SR)
    mags = list(np.abs(truths))
    est = SourceSpectrogramSet([Spectrogram(t, CFG, SR) for t in truths])
    cfg = MwfConfig(iterations=iterations)
    want_mwf = whole_array_mwf(mags, mix.bins, cfg).tobytes()
    want_em = whole_array_em_iterate(truths, mix.bins, cfg).tobytes()
    want_models = whole_array_spatial_model(truths, cfg.eps)
    for block_frames in (1, 3, None, frames, frames + 5):
        with pytest.MonkeyPatch.context() as mp:
            if block_frames is not None:
                frame_bytes = sources * channels * CFG.num_bins * 16
                mp.setattr(sweeps, "_BLOCK_BYTES", block_frames * frame_bytes)
            mp.setattr(sweeps, "_worker_count", lambda: workers)
            got_mwf = np.array([s.bins for s in mwf(mags, mix, cfg).sources])
            got_em = np.array([s.bins for s in em_iterate(est, mix, cfg).sources])
            models = estimate_spatial_model(est, cfg.eps)
        assert got_mwf.tobytes() == want_mwf
        assert got_em.tobytes() == want_em
        for model, (psd, cov) in zip(models, want_models):
            assert model.psd.tobytes() == psd.tobytes()
            assert model.spatial_cov.tobytes() == cov.tobytes()


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
