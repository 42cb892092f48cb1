import math

import numpy as np
import pytest

from stemfuse import (
    MwfConfig,
    SourceSpectrogramSet,
    SpatialModel,
    Spectrogram,
    StftConfig,
    apply_filter,
    em_iterate,
    estimate_spatial_model,
    initial_estimates,
    mwf,
)
from stemfuse.errors import ShapeMismatch, SingularMixCovariance
from stemfuse.sweeps import _Workspace
from stemfuse.wiener import _mask_gains, _Mixture, _pass_terms

from helpers import em_once_oracle, make_complex

CFG = StftConfig(fft_size=16, hop=4)
SR = 44100


def make_scene(rng, num_sources=4, channels=2, frames=6, scale=1.0):
    """Random per-source complex bins, their mixture, and true magnitudes."""
    shape = (channels, frames, CFG.num_bins)
    truths = [make_complex(rng, shape, scale) for _ in range(num_sources)]
    mix = Spectrogram(sum(truths), CFG, SR)
    mags = [np.abs(t) for t in truths]
    return truths, mix, mags


def as_set(arrays, like):
    return SourceSpectrogramSet([Spectrogram(a, like.config, like.sample_rate) for a in arrays])


class TestInitialEstimates:
    def test_single_source_gets_full_mixture(self):
        rng = np.random.default_rng(0)
        _, mix, _ = make_scene(rng, num_sources=1)
        mags = [np.abs(mix.bins) + 0.3]
        out = initial_estimates(mags, mix)
        assert np.max(np.abs(out.sources[0].bins - mix.bins)) < 1e-9

    def test_equal_magnitudes_split_evenly(self):
        rng = np.random.default_rng(1)
        _, mix, _ = make_scene(rng, num_sources=2)
        shared = np.abs(mix.bins) + 0.5
        out = initial_estimates([shared, shared], mix, mask_power=1.7)
        for s in out.sources:
            assert np.max(np.abs(s.bins - 0.5 * mix.bins)) < 1e-9

    def test_hand_computed_mono_bin(self):
        # v = (3, 1), power 2 -> masks 9/10 and 1/10 of x = 2
        bins = np.full((1, 1, CFG.num_bins), 2.0 + 0.0j)
        mix = Spectrogram(bins, CFG, SR)
        v1 = np.full((1, 1, CFG.num_bins), 3.0)
        v2 = np.full((1, 1, CFG.num_bins), 1.0)
        out = initial_estimates([v1, v2], mix, mask_power=2.0)
        assert out.sources[0].bins[0, 0, 0] == pytest.approx(1.8, abs=1e-9)
        assert out.sources[1].bins[0, 0, 0] == pytest.approx(0.2, abs=1e-9)

    def test_masks_conserve_mixture(self):
        rng = np.random.default_rng(2)
        _, mix, mags = make_scene(rng)
        out = initial_estimates(mags, mix)
        total = sum(s.bins for s in out.sources)
        assert np.max(np.abs(total - mix.bins)) < 1e-9 * np.max(np.abs(mix.bins))

    def test_all_zero_magnitudes_give_zero(self):
        rng = np.random.default_rng(3)
        _, mix, _ = make_scene(rng, num_sources=2)
        zero = np.zeros_like(np.abs(mix.bins))
        out = initial_estimates([zero, zero], mix)
        assert np.all(out.sources[0].bins == 0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        _, mix, mags = make_scene(rng)
        with pytest.raises(ShapeMismatch):
            initial_estimates([m[:, :1] for m in mags], mix)

    def test_negative_magnitudes_rejected(self):
        rng = np.random.default_rng(5)
        _, mix, mags = make_scene(rng)
        mags[0] = -mags[0]
        with pytest.raises(ValueError):
            initial_estimates(mags, mix)

    @pytest.mark.parametrize("mask_power, bad", [(1e308, None), (2.0, np.nan), (2.0, np.inf)])
    def test_non_finite_masks_raise_one_error(self, mask_power, bad):
        rng = np.random.default_rng(5)
        _, mix, mags = make_scene(rng)
        mags[0] = mags[0] + 2.0  # > 1, so a huge power overflows
        if bad is not None:
            mags[1][0, 0, 0] = bad
        with pytest.raises(ValueError, match="initial masks are not finite"):
            initial_estimates(mags, mix, mask_power=mask_power)


class TestEmIterate:
    def test_zero_iterations_is_identity(self):
        rng = np.random.default_rng(6)
        truths, mix, _ = make_scene(rng)
        est = as_set(truths, mix)
        out = em_iterate(est, mix, MwfConfig(iterations=0))
        for before, after in zip(est.sources, out.sources):
            assert np.array_equal(before.bins, after.bins)

    def test_single_source_returns_mixture(self):
        rng = np.random.default_rng(7)
        _, mix, _ = make_scene(rng, num_sources=1)
        est = as_set([mix.bins.copy()], mix)
        out = em_iterate(est, mix, MwfConfig(iterations=1))
        rel = np.max(np.abs(out.sources[0].bins - mix.bins)) / np.max(np.abs(mix.bins))
        assert rel < 1e-8

    @pytest.mark.parametrize("channels", [1, 2])
    def test_matches_scalar_em_oracle(self, channels):
        rng = np.random.default_rng(8)
        for _ in range(5):
            truths, mix, mags = make_scene(rng, num_sources=2, channels=channels, frames=2)
            est = initial_estimates(mags, mix)
            cfg = MwfConfig(iterations=1, eps=1e-10)
            out = em_iterate(est, mix, cfg)
            oracle = em_once_oracle([s.bins for s in est.sources], mix.bins, cfg.eps)
            for got, want in zip(out.sources, oracle):
                assert np.max(np.abs(got.bins - want)) < 1e-8

    def test_rejects_more_than_two_channels(self):
        rng = np.random.default_rng(9)
        shape = (3, 2, CFG.num_bins)
        bins = make_complex(rng, shape)
        mix = Spectrogram(bins, CFG, SR)
        est = as_set([bins.copy()], mix)
        with pytest.raises(ShapeMismatch):
            em_iterate(est, mix, MwfConfig(iterations=1))

    def test_overflow_raises_singular(self):
        rng = np.random.default_rng(10)
        shape = (2, 2, CFG.num_bins)
        huge = make_complex(rng, shape, scale=1e200)
        mix = Spectrogram(huge, CFG, SR)
        est = as_set([huge.copy(), huge.copy()], mix)
        with pytest.raises(SingularMixCovariance):
            em_iterate(est, mix, MwfConfig(iterations=1))

    def test_overflowing_psd_of_one_frame_is_reported_as_overflow(self):
        # Each channel's power and every sum over frames stay finite, but the
        # channel sum of one bin overflows, so that frame's PSD is infinite.
        bins = np.ones((2, 4, CFG.num_bins), dtype=complex)
        bins[:, 0, 0] = 1.1e154
        mix = Spectrogram(bins, CFG, SR)
        est = as_set([bins.copy(), np.ones_like(bins)], mix)
        with pytest.raises(SingularMixCovariance, match="overflowed"):
            em_iterate(est, mix, MwfConfig(iterations=1))

    def test_loading_whose_determinant_underflows_is_singular(self):
        # all-zero PSDs leave eps I as the mixture covariance; its determinant
        # eps**2 = 1e-400 is 0 in float64
        mix = Spectrogram(np.ones((2, 3, CFG.num_bins), dtype=complex), CFG, SR)
        model = SpatialModel(np.zeros((3, CFG.num_bins)),
                             np.broadcast_to(np.eye(2), (CFG.num_bins, 2, 2)))
        with pytest.raises(SingularMixCovariance, match="singular even with diagonal loading"):
            apply_filter([model, model], mix, 1e-200)


class TestSpatialModel:
    def test_covariances_hermitian_psd(self):
        rng = np.random.default_rng(11)
        truths, mix, mags = make_scene(rng)
        est = initial_estimates(mags, mix)
        for model in estimate_spatial_model(est, 1e-10):
            cov = model.spatial_cov
            assert np.max(np.abs(cov - np.conj(np.swapaxes(cov, 1, 2)))) == 0.0
            assert float(np.min(np.linalg.eigvalsh(cov))) >= -1e-8
            assert np.all(model.psd >= 0)

    def test_validation_rejects_non_hermitian(self):
        from stemfuse import SpatialModel

        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SpatialModel(np.ones((1, 1)), bad)


class TestMwf:
    def test_single_source_identity(self):
        rng = np.random.default_rng(12)
        _, mix, _ = make_scene(rng, num_sources=1)
        out = mwf([np.abs(mix.bins)], mix, MwfConfig(iterations=1))
        rel = np.max(np.abs(out.sources[0].bins - mix.bins)) / np.max(np.abs(mix.bins))
        assert rel < 1e-8

    def test_zero_iterations_equals_power_ratio_mask(self):
        rng = np.random.default_rng(13)
        _, mix, mags = make_scene(rng, channels=1)
        out = mwf(mags, mix, MwfConfig(iterations=0, mask_power=2.0))
        powered = np.stack(mags) ** 2
        masks = powered / powered.sum(axis=0)
        for got, mask, mag in zip(out.sources, masks, mags):
            want = mask * mix.bins
            assert np.max(np.abs(got.bins - want)) < 1e-9

    @pytest.mark.parametrize("iterations", [0, 1, 2, 5])
    def test_conservation(self, iterations):
        rng = np.random.default_rng(14)
        for trial in range(5):
            channels = 1 + trial % 2
            _, mix, mags = make_scene(rng, channels=channels)
            out = mwf(mags, mix, MwfConfig(iterations=iterations, eps=1e-10))
            total = sum(s.bins for s in out.sources)
            where = np.abs(mix.bins) > 1e-6
            rel = np.max(np.abs(total - mix.bins)[where] / np.abs(mix.bins)[where])
            assert rel <= 1e-4

    def test_permutation_equivariance(self):
        # the covariance sum accumulates in source order, so outputs agree
        # to rounding (not bitwise) under permutation
        rng = np.random.default_rng(15)
        _, mix, mags = make_scene(rng)
        order = [2, 0, 3, 1]
        out = mwf(mags, mix, MwfConfig(iterations=2))
        permuted = mwf([mags[i] for i in order], mix, MwfConfig(iterations=2))
        for slot, original in enumerate(order):
            want = out.sources[original].bins
            diff = np.max(np.abs(permuted.sources[slot].bins - want))
            assert diff <= 1e-12 * np.max(np.abs(want))

    def test_scale_equivariance_zero_iterations(self):
        rng = np.random.default_rng(16)
        _, mix, mags = make_scene(rng)
        for scale in (0.5, 2.0, 10.0):
            scaled_mix = Spectrogram(scale * mix.bins, CFG, SR)
            base = mwf(mags, mix, MwfConfig(iterations=0))
            scaled = mwf([scale * m for m in mags], scaled_mix, MwfConfig(iterations=0))
            for got, want in zip(scaled.sources, base.sources):
                rel = np.max(np.abs(got.bins - scale * want.bins))
                rel /= max(np.max(np.abs(scale * want.bins)), 1e-300)
                assert rel < 1e-9

    def test_scale_equivariance_with_scaled_eps(self):
        rng = np.random.default_rng(17)
        _, mix, mags = make_scene(rng)
        eps = 1e-10
        for scale in (0.5, 4.0):
            scaled_mix = Spectrogram(scale * mix.bins, CFG, SR)
            base = mwf(mags, mix, MwfConfig(iterations=2, eps=eps))
            scaled = mwf(
                [scale * m for m in mags],
                scaled_mix,
                MwfConfig(iterations=2, eps=eps * scale * scale),
            )
            for got, want in zip(scaled.sources, base.sources):
                rel = np.max(np.abs(got.bins - scale * want.bins))
                rel /= np.max(np.abs(scale * want.bins))
                assert rel < 1e-9

    def test_first_pass_overflows_once_the_mixture_power_does(self):
        # The first pass sums g^2 |x|^2, so it overflows as soon as |x|^2
        # does, whatever the gains: one bin of x = s, two sources of gain 1/2.
        limit = math.sqrt(np.finfo(float).max)
        mags = [np.ones((1, 1, CFG.num_bins))] * 2
        for scale in (limit * (1 - 1e-9), limit * (1 + 1e-9)):
            mix = Spectrogram(np.full((1, 1, CFG.num_bins), scale + 0j), CFG, SR)
            assert np.isfinite((0.5 * scale) ** 2)  # (g x)^2 is finite at both scales
            if scale < limit:
                out = mwf(mags, mix, MwfConfig(iterations=1))
                assert all(np.all(np.isfinite(s.bins)) for s in out.sources)
            else:
                with pytest.raises(SingularMixCovariance, match="overflowed"):
                    mwf(mags, mix, MwfConfig(iterations=1))

    def test_hard_panned_sources_recover_their_channels(self):
        rng = np.random.default_rng(18)
        frames, bins = 8, CFG.num_bins
        left = make_complex(rng, (frames, bins))
        right = make_complex(rng, (frames, bins))
        s1 = np.stack([left, np.zeros_like(left)])  # hard left
        s2 = np.stack([np.zeros_like(right), right])  # hard right
        mix = Spectrogram(s1 + s2, CFG, SR)
        out = mwf([np.abs(s1), np.abs(s2)], mix, MwfConfig(iterations=1))
        for estimate, channel in ((out.sources[0], 0), (out.sources[1], 1)):
            energy = np.sum(np.abs(estimate.bins) ** 2, axis=(1, 2))
            assert energy[channel] / energy.sum() >= 0.95


class TestMwfConfig:
    def test_defaults_match_one_iteration_protocol(self):
        cfg = MwfConfig()
        assert cfg.iterations == 1 and cfg.mask_power == 2.0

    @pytest.mark.parametrize(
        "kwargs", [dict(iterations=-1), dict(eps=0.0), dict(eps=-1e-3), dict(mask_power=0.0),
                   dict(iterations=1.5), dict(iterations="2"), dict(iterations=True),
                   dict(eps=float("inf")), dict(eps=float("nan")), dict(eps="x"), dict(eps=None),
                   dict(mask_power=float("inf")), dict(mask_power=None), dict(mask_power=True)]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MwfConfig(**kwargs)


@pytest.mark.parametrize("channels", [1, 2])
def test_gain_terms_do_not_depend_on_when_the_mixture_products_are_made(channels):
    # |x_c|^2 and x0 conj(x1) are made in the workspace buffer "scratch", where
    # the terms of real gains form g0 g1: made before the call or during it,
    # they give bitwise the same terms. The gains are made as `mwf` makes
    # them, their sum over sources in "scratch", so it is already sized.
    rng = np.random.default_rng(18)
    x = make_complex(rng, (channels, 7, CFG.num_bins))
    mags = rng.uniform(size=(3,) + x.shape)
    terms = []
    for made_first in (True, False):
        space = _Workspace()
        space.lend(lambda: None)
        gains = _mask_gains(mags.copy(), 2.0, space.take("scratch", x.shape))
        mixture = _Mixture(x.copy(), space)
        if made_first:
            mixture.power, mixture.cross
        terms.append([None if t is None else t.tobytes() for t in _pass_terms(gains, space, mixture)])
    assert terms[0] == terms[1]
    assert (terms[0][2] is None) == (channels == 1)
