import json
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stemfuse import bsseval
from stemfuse import (
    EvalConfig,
    SdrReport,
    SourceWaveformSet,
    Waveform,
    aggregate,
    median_sdr,
    project_subspace,
    report_to_csv,
    report_to_json_dict,
    save_report_csv,
    save_report_json,
    sdr_frames,
)
from stemfuse.cli import main
from stemfuse.errors import (
    EmptyInput,
    LengthMismatch,
    RankDeficient,
    SampleRateMismatch,
    ShapeMismatch,
    SilentReference,
)

from helpers import (
    assert_frames_match_oracle,
    dense_delay_matrix,
    dense_frame_sdr,
    dense_projection,
    longdouble_frame_sdr,
    make_waveform_set,
    oracle_source_frames,
    write_stem_dir,
)

SR = 44100


def full_window_cfg(length, filter_len=8):
    return EvalConfig(filter_len=filter_len, win=length / SR, hop=length / SR)


def orthogonal_scene(length=4096, noise_gain=0.1):
    """Reference sinusoids on distinct integer bins; estimate of source 0
    adds an orthogonal tone at `noise_gain` amplitude."""
    n = np.arange(length)

    def tone(k):
        return np.sin(2 * np.pi * k * n / length)

    refs = SourceWaveformSet([Waveform(tone(k), SR) for k in (8, 24, 32, 40)])
    est_sources = [Waveform(tone(8) + noise_gain * tone(16), SR)] + [
        Waveform(tone(k), SR) for k in (24, 32, 40)
    ]
    return refs, SourceWaveformSet(est_sources)


class TestProjectSubspace:
    def test_perfect_estimate_single_tap(self):
        rng = np.random.default_rng(0)
        refs = make_waveform_set(rng, channels=1, length=128)
        estimate = refs.sources[2]
        s_target, e_interf, e_artif = project_subspace(refs, estimate, 1, 2)
        assert np.max(np.abs(s_target - estimate.samples)) < 1e-9
        assert np.max(np.abs(e_interf)) < 1e-9
        assert np.max(np.abs(e_artif)) < 1e-9

    def test_delay_absorbed_by_filter(self):
        rng = np.random.default_rng(1)
        delay = 3
        stems = [Waveform(rng.normal(size=(1, 256)), SR) for _ in range(4)]
        # zero tail so the shifted copy loses nothing at the signal edge
        first = stems[0].samples.copy()
        first[:, -delay:] = 0.0
        stems[0] = Waveform(first, SR)
        refs = SourceWaveformSet(stems)
        delayed = np.zeros_like(first)
        delayed[:, delay:] = first[:, :-delay]
        s_target, e_interf, e_artif = project_subspace(refs, Waveform(delayed, SR), 8, 0)
        scale = float(np.max(np.abs(delayed)))
        assert np.max(np.abs(e_artif)) < 1e-8 * scale
        assert np.max(np.abs(e_interf)) < 1e-6 * scale

    def test_decomposition_identity_machine_precision(self):
        rng = np.random.default_rng(2)
        refs = make_waveform_set(rng, channels=2, length=200)
        estimate = Waveform(rng.normal(size=(2, 200)), SR)
        filter_len = 6
        s_target, e_interf, e_artif = project_subspace(refs, estimate, filter_len, 1)
        padded = np.pad(estimate.samples, ((0, 0), (0, filter_len - 1)))
        residual = np.max(np.abs(s_target + e_interf + e_artif - padded))
        assert residual <= 1e-12 * np.max(np.abs(padded))

    def test_residual_orthogonal_to_subspace(self):
        rng = np.random.default_rng(3)
        refs = make_waveform_set(rng, channels=1, length=256, num_sources=2)
        estimate = Waveform(rng.normal(size=(1, 256)), SR)
        filter_len = 8
        s_target, e_interf, e_artif = project_subspace(refs, estimate, filter_len, 0)
        # e_artif is orthogonal to every delayed copy of every reference
        worst = 0.0
        for src in refs.sources:
            for d in range(filter_len):
                delayed = np.zeros(256 + filter_len - 1)
                delayed[d:d + 256] = src.samples[0]
                inner = abs(float(np.dot(delayed, e_artif[0])))
                worst = max(worst, inner / (np.linalg.norm(delayed) *
                                            np.linalg.norm(e_artif[0])))
        assert worst < 1e-6

    def test_matches_dense_normal_equations(self):
        # stereo, the target reference silent in channel 1
        rng = np.random.default_rng(4)
        target = rng.normal(size=(2, 64))
        target[1] = 0.0
        refs = SourceWaveformSet([Waveform(target, SR), Waveform(rng.normal(size=(2, 64)), SR)])
        estimate = Waveform(rng.normal(size=(2, 64)), SR)
        filter_len = 8
        s_target, e_interf, _ = project_subspace(refs, estimate, filter_len, 0)
        assert np.all(s_target[1] == 0.0)
        stacked = refs.stacked()
        for c in range(2):
            want_target = dense_projection(stacked[0:1, c], estimate.samples[c], filter_len)
            want_all = dense_projection(stacked[:, c], estimate.samples[c], filter_len)
            assert np.max(np.abs(s_target[c] - want_target)) < 1e-8
            assert np.max(np.abs((e_interf + s_target)[c] - want_all)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels=st.integers(2, 3),
        num_sources=st.integers(1, 4),
        filter_len=st.integers(1, 24),
        length=st.integers(24, 300),
        silent=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=3),
    )
    def test_channels_are_decomposed_independently(self, seed, channels, num_sources,
                                                   filter_len, length, silent):
        # each channel of a multichannel call is bitwise the call on that channel alone
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(num_sources, channels, length))
        for j, c in silent:  # silences channel c of source j, if they exist
            x[j % num_sources, c % channels] = 0.0
        x[0, 0] += 1.0  # the target, source 0, is never silent everywhere
        estimate = rng.normal(size=(channels, length)) + x.sum(axis=0)
        refs = SourceWaveformSet([Waveform(s, SR) for s in x])
        parts = project_subspace(refs, Waveform(estimate, SR), filter_len, 0)
        for c in range(channels):
            mono = SourceWaveformSet([Waveform(s[c:c + 1], SR) for s in x])
            if not np.any(x[0, c]):
                with pytest.raises(SilentReference):
                    project_subspace(mono, Waveform(estimate[c:c + 1], SR), filter_len, 0)
                assert np.all(parts[0][c] == 0.0)
                continue
            alone = project_subspace(mono, Waveform(estimate[c:c + 1], SR), filter_len, 0)
            for got, want in zip(parts, alone):
                np.testing.assert_array_equal(got[c:c + 1], want)

    def test_silent_reference_raises(self):
        rng = np.random.default_rng(5)
        refs = make_waveform_set(rng, channels=1, length=64)
        silent = SourceWaveformSet(
            [refs.sources[0], Waveform(np.zeros((1, 64)), SR)] + refs.sources[2:]
        )
        with pytest.raises(SilentReference):
            project_subspace(silent, refs.sources[0], 4, 1)

    def test_length_mismatch_raises(self):
        rng = np.random.default_rng(6)
        refs = make_waveform_set(rng, channels=1, length=64)
        with pytest.raises(LengthMismatch):
            project_subspace(refs, Waveform(np.zeros((1, 32)), SR), 4, 0)

    def test_a_gram_that_underflows_beside_a_silent_reference_is_singular(self):
        # at 1e-160 the Gram's trace is subnormal and the ridge scaled by it
        # underflows to 0, so the all-zero reference's rows stay zero
        rng = np.random.default_rng(7)
        refs = SourceWaveformSet([Waveform(1e-160 * rng.normal(size=(2, 200)), SR),
                                  Waveform(np.zeros((2, 200)), SR)])
        with pytest.raises(RankDeficient, match="singular"):
            project_subspace(refs, Waveform(rng.normal(size=(2, 200)), SR), 8, 0)

    def test_a_gram_that_overflows_gives_non_finite_coefficients(self):
        rng = np.random.default_rng(8)
        refs = SourceWaveformSet([Waveform(1e200 * rng.normal(size=(2, 200)), SR),
                                  Waveform(rng.normal(size=(2, 200)), SR)])
        with np.errstate(all="ignore"), pytest.raises(RankDeficient, match="non-finite$"):
            project_subspace(refs, Waveform(rng.normal(size=(2, 200)), SR), 8, 0)


class TestSdrFrames:
    def test_identical_hits_cap(self):
        rng = np.random.default_rng(7)
        refs = make_waveform_set(rng, channels=1, length=4096)
        report = sdr_frames(refs, refs, full_window_cfg(4096))
        for label in report.per_source_median:
            assert report.per_source_median[label] == 300.0
            assert report.per_source_frames[label] == [300.0]
        assert report.overall_avg == 300.0

    def test_orthogonal_tone_twenty_db(self):
        refs, est = orthogonal_scene(noise_gain=0.1)
        report = sdr_frames(refs, est, full_window_cfg(4096, filter_len=1))
        assert report.per_source_median["drums"] == pytest.approx(20.0, abs=0.1)

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            length = int(rng.integers(1024, 4096))
            filter_len = int(rng.integers(1, 17))
            refs = make_waveform_set(rng, channels=1, length=length)
            noisy = SourceWaveformSet(
                [
                    Waveform(s.samples + 0.2 * rng.normal(size=s.samples.shape), SR)
                    for s in refs.sources
                ]
            )
            report = sdr_frames(refs, noisy, full_window_cfg(length, filter_len))
            ref_stack = refs.stacked()
            est_stack = noisy.stacked()
            for j, label in enumerate(("drums", "bass", "other", "vocals")):
                want = dense_frame_sdr(ref_stack, est_stack[j], filter_len, j)
                assert report.per_source_median[label] == pytest.approx(want, abs=1e-6)

    def test_silent_reference_frames_excluded(self):
        rng = np.random.default_rng(9)
        length = 3 * SR
        stems = []
        for _ in range(4):
            stems.append(Waveform(0.4 * rng.normal(size=(1, length)), SR))
        # silence the middle second of source 0's reference
        samples = stems[0].samples.copy()
        samples[:, SR:2 * SR] = 0.0
        stems[0] = Waveform(samples, SR)
        refs = SourceWaveformSet(stems)
        report = sdr_frames(refs, refs, EvalConfig(filter_len=4, win=1.0, hop=1.0))
        frames = report.per_source_frames["drums"]
        assert len(frames) == 3
        assert math.isnan(frames[1])
        assert frames[0] == 300.0
        assert report.per_source_median["drums"] == 300.0

    @pytest.mark.parametrize("silent", [(0,), (0, 1, 2, 3)])
    def test_sources_silent_in_every_frame_leave_the_average(self, silent):
        rng = np.random.default_rng(26)
        refs = make_waveform_set(rng, channels=1, length=2 * SR)
        refs = SourceWaveformSet([Waveform(np.zeros_like(s.samples), SR) if j in silent else s
                                  for j, s in enumerate(refs.sources)])
        noisy = SourceWaveformSet([Waveform(s.samples + 0.1 * rng.normal(size=s.samples.shape), SR)
                                   for s in refs.sources])
        report = sdr_frames(refs, noisy, EvalConfig(filter_len=4, win=1.0, hop=1.0))
        medians = list(report.per_source_median.values())
        assert [math.isnan(m) for m in medians] == [j in silent for j in range(4)]
        kept = [m for m in medians if not math.isnan(m)]
        if kept:
            assert report.overall_avg == float(np.mean(kept))
        else:
            assert math.isnan(report.overall_avg)
        agg = aggregate([report, report])
        assert agg.per_source_median == pytest.approx(report.per_source_median, nan_ok=True)
        assert agg.overall_avg == pytest.approx(report.overall_avg, nan_ok=True)

    def test_scale_invariance(self):
        refs, est = orthogonal_scene(noise_gain=0.05)
        cfg = full_window_cfg(4096, filter_len=4)
        base = sdr_frames(refs, est, cfg)
        scale = 7.3
        refs_scaled = SourceWaveformSet([Waveform(scale * s.samples, SR) for s in refs.sources])
        est_scaled = SourceWaveformSet([Waveform(scale * s.samples, SR) for s in est.sources])
        scaled = sdr_frames(refs_scaled, est_scaled, cfg)
        for label in base.per_source_median:
            assert scaled.per_source_median[label] == pytest.approx(
                base.per_source_median[label], abs=1e-9
            )

    def test_monotonic_in_noise_power(self):
        values = []
        for gain in (0.01, 0.1, 0.3, 1.0):
            refs, est = orthogonal_scene(noise_gain=gain)
            report = sdr_frames(refs, est, full_window_cfg(4096, filter_len=2))
            values.append(report.per_source_median["drums"])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_signal_shorter_than_window_scored_whole(self):
        rng = np.random.default_rng(10)
        refs = make_waveform_set(rng, channels=1, length=1000)
        report = sdr_frames(refs, refs, EvalConfig(filter_len=2, win=1.0, hop=1.0))
        assert report.per_source_frames["drums"] == [300.0]

    def test_length_mismatch(self):
        rng = np.random.default_rng(11)
        refs = make_waveform_set(rng, length=128)
        other = make_waveform_set(rng, length=64)
        with pytest.raises(LengthMismatch):
            sdr_frames(refs, other, full_window_cfg(128))

    def test_rate_mismatch(self):
        rng = np.random.default_rng(12)
        refs = make_waveform_set(rng, length=128, sample_rate=44100)
        other = make_waveform_set(rng, length=128, sample_rate=48000)
        with pytest.raises(SampleRateMismatch):
            sdr_frames(refs, other, full_window_cfg(128))

    def test_scores_only_against_target_reference(self):
        rng = np.random.default_rng(16)
        refs = make_waveform_set(rng, channels=2, length=3 * 1024)
        noisy = SourceWaveformSet(
            [Waveform(s.samples + 0.2 * rng.normal(size=s.samples.shape), SR)
             for s in refs.sources]
        )
        cfg = EvalConfig(filter_len=8, win=1024 / SR, hop=512 / SR)
        report = sdr_frames(refs, noisy, cfg)
        for j, label in enumerate(report.per_source_frames):
            fresh = [src if k == j else Waveform(rng.normal(size=src.samples.shape), SR)
                     for k, src in enumerate(refs.sources)]
            again = sdr_frames(SourceWaveformSet(fresh), noisy, cfg)
            np.testing.assert_array_equal(
                again.per_source_frames[label], report.per_source_frames[label]
            )

    def test_huge_finite_window_scores_whole_signal(self):
        rng = np.random.default_rng(17)
        refs = make_waveform_set(rng, channels=1, length=1000)
        report = sdr_frames(refs, refs, EvalConfig(filter_len=2, win=1e306, hop=1e306))
        assert report.per_source_frames["drums"] == [300.0]

    def test_an_estimate_in_the_other_channel_has_no_target_energy(self):
        # channels are projected apart: channel 1 of the estimate has only
        # the silent channel 1 of the reference to project onto
        rng = np.random.default_rng(18)
        ref, est = np.zeros((2, 300)), np.zeros((2, 300))
        ref[0], est[1] = rng.normal(size=300), rng.normal(size=300)
        assert float(np.sum(bsseval._projection(ref[None], est, 8) ** 2)) == 0.0
        assert bsseval._frame_sdr(ref, est, 8) == -bsseval.SDR_CAP_DB
        report = sdr_frames(SourceWaveformSet([Waveform(ref, SR)]),
                            SourceWaveformSet([Waveform(est, SR)]), EvalConfig(filter_len=8))
        assert report.per_source_frames["source_0"] == [-bsseval.SDR_CAP_DB]

    def test_an_all_zero_estimate_scores_minus_the_cap_on_every_scored_frame(self, tmp_path):
        # its target and error energies are both 0; the target is tested first
        rng = np.random.default_rng(19)
        samples = 0.3 * rng.normal(size=(4, 2, 3 * SR // 2))
        samples[1, :, :SR // 2] = 0.0  # bass is silent in the first window
        refs = SourceWaveformSet([Waveform(s, SR) for s in samples])
        zero = SourceWaveformSet([Waveform(np.zeros_like(s), SR) for s in samples])
        want = {label: [-bsseval.SDR_CAP_DB] * 3 for label in ("drums", "bass", "other", "vocals")}
        want["bass"][0] = None
        frames = sdr_frames(refs, zero, EvalConfig(filter_len=8, win=0.5, hop=0.5))
        assert {label: [None if math.isnan(v) else v for v in values]
                for label, values in frames.per_source_frames.items()} == want
        assert main(["eval", "--estimates", str(write_stem_dir(tmp_path / "zero", zero)),
                     "--references", str(write_stem_dir(tmp_path / "refs", refs)),
                     "--out", str(tmp_path / "r.json"), "--filter-len", "8", "--win", "0.5",
                     "--hop", "0.5"]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["per_source_frames"] == want


SEGMENT_KINDS = ("noisy", "silent", "near-silent", "exact", "zero-estimate", "scaled")


def segment_scene(rng, channels, hop, tail, kinds, noise_gain):
    """(reference, estimate) built from one hop-long segment per kind and a
    tail that extends the last kind, so window k starts in segment k."""
    refs, ests = [], []
    for n, kind in zip([hop] * (len(kinds) - 1) + [hop + tail], kinds):
        ref = rng.normal(size=(channels, n))
        est = ref + noise_gain * rng.normal(size=ref.shape)
        if kind == "silent":
            ref = np.zeros_like(ref)
        elif kind == "near-silent":
            ref = 2e-7 * ref
        elif kind == "exact":
            est = ref
        elif kind == "zero-estimate":
            est = np.zeros_like(ref)
        elif kind == "scaled":
            est = 2.0 * ref
        refs.append(ref)
        ests.append(est)
    return Waveform(np.hstack(refs), SR), Waveform(np.hstack(ests), SR)


class TestClosedFormScorer:
    """`sdr_frames` scores through `BlendScorer`; the per-frame projection
    it replaced (`helpers.oracle_source_frames`) is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels=st.integers(1, 2),
        filter_len=st.integers(1, 64),
        extra=st.integers(0, 96),
        overlap=st.sampled_from([1, 2, 3]),
        kinds=st.lists(st.sampled_from(SEGMENT_KINDS), min_size=1, max_size=5),
        noise_db=st.floats(-45.0, 15.0),
    )
    def test_matches_per_frame_projection(self, seed, channels, filter_len, extra, overlap,
                                          kinds, noise_db):
        rng = np.random.default_rng(seed)
        win = filter_len + extra + 8
        hop = -(-win // overlap)
        ref, est = segment_scene(rng, channels, hop, win - hop, kinds, 10.0 ** (noise_db / 20))
        cfg = EvalConfig(filter_len, win / SR, hop / SR)
        report = sdr_frames(SourceWaveformSet([ref]), SourceWaveformSet([est]), cfg)
        (got,) = report.per_source_frames.values()
        assert len(got) == len(kinds)
        assert_frames_match_oracle(got, oracle_source_frames(ref, est, cfg))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("kind", ["tone", "two-tones", "low-pass"])
    @pytest.mark.parametrize("filter_len", [16, 64])
    def test_ill_conditioned_grams_against_long_double(self, kind, filter_len):
        rng = np.random.default_rng(filter_len)
        n = np.arange(3 * 1024)
        phase = 2 * np.pi * n / SR
        if kind == "tone":
            ref = np.sin(440.0 * phase)[None]
        elif kind == "two-tones":
            ref = np.stack([np.sin(440.0 * phase + 0.3),
                            np.sin(1000.0 * phase) + 0.5 * np.cos(60.0 * phase)])
        else:  # noise low-passed at 100 Hz
            spec = np.fft.rfft(rng.normal(size=(2, n.size)))
            spec[:, np.fft.rfftfreq(n.size, 1 / SR) > 100.0] = 0.0
            ref = np.fft.irfft(spec, n.size)
        est = ref + 0.05 * np.std(ref) * rng.normal(size=ref.shape)
        cfg = EvalConfig(filter_len, 1024 / SR, 512 / SR)
        reference, estimate = Waveform(ref, SR), Waveform(est, SR)
        new = sdr_frames(SourceWaveformSet([reference]), SourceWaveformSet([estimate]), cfg)
        (new,) = new.per_source_frames.values()
        old = oracle_source_frames(reference, estimate, cfg)
        for window, got, want in zip(bsseval._windows(reference, cfg), new, old):
            exact = longdouble_frame_sdr(ref[:, window], est[:, window], filter_len)
            assert abs(got - exact) <= abs(want - exact) + 1e-11

    @pytest.mark.parametrize("noise_db", [-20.0, -40.0])
    def test_frames_above_30_db_are_rescored_by_projection(self, noise_db):
        # the closed form's rounding grows as 1 / error energy, so a frame
        # past 30 dB takes `_frame_sdr`, bitwise the oracle's
        rng = np.random.default_rng(22)
        ref = Waveform(rng.normal(size=(2, 2048)), SR)
        est = Waveform(ref.samples + 10.0 ** (noise_db / 20) * rng.normal(size=(2, 2048)), SR)
        cfg = EvalConfig(filter_len=32, win=2048 / SR, hop=2048 / SR)
        report = sdr_frames(SourceWaveformSet([ref]), SourceWaveformSet([est]), cfg)
        (got,) = report.per_source_frames.values()
        want = oracle_source_frames(ref, est, cfg)
        assert_frames_match_oracle(got, want)
        assert (got == want) == (noise_db < -30.0)

    @pytest.mark.parametrize("noise_db", [20.0, 26.0, 29.0])
    def test_good_estimates_match_projection_at_512_taps(self, noise_db):
        # band-limited stereo references (a -30 dB floor outside each band) make
        # the worst-conditioned Grams; frames just short of the 30 dB rescoring
        # are where the solver's rounding shows most in the reported SDR
        rng = np.random.default_rng(int(noise_db))
        length = 3 * SR
        freqs = np.fft.rfftfreq(length, 1 / SR)
        refs, ests = [], []
        for lo, hi in [(0, 250), (250, 2000), (2000, 8000), (8000, SR)]:
            gain = np.where((freqs >= lo) & (freqs < hi), 1.0, 10 ** (-30 / 20))
            ref = np.fft.irfft(np.fft.rfft(rng.normal(size=(2, length))) * gain, length)
            ref[1] += 0.5 * ref[0]
            refs.append(Waveform(ref, SR))
            noise = np.std(ref) * 10 ** (-noise_db / 20) * rng.normal(size=ref.shape)
            ests.append(Waveform(ref + noise, SR))
        cfg = EvalConfig(filter_len=512)
        report = sdr_frames(SourceWaveformSet(refs), SourceWaveformSet(ests), cfg)
        for got, ref, est in zip(report.per_source_frames.values(), refs, ests):
            assert_frames_match_oracle(got, oracle_source_frames(ref, est, cfg))

    def test_search_ranks_40_db_blends_without_projection(self, monkeypatch):
        # a search rescores only past ~50 dB, so good models cost no projection
        # per column; reporting one such frame does take one
        calls = []
        frame_sdr = bsseval._frame_sdr
        monkeypatch.setattr(bsseval, "_frame_sdr",
                            lambda *args: calls.append(args) or frame_sdr(*args))
        rng = np.random.default_rng(23)
        ref = Waveform(rng.normal(size=(2, 2048)), SR)
        stems = [SourceWaveformSet([Waveform(ref.samples + 0.01 * rng.normal(size=(2, 2048)), SR)])
                 for _ in range(2)]
        cfg = EvalConfig(filter_len=32, win=1024 / SR, hop=1024 / SR)
        scorer = bsseval.BlendScorer(SourceWaveformSet([ref]), stems, cfg)
        scores = scorer.median_sdr([[1.0, 0.0], [0.5, 0.5]])
        assert np.all(scores > 39.0) and calls == []
        sdr_frames(SourceWaveformSet([ref]), stems[0], cfg)
        assert len(calls) == 2

    def test_no_gram_or_dense_solve_for_well_conditioned_frames(self, monkeypatch):
        calls = []
        solve, gram = np.linalg.solve, bsseval._gram
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append("solve") or solve(*args))
        monkeypatch.setattr(bsseval, "_gram", lambda *args: calls.append("gram") or gram(*args))
        rng = np.random.default_rng(18)
        refs = make_waveform_set(rng, channels=2, length=4 * 512)
        noisy = SourceWaveformSet([Waveform(s.samples + 0.3 * rng.normal(size=s.samples.shape), SR)
                                   for s in refs.sources])
        cfg = EvalConfig(filter_len=48, win=1024 / SR, hop=512 / SR)
        report = sdr_frames(refs, noisy, cfg)
        assert calls == []
        for label, ref, est in zip(report.per_source_frames, refs.sources, noisy.sources):
            assert_frames_match_oracle(report.per_source_frames[label],
                                       oracle_source_frames(ref, est, cfg))

    def test_broken_down_recursion_takes_the_dense_path(self, monkeypatch):
        flags, grams, reads, reads_in_solve = [], [], [], []
        levinson, gram, solve, frames = (bsseval._levinson, bsseval._gram,
                                         bsseval.BlendScorer._solve, Waveform.frames)

        def reflection_beyond_one(first_row, rhs):
            first_row = first_row.copy()
            first_row[0, 1] = 2.0 * first_row[0, 0]  # the first system's rho_1 is -2
            coef, ok = levinson(first_row, rhs)
            flags.append(ok)
            return coef, ok

        monkeypatch.setattr(bsseval, "_levinson", reflection_beyond_one)
        monkeypatch.setattr(bsseval, "_gram", lambda *args: grams.append(args) or gram(*args))

        def solve_counting_reads(scorer, *args):
            before = len(reads)
            done = solve(scorer, *args)
            reads_in_solve.append(len(reads) - before)
            return done

        monkeypatch.setattr(bsseval.BlendScorer, "_solve", solve_counting_reads)
        monkeypatch.setattr(Waveform, "frames",
                            lambda *args, **kwargs: reads.append(1) or frames(*args, **kwargs))
        rng = np.random.default_rng(19)
        ref = Waveform(rng.normal(size=(2, 3 * 256)), SR)
        est = Waveform(ref.samples + 0.2 * rng.normal(size=ref.samples.shape), SR)
        cfg = EvalConfig(filter_len=12, win=256 / SR, hop=256 / SR)
        report = sdr_frames(SourceWaveformSet([ref]), SourceWaveformSet([est]), cfg)
        assert [list(ok) for ok in flags] == [[False] + [True] * 5]
        assert len(grams) == 1
        # the Gram of the first window's channel 0 comes from its lags in hand, not a re-read
        r = ref.samples[0, :256]
        acf = np.array([np.dot(r[:256 - d], r[d:]) for d in range(12)])
        (lags,) = grams[0]
        assert lags.shape == (1, 1, 12)
        assert np.all(np.abs(lags[0, 0] - acf) <= 1e-12 * np.dot(r, r))
        assert reads_in_solve == [0]
        (got,) = report.per_source_frames.values()
        assert_frames_match_oracle(got, oracle_source_frames(ref, est, cfg))

    def test_levinson_matches_dense_solve(self):
        rng = np.random.default_rng(20)
        signals = rng.normal(size=(5, 300))
        taps = 24
        first_row = np.array([[np.dot(x[:300 - d], x[d:]) for d in range(taps)]
                              for x in signals])
        rhs = rng.normal(size=(5, 3, taps))
        coef, ok = bsseval._levinson(first_row, rhs)
        assert ok.all()
        lags = np.abs(np.subtract.outer(np.arange(taps), np.arange(taps)))
        for s in range(5):
            want = np.linalg.solve(first_row[s][lags], rhs[s].T).T
            np.testing.assert_allclose(coef[s], want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
        indefinite = np.array([[1.0, 0.9, 0.1, 0.0]])  # rho_2 = 0.71 / 0.19: not positive definite
        assert not bsseval._levinson(indefinite, np.ones((1, 1, 4)))[1][0]

    @pytest.mark.parametrize("taps", [1, 2, 3, 33, 512])  # at 1 Durbin runs no step, at 2 one
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(["noise", "zero-padded"]), min_size=1, max_size=3))
    def test_levinson_matches_dense_solve_at_any_taps(self, taps, seed, count, kinds):
        # a "zero-padded" reference is a 13-tap binomial kernel and zeros: from 33
        # taps on its Toeplitz is positive definite only through the GRAM_REG ridge
        rng = np.random.default_rng(seed)
        n = taps + 40
        first_row, rhs = np.empty((len(kinds), taps)), np.empty((len(kinds), count, taps))
        for s, kind in enumerate(kinds):
            ref = rng.normal(size=n)
            if kind == "zero-padded":
                ref[:13] = rng.normal() * np.array([math.comb(12, i) for i in range(13)])
                ref[13:] = 0.0
            ests = rng.normal(size=(count, n)) + [np.convolve(ref, rng.normal(size=5))[:n]
                                                  for _ in range(count)]
            first_row[s] = [np.dot(ref[:n - d], ref[d:]) for d in range(taps)]
            rhs[s] = [[np.dot(ref[:n - d], e[d:]) for d in range(taps)] for e in ests]
        ridge = bsseval.GRAM_REG * first_row[:, 0]
        first_row[:, 0] += ridge
        coef, ok = bsseval._levinson(first_row, rhs)
        assert ok.all()
        lags = np.abs(np.subtract.outer(np.arange(taps), np.arange(taps)))
        for s, kind in enumerate(kinds):
            gram = first_row[s][lags]
            want = np.linalg.solve(gram, rhs[s].T).T
            if kind == "noise":
                np.testing.assert_allclose(coef[s], want, rtol=1e-10,
                                           atol=1e-12 * np.abs(want).max())
            elif taps >= 33:
                assert np.linalg.eigvalsh(gram).min() < 2.0 * ridge[s]
            # backward error: x solves a Gram within 1e-14 of this one, so the
            # energy b^T x the scorer forms is within 1e-14 |G| |x|^2 even where
            # x itself is ill-determined
            norm, size = np.linalg.norm(gram, 2), np.linalg.norm(coef[s], axis=1)
            residual = np.linalg.norm(rhs[s] - coef[s] @ gram, axis=1)
            assert np.all(residual <= 1e-14 * norm * size)
            energy, dense = np.sum(rhs[s] * coef[s], axis=1), np.sum(rhs[s] * want, axis=1)
            assert np.all(np.abs(energy - dense) <= 1e-14 * norm * size ** 2)
            # a system's x does not depend on the batch it is solved in
            alone, _ = bsseval._levinson(first_row[s:s + 1], rhs[s:s + 1])
            assert alone.tobytes() == coef[s].tobytes()

    @pytest.mark.parametrize("length, filter_len, ok", [
        (3 * 1024, 1024, True), (3 * 1024, 1025, False), (700, 700, True), (700, 701, False),
    ])
    def test_filter_longer_than_the_frame_is_rejected(self, length, filter_len, ok):
        rng = np.random.default_rng(21)
        refs = make_waveform_set(rng, channels=1, length=length)
        cfg = EvalConfig(filter_len=filter_len, win=1024 / SR, hop=1024 / SR)
        if ok:
            assert sdr_frames(refs, refs, cfg).overall_avg == 300.0
        else:
            with pytest.raises(ValueError, match=f"filter_len {filter_len} exceeds"):
                sdr_frames(refs, refs, cfg)


class TestBlockedScorer:
    """Windows longer than one overlap-save block, and every source in one
    scorer; `oracle_source_frames` and direct dot products are the oracles."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels=st.integers(1, 2),
        count=st.integers(1, 3),
        taps=st.integers(1, 48),
        widen=st.integers(0, 2),
        blocks=st.integers(1, 3),
        tail=st.floats(0.0, 1.0, exclude_max=True),
        silent=st.lists(st.booleans(), min_size=2, max_size=2),
    )
    def test_block_lags_match_direct_correlation(self, seed, channels, count, taps, widen,
                                                 blocks, tail, silent):
        nfft = 1 << ((taps - 1).bit_length() + widen)  # any power of two >= taps
        step = nfft - taps + 1
        n = (blocks - 1) * step + 1 + int(tail * step)  # 1 to 3 blocks, the last partial or full
        if n < taps:
            n = taps  # the scorer rejects a filter longer than the window
        blocks = -(-n // step)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(count + 1, channels, n))
        for c in range(channels):
            if silent[c]:
                x[c % (count + 1), c] = 0.0  # silences the reference or one signal
        padded = np.zeros((count + 1, channels, blocks * step + taps - 1))
        padded[..., :n] = x
        got = bsseval._block_lags(padded, nfft, step, taps)
        want = np.array([[[np.dot(x[0, c, :n - d], x[k, c, d:]) for d in range(taps)]
                          for c in range(channels)] for k in range(count + 1)])
        scale = np.linalg.norm(x[0], axis=-1)[None, :, None] * np.linalg.norm(x, axis=-1)[..., None]
        assert np.all(np.abs(got - want) <= 1e-12 * scale)  # exactly 0 for a silent channel

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        refs=st.integers(1, 3),
        channels=st.integers(1, 3),
        silent=st.integers(-1, 2),
        taps=st.integers(1, 48),
        n=st.integers(1, 400),
    )
    def test_gram_and_rhs_match_the_delay_matrix(self, seed, refs, channels, silent, taps, n):
        # each further reference is a filtered copy of the first plus noise, so
        # the lags of (i, k) and (k, i) differ; windows shorter than the filter too;
        # channel `silent`, if there is one, is zero in every signal
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(refs + 1, channels, n))
        for i, c in np.ndindex(refs, channels):
            x[i + 1, c] = 0.5 * x[i + 1, c] + np.convolve(x[0, c], rng.normal(size=4 + i * 3))[:n]
        if silent < channels:
            x[:, silent] = 0.0
        lags = bsseval._pair_lags(x, refs, taps)
        assert lags.shape == (channels, refs, refs + 1, taps)
        grams = bsseval._gram(lags[:, :, :refs])
        rhs = lags[:, :, refs].reshape(channels, -1)  # the right-hand sides of `_projection`
        for c in range(channels):
            delays = np.hstack([dense_delay_matrix(r, taps) for r in x[:refs, c]])
            energy = np.sum(x[:, c] ** 2)  # 0 for the silent channel: its lags are exact zeros
            assert np.all(np.abs(grams[c] - delays.T @ delays) <= 1e-12 * energy)
            est = np.concatenate([x[refs, c], np.zeros(taps - 1)])
            assert np.all(np.abs(rhs[c] - delays.T @ est) <= 1e-12 * energy)

    @pytest.mark.parametrize("n, taps, want", [
        (5000, 64, (1024, 961)), (5000, 512, (2048, 1537)), (44100, 32, (1024, 993)),
        (44100, 512, (2048, 1537)), (962, 64, (1024, 961)), (100, 64, (256, 193)),
    ])
    def test_block_plan(self, n, taps, want):
        # a power of two from the taps alone; a window that fits in a smaller
        # power of two >= n + taps - 1 is one block of that size
        assert bsseval._block_plan(n, taps) == want

    @pytest.mark.parametrize("filter_len", [64, 512])
    def test_long_windows_match_per_frame_projection(self, filter_len, monkeypatch):
        # 5000-sample windows span 4 to 6 blocks; each source is silent in
        # another window, and one system is forced onto the dense solve
        grams, levinson, gram = [], bsseval._levinson, bsseval._gram

        def first_system_breaks_down(first_row, rhs):
            coef, ok = levinson(first_row, rhs)
            coef[0] *= 0.5  # garbage that the dense solve must replace
            ok[0] = False
            return coef, ok

        monkeypatch.setattr(bsseval, "_levinson", first_system_breaks_down)
        monkeypatch.setattr(bsseval, "_gram", lambda *args: grams.append(args) or gram(*args))
        rng = np.random.default_rng(filter_len)
        win = 5000
        refs, ests = [], []
        for j in range(3):
            ref = rng.normal(size=(2, 3 * win + 123))
            ref[:, j * win:(j + 1) * win] = 0.0
            refs.append(Waveform(ref, SR))
            ests.append(Waveform(ref + 0.2 * rng.normal(size=ref.shape), SR))
        cfg = EvalConfig(filter_len, win / SR, win / SR)
        report = sdr_frames(SourceWaveformSet(refs), SourceWaveformSet(ests), cfg)
        assert len(grams) == 1
        for got, ref, est in zip(report.per_source_frames.values(), refs, ests):
            assert_frames_match_oracle(got, oracle_source_frames(ref, est, cfg))
        nan = [[math.isnan(v) for v in values] for values in report.per_source_frames.values()]
        assert nan == np.eye(3, dtype=bool).tolist()

    def test_a_source_scores_the_same_alone_or_with_others(self):
        rng = np.random.default_rng(24)
        refs = make_waveform_set(rng, channels=2, length=3 * 3000)
        silent = refs.sources[2].samples.copy()
        silent[:, :3000] = 0.0
        refs = SourceWaveformSet(refs.sources[:2] + [Waveform(silent, SR)] + refs.sources[3:])
        models = [SourceWaveformSet([Waveform(s.samples + gain * rng.normal(size=s.samples.shape),
                                              SR) for s in refs.sources])
                  for gain in (0.1, 0.4)]
        cfg = EvalConfig(filter_len=40, win=3000 / SR, hop=1500 / SR)
        columns = [[1.0, 0.0], [0.3, 0.7], [0.5, 0.5]]
        together = bsseval.BlendScorer(refs, models, cfg).frame_sdr(columns)
        for j in range(refs.num_sources):
            alone = bsseval.BlendScorer(SourceWaveformSet([refs.sources[j]]),
                                        [SourceWaveformSet([m.sources[j]]) for m in models], cfg)
            np.testing.assert_array_equal(alone.frame_sdr(columns)[0], together[j])
        report = sdr_frames(refs, models[0], cfg)
        for j, values in enumerate(report.per_source_frames.values()):
            single = sdr_frames(SourceWaveformSet([refs.sources[j]]),
                                SourceWaveformSet([models[0].sources[j]]), cfg)
            np.testing.assert_array_equal(*single.per_source_frames.values(), values)


class TestMedian:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.lists(st.one_of(st.floats(-300.0, 300.0), st.just(math.nan)),
                                    min_size=3, max_size=3), min_size=1, max_size=9))
    def test_sort_median_is_np_median_bit_for_bit(self, values):
        values = np.array(values)
        np.testing.assert_array_equal(bsseval._median(values), np.median(values, axis=0))
        for column in values.T:
            kept = column[~np.isnan(column)]
            want = float(np.median(kept)) if kept.size else math.nan
            np.testing.assert_array_equal(bsseval._median_ignoring_nan(column), want)

    def test_eval_does_not_import_numpy_ma(self, tmp_path):
        rng = np.random.default_rng(25)
        refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=4096, scale=0.3))
        script = (
            "import sys\n"
            "from stemfuse.cli import main\n"
            f"code = main(['eval', '--estimates', {str(refs)!r}, '--references', {str(refs)!r},"
            f" '--out', {str(tmp_path / 'r.json')!r}, '--filter-len', '8'])\n"
            "assert code == 0 and 'numpy.ma' not in sys.modules, code\n"
        )
        python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestMedianSdr:
    def test_agrees_with_full_report(self):
        # stereo, five 1024-sample windows, bass silent in the second one
        rng = np.random.default_rng(13)
        refs = make_waveform_set(rng, channels=2, length=5 * 1024)
        bass = refs.sources[1].samples.copy()
        bass[:, 1024:2048] = 0.0
        refs = SourceWaveformSet([refs.sources[0], Waveform(bass, SR)] + refs.sources[2:])
        noisy = SourceWaveformSet(
            [Waveform(s.samples + 0.1 * rng.normal(size=s.samples.shape), SR)
             for s in refs.sources]
        )
        cfg = EvalConfig(filter_len=4, win=1024 / SR, hop=1024 / SR)
        report = sdr_frames(refs, noisy, cfg)
        assert math.isnan(report.per_source_frames["bass"][1])
        got = [median_sdr(refs, est, j, cfg) for j, est in enumerate(noisy.sources)]
        np.testing.assert_array_equal(got, list(report.per_source_median.values()))

    def test_estimate_channels_must_match(self):
        rng = np.random.default_rng(14)
        refs = make_waveform_set(rng, channels=2, length=512)
        cfg = full_window_cfg(512, filter_len=2)
        left = refs.sources[0].samples[:1]
        for samples in (left, np.vstack([refs.sources[0].samples, left])):
            with pytest.raises(ShapeMismatch):
                median_sdr(refs, Waveform(samples, SR), 0, cfg)

    def test_source_index_out_of_range(self):
        rng = np.random.default_rng(15)
        refs = make_waveform_set(rng, channels=1, length=512)
        for index in (-1, 4, 1.0, np.float64(1), True, "1", None):
            with pytest.raises(ValueError, match="source_index .* out of range"):
                median_sdr(refs, refs.sources[0], index, full_window_cfg(512))
            with pytest.raises(ValueError, match="source_index .* out of range"):
                project_subspace(refs, refs.sources[0], 4, index)


class TestAggregate:
    @staticmethod
    def report_with_medians(medians):
        labels = ("drums", "bass", "other", "vocals")
        per_source = dict(zip(labels, medians))
        return SdrReport(
            per_source_frames={k: [v] for k, v in per_source.items()},
            per_source_median=per_source,
            overall_avg=float(np.mean(medians)),
        )

    def test_single_track_passthrough(self):
        report = self.report_with_medians([1.0, 2.0, 3.0, 4.0])
        agg = aggregate([report])
        assert agg.per_source_median == report.per_source_median
        assert agg.overall_avg == report.overall_avg

    def test_odd_count_median(self):
        reports = [
            self.report_with_medians([1.0, 1.0, 1.0, 1.0]),
            self.report_with_medians([2.0, 2.0, 2.0, 2.0]),
            self.report_with_medians([9.0, 9.0, 9.0, 9.0]),
        ]
        agg = aggregate(reports)
        assert agg.per_source_median["drums"] == 2.0

    def test_average_of_fixed_medians(self):
        # mean of (7.2, 7.05, 5.2, 7.63) is 6.77
        agg = aggregate([self.report_with_medians([7.2, 7.05, 5.2, 7.63])])
        assert agg.overall_avg == pytest.approx(6.77, abs=0.005)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate([])


class TestSerialization:
    def test_json_roundtrip_with_nan(self, tmp_path):
        report = SdrReport(
            per_source_frames={"drums": [1.5, math.nan], "bass": [2.0, 3.0],
                               "other": [0.0, 0.5], "vocals": [4.0, 5.0]},
            per_source_median={"drums": 1.5, "bass": 2.5, "other": 0.25, "vocals": 4.5},
            overall_avg=2.1875,
        )
        payload = report_to_json_dict(report)
        assert payload["per_source_frames"]["drums"][1] is None
        path = tmp_path / "report.json"
        save_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["per_source_median"]["bass"] == 2.5
        assert loaded["overall_avg"] == 2.1875

    def test_csv_column_order(self, tmp_path):
        report = TestAggregate.report_with_medians([7.2, 7.05, 5.2, 7.63])
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "Drums,Bass,Other,Vocals,Avg"
        values = [float(v) for v in lines[1].split(",")]
        assert values == pytest.approx([7.2, 7.05, 5.2, 7.63, 6.77])
        path = tmp_path / "table.csv"
        save_report_csv(report, path)
        assert path.read_text() == text


class TestEvalConfigTypes:
    def test_numpy_integer_filter_len_is_stored_as_int_and_scores(self):
        cfg = EvalConfig(filter_len=np.int64(4), win=np.float64(256 / SR), hop=256 / SR)
        assert type(cfg.filter_len) is int and cfg == EvalConfig(4, 256 / SR, 256 / SR)
        refs = make_waveform_set(np.random.default_rng(30), length=512, scale=0.3)
        want = sdr_frames(refs, refs, EvalConfig(4, 256 / SR, 256 / SR))
        assert sdr_frames(refs, refs, cfg) == want
        parts = project_subspace(refs, refs.sources[1], np.int64(4), np.int64(1))
        np.testing.assert_array_equal(parts, project_subspace(refs, refs.sources[1], 4, 1))

    @pytest.mark.parametrize("filter_len", [2.5, 16.0, np.float64(16), True, np.bool_(True),
                                            "16", None, 0, -3])
    def test_filter_len_that_is_no_positive_integer_is_a_value_error(self, filter_len):
        with pytest.raises(ValueError, match="filter_len must be an integer"):
            EvalConfig(filter_len=filter_len)
        refs = make_waveform_set(np.random.default_rng(31), channels=1, length=64)
        with pytest.raises(ValueError, match="filter_len must be an integer"):
            project_subspace(refs, refs.sources[0], filter_len, 0)

    @pytest.mark.parametrize("field", ["win", "hop"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1.0", 1j, None,
                                       math.nan, math.inf, 0.0, -1.0])
    def test_win_or_hop_that_is_no_positive_real_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match="win/hop must be finite and positive"):
            EvalConfig(filter_len=4, **{field: value})
