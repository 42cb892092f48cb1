import json
import math

import numpy as np
import pytest

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
from stemfuse.errors import (
    EmptyInput,
    LengthMismatch,
    SampleRateMismatch,
    ShapeMismatch,
    SilentReference,
)

from helpers import dense_frame_sdr, dense_projection, make_waveform_set

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
        rng = np.random.default_rng(4)
        stems = [Waveform(rng.normal(size=(1, 64)), SR) for _ in range(2)]
        refs = SourceWaveformSet(stems)
        estimate = Waveform(rng.normal(size=(1, 64)), SR)
        filter_len = 8
        s_target, e_interf, _ = project_subspace(refs, estimate, filter_len, 0)
        stacked = refs.stacked()
        want_target = dense_projection(stacked[0:1, 0], estimate.samples[0], filter_len)
        want_all = dense_projection(stacked[:, 0], estimate.samples[0], filter_len)
        assert np.max(np.abs(s_target[0] - want_target)) < 1e-8
        assert np.max(np.abs((e_interf + s_target)[0] - want_all)) < 1e-8

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
        for index in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                median_sdr(refs, refs.sources[0], index, full_window_cfg(512))


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
