import sys

import numpy as np
import pytest

from stemfuse import (
    EvalConfig,
    SourceWaveformSet,
    Waveform,
    blend,
    default_weights,
    load_weights,
    median_sdr,
    save_weights,
    search_weights,
    validate_weights,
)
from stemfuse.errors import (
    ColumnSumViolation,
    ModelCountMismatch,
    NegativeWeight,
    SampleRateMismatch,
    ShapeMismatch,
)

from helpers import make_waveform_set

blend_module = sys.modules["stemfuse.blend"]

SR = 44100

TABLE_WEIGHTS = [
    [0.2, 0.1, 0.0, 0.2],
    [0.2, 0.17, 0.5, 0.4],
    [0.6, 0.73, 0.5, 0.4],
]


def constant_stem_set(values, length=16, channels=1):
    return SourceWaveformSet(
        [Waveform(np.full((channels, length), v, dtype=float), SR) for v in values]
    )


class TestValidateWeights:
    def test_shipped_table_accepted(self):
        w = validate_weights(TABLE_WEIGHTS, model_names=("xumx", "unet", "demucs"))
        assert w.num_models == 3 and w.num_sources == 4
        assert np.allclose(w.weights.sum(axis=0), 1.0, atol=1e-9)

    def test_single_model_identity_columns(self):
        w = validate_weights([[1.0, 1.0, 1.0, 1.0]])
        assert w.num_models == 1

    def test_one_hot_columns_accepted(self):
        one_hot = [[1.0] * 4, [0.0] * 4, [0.0] * 4]
        w = validate_weights(one_hot)
        assert np.array_equal(w.weights, np.asarray(one_hot))

    def test_column_sum_violation_names_source(self):
        bad = [[0.5, 0.25, 0.25, 0.25], [0.5, 0.25, 0.25, 0.25], [0.5, 0.5, 0.5, 0.5]]
        with pytest.raises(ColumnSumViolation, match="drums"):
            validate_weights(bad)

    def test_negative_weight_rejected(self):
        bad = [[1.2, 0.5, 0.5, 0.5], [-0.2, 0.5, 0.5, 0.5]]
        with pytest.raises(NegativeWeight):
            validate_weights(bad)

    def test_non_finite_rejected(self):
        bad = [[np.nan, 0.5, 0.5, 0.5], [1.0, 0.5, 0.5, 0.5]]
        with pytest.raises(ValueError):
            validate_weights(bad)

    def test_no_silent_renormalization(self):
        with pytest.raises(ColumnSumViolation):
            validate_weights([[0.5, 0.5, 0.5, 0.5], [0.51, 0.5, 0.5, 0.5]])


class TestDefaultWeights:
    def test_columns_sum_to_one_tightly(self):
        w = default_weights()
        assert list(w.model_names) == ["xumx", "unet", "demucs"]
        assert list(w.source_names) == ["drums", "bass", "other", "vocals"]
        assert np.max(np.abs(w.weights.sum(axis=0) - 1.0)) <= 1e-9

    def test_file_roundtrip(self, tmp_path):
        w = default_weights()
        path = tmp_path / "w.json"
        save_weights(w, path)
        back = load_weights(path)
        assert np.array_equal(back.weights, w.weights)
        assert back.model_names == w.model_names


class TestBlend:
    def test_identical_models_fixed_point(self):
        rng = np.random.default_rng(0)
        stems = make_waveform_set(rng)
        w = validate_weights(TABLE_WEIGHTS)
        fused = blend([stems, stems, stems], w)
        for got, want in zip(fused.sources, stems.sources):
            assert np.max(np.abs(got.samples - want.samples)) < 1e-12

    def test_default_drums_column_arithmetic(self):
        # drums weights (0.2, 0.2, 0.6) over constant drum stems 1, 1, 0
        model_a = constant_stem_set([1.0, 0.0, 0.0, 0.0])
        model_b = constant_stem_set([1.0, 0.0, 0.0, 0.0])
        model_c = constant_stem_set([0.0, 0.0, 0.0, 0.0])
        w = validate_weights(TABLE_WEIGHTS)
        fused = blend([model_a, model_b, model_c], w)
        assert np.allclose(fused.sources[0].samples, 0.4, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        sets = [make_waveform_set(rng, length=8, channels=1) for _ in range(3)]
        w = validate_weights(TABLE_WEIGHTS)
        fused = blend(sets, w)
        for j in range(4):
            for i in range(8):
                expected = sum(
                    w.weights[m, j] * sets[m].sources[j].samples[0, i] for m in range(3)
                )
                assert fused.sources[j].samples[0, i] == pytest.approx(expected, rel=1e-12)

    def test_blending_is_linear(self):
        rng = np.random.default_rng(2)
        sets = [make_waveform_set(rng, length=32) for _ in range(2)]
        w = validate_weights([[0.25] * 4, [0.75] * 4])
        scale = 2.5
        scaled_sets = [
            SourceWaveformSet([Waveform(scale * s.samples, SR) for s in stems.sources])
            for stems in sets
        ]
        base = blend(sets, w)
        scaled = blend(scaled_sets, w)
        for got, want in zip(scaled.sources, base.sources):
            assert np.max(np.abs(got.samples - scale * want.samples)) < 1e-12

    def test_model_count_mismatch(self):
        rng = np.random.default_rng(3)
        stems = make_waveform_set(rng)
        with pytest.raises(ModelCountMismatch):
            blend([stems, stems], validate_weights(TABLE_WEIGHTS))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeMismatch):
            blend(
                [make_waveform_set(rng, length=16), make_waveform_set(rng, length=8)],
                validate_weights([[0.5] * 4, [0.5] * 4]),
            )

    def test_rate_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SampleRateMismatch):
            blend(
                [
                    make_waveform_set(rng, length=16, sample_rate=44100),
                    make_waveform_set(rng, length=16, sample_rate=48000),
                ],
                validate_weights([[0.5] * 4, [0.5] * 4]),
            )


def cancellation_fixture(rng, length=4096):
    """Two models whose additive noises cancel exactly at 50/50."""
    refs = make_waveform_set(rng, channels=1, length=length)
    noise = [0.2 * rng.normal(size=(1, length)) for _ in range(4)]
    model_a = SourceWaveformSet(
        [Waveform(s.samples + n, SR) for s, n in zip(refs.sources, noise)]
    )
    model_b = SourceWaveformSet(
        [Waveform(s.samples - n, SR) for s, n in zip(refs.sources, noise)]
    )
    return refs, model_a, model_b


class TestSearchWeights:
    def full_cfg(self, length):
        return EvalConfig(filter_len=4, win=length / SR, hop=length / SR)

    def test_single_model_trivial_simplex(self):
        rng = np.random.default_rng(6)
        refs = make_waveform_set(rng, channels=1, length=2048)
        w = search_weights([refs], refs, grid_step=0.25, eval_config=self.full_cfg(2048))
        assert np.all(w.weights == 1.0)

    def test_exact_model_beats_noise_model(self):
        rng = np.random.default_rng(7)
        refs = make_waveform_set(rng, channels=1, length=2048)
        noise = SourceWaveformSet(
            [Waveform(rng.normal(size=(1, 2048)), SR) for _ in range(4)]
        )
        w = search_weights([refs, noise], refs, grid_step=0.5,
                           eval_config=self.full_cfg(2048))
        assert np.all(w.weights[0] == 1.0)
        assert np.all(w.weights[1] == 0.0)

    def test_complementary_noise_selects_midpoint(self):
        rng = np.random.default_rng(8)
        refs, model_a, model_b = cancellation_fixture(rng)
        w = search_weights([model_a, model_b], refs, grid_step=0.5,
                           eval_config=self.full_cfg(4096))
        assert np.all(w.weights == 0.5)

    def test_fusion_beats_both_parts(self):
        rng = np.random.default_rng(9)
        refs, model_a, model_b = cancellation_fixture(rng)
        cfg = self.full_cfg(4096)
        fused = blend([model_a, model_b], validate_weights([[0.5] * 4, [0.5] * 4]))
        for j in range(4):
            fused_sdr = median_sdr(refs, fused.sources[j], j, cfg)
            sdr_a = median_sdr(refs, model_a.sources[j], j, cfg)
            sdr_b = median_sdr(refs, model_b.sources[j], j, cfg)
            assert fused_sdr > sdr_a and fused_sdr > sdr_b

    def test_output_passes_validation(self):
        rng = np.random.default_rng(10)
        refs, model_a, model_b = cancellation_fixture(rng, length=1024)
        w = search_weights([model_a, model_b], refs, grid_step=0.5,
                           eval_config=self.full_cfg(1024),
                           model_names=("a", "b"))
        again = validate_weights(w.weights, model_names=w.model_names)
        assert np.array_equal(again.weights, w.weights)

    def test_grid_bound_admits_grid_0001_for_three_models(self, monkeypatch):
        # 501,501 columns reach the scorer; 1e-6 (~5e11 columns) does not
        class Reached(Exception):
            pass

        def scorer(*_):
            raise Reached

        monkeypatch.setattr(blend_module.bsseval, "BlendScorer", scorer)
        refs = make_waveform_set(np.random.default_rng(12), length=64)
        with pytest.raises(Reached):
            search_weights([refs] * 3, refs, grid_step=0.001)
        with pytest.raises(ValueError, match="columns for 3 models"):
            search_weights([refs] * 3, refs, grid_step=1e-6)

    def test_rejects_grid_step_not_dividing_one(self):
        rng = np.random.default_rng(11)
        refs = make_waveform_set(rng, channels=1, length=256)
        with pytest.raises(ValueError):
            search_weights([refs], refs, grid_step=0.3)

    def test_tie_break_prefers_lexicographically_smallest(self):
        # identical models make every column equivalent; (0, ..., steps)
        # is the lexicographically smallest grid point
        rng = np.random.default_rng(12)
        refs = make_waveform_set(rng, channels=1, length=512)
        w = search_weights([refs, refs], refs, grid_step=0.5,
                           eval_config=self.full_cfg(512))
        assert np.all(w.weights[0] == 0.0)
        assert np.all(w.weights[1] == 1.0)


def scripted_choice(monkeypatch, scores, block):
    """The column `search_weights` picks for one source, two models and
    grid 1 / (len(scores) - 1), where column k, (k, steps - k) / steps,
    scores scores[k] and columns are scored `block` at a time."""
    class Scorer:
        def __init__(self, *_):
            self.offset = 0

        def median_sdr(self, columns):
            start = self.offset
            self.offset += len(columns)
            assert np.array_equal(columns[:, 0] * (len(scores) - 1), np.arange(start, self.offset))
            return np.asarray(scores[start:self.offset], dtype=np.float64)[None]

    monkeypatch.setattr(blend_module.bsseval, "BlendScorer", Scorer)
    monkeypatch.setattr(blend_module, "_COLUMN_BLOCK", block)
    refs = constant_stem_set([0.0])
    w = search_weights([refs, refs], refs, grid_step=1.0 / (len(scores) - 1))
    return round(w.weights[0, 0] * (len(scores) - 1))


@pytest.mark.parametrize("block", [1, 2, 1024])
class TestSearchTieRuleAcrossColumnBlocks:
    # the search keeps a running best per source, not every block's scores
    def test_a_later_column_within_the_tie_tolerance_loses(self, monkeypatch, block):
        scores = [float("nan"), 10.0, 10.0 + 0.6e-9, 10.0 + 0.9e-9, 9.0]
        assert scripted_choice(monkeypatch, scores, block) == 1

    def test_a_best_raised_past_the_tie_tolerance_drops_an_earlier_tie(self, monkeypatch, block):
        scores = [10.0, 10.0 + 0.5e-9, 10.0 + 1.2e-9, 10.0 + 1.3e-9, 3.0]
        assert scripted_choice(monkeypatch, scores, block) == 1
        scores = [10.0, 10.0 + 0.5e-9, 10.0 + 2e-9, 10.0 + 2e-9, float("nan")]
        assert scripted_choice(monkeypatch, scores, block) == 2

    def test_a_source_silent_in_every_frame_gets_column_0(self, monkeypatch, block):
        assert scripted_choice(monkeypatch, [float("nan")] * 5, block) == 0
