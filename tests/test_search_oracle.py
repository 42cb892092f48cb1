"""The closed-form blend-weight search against the brute-force oracle
that synthesises every simplex column and runs median_sdr on it."""

import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from stemfuse import EvalConfig, SourceWaveformSet, Waveform, search_weights
from stemfuse.bsseval import SDR_CAP_DB, BlendScorer

from helpers import brute_force_column_scores, tie_rule_pick

SR = 44100
SCORE_TOL_DB = 1e-9


def noisy_models(rng, refs, noise_scales):
    return [
        SourceWaveformSet([Waveform(s.samples + scale * rng.normal(size=s.samples.shape), SR)
                           for s in refs.sources])
        for scale in noise_scales
    ]


def assert_matches_oracle(models, refs, grid_step, cfg):
    steps = round(1 / grid_step)
    chosen = search_weights(models, refs, grid_step=grid_step, eval_config=cfg)
    scorer = BlendScorer(refs, models, cfg)
    for j in range(refs.num_sources):
        columns, want = brute_force_column_scores(models, refs, j, steps, cfg)
        got = scorer.median_sdr(np.asarray(columns) / steps)[j]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        kept = ~np.isnan(want)
        assert np.all(np.abs(got[kept] - want[kept]) <= SCORE_TOL_DB)
        pick = columns[tie_rule_pick(want)]
        assert np.array_equal(chosen.weights[:, j], np.asarray(pick) / steps)
    return chosen


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_models=st.integers(1, 3),
    channels=st.integers(1, 2),
    filter_len=st.integers(1, 8),
    grid_step=st.sampled_from([0.5, 0.25, 0.1]),
    frames=st.integers(1, 3),
    noise_db=st.lists(st.floats(-60.0, 10.0), min_size=3, max_size=3),
)
def test_closed_form_matches_brute_force(seed, num_models, channels, filter_len, grid_step,
                                         frames, noise_db):
    rng = np.random.default_rng(seed)
    win = 96
    refs = SourceWaveformSet(
        [Waveform(rng.normal(size=(channels, frames * win + 17)), SR) for _ in range(2)]
    )
    scales = [10.0 ** (db / 20.0) for db in noise_db[:num_models]]
    models = noisy_models(rng, refs, scales)
    assert_matches_oracle(models, refs, grid_step, EvalConfig(filter_len, win / SR, win / SR))


class TestEdgeCases:
    cfg = EvalConfig(filter_len=4, win=128 / SR, hop=128 / SR)

    def refs(self, rng, channels=2, length=384):
        return SourceWaveformSet(
            [Waveform(rng.normal(size=(channels, length)), SR) for _ in range(3)]
        )

    def test_zero_reference_channel(self):
        rng = np.random.default_rng(0)
        refs = self.refs(rng)
        refs.sources[1].samples[1] = 0.0
        assert_matches_oracle(noisy_models(rng, refs, [0.3, 0.6, 1.0]), refs, 0.25, self.cfg)

    def test_source_silent_in_every_frame_falls_back_to_uniform_lex(self):
        rng = np.random.default_rng(1)
        refs = self.refs(rng)
        refs.sources[2].samples[:] = 0.0
        models = noisy_models(rng, refs, [0.3, 0.6])
        chosen = assert_matches_oracle(models, refs, 0.5, self.cfg)
        assert np.array_equal(chosen.weights[:, 2], [0.0, 1.0])

    def test_model_equal_to_reference_hits_sentinel(self):
        rng = np.random.default_rng(2)
        refs = self.refs(rng)
        models = [refs] + noisy_models(rng, refs, [0.5])
        chosen = assert_matches_oracle(models, refs, 0.25, self.cfg)
        assert np.all(chosen.weights[0] == 1.0)
        scores = BlendScorer(refs, models, self.cfg).median_sdr([[1.0, 0.0]])
        assert scores[0, 0] == SDR_CAP_DB

    def test_all_zero_stem(self):
        rng = np.random.default_rng(3)
        refs = self.refs(rng)
        zero = SourceWaveformSet([Waveform(np.zeros_like(s.samples), SR) for s in refs.sources])
        chosen = assert_matches_oracle([zero] + noisy_models(rng, refs, [0.4, 0.8]), refs, 0.25,
                                       self.cfg)
        # _frame_sdr checks the target energy (0) before the error energy,
        # so a zero blend scores -300 dB and the zero stem is never chosen
        assert np.all(chosen.weights[0] == 0.0)

    def test_rounding_level_differences_tie(self):
        # every column blends the same noisy stem, so scores differ only by
        # rounding and the tie goes to the lexicographically smallest column
        rng = np.random.default_rng(6)
        refs = self.refs(rng)
        noisy = noisy_models(rng, refs, [0.5])[0]
        chosen = assert_matches_oracle([noisy, noisy, noisy], refs, 0.1, self.cfg)
        assert np.all(chosen.weights[:2] == 0.0) and np.all(chosen.weights[2] == 1.0)

    def test_near_perfect_blend(self):
        # the two models' noises cancel at 50/50, so that column's error
        # form is pure rounding and the frame is rescored on the blend
        rng = np.random.default_rng(4)
        refs = self.refs(rng)
        noise = [1e-3 * rng.normal(size=s.samples.shape) for s in refs.sources]
        models = [SourceWaveformSet([Waveform(s.samples + sign * n, SR)
                                     for s, n in zip(refs.sources, noise)])
                  for sign in (1.0, -1.0)]
        chosen = assert_matches_oracle(models, refs, 0.25, self.cfg)
        assert np.all(chosen.weights == 0.5)


def test_column_block_size_does_not_change_the_choice(monkeypatch):
    rng = np.random.default_rng(5)
    refs = SourceWaveformSet([Waveform(rng.normal(size=(1, 512)), SR) for _ in range(2)])
    models = noisy_models(rng, refs, [0.5, 0.7, 1.0])
    cfg = EvalConfig(filter_len=3, win=256 / SR, hop=256 / SR)
    whole = search_weights(models, refs, grid_step=0.1, eval_config=cfg)
    monkeypatch.setattr(sys.modules["stemfuse.blend"], "_COLUMN_BLOCK", 7)
    blocked = search_weights(models, refs, grid_step=0.1, eval_config=cfg)
    assert np.array_equal(whole.weights, blocked.weights)
