import json
import struct

import numpy as np
import pytest

from stemfuse import (
    ModelEntry,
    MwfConfig,
    PipelineConfig,
    SourceWaveformSet,
    StftConfig,
    Waveform,
    load_pipeline_config,
    load_stem_dir,
    read_magnitudes,
    run,
    stft,
    validate_weights,
    write_magnitudes,
)
from stemfuse.errors import (
    LengthMismatch,
    MalformedHeader,
    MissingStem,
    NonFiniteSamples,
    SampleRateMismatch,
    ShapeMismatch,
    TruncatedData,
    WeightModelMismatch,
)

from helpers import make_waveform, make_waveform_set, write_stem_dir

SR = 44100
CFG = StftConfig(fft_size=512, hop=128)


def identity_weights(num_models=1):
    rows = np.full((num_models, 4), 1.0 / num_models)
    return validate_weights(rows)


class TestDsMag:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mags = rng.uniform(0, 2, size=(2, 5, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.mag"
        write_magnitudes(path, mags)
        assert np.array_equal(read_magnitudes(path), mags)

    def test_header_layout_bit_exact(self, tmp_path):
        path = tmp_path / "h.mag"
        write_magnitudes(path, np.zeros((1, 2, 3)))
        blob = path.read_bytes()
        assert blob[:6] == b"DSMAG1"
        assert blob[6:18] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + (
            3
        ).to_bytes(4, "little")
        assert len(blob) == 18 + 1 * 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mag"
        path.write_bytes(b"NOTMAG" + b"\x00" * 20)
        with pytest.raises(MalformedHeader):
            read_magnitudes(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.mag"
        good = tmp_path / "good.mag"
        write_magnitudes(good, np.ones((1, 4, 4)))
        path.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(TruncatedData):
            read_magnitudes(path)

    @pytest.mark.parametrize("tail", [1, 4, 64])
    def test_trailing_bytes_are_a_malformed_header(self, tmp_path, tail):
        path = tmp_path / "long.mag"
        write_magnitudes(path, np.ones((1, 4, 4)))
        path.write_bytes(path.read_bytes() + b"\x00" * tail)
        with pytest.raises(MalformedHeader,
                           match=f"header declares 64 payload bytes, found {64 + tail}"):
            read_magnitudes(path)

    def test_float64_payload_under_a_dsmag1_header_is_malformed(self, tmp_path):
        # read as float32 these bytes are finite garbage, not an error
        path = tmp_path / "f64.mag"
        mags = np.full((2, 3, 5), 0.25)
        path.write_bytes(b"DSMAG1" + struct.pack("<III", *mags.shape) + mags.tobytes())
        with pytest.raises(MalformedHeader, match="declares 120 payload bytes, found 240"):
            read_magnitudes(path)


class TestStemDirIngestion:
    def test_loads_four_stems(self, tmp_path):
        rng = np.random.default_rng(1)
        stems = make_waveform_set(rng, length=300)
        load_dir = write_stem_dir(tmp_path / "stems", stems)
        loaded = load_stem_dir(load_dir)
        assert loaded.num_sources == 4
        assert loaded.length == 300

    def test_missing_stem_named(self, tmp_path):
        rng = np.random.default_rng(2)
        stems = make_waveform_set(rng, length=100)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        (stem_dir / "vocals.wav").unlink()
        with pytest.raises(MissingStem, match="vocals"):
            load_stem_dir(stem_dir)

    def test_small_length_drift_is_conformed(self, tmp_path):
        rng = np.random.default_rng(3)
        mix = make_waveform(rng, length=1000)
        stems = make_waveform_set(rng, length=1000 + 64)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        loaded = load_stem_dir(stem_dir, like=mix, length_tolerance=128)
        assert loaded.length == 1000

    def test_short_stems_zero_padded(self, tmp_path):
        rng = np.random.default_rng(4)
        mix = make_waveform(rng, length=1000)
        stems = make_waveform_set(rng, length=1000 - 50)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        loaded = load_stem_dir(stem_dir, like=mix, length_tolerance=128)
        assert loaded.length == 1000
        assert np.all(loaded.sources[0].samples[:, -50:] == 0.0)

    def test_large_length_drift_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        mix = make_waveform(rng, length=1000)
        stems = make_waveform_set(rng, length=2000)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        with pytest.raises(LengthMismatch):
            load_stem_dir(stem_dir, like=mix, length_tolerance=128)

    def test_rate_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        mix = make_waveform(rng, length=500, sample_rate=48000)
        stems = make_waveform_set(rng, length=500, sample_rate=44100)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        with pytest.raises(SampleRateMismatch):
            load_stem_dir(stem_dir, like=mix, length_tolerance=0)


class TestConfigLoading:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(payload))
        return path

    def test_minimal_toy_config_uses_default_weights(self, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "models": [
                    {"name": "a", "domain": "TF", "source": "builtin-toy"},
                    {"name": "b", "domain": "TF", "source": "builtin-toy"},
                    {"name": "c", "domain": "T", "source": "builtin-toy"},
                ]
            },
        )
        cfg = load_pipeline_config(path)
        assert cfg.weights.num_models == 3
        assert cfg.stft.fft_size == 4096

    def test_inline_weights_and_sections(self, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "models": [{"name": "only", "domain": "T", "source": "builtin-toy"}],
                "stft": {"fft_size": 512, "hop": 128},
                "mwf": {"iterations": 2},
                "weights": {
                    "models": ["only"],
                    "sources": ["drums", "bass", "other", "vocals"],
                    "weights": [[1.0, 1.0, 1.0, 1.0]],
                },
            },
        )
        cfg = load_pipeline_config(path)
        assert cfg.stft.hop == 128 and cfg.mwf.iterations == 2
        assert cfg.weights.num_models == 1

    def test_weights_by_path(self, tmp_path):
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps(
                {
                    "models": ["m"],
                    "sources": ["drums", "bass", "other", "vocals"],
                    "weights": [[1, 1, 1, 1]],
                }
            )
        )
        path = self.write_config(
            tmp_path,
            {
                "models": [{"name": "m", "domain": "T", "source": "builtin-toy"}],
                "weights": str(weights_path),
            },
        )
        assert load_pipeline_config(path).weights.num_models == 1

    def test_weight_row_count_mismatch(self, tmp_path):
        path = self.write_config(
            tmp_path,
            {"models": [{"name": "a", "domain": "T", "source": "builtin-toy"}]},
        )
        with pytest.raises(WeightModelMismatch):
            load_pipeline_config(path)  # default weights have 3 rows

    def weights_config(self, tmp_path, models, rows, as_file):
        weights = {"models": models, "sources": ["drums", "bass", "other", "vocals"],
                   "weights": rows}
        if as_file:
            (tmp_path / "w.json").write_text(json.dumps(weights))
            weights = "w.json"
        return self.write_config(tmp_path, {
            "models": [{"name": "a", "domain": "T", "source": "builtin-toy"},
                       {"name": "b", "domain": "TF", "source": "builtin-toy"}],
            "weights": weights})

    @pytest.mark.parametrize("as_file", [False, True])
    @pytest.mark.parametrize("order", [["b", "a"], ["a", "b"]])
    def test_weight_rows_are_matched_to_entries_by_name(self, tmp_path, order, as_file):
        rows = {"a": [1.0, 0.0, 0.25, 0.5], "b": [0.0, 1.0, 0.75, 0.5]}
        cfg = load_pipeline_config(
            self.weights_config(tmp_path, order, [rows[n] for n in order], as_file))
        assert cfg.weights.model_names == ("a", "b")
        assert cfg.weights.weights.tolist() == [rows["a"], rows["b"]]

    @pytest.mark.parametrize("as_file", [False, True])
    @pytest.mark.parametrize("models, named", [
        (["a", "zzz"], r"weights name models \['zzz'\] that are not entries"),
        (["a"], r"model entries \['b'\] have no weight row"),
        (["b", "b"], r"weights repeat the model names \['b'\]"),
    ])
    def test_weights_must_name_every_entry_once(self, tmp_path, models, named, as_file):
        rows = [[1.0 / len(models)] * 4] * len(models)
        with pytest.raises(WeightModelMismatch, match=named):
            load_pipeline_config(self.weights_config(tmp_path, models, rows, as_file))

    def test_missing_entry_key(self, tmp_path):
        path = self.write_config(tmp_path, {"models": [{"name": "a", "domain": "T"}]})
        with pytest.raises(ValueError):
            load_pipeline_config(path)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            ModelEntry("x", "QT", "builtin-toy")

    def test_relative_paths_are_read_beside_the_config_from_any_cwd(self, tmp_path,
                                                                     monkeypatch):
        rng = np.random.default_rng(23)
        mix = make_waveform(rng, length=2000)
        sub = tmp_path / "sub"
        stem_dir = write_stem_dir(sub / "stems", make_waveform_set(rng, length=2000))
        mag_dir = sub / "mags"
        mag_dir.mkdir()
        for name in ("drums", "bass", "other", "vocals"):
            write_magnitudes(mag_dir / f"{name}.mag",
                             rng.uniform(size=stft(mix, CFG).bins.shape))
        weights = {"models": ["t", "tf", "toy", "abs"],
                   "sources": ["drums", "bass", "other", "vocals"],
                   "weights": [[0.25] * 4] * 4}
        (sub / "weights.json").write_text(json.dumps(weights))
        models = [{"name": "t", "domain": "T", "source": "stems"},
                  {"name": "tf", "domain": "TF", "source": "mags"},
                  {"name": "toy", "domain": "T", "source": "builtin-toy"},
                  {"name": "abs", "domain": "T", "source": str(stem_dir)}]
        (sub / "pipeline.json").write_text(json.dumps(
            {"models": models, "stft": {"fft_size": 512, "hop": 128},
             "weights": "weights.json"}))
        monkeypatch.chdir(sub)
        want = run(mix, load_pipeline_config("pipeline.json"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        cfg = load_pipeline_config("../sub/pipeline.json")
        assert [e.source for e in cfg.model_entries[2:]] == ["builtin-toy", str(stem_dir)]
        got = run(mix, cfg)
        assert all(a.samples.tobytes() == b.samples.tobytes()
                   for a, b in zip(got.sources, want.sources))


class TestRun:
    def test_single_t_model_is_passthrough(self, tmp_path):
        rng = np.random.default_rng(7)
        mix = make_waveform(rng, length=2000)
        stems = make_waveform_set(rng, length=2000, scale=0.4)
        # float32 on disk: pass the read-back values through the pipeline
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        expected = load_stem_dir(stem_dir)
        cfg = PipelineConfig(
            [ModelEntry("external", "T", str(stem_dir))], CFG, MwfConfig(),
            identity_weights(),
        )
        fused = run(mix, cfg)
        for got, want in zip(fused.sources, expected.sources):
            assert np.array_equal(got.samples, want.samples)

    def test_tf_branch_oracle_single_source_recovers_mix(self, tmp_path):
        # one `.mag` source of any name, as `stemfuse wiener` runs it
        rng = np.random.default_rng(8)
        mix = make_waveform(rng, length=4096, scale=0.5)
        write_magnitudes(tmp_path / "all.mag", np.abs(stft(mix, CFG).bins))
        cfg = PipelineConfig([ModelEntry("mags", "TF", str(tmp_path))], CFG,
                             MwfConfig(iterations=1), validate_weights([[1.0]], ["mags"], ["all"]))
        out = run(mix, cfg, ["all"])
        assert out.num_sources == 1
        err = np.max(np.abs(out.sources[0].samples - mix.samples))
        assert err <= 1e-4

    def test_tf_magnitude_dir_conserves_mixture(self, tmp_path):
        rng = np.random.default_rng(9)
        truths = make_waveform_set(rng, length=3000, scale=0.3)
        mix = Waveform(sum(s.samples for s in truths.sources), SR)
        mix_spec = stft(mix, CFG)
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        for name, src in zip(("drums", "bass", "other", "vocals"), truths.sources):
            write_magnitudes(mag_dir / f"{name}.mag", np.abs(stft(src, CFG).bins))
        cfg = PipelineConfig(
            [ModelEntry("oracle", "TF", str(mag_dir))], CFG, MwfConfig(iterations=1),
            identity_weights(),
        )
        fused = run(mix, cfg)
        # MWF conservation plus the iSTFT round trip: stems sum to the mixture
        total = sum(s.samples for s in fused.sources)
        assert np.max(np.abs(total - mix.samples)) <= 1e-3

    def test_mag_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        mix = make_waveform(rng, length=3000)
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        for name in ("drums", "bass", "other", "vocals"):
            write_magnitudes(mag_dir / f"{name}.mag", np.ones((2, 3, 5)))
        cfg = PipelineConfig(
            [ModelEntry("bad", "TF", str(mag_dir))], CFG, MwfConfig(), identity_weights()
        )
        with pytest.raises(ShapeMismatch):
            run(mix, cfg)

    def test_missing_mag_file(self, tmp_path):
        rng = np.random.default_rng(11)
        mix = make_waveform(rng, length=1500)
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        cfg = PipelineConfig(
            [ModelEntry("bad", "TF", str(mag_dir))], CFG, MwfConfig(), identity_weights()
        )
        with pytest.raises(MissingStem):
            run(mix, cfg)

    def test_toy_pipeline_deterministic(self):
        rng = np.random.default_rng(12)
        mix = make_waveform(rng, length=5000, scale=0.4)
        cfg = PipelineConfig(
            [
                ModelEntry("a", "TF", "builtin-toy", leakage=0.2),
                ModelEntry("b", "T", "builtin-toy", leakage=0.1),
            ],
            CFG,
            MwfConfig(iterations=1),
            validate_weights([[0.5] * 4, [0.5] * 4]),
        )
        first = run(mix, cfg)
        second = run(mix, cfg)
        for a, b in zip(first.sources, second.sources):
            assert np.array_equal(a.samples, b.samples)

    def test_toy_stems_match_mix_shape(self):
        rng = np.random.default_rng(13)
        mix = make_waveform(rng, length=3210, scale=0.4)
        cfg = PipelineConfig(
            [ModelEntry("a", "TF", "builtin-toy")], CFG, MwfConfig(), identity_weights()
        )
        fused = run(mix, cfg)
        assert fused.num_sources == 4
        assert fused.length == mix.length
        assert fused.channels == mix.channels

    def test_complementary_t_models_fuse_better(self, tmp_path):
        from stemfuse import EvalConfig, median_sdr

        rng = np.random.default_rng(14)
        length = 4096
        refs = make_waveform_set(rng, channels=1, length=length)
        mix = Waveform(sum(s.samples for s in refs.sources), SR)
        noise = [0.2 * rng.normal(size=(1, length)) for _ in range(4)]
        dir_a = write_stem_dir(
            tmp_path / "a",
            SourceWaveformSet(
                [Waveform((s.samples + n).astype(np.float32), SR)
                 for s, n in zip(refs.sources, noise)]
            ),
        )
        dir_b = write_stem_dir(
            tmp_path / "b",
            SourceWaveformSet(
                [Waveform((s.samples - n).astype(np.float32), SR)
                 for s, n in zip(refs.sources, noise)]
            ),
        )
        cfg = PipelineConfig(
            [ModelEntry("a", "T", str(dir_a)), ModelEntry("b", "T", str(dir_b))],
            CFG,
            MwfConfig(),
            validate_weights([[0.5] * 4, [0.5] * 4]),
        )
        fused = run(mix, cfg)
        eval_cfg = EvalConfig(filter_len=4, win=length / SR, hop=length / SR)
        for j in range(4):
            fused_sdr = median_sdr(refs, fused.sources[j], j, eval_cfg)
            part_a = median_sdr(refs, load_stem_dir(dir_a).sources[j], j, eval_cfg)
            assert fused_sdr > part_a


def test_failed_magnitude_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "x.mag"
    good = np.ones((1, 2, 3))
    write_magnitudes(path, good)
    with pytest.raises(ValueError):  # the payload cannot be cast to float32
        write_magnitudes(path, np.full((1, 2, 3), "x", dtype=object))

    def failing_replace(*args):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError):
        write_magnitudes(path, np.zeros((1, 2, 3)))
    assert np.array_equal(read_magnitudes(path), good)
    assert [p.name for p in tmp_path.iterdir()] == ["x.mag"]


def test_fused_samples_past_the_float_range_are_non_finite_samples():
    # every sample of 1e308 is finite, but a frame's spectrum sums past the float range
    cfg = PipelineConfig([ModelEntry("toy", "T", "builtin-toy")], StftConfig(fft_size=64, hop=16),
                         MwfConfig(), identity_weights())
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteSamples, match=r"^fused samples 0\.\.399 are not finite$"):
        run(Waveform(np.full((2, 400), 1e308), SR), cfg)
