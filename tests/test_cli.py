import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from stemfuse import Waveform, load_weights, read_wav, stft, write_magnitudes, write_wav
from stemfuse.cli import main
from stemfuse.core import StftConfig

from helpers import make_waveform, make_waveform_set, write_stem_dir

SR = 44100


def small_toy_config(tmp_path, models=None):
    payload = {
        "models": models
        or [
            {"name": "a", "domain": "TF", "source": "builtin-toy", "leakage": 0.2},
            {"name": "b", "domain": "TF", "source": "builtin-toy", "leakage": 0.05},
            {"name": "c", "domain": "T", "source": "builtin-toy", "leakage": 0.1},
        ],
        "stft": {"fft_size": 512, "hop": 128},
        "mwf": {"iterations": 1},
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(payload))
    return path


def write_mix(tmp_path, rng, length=SR // 4):
    mix = make_waveform(rng, length=length, scale=0.4)
    path = tmp_path / "mix.wav"
    write_wav(mix, path)
    return path, mix


class TestSeparate:
    def test_writes_four_stems(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mix_path, _ = write_mix(tmp_path, rng)
        config = small_toy_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["separate", "--input", str(mix_path), "--config", str(config),
                     "--out", str(out_dir)])
        assert code == 0
        for name in ("drums", "bass", "other", "vocals"):
            assert (out_dir / f"{name}.wav").is_file()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        mix_path, _ = write_mix(tmp_path, rng)
        missing = tmp_path / "nope.json"
        code = main(["separate", "--input", str(mix_path), "--config", str(missing),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_stems_dir_without_vocals_fails_with_code(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        mix_path, mix = write_mix(tmp_path, rng)
        stems = make_waveform_set(rng, length=mix.length, scale=0.3)
        stem_dir = write_stem_dir(tmp_path / "stems", stems)
        (stem_dir / "vocals.wav").unlink()
        config = small_toy_config(
            tmp_path,
            models=[
                {"name": "x", "domain": "T", "source": str(stem_dir)},
                {"name": "y", "domain": "T", "source": "builtin-toy"},
                {"name": "z", "domain": "T", "source": "builtin-toy"},
            ],
        )
        code = main(["separate", "--input", str(mix_path), "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "missing-stem" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(3)
        mix_path, _ = write_mix(tmp_path, rng)
        config = small_toy_config(tmp_path)
        out_a = tmp_path / "out_a"
        out_b = tmp_path / "out_b"
        assert main(["separate", "--input", str(mix_path), "--config", str(config),
                     "--out", str(out_a)]) == 0
        assert main(["separate", "--input", str(mix_path), "--config", str(config),
                     "--out", str(out_b)]) == 0
        for name in ("drums", "bass", "other", "vocals"):
            assert (out_a / f"{name}.wav").read_bytes() == (out_b / f"{name}.wav").read_bytes()


class TestEval:
    def test_identical_stems_hit_cap(self, tmp_path):
        rng = np.random.default_rng(4)
        stems = make_waveform_set(rng, channels=1, length=SR // 2, scale=0.3)
        ref_dir = write_stem_dir(tmp_path / "refs", stems)
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        code = main(["eval", "--estimates", str(ref_dir), "--references", str(ref_dir),
                     "--out", str(report_path), "--csv", str(csv_path),
                     "--filter-len", "4"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert all(v == 300.0 for v in report["per_source_median"].values())
        assert csv_path.read_text().splitlines()[0] == "Drums,Bass,Other,Vocals,Avg"

    def test_known_noise_matches_module(self, tmp_path):
        from stemfuse import EvalConfig, load_stem_dir, sdr_frames

        rng = np.random.default_rng(5)
        length = SR // 2
        refs = make_waveform_set(rng, channels=1, length=length, scale=0.3)
        noisy_sources = [
            Waveform((s.samples + 0.05 * rng.normal(size=s.samples.shape)), SR)
            for s in refs.sources
        ]
        ref_dir = write_stem_dir(tmp_path / "refs", refs)
        from stemfuse import SourceWaveformSet

        est_dir = write_stem_dir(tmp_path / "est", SourceWaveformSet(noisy_sources))
        report_path = tmp_path / "report.json"
        code = main(["eval", "--estimates", str(est_dir), "--references", str(ref_dir),
                     "--out", str(report_path), "--filter-len", "8"])
        assert code == 0
        report = json.loads(report_path.read_text())
        want = sdr_frames(load_stem_dir(ref_dir), load_stem_dir(est_dir),
                          EvalConfig(filter_len=8, win=1.0, hop=1.0))
        for label, value in want.per_source_median.items():
            assert report["per_source_median"][label] == pytest.approx(value, abs=1e-9)

    def test_length_mismatch_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        ref_dir = write_stem_dir(tmp_path / "refs",
                                 make_waveform_set(rng, length=2000, scale=0.3))
        est_dir = write_stem_dir(tmp_path / "est",
                                 make_waveform_set(rng, length=1000, scale=0.3))
        code = main(["eval", "--estimates", str(est_dir), "--references", str(ref_dir),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "length-mismatch" in capsys.readouterr().err


class TestBlendCommand:
    def test_identical_dirs_with_default_weights(self, tmp_path):
        rng = np.random.default_rng(7)
        stems = make_waveform_set(rng, length=500, scale=0.3)
        dirs = [str(write_stem_dir(tmp_path / f"m{i}", stems)) for i in range(3)]
        out_dir = tmp_path / "fused"
        code = main(["blend", "--stems", *dirs, "--out", str(out_dir)])
        assert code == 0
        original = read_wav(tmp_path / "m0" / "drums.wav")
        fused = read_wav(out_dir / "drums.wav")
        assert np.max(np.abs(fused.samples - original.samples)) <= 1e-6

    def test_wrong_model_count_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        stems = make_waveform_set(rng, length=200, scale=0.3)
        dirs = [str(write_stem_dir(tmp_path / f"m{i}", stems)) for i in range(2)]
        code = main(["blend", "--stems", *dirs, "--out", str(tmp_path / "fused")])
        assert code == 1
        assert "model-count-mismatch" in capsys.readouterr().err


class TestSearchWeightsCommand:
    def test_cancellation_fixture_emits_valid_weights(self, tmp_path):
        rng = np.random.default_rng(9)
        length = 4096
        refs = make_waveform_set(rng, channels=1, length=length, scale=0.3)
        noise = [0.1 * rng.normal(size=(1, length)).astype(np.float32) for _ in range(4)]
        from stemfuse import SourceWaveformSet

        model_a = SourceWaveformSet(
            [Waveform(np.float32(s.samples) + n, SR) for s, n in zip(refs.sources, noise)]
        )
        model_b = SourceWaveformSet(
            [Waveform(np.float32(s.samples) - n, SR) for s, n in zip(refs.sources, noise)]
        )
        ref_dir = write_stem_dir(tmp_path / "refs", refs)
        dir_a = write_stem_dir(tmp_path / "a", model_a)
        dir_b = write_stem_dir(tmp_path / "b", model_b)
        out = tmp_path / "weights.json"
        code = main([
            "search-weights", "--stems", str(dir_a), str(dir_b),
            "--references", str(ref_dir), "--out", str(out),
            "--grid-step", "0.5", "--filter-len", "4",
        ])
        assert code == 0
        weights = load_weights(out)  # validates on load
        assert np.all(weights.weights == 0.5)

    def test_bad_grid_step(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        refs = write_stem_dir(tmp_path / "refs",
                              make_waveform_set(rng, length=256, scale=0.3))
        code = main(["search-weights", "--stems", str(refs), "--references", str(refs),
                     "--out", str(tmp_path / "w.json"), "--grid-step", "0.3"])
        assert code == 1
        assert "invalid-input" in capsys.readouterr().err


class TestWienerCommand:
    def test_single_source_recovers_mixture(self, tmp_path):
        rng = np.random.default_rng(11)
        mix = make_waveform(rng, length=4096, scale=0.4)
        mix_path = tmp_path / "mix.wav"
        write_wav(mix, mix_path)
        cfg = StftConfig(fft_size=512, hop=128)
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        mix_read = read_wav(mix_path)
        write_magnitudes(mag_dir / "all.mag", np.abs(stft(mix_read, cfg).bins))
        out_dir = tmp_path / "out"
        code = main(["wiener", "--mix", str(mix_path), "--mags", str(mag_dir),
                     "--out", str(out_dir), "--fft-size", "512", "--stft-hop", "128"])
        assert code == 0
        stem = read_wav(out_dir / "all.wav")
        assert np.max(np.abs(stem.samples - mix_read.samples)) <= 1e-4

    def test_empty_mag_dir_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        mix_path, _ = write_mix(tmp_path, rng)
        empty = tmp_path / "mags"
        empty.mkdir()
        code = main(["wiener", "--mix", str(mix_path), "--mags", str(empty),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["prognosticate"])
        assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [
    pytest.param("--grid-step", "0", id="0"),
    pytest.param("--grid-step", "-0.0", id="-0.0"),
    pytest.param("--grid-step", "nan", id="nan"),
    pytest.param("--grid-step", "inf", id="inf"),
    pytest.param("--win", "inf", id="win-inf"),
    pytest.param("--hop", "inf", id="hop-inf"),
])
def test_degenerate_grid_step_is_one_error_line(tmp_path, capsys, flag, value):
    rng = np.random.default_rng(11)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=256, scale=0.3))
    out = tmp_path / "w.json"
    code = main(["search-weights", "--stems", str(refs), "--references", str(refs),
                 "--out", str(out), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error invalid-input: ") and err.count("\n") == 1
    assert not out.exists()


def _toy_payload(**sections):
    payload = {"models": [{"name": "a", "domain": "TF", "source": "builtin-toy"}],
               "stft": {"fft_size": 512, "hop": 128},
               "weights": {"models": ["a"], "sources": ["drums", "bass", "other", "vocals"],
                           "weights": [[1.0, 1.0, 1.0, 1.0]]}}
    payload.update(sections)
    return payload


@pytest.mark.parametrize("payload", [
    pytest.param(_toy_payload(mwf={"iterations": 1.5}), id="mwf-iterations-float"),
    pytest.param(_toy_payload(mwf={"iterations": "2"}), id="mwf-iterations-string"),
    pytest.param(_toy_payload(mwf={"iterations": True}), id="mwf-iterations-bool"),
    pytest.param(_toy_payload(mwf={"eps": "x"}), id="mwf-eps-string"),
    pytest.param(_toy_payload(mwf={"mask_power": None}), id="mwf-mask-power-null"),
    pytest.param(_toy_payload(mwf={"mask_power": 1e999}), id="mwf-mask-power-inf"),
    pytest.param(_toy_payload(mwf={"bogus": 1}), id="mwf-unknown-key"),
    pytest.param(_toy_payload(mwf=[1]), id="mwf-not-object"),
    pytest.param(_toy_payload(mwf=None), id="mwf-null"),
    pytest.param(_toy_payload(stft={"fft_size": "4096"}), id="stft-fft-size-string"),
    pytest.param(_toy_payload(stft={"fft_size": 512.0, "hop": 128}), id="stft-fft-size-float"),
    pytest.param(_toy_payload(stft={"fft_size": 512, "hop": 1.5}), id="stft-hop-float"),
    pytest.param(_toy_payload(stft={"center_pad": "yes"}), id="stft-center-pad-string"),
    pytest.param(_toy_payload(stft={"window": ["hann"]}), id="stft-window-list"),
    pytest.param(_toy_payload(stft={"bogus": 1}), id="stft-unknown-key"),
    pytest.param(_toy_payload(stft=5), id="stft-not-object"),
    pytest.param(_toy_payload(models=[1, 2]), id="models-not-objects"),
    pytest.param(_toy_payload(models="abc"), id="models-string"),
    pytest.param(_toy_payload(models=[{"name": "a", "domain": "TF", "source": 5}]),
                 id="model-source-number"),
    pytest.param(_toy_payload(models=[{"name": "a", "domain": "TF", "source": "builtin-toy",
                                       "leakage": None}]), id="model-leakage-null"),
    pytest.param(_toy_payload(models=[{"name": "a", "domain": "TF", "source": "builtin-toy",
                                       "leakage": "0.2"}]), id="model-leakage-string"),
    pytest.param(_toy_payload(weights={"models": 5, "sources": ["drums"], "weights": [[1]]}),
                 id="weights-models-number"),
])
def test_hostile_pipeline_config_is_one_error_line(tmp_path, capsys, payload):
    rng = np.random.default_rng(13)
    mix_path, _ = write_mix(tmp_path, rng, length=2048)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    code = main(["separate", "--input", str(mix_path), "--config", str(config),
                 "--out", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error invalid-input: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_overflowing_initial_masks_are_one_error_line(tmp_path):
    # A subprocess, so numpy warnings printed by the real CLI would show on stderr.
    rng = np.random.default_rng(14)
    mix_path, mix = write_mix(tmp_path, rng, length=2048)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    spec = stft(read_wav(mix_path), StftConfig(fft_size=512, hop=128))
    for name, gain in (("a", 3.0), ("b", 0.5)):
        write_magnitudes(mag_dir / f"{name}.mag", gain * np.abs(spec.bins))
    python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path)))
    proc = subprocess.run(
        [sys.executable, "-m", "stemfuse.cli", "wiener", "--mix", str(mix_path),
         "--mags", str(mag_dir), "--out", str(tmp_path / "out"), "--fft-size", "512",
         "--stft-hop", "128", "--power", "1e308"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error invalid-input: initial masks are not finite")
    assert proc.stderr.count("\n") == 1
