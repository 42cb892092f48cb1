import errno
import json
import os
import struct
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from stemfuse import (
    EvalConfig,
    MwfConfig,
    SourceWaveformSet,
    Waveform,
    load_weights,
    read_wav,
    search_weights,
    stft,
    write_magnitudes,
    write_wav,
)
from stemfuse import audio_io
from stemfuse.cli import main
from stemfuse.core import StftConfig

from helpers import make_waveform, make_waveform_set, write_stem_dir

SR = 44100
STEMS = make_waveform_set(np.random.default_rng(0), length=64)


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
    pytest.param("--grid-step", "1e-320", id="1e-320"),  # 1 / step overflows
    pytest.param("--grid-step", "1e-6", id="1e-6"),  # ~5e11 columns for three models
])
def test_degenerate_grid_step_is_one_error_line(tmp_path, capsys, monkeypatch, flag, value):
    rng = np.random.default_rng(11)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=256, scale=0.3))
    out = tmp_path / "w.json"

    def no_sample_is_read(*_):
        raise AssertionError("a stem was read")

    monkeypatch.setattr(audio_io.WavReader, "frames", no_sample_is_read)
    code = main(["search-weights", "--stems", str(refs), str(refs), str(refs),
                 "--references", str(refs), "--out", str(out), "--filter-len", "4", flag, value])
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
    pytest.param(_toy_payload(mwf={"iterations": 1001}), id="mwf-iterations-over-bound"),
    pytest.param(_toy_payload(mwf={"iterations": 10 ** 400}), id="mwf-iterations-huge"),
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
    pytest.param(_toy_payload(models=[{"name": "a", "domain": "TF", "source": "builtin-toy",
                                       "leakge": 0.3}]), id="model-unknown-key"),
    pytest.param(_toy_payload(weigths={"models": ["a"]}), id="top-level-unknown-key"),
    pytest.param(_toy_payload(models=[{"name": "a", "domain": "TF", "source": "builtin-toy",
                                       "leakage": 0.3, "Leakage": 0.2}]),
                 id="model-key-wrong-case"),
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


HUGE = 10 ** 400  # an integer too large for a float


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: MwfConfig(eps=HUGE), "eps must be a finite positive number",
                 id="mwf-eps"),
    pytest.param(lambda: MwfConfig(mask_power=HUGE), "mask_power must be a finite positive number",
                 id="mwf-mask-power"),
    pytest.param(lambda: MwfConfig(iterations=HUGE), r"iterations must be an integer in \[0, 1000\]",
                 id="mwf-iterations"),
    pytest.param(lambda: MwfConfig(iterations=1001), r"iterations must be an integer in \[0, 1000\]",
                 id="mwf-iterations-over-bound"),
    pytest.param(lambda: EvalConfig(win=HUGE), "win/hop must be finite and positive", id="win"),
    pytest.param(lambda: EvalConfig(hop=HUGE), "win/hop must be finite and positive", id="hop"),
    pytest.param(lambda: search_weights([STEMS], STEMS, grid_step=HUGE),
                 "grid_step must be finite and positive", id="grid-step"),
    pytest.param(lambda: search_weights([STEMS], STEMS, grid_step=True),
                 "grid_step must be finite and positive", id="grid-step-bool"),
])
def test_a_huge_or_bool_number_is_a_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_integer_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    payload = _toy_payload(mwf={"eps": HUGE})
    test_hostile_pipeline_config_is_one_error_line(tmp_path, capsys, payload)


@pytest.mark.parametrize("fft_size", [1 << 21, 1 << 40])
@pytest.mark.parametrize("command", ["separate", "wiener"])
def test_a_huge_fft_size_is_one_error_line(tmp_path, capsys, monkeypatch, command, fft_size):
    # the window takes 8 bytes per sample of the frame:
    # were it reached, the test fails there, before any allocation
    def refuse(*args):
        raise AssertionError(f"fft_size {fft_size} reached an allocation")

    monkeypatch.setattr(StftConfig, "window_array", refuse)
    mix_path, _ = write_mix(tmp_path, np.random.default_rng(29), length=2048)
    if command == "separate":
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(_toy_payload(stft={"fft_size": fft_size,
                                                        "hop": fft_size // 4})))
        args = ["separate", "--input", str(mix_path), "--config", str(config)]
    else:
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        write_magnitudes(mag_dir / "a.mag", np.ones((2, 17, 257)))
        args = ["wiener", "--mix", str(mix_path), "--mags", str(mag_dir),
                "--fft-size", str(fft_size), "--stft-hop", str(fft_size // 4)]
    out_dir = tmp_path / "out"
    assert main(args + ["--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error invalid-input: fft_size must be a power of two <= 2**20, got {fft_size}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["separate", "wiener"])
def test_a_hop_off_the_overlap_add_rule_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                          command):
    # 3 does not divide 2**18: rejected by the rule, without building the window
    def refuse(*args):
        raise AssertionError("the overlap-add check built the window")

    monkeypatch.setattr(StftConfig, "window_array", refuse)
    mix_path, _ = write_mix(tmp_path, np.random.default_rng(31), length=2048)
    if command == "separate":
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(_toy_payload(stft={"fft_size": 1 << 18, "hop": 3})))
        args = ["separate", "--input", str(mix_path), "--config", str(config)]
    else:
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        write_magnitudes(mag_dir / "a.mag", np.ones((2, 17, 257)))
        args = ["wiener", "--mix", str(mix_path), "--mags", str(mag_dir),
                "--fft-size", str(1 << 18), "--stft-hop", "3"]
    out_dir = tmp_path / "out"
    assert main(args + ["--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error invalid-input: ") and err.count("\n") == 1
    assert "fails constant overlap-add" in err
    assert not out_dir.exists()


def test_a_header_field_overflow_is_one_error_line_and_no_file(tmp_path, capsys):
    # a float32 stereo mixture whose header says 0xFFFFFFF0 Hz: the stems' byte
    # rate, 8 bytes a frame, does not fit the 32 bits of its field
    mix_path, _ = write_mix(tmp_path, np.random.default_rng(30), length=2048)
    blob = bytearray(mix_path.read_bytes())
    blob[24:28] = struct.pack("<I", 0xFFFFFFF0)
    mix_path.write_bytes(bytes(blob))
    assert read_wav(mix_path).sample_rate == 0xFFFFFFF0
    config = small_toy_config(tmp_path)
    new_dir, old_dir = tmp_path / "new" / "out", tmp_path / "old"
    old_dir.mkdir()
    for out_dir in (new_dir, old_dir):
        code = main(["separate", "--input", str(mix_path), "--config", str(config),
                     "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error invalid-input: cannot write {out_dir / 'drums.wav'}: its "
                              f"byte rate {0xFFFFFFF0 * 8} does not fit 32 bits"), err
        assert err.count("\n") == 1
    # no stem and no temp file: the directories the command made are gone, one that was there stays
    assert not new_dir.exists() and not new_dir.parent.exists()
    assert list(old_dir.iterdir()) == []


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


@pytest.mark.parametrize("filter_len", ["1025", "1000000"])
@pytest.mark.parametrize("command", ["eval", "search-weights"])
def test_filter_longer_than_the_frame_is_one_error_line(tmp_path, capsys, command, filter_len):
    # 1024-sample stems are shorter than the 1-s window, so they are scored whole
    rng = np.random.default_rng(15)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=1024, scale=0.3))
    out = tmp_path / "out.json"
    head = (["eval", "--estimates", str(refs)] if command == "eval"
            else ["search-weights", "--stems", str(refs), "--grid-step", "0.5"])
    code = main(head + ["--references", str(refs), "--out", str(out), "--filter-len", filter_len])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error invalid-input: filter_len {filter_len} exceeds the 1024-sample frame\n"
    assert not out.exists()


def test_non_finite_stem_is_one_error_line_naming_the_file(tmp_path, capsys):
    rng = np.random.default_rng(16)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=512, scale=0.3))
    est = write_stem_dir(tmp_path / "est", make_waveform_set(rng, length=512, scale=0.3))
    blob = bytearray((est / "bass.wav").read_bytes())
    first_sample = blob.index(b"data") + 8
    blob[first_sample:first_sample + 4] = np.array([np.nan], dtype="<f4").tobytes()
    (est / "bass.wav").write_bytes(bytes(blob))
    code = main(["eval", "--estimates", str(est), "--references", str(refs),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error non-finite-samples: {est / 'bass.wav'}: ")
    assert err.count("\n") == 1


def test_eval_report_is_byte_identical_across_blas_thread_counts(tmp_path):
    rng = np.random.default_rng(17)
    refs = make_waveform_set(rng, length=2 * SR, scale=0.3)
    noisy = SourceWaveformSet([Waveform(s.samples + 0.1 * rng.normal(size=s.samples.shape), SR)
                               for s in refs.sources])
    ref_dir = write_stem_dir(tmp_path / "refs", refs)
    est_dir = write_stem_dir(tmp_path / "est", noisy)
    args = ["eval", "--estimates", str(est_dir), "--references", str(ref_dir)]
    assert main(args + ["--out", str(tmp_path / "in_process.json")]) == 0
    python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, python_path)))
        proc = subprocess.run([sys.executable, "-m", "stemfuse.cli", *args, "--out",
                               str(tmp_path / f"threads{threads}.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    blobs = [(tmp_path / name).read_bytes()
             for name in ("in_process.json", "threads1.json", "threads4.json")]
    assert blobs[0] == blobs[1] == blobs[2]


def test_non_finite_magnitude_is_one_error_line_naming_the_file(tmp_path, capsys):
    rng = np.random.default_rng(18)
    mix_path, _ = write_mix(tmp_path, rng, length=2048)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    mags = np.abs(stft(read_wav(mix_path), StftConfig(fft_size=512, hop=128)).bins)
    write_magnitudes(mag_dir / "a.mag", mags)
    mags[1, 3, 40] = np.nan
    write_magnitudes(mag_dir / "b.mag", mags)
    out_dir = tmp_path / "out"
    code = main(["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--out", str(out_dir),
                 "--fft-size", "512", "--stft-hop", "128"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error non-finite-samples: {mag_dir / 'b.mag'}: ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["separate", "wiener"])
def test_negative_magnitude_is_one_error_line_naming_the_file(tmp_path, capsys, command):
    rng = np.random.default_rng(23)
    mix_path, _ = write_mix(tmp_path, rng, length=SR // 2)  # 173 frames, several blocks
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    mags = np.abs(stft(read_wav(mix_path), StftConfig(fft_size=512, hop=128)).bins)
    for name in ("drums", "bass", "vocals"):
        write_magnitudes(mag_dir / f"{name}.mag", mags)
    mags[0, 150, 7] = -0.5
    write_magnitudes(mag_dir / "other.mag", mags)
    out_dir = tmp_path / "out"
    if command == "separate":
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "models": [{"name": "m", "domain": "TF", "source": str(mag_dir)}],
            "stft": {"fft_size": 512, "hop": 128},
            "weights": {"models": ["m"], "sources": ["drums", "bass", "other", "vocals"],
                        "weights": [[1.0] * 4]}}))
        args = ["separate", "--input", str(mix_path), "--config", str(config)]
    else:
        args = ["wiener", "--mix", str(mix_path), "--mags", str(mag_dir),
                "--fft-size", "512", "--stft-hop", "128"]
    assert main(args + ["--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error negative-magnitude: {mag_dir / 'other.mag'}: "
                          "negative magnitudes in frames ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_unknown_weights_key_is_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(19)
    stems = make_waveform_set(rng, length=200, scale=0.3)
    dirs = [str(write_stem_dir(tmp_path / f"m{i}", stems)) for i in range(3)]
    payload = json.loads(resources.files("stemfuse").joinpath("data/default_weights.json")
                         .read_text())
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(dict(payload, extra=1)))
    out_dir = tmp_path / "fused"
    code = main(["blend", "--stems", *dirs, "--weights", str(weights), "--out", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error invalid-input: weights JSON") and "'extra'" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()
    weights.write_text(json.dumps(payload))  # the shipped defaults, as a file, still load
    assert main(["blend", "--stems", *dirs, "--weights", str(weights), "--out", str(out_dir)]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("command", ["separate", "wiener"])
def test_separate_is_byte_identical_on_one_cpu_and_on_all(tmp_path, command):
    rng = np.random.default_rng(20)
    mix_path, _ = write_mix(tmp_path, rng, length=SR)  # several blocks of frames
    if command == "separate":
        args = ["separate", "--input", str(mix_path), "--config", str(small_toy_config(tmp_path))]
        names = ("drums", "bass", "other", "vocals")
    else:
        names = ("lead", "rest", "zz")
        mag_dir = tmp_path / "mags"
        mag_dir.mkdir()
        shape = stft(read_wav(mix_path), StftConfig(fft_size=512, hop=128)).bins.shape
        for name in names:
            write_magnitudes(mag_dir / f"{name}.mag", rng.uniform(0.0, 1.0, size=shape))
        args = ["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--fft-size", "512",
                "--stft-hop", "128", "--iterations", "2"]
    one_cpu = min(os.sched_getaffinity(0))
    python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path)))
    for out, pin in (("one_cpu", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
        proc = subprocess.run([sys.executable, "-m", "stemfuse.cli", *args, "--out",
                               str(tmp_path / out)],
                              env=env, preexec_fn=pin, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in names:
        assert ((tmp_path / "one_cpu" / f"{name}.wav").read_bytes()
                == (tmp_path / "all" / f"{name}.wav").read_bytes())
    written = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert written == sorted(f"{name}.wav" for name in names)


def test_wiener_magnitudes_of_another_fft_size_are_one_error_line_naming_the_file(
        tmp_path, capsys):
    rng = np.random.default_rng(26)
    mix_path, _ = write_mix(tmp_path, rng, length=2048)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    for name, fft_size in (("a", 512), ("b", 256)):
        cfg = StftConfig(fft_size=fft_size, hop=128)
        write_magnitudes(mag_dir / f"{name}.mag", np.abs(stft(read_wav(mix_path), cfg).bins))
    out_dir = tmp_path / "out"
    code = main(["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--out", str(out_dir),
                 "--fft-size", "512", "--stft-hop", "128"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error shape-mismatch: {mag_dir / 'b.mag'}: magnitude shape ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_wiener_on_three_channels_blames_the_mixture_before_any_magnitude_file(
        tmp_path, capsys):
    rng = np.random.default_rng(27)
    mix_path = tmp_path / "mix.wav"
    write_wav(make_waveform(rng, channels=3, length=2048, scale=0.4), mix_path)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    # stereo magnitudes, which do not fit the mixture either
    stereo = stft(make_waveform(rng, length=2048), StftConfig(fft_size=512, hop=128))
    write_magnitudes(mag_dir / "a.mag", np.abs(stereo.bins))
    out_dir = tmp_path / "out"
    code = main(["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--out", str(out_dir),
                 "--fft-size", "512", "--stft-hop", "128"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error shape-mismatch: only mono and stereo are supported, got 3 channels\n"
    assert not out_dir.exists()


def test_wiener_iterations_over_the_bound_are_one_error_line(tmp_path, capsys):
    # each EM pass is a sweep over the whole track: 1000 is hours on one song
    assert MwfConfig(iterations=1000).iterations == 1000
    mix_path, _ = write_mix(tmp_path, np.random.default_rng(33), length=2048)
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    write_magnitudes(mag_dir / "a.mag", np.ones((2, 17, 257)))
    out_dir = tmp_path / "out"
    code = main(["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--out", str(out_dir),
                 "--fft-size", "512", "--stft-hop", "128", "--iterations", "1001"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error invalid-input: iterations must be an integer in [0, 1000], got 1001\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("fault", ["nan-in-the-last-frames", "failed-last-write"])
@pytest.mark.parametrize("command", ["separate", "wiener"])
def test_a_late_failure_leaves_no_stem_no_temp_file_and_no_out(
        tmp_path, capsys, monkeypatch, command, fault):
    # no EM pass, so the one sweep has written the stems' earlier blocks when it fails
    rng = np.random.default_rng(34)
    mix_path, _ = write_mix(tmp_path, rng, length=SR // 2)  # 173 frames, several blocks
    mag_dir = tmp_path / "mags"
    mag_dir.mkdir()
    mags = np.abs(stft(read_wav(mix_path), StftConfig(fft_size=512, hop=128)).bins)
    for name in ("drums", "bass", "vocals"):
        write_magnitudes(mag_dir / f"{name}.mag", mags)
    if fault == "nan-in-the-last-frames":
        mags[1, -1, 40] = np.nan
        want = f"error non-finite-samples: {mag_dir / 'other.mag'}: "
    else:  # the write that would finish the last stem fails
        payload, frames = audio_io._payload, {"left": 4 * (SR // 2)}

        def out_of_space(samples, encoding):
            frames["left"] -= samples.shape[-1]
            if not frames["left"]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return payload(samples, encoding)

        monkeypatch.setattr(audio_io, "_payload", out_of_space)
        want = "error io-failure: cannot write "
    write_magnitudes(mag_dir / "other.mag", mags)
    if command == "separate":
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "models": [{"name": "m", "domain": "TF", "source": str(mag_dir)}],
            "stft": {"fft_size": 512, "hop": 128}, "mwf": {"iterations": 0},
            "weights": {"models": ["m"], "sources": ["drums", "bass", "other", "vocals"],
                        "weights": [[1.0] * 4]}}))
        args = ["separate", "--input", str(mix_path), "--config", str(config)]
    else:
        args = ["wiener", "--mix", str(mix_path), "--mags", str(mag_dir), "--fft-size", "512",
                "--stft-hop", "128", "--iterations", "0"]
    out_dir = tmp_path / "new" / "out"
    assert main(args + ["--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(want) and err.count("\n") == 1, err
    assert not (tmp_path / "new").exists()
    assert not list(tmp_path.rglob("*.tmp")) and not list(tmp_path.rglob("*.wav.*"))


def test_separate_never_imports_concurrent_futures(tmp_path):
    # the sweeps run on plain threads; the thread pool's import alone was
    # ~6 ms of every run's serial time
    mix_path, _ = write_mix(tmp_path, np.random.default_rng(35))
    args = ["separate", "--input", str(mix_path), "--config", str(small_toy_config(tmp_path)),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from stemfuse.cli import main; "
            f"code = main({args!r}); print(code, 'concurrent.futures' in sys.modules)")
    python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize("command", ["eval", "search-weights"])
def test_output_in_a_missing_directory_is_one_io_failure_naming_it(tmp_path, capsys, command):
    rng = np.random.default_rng(17)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=512, scale=0.3))
    out = tmp_path / "missing" / "r.json"
    head = (["eval", "--estimates", str(refs)] if command == "eval"
            else ["search-weights", "--stems", str(refs), "--grid-step", "0.5"])
    code = main(head + ["--references", str(refs), "--out", str(out), "--filter-len", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error io-failure: ") and err.count("\n") == 1
    assert f"'{out}'" in err and ".tmp" not in err
    assert not out.parent.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs"]
