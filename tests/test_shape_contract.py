"""One fault, one code: inputs that differ in exactly one size fail with the
same error class (and CLI code) at every entry point where stem sets meet."""

import json
import re

import numpy as np
import pytest

from stemfuse import (
    SOURCE_NAMES,
    EvalConfig,
    SourceSpectrogramSet,
    SourceWaveformSet,
    Spectrogram,
    StftConfig,
    Waveform,
    blend,
    combined_loss,
    freq_mse,
    freq_mse_grad,
    l1_waveform,
    load_stem_dir,
    median_sdr,
    project_subspace,
    sdr_frames,
    search_weights,
    time_domain_loss,
    validate_weights,
    write_wav,
)
from stemfuse.cli import main
from stemfuse.errors import ConfigMismatch, LengthMismatch, SampleRateMismatch, ShapeMismatch

from helpers import write_stem_dir

SR = 44100
CFG = StftConfig(fft_size=16, hop=4)
EVAL = EvalConfig(filter_len=4, win=1.0, hop=1.0)
# fault: (the size as messages name it, its usual value, the odd value, the error)
FAULTS = {
    "length": ("length", 300, 299, LengthMismatch),
    "frames": ("frames", 3, 2, LengthMismatch),
    "rate": ("sample rate", SR, 48000, SampleRateMismatch),
    "channels": ("channels", 2, 1, ShapeMismatch),
    "sources": ("sources", 4, 3, ShapeMismatch),
    "config": ("STFT config", CFG, StftConfig(fft_size=16, hop=8), ConfigMismatch),
}


def sizes(fault) -> dict:
    """The keyword of `waves` or `specs` that makes the size of `fault` odd."""
    return {fault: FAULTS[fault][2]}


def waves(seed=0, sources=4, channels=2, length=300, rate=SR) -> SourceWaveformSet:
    rng = np.random.default_rng(seed)
    return SourceWaveformSet([Waveform(0.3 * rng.normal(size=(channels, length)), rate)
                              for _ in range(sources)])


def specs(seed=0, sources=4, channels=2, frames=3, rate=SR, config=CFG) -> SourceSpectrogramSet:
    rng = np.random.default_rng(seed)
    shape = (channels, frames, config.num_bins)
    return SourceSpectrogramSet([Spectrogram(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                                             config, rate) for _ in range(sources)])


def odd_waves(fault) -> SourceWaveformSet:
    return waves(1, **sizes(fault))


def odd_specs(fault) -> SourceSpectrogramSet:
    return specs(1, **sizes(fault))


def odd_member(make, fault):
    """A set whose last member differs from the others in the size of `fault`."""
    usual = make()
    return type(usual)(usual.sources[:3] + make(1, **sizes(fault)).sources[:1])


WAVE_FAULTS = ("length", "rate", "channels")
SPEC_FAULTS = ("frames", "rate", "channels", "config")
HALVES = validate_weights([[0.5] * 4] * 2)
CASES = {  # entry point: (the faults it can meet, a call with inputs odd in the fault)
    "SourceWaveformSet": (WAVE_FAULTS, lambda f: odd_member(waves, f)),
    "SourceSpectrogramSet": (SPEC_FAULTS, lambda f: odd_member(specs, f)),
    "sdr_frames": (WAVE_FAULTS + ("sources",), lambda f: sdr_frames(waves(), odd_waves(f), EVAL)),
    "median_sdr": (WAVE_FAULTS, lambda f: median_sdr(waves(), odd_waves(f).sources[0], 0, EVAL)),
    "project_subspace": (WAVE_FAULTS,
                         lambda f: project_subspace(waves(), odd_waves(f).sources[0], 4, 0)),
    "blend": (WAVE_FAULTS + ("sources",), lambda f: blend([waves(), odd_waves(f)], HALVES)),
    "search_weights models": (WAVE_FAULTS + ("sources",), lambda f: search_weights(
        [waves(), odd_waves(f)], waves(2), 0.5, EVAL)),
    "search_weights references": (WAVE_FAULTS + ("sources",), lambda f: search_weights(
        [waves(), waves(1)], waves(2, **sizes(f)), 0.5, EVAL)),
    "freq_mse": (SPEC_FAULTS + ("sources",), lambda f: freq_mse(specs(), odd_specs(f))),
    "freq_mse_grad": (SPEC_FAULTS + ("sources",), lambda f: freq_mse_grad(specs(), odd_specs(f))),
    "l1_waveform": (WAVE_FAULTS + ("sources",), lambda f: l1_waveform(waves(), odd_waves(f))),
    "time_domain_loss": (WAVE_FAULTS + ("sources",),
                         lambda f: time_domain_loss(waves(), odd_waves(f))),
    "combined_loss": (WAVE_FAULTS + ("sources",),
                      lambda f: combined_loss(specs(), specs(1), waves(), odd_waves(f))),
}


def message_names_the_size(message: str, fault: str) -> bool:
    size, usual, odd, _ = FAULTS[fault]
    values = rf"({re.escape(str(usual))} vs {re.escape(str(odd))}"
    values += rf"|{re.escape(str(odd))} vs {re.escape(str(usual))})"
    return re.search(rf"differ in {size}: {values}", message) is not None


@pytest.mark.parametrize("entry, fault", [(entry, fault) for entry, (faults, _) in CASES.items()
                                          for fault in faults])
def test_one_fault_one_error_class(entry, fault):
    with pytest.raises(FAULTS[fault][3]) as caught:
        CASES[entry][1](fault)
    assert caught.type is FAULTS[fault][3]
    assert message_names_the_size(str(caught.value), fault), str(caught.value)


def cli_args(command, dirs, tmp_path):
    if command == "eval":
        return ["eval", "--estimates", dirs[0], "--references", dirs[1],
                "--out", str(tmp_path / "r.json"), "--filter-len", "4"]
    if command == "search-weights":
        return ["search-weights", "--stems", *dirs[:2], "--references", dirs[2],
                "--out", str(tmp_path / "w.json"), "--grid-step", "0.5", "--filter-len", "4"]
    return ["blend", "--stems", *dirs, "--out", str(tmp_path / "fused")]


@pytest.mark.parametrize("where", ["within a directory", "between directories"])
@pytest.mark.parametrize("fault", WAVE_FAULTS)
@pytest.mark.parametrize("command", ["eval", "search-weights", "blend"])
def test_one_fault_one_cli_code(tmp_path, capsys, command, fault, where):
    # blend with the shipped weights takes three model directories
    dirs = [write_stem_dir(tmp_path / f"d{i}", waves(i)) for i in range(3)]
    odd = waves(3, **sizes(fault))
    if where == "within a directory":  # its vocals alone
        write_wav(odd.sources[3], dirs[1] / "vocals.wav", encoding="float32")
    else:  # the second directory: the references of `eval`, a model's stems otherwise
        write_stem_dir(dirs[1], odd)
    assert main(cli_args(command, [str(d) for d in dirs], tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error {FAULTS[fault][3].code}: "), err
    assert message_names_the_size(err, fault), err


@pytest.mark.parametrize("fault", ["length", "rate"])
@pytest.mark.parametrize("command", ["eval", "search-weights", "blend"])
def test_a_stem_fault_names_its_file(tmp_path, capsys, command, fault):
    # the odd stem last, then first: a set's members are checked against its first
    for j in (3, 0):
        dirs = [write_stem_dir(tmp_path / f"{j}d{i}", waves(i)) for i in range(3)]
        odd = dirs[1] / f"{SOURCE_NAMES[j]}.wav"  # in the references of `eval`, a model's otherwise
        write_wav(waves(3, **sizes(fault)).sources[j], odd, encoding="float32")
        assert main(cli_args(command, [str(d) for d in dirs], tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error {FAULTS[fault][3].code}: "), err
        assert message_names_the_size(err, fault) and str(odd) in err, err


def t_stem_config(tmp_path, stem_dir):
    """A `separate` config whose one model is the T stem directory `stem_dir`."""
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({
        "models": [{"name": "t", "domain": "T", "source": str(stem_dir)}],
        "stft": {"fft_size": CFG.fft_size, "hop": CFG.hop},
        "weights": {"models": ["t"], "sources": list(SOURCE_NAMES), "weights": [[1.0] * 4]},
    }))
    return path


@pytest.mark.parametrize("extra, code", [(CFG.hop, 0), (CFG.hop + 1, 1)])
def test_a_t_stem_fault_names_its_file(tmp_path, capsys, extra, code):
    mix_path = tmp_path / "mix.wav"
    write_wav(waves(0, sources=1).sources[0], mix_path, encoding="float32")
    stem_dir = write_stem_dir(tmp_path / "t", waves(1))
    vocals = stem_dir / "vocals.wav"  # longer than the mixture by `extra` samples
    write_wav(waves(2, length=300 + extra).sources[3], vocals, encoding="float32")
    config = t_stem_config(tmp_path, stem_dir)
    assert main(["separate", "--input", str(mix_path), "--config", str(config),
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == code
    if code:
        assert err.startswith("error length-mismatch: "), err
        assert f"differ in length: 300 vs {300 + extra} ({mix_path} vs {vocals})" in err, err


def test_a_t_stem_is_checked_for_length_before_rate(tmp_path):
    mix = waves(0, sources=1).sources[0]
    stem_dir = write_stem_dir(tmp_path / "t", waves(1))
    write_wav(waves(2, length=300 + CFG.hop + 1, rate=48000).sources[3], stem_dir / "vocals.wav",
              encoding="float32")
    with pytest.raises(LengthMismatch, match="vocals.wav"):
        load_stem_dir(stem_dir, like=mix, length_tolerance=CFG.hop)
