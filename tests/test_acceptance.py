"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -s`)."""

import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np

from stemfuse import (
    EvalConfig,
    MwfConfig,
    SdrReport,
    SourceSpectrogramSet,
    SourceWaveformSet,
    Spectrogram,
    StftConfig,
    Waveform,
    aggregate,
    blend,
    conv_param_count,
    decoder_interior_weight_count,
    demucs_like_spec,
    em_iterate,
    freq_mse,
    freq_mse_grad,
    initial_estimates,
    istft,
    median_sdr,
    mwf,
    sdr_frames,
    stft,
    validate_weights,
)
from stemfuse.cli import main as cli_main

from helpers import dense_frame_sdr, em_once_oracle, make_complex, make_waveform_set

SR = 44100
SMALL_CFG = StftConfig(fft_size=16, hop=4)


def report_line(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def small_spec_set(arrays):
    return SourceSpectrogramSet([Spectrogram(a, SMALL_CFG, SR) for a in arrays])


def random_scene(rng, num_sources=4, channels=2, frames=6):
    shape = (channels, frames, SMALL_CFG.num_bins)
    truths = [make_complex(rng, shape) for _ in range(num_sources)]
    mix = Spectrogram(sum(truths), SMALL_CFG, SR)
    return truths, mix, [np.abs(t) for t in truths]


def test_criterion_01_shipped_weights_validate():
    payload = json.loads(
        resources.files("stemfuse").joinpath("data/default_weights.json").read_text()
    )
    weights = validate_weights(
        payload["weights"], model_names=payload["models"], source_names=payload["sources"]
    )
    sums = weights.weights.sum(axis=0)
    ok = bool(np.max(np.abs(sums - 1.0)) <= 1e-9) and weights.num_sources == 4
    report_line(1, ok, "shipped default weights validate; columns sum to 1 within 1e-9")


def test_criterion_02_average_of_fixed_medians():
    medians = dict(zip(("drums", "bass", "other", "vocals"), (7.2, 7.05, 5.2, 7.63)))
    report = SdrReport(
        per_source_frames={k: [v] for k, v in medians.items()},
        per_source_median=medians,
        overall_avg=float(np.mean(list(medians.values()))),
    )
    agg = aggregate([report])
    ok = abs(agg.overall_avg - 6.77) <= 0.005
    report_line(2, ok, "per-source medians (7.2, 7.05, 5.2, 7.63) average to 6.77")


def test_criterion_03_stft_roundtrip_100_signals():
    rng = np.random.default_rng(100)
    cfg = StftConfig()  # 4096 / 1024, the shipped default
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(SR, 3 * SR + 1))
        wave = Waveform(rng.uniform(-1.0, 1.0, size=(2, length)), SR)
        back = istft(stft(wave, cfg), length=length)
        worst = max(worst, float(np.max(np.abs(back.samples - wave.samples))))
    ok = worst <= 1e-6
    report_line(3, ok, f"istft(stft(x)) on 100 stereo signals, worst error {worst:.3e} <= 1e-6")


def test_criterion_04_loss_gradient_suite():
    rng = np.random.default_rng(101)
    step = 1e-4
    worst_grad = 0.0
    worst_mse = 0.0
    for _ in range(100):
        shape = (1, 2, SMALL_CFG.num_bins)
        truth = small_spec_set([make_complex(rng, shape) for _ in range(2)])
        est = small_spec_set([make_complex(rng, shape) for _ in range(2)])
        grads = freq_mse_grad(truth, est)
        direction = [make_complex(rng, g.shape) for g in grads]
        analytic = sum(
            2.0 * float(np.sum((np.conj(g) * d).real)) for g, d in zip(grads, direction)
        )
        plus = small_spec_set([e.bins + step * d for e, d in zip(est.sources, direction)])
        minus = small_spec_set([e.bins - step * d for e, d in zip(est.sources, direction)])
        numeric = (freq_mse(truth, plus) - freq_mse(truth, minus)) / (2 * step)
        worst_grad = max(worst_grad, abs(numeric - analytic) / max(abs(analytic), 1e-12))

        oracle = 0.0
        for t, e in zip(truth.sources, est.sources):
            for value in (e.bins - t.bins).ravel():
                oracle += abs(value) ** 2
        got = freq_mse(truth, est)
        worst_mse = max(worst_mse, abs(got - oracle) / oracle)
    ok = worst_grad < 1e-5 and worst_mse <= 1e-9
    report_line(
        4,
        ok,
        f"gradient vs finite differences rel {worst_grad:.3e} < 1e-5; "
        f"freq_mse vs scalar oracle rel {worst_mse:.3e} <= 1e-9",
    )


def test_criterion_05_mwf_conservation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(50):
        channels = 1 + trial % 2
        _, mix, mags = random_scene(rng, channels=channels)
        for iterations in (0, 1, 2, 5):
            out = mwf(mags, mix, MwfConfig(iterations=iterations, eps=1e-10))
            total = sum(s.bins for s in out.sources)
            where = np.abs(mix.bins) > 1e-6
            rel = float(np.max(np.abs(total - mix.bins)[where] / np.abs(mix.bins)[where]))
            worst = max(worst, rel)
    conservation_ok = worst <= 1e-4

    _, mix, _ = random_scene(rng, num_sources=1)
    single = mwf([np.abs(mix.bins)], mix, MwfConfig(iterations=1))
    single_rel = float(
        np.max(np.abs(single.sources[0].bins - mix.bins)) / np.max(np.abs(mix.bins))
    )
    single_ok = single_rel <= 1e-9

    _, mono_mix, mono_mags = random_scene(rng, channels=1)
    masked = mwf(mono_mags, mono_mix, MwfConfig(iterations=0, mask_power=2.0))
    powered = np.stack(mono_mags) ** 2
    ratios = powered / powered.sum(axis=0)
    mask_err = max(
        float(np.max(np.abs(got.bins - ratio * mono_mix.bins)))
        for got, ratio in zip(masked.sources, ratios)
    )
    mask_ok = mask_err <= 1e-9

    ok = conservation_ok and single_ok and mask_ok
    report_line(
        5,
        ok,
        f"MWF conservation worst rel {worst:.3e} <= 1e-4; single-source rel "
        f"{single_rel:.3e} <= 1e-9; mono mask error {mask_err:.3e} <= 1e-9",
    )


def test_criterion_06_em_matches_scalar_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(20):
        channels = 1 + trial % 2
        num_sources = 2 + trial % 2
        truths, mix, mags = random_scene(rng, num_sources=num_sources,
                                         channels=channels, frames=2)
        est = initial_estimates(mags, mix)
        cfg = MwfConfig(iterations=1, eps=1e-10)
        got = em_iterate(est, mix, cfg)
        want = em_once_oracle([s.bins for s in est.sources], mix.bins, cfg.eps)
        for g, w in zip(got.sources, want):
            worst = max(worst, float(np.max(np.abs(g.bins - w))))
    ok = worst <= 1e-8
    report_line(6, ok, f"1-iteration EM vs scalar oracle, worst abs diff {worst:.3e} <= 1e-8")


def test_criterion_07_bsseval_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(512, 4097))
        filter_len = int(rng.integers(1, 17))
        refs = make_waveform_set(rng, channels=1, length=length)
        noisy = SourceWaveformSet(
            [
                Waveform(s.samples + 0.3 * rng.normal(size=s.samples.shape), SR)
                for s in refs.sources
            ]
        )
        cfg = EvalConfig(filter_len=filter_len, win=length / SR, hop=length / SR)
        report = sdr_frames(refs, noisy, cfg)
        ref_stack = refs.stacked()
        est_stack = noisy.stacked()
        for j, label in enumerate(("drums", "bass", "other", "vocals")):
            want = dense_frame_sdr(ref_stack, est_stack[j], filter_len, j)
            worst = max(worst, abs(report.per_source_median[label] - want))
    oracle_ok = worst <= 1e-6

    length = 4096
    n = np.arange(length)

    def tone(k):
        return np.sin(2 * np.pi * k * n / length)

    refs = SourceWaveformSet([Waveform(tone(k), SR) for k in (8, 24, 32, 40)])
    est = SourceWaveformSet(
        [Waveform(tone(8) + 0.1 * tone(16), SR)]
        + [Waveform(tone(k), SR) for k in (24, 32, 40)]
    )
    cfg = EvalConfig(filter_len=1, win=length / SR, hop=length / SR)
    twenty = sdr_frames(refs, est, cfg).per_source_median["drums"]
    twenty_ok = abs(twenty - 20.0) <= 0.1

    capped = sdr_frames(refs, refs, cfg)
    cap_ok = all(v == 300.0 for v in capped.per_source_median.values())

    ok = oracle_ok and twenty_ok and cap_ok
    report_line(
        7,
        ok,
        f"framewise SDR vs dense oracle worst {worst:.3e} dB <= 1e-6; orthogonal "
        f"noise case {twenty:.4f} dB = 20 +- 0.1; identical signals capped at 300",
    )


def test_criterion_08_fusion_beats_parts():
    rng = np.random.default_rng(105)
    length = 4096
    refs = make_waveform_set(rng, channels=1, length=length)
    noise = [0.2 * rng.normal(size=(1, length)) for _ in range(4)]
    model_a = SourceWaveformSet(
        [Waveform(s.samples + n, SR) for s, n in zip(refs.sources, noise)]
    )
    model_b = SourceWaveformSet(
        [Waveform(s.samples - n, SR) for s, n in zip(refs.sources, noise)]
    )
    fused = blend([model_a, model_b], validate_weights([[0.5] * 4, [0.5] * 4]))
    cfg = EvalConfig(filter_len=4, win=length / SR, hop=length / SR)
    margin = np.inf
    for j in range(4):
        fused_sdr = median_sdr(refs, fused.sources[j], j, cfg)
        sdr_a = median_sdr(refs, model_a.sources[j], j, cfg)
        sdr_b = median_sdr(refs, model_b.sources[j], j, cfg)
        margin = min(margin, fused_sdr - max(sdr_a, sdr_b))
    ok = margin >= 3.0
    report_line(
        8, ok, f"blended SDR beats both single models by {margin:.1f} dB >= 3 dB"
    )


def test_criterion_09_parameter_parity():
    wide = demucs_like_spec(decoder_hidden=48, num_decoders=1)
    narrow = demucs_like_spec(decoder_hidden=24, num_decoders=4)
    interior_equal = decoder_interior_weight_count(wide) == decoder_interior_weight_count(
        narrow
    )
    total_wide = conv_param_count(wide)
    total_narrow = conv_param_count(narrow)
    ratio = abs(total_narrow - total_wide) / total_wide
    ok = interior_equal and ratio <= 0.10
    report_line(
        9,
        ok,
        f"1x48 vs 4x24 decoders: interior weights equal; totals differ by "
        f"{100 * ratio:.1f}% <= 10%",
    )


def _synthetic_four_source_mixture(rng, seconds=10):
    length = seconds * SR
    n = np.arange(length)
    parts = []
    for k, band in enumerate((80.0, 500.0, 3000.0, 9000.0)):
        tone = 0.2 * np.sin(2 * np.pi * band * n / SR + k)
        noise = 0.05 * rng.normal(size=(2, length))
        parts.append(noise + tone[None, :])
    return Waveform(np.clip(sum(parts), -1.0, 1.0), SR)


def test_criterion_10_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(106)
    mix = _synthetic_four_source_mixture(rng)
    mix_path = tmp_path / "mix.wav"
    from stemfuse import write_wav

    write_wav(mix, mix_path)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(
        resources.files("stemfuse").joinpath("data/toy_pipeline.json").read_text()
    )

    out_dirs = [tmp_path / f"run{i}" for i in range(3)]
    code = cli_main(["separate", "--input", str(mix_path), "--config", str(config_path),
                     "--out", str(out_dirs[0])])
    assert code == 0

    # the child processes import the same stemfuse as this process
    python_path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    for out_dir, threads in zip(out_dirs[1:], ("1", "4")):
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, python_path)),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "stemfuse.cli", "separate", "--input", str(mix_path),
             "--config", str(config_path), "--out", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    identical = True
    for name in ("drums", "bass", "other", "vocals"):
        blobs = [(d / f"{name}.wav").read_bytes() for d in out_dirs]
        identical = identical and blobs[0] == blobs[1] == blobs[2]
    report_line(
        10, identical, "stems byte-identical across repeat runs and thread counts"
    )
