import numpy as np
import pytest

from stemfuse import Spectrogram, StftConfig, Waveform, istft, magnitude, stft
from stemfuse.errors import ConfigMismatch, EmptySignal

from helpers import COLA_TOL, cola_deviation, make_waveform

CFG = StftConfig(fft_size=256, hop=64)


def naive_dft_frame(signal: np.ndarray, cfg: StftConfig, frame: int) -> np.ndarray:
    """Direct DFT of one centered, windowed frame (independent oracle)."""
    n = cfg.fft_size
    start = frame * cfg.hop - n // 2
    segment = np.zeros(n)
    for i in range(n):
        idx = start + i
        if 0 <= idx < signal.size:
            segment[i] = signal[idx]
    segment = segment * cfg.window_array()
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) @ segment
    return dft[:n // 2 + 1]


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.fft_size == 4096 and cfg.hop == 1024 and cfg.center_pad

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StftConfig(fft_size=1000, hop=250)

    def test_rejects_non_cola_hop(self):
        with pytest.raises(ValueError, match="overlap-add"):
            StftConfig(fft_size=256, hop=100)

    def test_rejects_hop_equal_fft_size(self):
        # hann tiled without overlap is not constant
        with pytest.raises(ValueError, match="overlap-add"):
            StftConfig(fft_size=256, hop=256)

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError):
            StftConfig(window="hamming")

    def test_half_overlap_allowed(self):
        assert StftConfig(fft_size=256, hop=128).num_bins == 129

    @pytest.mark.parametrize("kwargs", [
        dict(fft_size=256.0, hop=64), dict(fft_size="256", hop=64), dict(fft_size=True, hop=1),
        dict(fft_size=256, hop=64.0), dict(fft_size=256, hop=64, center_pad="yes"),
        dict(fft_size=256, hop=64, center_pad=1),
    ])
    def test_rejects_values_of_the_wrong_type(self, kwargs):
        with pytest.raises(ValueError):
            StftConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        assert StftConfig(fft_size=np.int64(256), hop=np.int32(64)).num_bins == 129

    @pytest.mark.parametrize("fft_size", [1 << k for k in range(1, 13)])
    def test_overlap_add_rule_accepts_what_the_scan_accepts(self, fft_size):
        window = StftConfig(fft_size=fft_size, hop=1).window_array()
        for hop in range(1, fft_size + 1):
            try:
                StftConfig(fft_size=fft_size, hop=hop)
                accepted = True
            except ValueError as error:
                assert "fails constant overlap-add" in str(error)
                accepted = False
            assert accepted == (cola_deviation(window, hop) <= COLA_TOL), hop

    def test_overlap_add_rule_builds_no_window(self, monkeypatch):
        # at hop 2, a scan of the overlap-added window would add it ~655,000 times
        def refuse(*args):
            raise AssertionError("the overlap-add check built the window")

        monkeypatch.setattr(StftConfig, "window_array", refuse)
        assert StftConfig(fft_size=1 << 18, hop=2).num_bins == (1 << 17) + 1
        with pytest.raises(ValueError, match="fails constant overlap-add"):
            StftConfig(fft_size=1 << 18, hop=3)


class TestForward:
    def test_zero_signal(self):
        spec = stft(Waveform(np.zeros((2, 500)), 44100), CFG)
        assert np.all(spec.bins == 0)

    def test_frame_count_and_bins(self):
        w = make_waveform(np.random.default_rng(0), channels=2, length=1000)
        spec = stft(w, CFG)
        assert spec.bins.shape == (2, 1000 // CFG.hop + 1, CFG.fft_size // 2 + 1)

    def test_empty_signal_raises(self):
        with pytest.raises(EmptySignal):
            stft(Waveform(np.zeros((1, 0)), 44100), CFG)

    def test_uncentered_short_signal_raises(self):
        cfg = StftConfig(fft_size=256, hop=64, center_pad=False)
        with pytest.raises(EmptySignal):
            stft(Waveform(np.zeros((1, 100)), 44100), cfg)

    def test_impulse_at_frame_center(self):
        # unit impulse aligned with a frame center sees the window peak,
        # so every bin of that frame has magnitude exactly 1.0
        x = np.zeros(6 * CFG.fft_size)
        t = 8
        x[t * CFG.hop] = 1.0
        spec = stft(Waveform(x, 44100), CFG)
        assert np.max(np.abs(np.abs(spec.bins[0, t]) - 1.0)) < 1e-9

    def test_cosine_at_exact_bin(self):
        # hann windowing spreads an on-bin cosine over bins k-1, k, k+1
        # with amplitude ratio 2:1; the direct-DFT oracle puts 2/3 of the
        # one-sided frame energy in bin k and everything within the trio.
        k = 10
        n = np.arange(6 * CFG.fft_size)
        x = np.cos(2 * np.pi * k * n / CFG.fft_size)
        spec = stft(Waveform(x, 44100), CFG)
        frame = spec.frames // 2
        oracle = naive_dft_frame(x, CFG, frame)
        assert np.max(np.abs(spec.bins[0, frame] - oracle)) < 1e-9 * CFG.fft_size

        weights = np.ones(CFG.num_bins)
        weights[1:-1] = 2.0  # one-sided doubling
        energy = weights * np.abs(oracle) ** 2
        total = float(np.sum(energy))
        assert np.argmax(energy) == k
        assert energy[k] / total == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert np.sum(energy[k - 1:k + 2]) / total > 0.999

    def test_dc_and_nyquist_bins_real(self):
        w = make_waveform(np.random.default_rng(1), channels=1, length=2000)
        spec = stft(w, CFG)
        assert np.max(np.abs(spec.bins[..., 0].imag)) < 1e-9
        assert np.max(np.abs(spec.bins[..., -1].imag)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = make_waveform(rng, channels=2, length=1500)
        y = make_waveform(rng, channels=2, length=1500)
        combo = Waveform(0.7 * x.samples - 1.3 * y.samples, 44100)
        lhs = stft(combo, CFG).bins
        rhs = 0.7 * stft(x, CFG).bins - 1.3 * stft(y, CFG).bins
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_parseval_consistency(self):
        rng = np.random.default_rng(3)
        cfg = StftConfig(fft_size=1024, hop=256)
        w = make_waveform(rng, channels=1, length=10 * 44100)
        spec = stft(w, cfg)
        weights = np.ones(cfg.num_bins)
        weights[1:-1] = 2.0
        spec_energy = float(np.sum(weights * np.abs(spec.bins) ** 2)) / cfg.fft_size
        window_gain = float(np.sum(cfg.window_array() ** 2)) / cfg.hop  # 1.5 for hann, N/4 hop
        signal_energy = float(np.sum(w.samples ** 2))
        assert spec_energy / window_gain == pytest.approx(signal_energy, rel=0.01)


def frame_loop_istft(s: Spectrogram, length: int) -> np.ndarray:
    """Overlap-add one frame at a time, in frame order."""
    n, hop = s.config.fft_size, s.config.hop
    window = s.config.window_array()
    frames_td = np.fft.irfft(s.bins, n=n, axis=-1) * window
    total = (s.frames - 1) * hop + n
    acc = np.zeros((s.channels, total))
    envelope = np.zeros(total)
    for t in range(s.frames):
        acc[:, t * hop:t * hop + n] += frames_td[:, t]
        envelope[t * hop:t * hop + n] += window * window
    start = n // 2 if s.config.center_pad else 0
    return (acc / np.maximum(envelope, 1e-12))[:, start:start + length]


class TestInverse:
    @pytest.mark.parametrize("fft_size, hop, center_pad", [
        (16, 4, True), (16, 8, False), (256, 64, True), (8, 2, False), (2, 1, True)])
    def test_blocked_overlap_add_equals_frame_loop_bitwise(self, fft_size, hop, center_pad):
        cfg = StftConfig(fft_size=fft_size, hop=hop, center_pad=center_pad)
        rng = np.random.default_rng(fft_size + hop)
        shape = (2, 9, cfg.num_bins)
        spec = Spectrogram(rng.normal(size=shape) + 1j * rng.normal(size=shape), cfg, 44100)
        length = 8 * hop
        np.testing.assert_array_equal(istft(spec, length=length).samples,
                                      frame_loop_istft(spec, length))

    def test_zeros(self):
        spec = stft(Waveform(np.zeros((2, 700)), 44100), CFG)
        out = istft(spec, length=700)
        assert out.samples.shape == (2, 700)
        assert np.all(out.samples == 0)

    def test_roundtrip_random_stereo(self):
        rng = np.random.default_rng(4)
        w = make_waveform(rng, channels=2, length=2 * 44100, scale=0.9)
        back = istft(stft(w, CFG), length=w.length)
        assert np.max(np.abs(back.samples - w.samples)) <= 1e-6

    def test_roundtrip_pure_sine(self):
        n = np.arange(44100)
        w = Waveform(np.sin(2 * np.pi * 440 * n / 44100), 44100)
        back = istft(stft(w, CFG), length=w.length)
        assert np.max(np.abs(back.samples - w.samples)) <= 1e-6

    def test_roundtrip_awkward_length(self):
        rng = np.random.default_rng(5)
        w = make_waveform(rng, channels=2, length=12345)
        back = istft(stft(w, CFG), length=w.length)
        assert np.max(np.abs(back.samples - w.samples)) <= 1e-6

    def test_config_mismatch(self):
        w = make_waveform(np.random.default_rng(6), length=1000)
        spec = stft(w, CFG)
        with pytest.raises(ConfigMismatch):
            istft(spec, StftConfig(fft_size=512, hop=128))

    def test_matching_config_accepted(self):
        w = make_waveform(np.random.default_rng(7), length=1000)
        spec = stft(w, CFG)
        out = istft(spec, StftConfig(fft_size=256, hop=64), length=w.length)
        assert np.max(np.abs(out.samples - w.samples)) <= 1e-6

    def test_length_beyond_extent(self):
        w = make_waveform(np.random.default_rng(8), length=1000)
        spec = stft(w, CFG)
        with pytest.raises(ConfigMismatch):
            istft(spec, length=10_000)


class TestMagnitude:
    def test_zeros(self):
        spec = stft(Waveform(np.zeros((1, 300)), 44100), CFG)
        assert np.all(magnitude(spec) == 0)

    def test_pythagorean_bin(self):
        bins = np.zeros((1, 1, CFG.num_bins), dtype=complex)
        bins[0, 0, 5] = 3 + 4j
        spec = Spectrogram(bins, CFG, 44100)
        assert magnitude(spec)[0, 0, 5] == 5.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        bins = rng.normal(size=(2, 3, CFG.num_bins)) + 1j * rng.normal(size=(2, 3, CFG.num_bins))
        spec = Spectrogram(bins, CFG, 44100)
        oracle = np.sqrt(bins.real ** 2 + bins.imag ** 2)
        assert np.allclose(magnitude(spec), oracle, atol=0, rtol=1e-15)
        assert np.all(magnitude(spec) >= 0)
