"""pipeline.run streams the mixture in blocks of frames: its stems are
bitwise those of the whole-track runs in helpers.py (the pipeline's and
`stemfuse wiener`'s) at every block size and every number of worker
threads, and its memory does not grow with the track beyond the
returned stems."""

import mmap
import platform
import random
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stemfuse import (
    BandMaskModel,
    ModelEntry,
    MwfConfig,
    PipelineConfig,
    SourceWaveformSet,
    SpatialModel,
    StftConfig,
    Waveform,
    apply_filter,
    estimate_spatial_model,
    initial_estimates,
    load_pipeline_config,
    mwf,
    read_magnitudes,
    run,
    stft,
    validate_weights,
    write_magnitudes,
    write_wav,
)
from stemfuse import cli
from stemfuse.errors import ConfigMismatch, NonFiniteSamples, ShapeMismatch, TruncatedData

from helpers import child_minor_faults, whole_array_run, whole_track_wiener, write_stem_dir

pipeline = sys.modules["stemfuse.pipeline"]
wiener = sys.modules["stemfuse.wiener"]
engine = sys.modules["stemfuse.sweeps"]
SR = 44100
NUM_SOURCES = 4
SOURCES = ("drums", "bass", "other", "vocals")


def set_blocks(mp, mix, cfg, block_frames=None, workers=None):
    """Use blocks of `block_frames` frames (of as many bytes of output
    samples when only T stems are summed) and `workers` threads; None keeps
    the default."""
    if block_frames is not None:
        unit = cfg.weights.num_sources * mix.channels * cfg.stft.num_bins * 16
        mp.setattr(engine, "_BLOCK_BYTES", block_frames * unit)
    if workers is not None:
        mp.setattr(engine, "_worker_count", lambda: workers)


def stems_of(mix, cfg, block_frames=None, workers=None, names=SOURCES):
    """run() as one (sources, channels, length) array (see `set_blocks`)."""
    with pytest.MonkeyPatch.context() as mp:
        set_blocks(mp, mix, cfg, block_frames, workers)
        return np.stack([s.samples for s in run(mix, cfg, names).sources])


def stem_files_of(mix, cfg, out_dir, block_frames=None, workers=None, names=SOURCES):
    """The bytes of the stem files `stemfuse separate` (or `wiener`) writes
    for `mix`, block by block (see `set_blocks`)."""
    with pytest.MonkeyPatch.context() as mp:
        set_blocks(mp, mix, cfg, block_frames, workers)
        cli._separate_into(out_dir, mix, cfg, names)
    return [(out_dir / f"{name}.wav").read_bytes() for name in names]


def written_whole(stems, out_dir, names=SOURCES):
    """The bytes `write_wav` gives each of the (sources, channels, length) `stems`."""
    out_dir.mkdir()
    for name, samples in zip(names, stems):
        write_wav(Waveform(samples, SR), out_dir / f"{name}.wav")
    return [(out_dir / f"{name}.wav").read_bytes() for name in names]


def block_threads():
    return [t for t in threading.enumerate() if t.name.startswith(engine._THREAD_PREFIX)]


def write_model_dirs(root: Path, rng, mix, stft_cfg):
    """A T stem directory and a TF magnitude directory that fit `mix`. The
    bass stem is one hop short and the vocals one hop long, when the
    mixture is longer than a hop."""
    drift = {"bass": -stft_cfg.hop, "vocals": stft_cfg.hop} if mix.length > stft_cfg.hop else {}
    stem_dir = write_stem_dir(root / "stems", SourceWaveformSet(
        [Waveform(0.3 * rng.normal(size=mix.samples.shape), SR) for _ in SOURCES]))
    for name, extra in drift.items():
        write_wav(Waveform(0.3 * rng.normal(size=(mix.channels, mix.length + extra)), SR),
                  stem_dir / f"{name}.wav")
    mag_dir = root / "mags"
    mag_dir.mkdir()
    shape = stft(mix, stft_cfg).bins.shape
    for name in SOURCES:
        write_magnitudes(mag_dir / f"{name}.mag", rng.uniform(0.0, 1.0, size=shape))
    return stem_dir, mag_dir


MODEL_KINDS = ("tf_toy", "t_toy", "t_dir", "tf_dir")


def entry_for(kind, stem_dir, mag_dir, leakage):
    return {
        "tf_toy": ModelEntry("tf_toy", "TF", "builtin-toy", leakage=leakage),
        "t_toy": ModelEntry("t_toy", "T", "builtin-toy", leakage=leakage),
        "t_dir": ModelEntry("t_dir", "T", str(stem_dir)),
        "tf_dir": ModelEntry("tf_dir", "TF", str(mag_dir)),
    }[kind]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), channels=st.sampled_from([1, 2]),
       iterations=st.integers(0, 3), center_pad=st.booleans(),
       kinds=st.lists(st.sampled_from(MODEL_KINDS), min_size=1, max_size=4),
       frames=st.integers(1, 40), extra=st.integers(0, 15), workers=st.sampled_from([1, 2]),
       data=st.data())
def test_run_is_bitwise_the_whole_track_run_at_every_block_size(
        seed, channels, iterations, center_pad, kinds, frames, extra, workers, data):
    stft_cfg = StftConfig(fft_size=64, hop=16, center_pad=center_pad)
    # without center padding only lengths that frames tile exactly can be resynthesized
    length = (frames - 1) * 16 + (1 + extra if center_pad else 64)
    rng = np.random.default_rng(seed)
    mix = Waveform(rng.normal(size=(channels, length)), SR)
    raw = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=NUM_SOURCES, max_size=NUM_SOURCES),
        min_size=len(kinds), max_size=len(kinds))), dtype=float)
    raw[0, raw.sum(axis=0) == 0] = 1.0  # some weights are zero, no column is
    leakage = data.draw(st.sampled_from([0.0, 0.1, 0.3]))
    with tempfile.TemporaryDirectory() as tmp:
        stem_dir, mag_dir = write_model_dirs(Path(tmp), rng, mix, stft_cfg)
        cfg = PipelineConfig(
            [entry_for(kind, stem_dir, mag_dir, leakage) for kind in kinds], stft_cfg,
            MwfConfig(iterations=iterations), validate_weights(raw / raw.sum(axis=0)))
        want = whole_array_run(mix, cfg)
        files = written_whole(stems_of(mix, cfg), Path(tmp) / "whole")
        total = stft(mix, stft_cfg).frames
        for block_frames in (1, 3, None, total, total + 5):
            assert stems_of(mix, cfg, block_frames, workers).tobytes() == want.tobytes()
            out_dir = Path(tmp) / f"blocks{block_frames}"
            assert stem_files_of(mix, cfg, out_dir, block_frames, workers) == files


def test_t_stems_alone_are_summed_in_several_blocks_of_block_bytes(tmp_path):
    # the block-size properties split the output of T stems alone through
    # `_BLOCK_BYTES`, as they split the frames of the spectral branches
    rng = np.random.default_rng(26)
    stft_cfg = StftConfig(fft_size=64, hop=16)
    mix = Waveform(rng.normal(size=(2, 16 * 40)), SR)
    stem_dir, _ = write_model_dirs(tmp_path, rng, mix, stft_cfg)
    cfg = PipelineConfig([ModelEntry("t_dir", "T", str(stem_dir))], stft_cfg, MwfConfig(),
                         validate_weights([[1.0] * NUM_SOURCES]))
    for block_frames in (1, 3):
        blocks = []
        with pytest.MonkeyPatch.context() as mp:
            set_blocks(mp, mix, cfg, block_frames)
            pipeline._stream(mix, cfg, SOURCES,
                             lambda offset, block: blocks.append((offset, block.shape[-1])))
        assert len(blocks) > 1
        assert [offset for offset, _ in blocks] == [sum(c for _, c in blocks[:k])
                                                    for k in range(len(blocks))]
        assert sum(count for _, count in blocks) == mix.length


# names `stemfuse wiener` may meet: any `.mag` file in the directory
OTHER_NAMES = ("a", "guitar", "keys", "lead_vox", "piano 2", "z9")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), channels=st.sampled_from([1, 2]),
       fortran=st.booleans(), iterations=st.integers(0, 3),
       names=st.lists(st.sampled_from(OTHER_NAMES), min_size=1, max_size=5, unique=True),
       frames=st.integers(1, 40), extra=st.integers(0, 15), silent_bins=st.booleans(),
       workers=st.sampled_from([1, 2]))
def test_wiener_run_is_bitwise_the_whole_track_tf_branch(
        seed, channels, fortran, iterations, names, frames, extra, silent_bins, workers):
    names = sorted(names)  # as `stemfuse wiener` lists its `.mag` files
    stft_cfg = StftConfig(fft_size=64, hop=16)
    length = (frames - 1) * 16 + 1 + extra
    rng = np.random.default_rng(seed)
    if fortran:  # a de-interleaved, transposed array
        mix = Waveform(rng.normal(size=(length, channels)).T, SR)
    else:
        mix = Waveform(rng.normal(size=(channels, length)), SR)
    total = stft(mix, stft_cfg).frames
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            mags = rng.uniform(0.0, 1.0, size=(channels, total, stft_cfg.num_bins))
            if silent_bins:
                mags[..., ::5] = 0.0
            write_magnitudes(Path(tmp) / f"{name}.mag", mags)
        cfg = PipelineConfig(
            [ModelEntry("mags", "TF", tmp)], stft_cfg, MwfConfig(iterations=iterations),
            validate_weights([[1.0] * len(names)], ["mags"], names))
        mags = [read_magnitudes(Path(tmp) / f"{name}.mag") for name in names]
        want = whole_track_wiener(mix, mags, stft_cfg, cfg.mwf).tobytes()
        files = written_whole(stems_of(mix, cfg, names=names), Path(tmp) / "whole", names)
        for block_frames in (1, 3, None, total, total + 5):
            assert stems_of(mix, cfg, block_frames, workers, names).tobytes() == want
            out_dir = Path(tmp) / f"blocks{block_frames}"
            assert stem_files_of(mix, cfg, out_dir, block_frames, workers, names) == files


def test_other_source_names_fit_only_magnitude_directories(tmp_path):
    mix = Waveform(np.ones((2, 640)), SR)
    cfg = PipelineConfig([ModelEntry("toy", "TF", "builtin-toy")],
                         StftConfig(fft_size=64, hop=16), MwfConfig(),
                         validate_weights([[1.0, 1.0]], ["toy"], ["a", "b"]))
    with pytest.raises(ShapeMismatch, match=r"models \['toy'\] give the sources"):
        run(mix, cfg, ["a", "b"])


def magnitude_model(tmp_path, rng, mix, stft_cfg):
    """A config of one TF `.mag` model and one builtin-toy TF model, two EM passes."""
    _, mag_dir = write_model_dirs(tmp_path, rng, mix, stft_cfg)
    return PipelineConfig(
        [ModelEntry("mags", "TF", str(mag_dir)), ModelEntry("toy", "TF", "builtin-toy")],
        stft_cfg, MwfConfig(iterations=2), validate_weights([[0.6] * 4, [0.4] * 4])), mag_dir


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_magnitude_blocks_read_by_many_threads_are_bitwise_the_whole_track_run(
        tmp_path, workers):
    rng = np.random.default_rng(21)
    mix = Waveform(rng.normal(size=(2, 16 * 300)), SR)
    cfg, _ = magnitude_model(tmp_path, rng, mix, StftConfig(fft_size=64, hop=16))
    want = whole_array_run(mix, cfg).tobytes()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave between any two reads
    try:
        got = stems_of(mix, cfg, block_frames=3, workers=workers)
    finally:
        sys.setswitchinterval(switch)
    assert got.tobytes() == want
    assert not block_threads()


@pytest.mark.parametrize("block_frames", [1, 3, None])
def test_fortran_ordered_mixture_is_bitwise_the_whole_track_run(tmp_path, block_frames):
    # de-interleaved samples as a transposed array give a whole-track STFT
    # with its channel axis fastest; blocks are made C-ordered
    rng = np.random.default_rng(25)
    mix = Waveform(rng.normal(size=(16 * 40, 2)).T, SR)
    cfg, _ = magnitude_model(tmp_path, rng, mix, StftConfig(fft_size=64, hop=16))
    want = whole_array_run(mix, cfg)
    assert stems_of(mix, cfg, block_frames).tobytes() == want.tobytes()


def test_first_failing_block_in_frame_order_wins(tmp_path):
    # frames 8..11 hold a NaN magnitude and frames 12..15 a negative one;
    # the earlier block is held back, so the later one fails first in time
    rng = np.random.default_rng(22)
    mix = Waveform(rng.normal(size=(2, 16 * 60)), SR)
    stft_cfg = StftConfig(fft_size=64, hop=16)
    cfg, mag_dir = magnitude_model(tmp_path, rng, mix, stft_cfg)
    mags = np.abs(rng.normal(size=stft(mix, stft_cfg).bins.shape))
    mags[1, 9, 5] = np.nan
    write_magnitudes(mag_dir / "bass.mag", mags)
    mags = np.abs(rng.normal(size=mags.shape))
    mags[0, 13, 7] = -1.0
    write_magnitudes(mag_dir / "other.mag", mags)
    read_frames = pipeline._read_frames
    failed_later = threading.Event()

    def slow_early_block(fh, path, shape, start, stop, out=None):
        if start == 8 and path.name == "bass.mag":
            failed_later.wait(timeout=5)
        try:
            return read_frames(fh, path, shape, start, stop, out)
        except ValueError:  # the negative magnitude is rejected as it is read
            failed_later.set()
            raise

    with pytest.MonkeyPatch.context() as mp:
        set_blocks(mp, mix, cfg, block_frames=4, workers=2)
        mp.setattr(pipeline, "_read_frames", slow_early_block)
        with pytest.raises(NonFiniteSamples, match=r"bass\.mag: .* frames 8\.\.11"):
            run(mix, cfg)
    assert failed_later.is_set()
    assert not block_threads()


def test_blocks_run_under_the_callers_numpy_error_state(monkeypatch):
    seen = []
    analysis = pipeline._analysis_frames

    def recording(*args):
        seen.append(np.geterr()["under"])
        return analysis(*args)

    monkeypatch.setattr(pipeline, "_analysis_frames", recording)
    monkeypatch.setattr(engine, "_worker_count", lambda: 2)
    mix = Waveform(np.random.default_rng(24).normal(size=(2, 16 * 40)), SR)
    with np.errstate(under="call", call=lambda *_: None):
        run(mix, PipelineConfig([ModelEntry("toy", "TF", "builtin-toy")],
                                StftConfig(fft_size=64, hop=16), MwfConfig(),
                                validate_weights([[1.0] * 4])))
    assert seen and set(seen) == {"call"}


def toy_mix(seconds, channels=2, seed=0):
    rng = np.random.default_rng(seed)
    # de-interleaved samples as a transposed (Fortran-ordered) array
    return Waveform(0.3 * rng.normal(size=(int(seconds * SR), channels)).T, SR)


def shipped_config():
    return load_pipeline_config(resources.files("stemfuse") / "data" / "toy_pipeline.json")


def test_unaligned_length_without_center_pad_fails_before_any_block(monkeypatch):
    cfg = shipped_config()
    cfg.stft = StftConfig(fft_size=64, hop=16, center_pad=False)
    mix = Waveform(np.ones((2, 64 + 16 * 5 + 3)), SR)
    with pytest.raises(ConfigMismatch) as want:
        whole_array_run(mix, cfg)
    monkeypatch.setattr(pipeline, "_analysis_frames", None)  # any block would fail here
    with pytest.raises(ConfigMismatch) as got:
        run(mix, cfg)
    assert str(got.value) == str(want.value)


def test_truncated_magnitudes_of_a_later_model_fail_before_any_block(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    mix = Waveform(rng.normal(size=(2, 2000)), SR)
    stft_cfg = StftConfig(fft_size=64, hop=16)
    _, mag_dir = write_model_dirs(tmp_path, rng, mix, stft_cfg)
    path = mag_dir / "other.mag"
    path.write_bytes(path.read_bytes()[:-4])
    cfg = PipelineConfig(
        [ModelEntry("a", "TF", "builtin-toy"), ModelEntry("b", "TF", str(mag_dir))],
        stft_cfg, MwfConfig(iterations=2), validate_weights([[0.5] * 4, [0.5] * 4]))
    monkeypatch.setattr(pipeline, "_analysis_frames", None)
    with pytest.raises(TruncatedData, match="other.mag"):
        run(mix, cfg)


def test_no_transform_sees_more_than_one_block(monkeypatch):
    cfg = shipped_config()
    mix = toy_mix(2.0)
    block = engine._BLOCK_BYTES // (NUM_SOURCES * mix.channels * cfg.stft.num_bins * 16)
    total = stft(mix, cfg.stft).frames
    seen = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def wrapper(a, *args, _original=original, _name=name, **kwargs):
            seen.append((_name, a.shape[-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)
    run(mix, cfg)
    assert {name for name, _ in seen} == {"rfft", "irfft"}
    assert max(frames for _, frames in seen) <= block and 10 * block < total


def test_back_to_back_runs_see_no_buffer_of_an_earlier_call(tmp_path):
    # stereo, mono, then stereo again in one process, each with its own
    # length, FFT size, block size and worker count, a `.mag` model, two EM
    # passes and a short last block: a buffer sized or filled by an earlier
    # call, sweep or block would change the bytes
    rng = np.random.default_rng(41)
    for i, (channels, fft_size, frames, block_frames, workers) in enumerate(
            [(2, 64, 97, 4, 2), (1, 128, 50, 3, 1), (2, 32, 123, 5, 3)]):
        stft_cfg = StftConfig(fft_size=fft_size, hop=fft_size // 4)
        mix = Waveform(rng.normal(size=(channels, (frames - 1) * stft_cfg.hop + 7)), SR)
        assert stft(mix, stft_cfg).frames % block_frames
        (tmp_path / str(i)).mkdir()
        _, mag_dir = write_model_dirs(tmp_path / str(i), rng, mix, stft_cfg)
        cfg = PipelineConfig(
            [ModelEntry("mags", "TF", str(mag_dir)), ModelEntry("toy", "TF", "builtin-toy"),
             ModelEntry("band", "T", "builtin-toy")],
            stft_cfg, MwfConfig(iterations=2), validate_weights([[0.5] * 4, [0.3] * 4, [0.2] * 4]))
        got = stems_of(mix, cfg, block_frames, workers)
        assert got.tobytes() == whole_array_run(mix, cfg).tobytes()


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="counts the page faults of glibc's allocator")
def test_separate_faults_grow_only_with_its_input_and_stems(tmp_path):
    # glibc's mmap threshold held at 128 KiB maps every larger array afresh
    # and unmaps it when freed: block work that made block-sized arrays
    # faulted them in again every block (~78k faults per extra second of
    # audio), block work that reuses its buffers faults them in once
    config = resources.files("stemfuse") / "data" / "toy_pipeline.json"
    faults = {}
    for seconds in (2, 6):
        path = tmp_path / f"mix{seconds}.wav"
        write_wav(toy_mix(seconds), path)
        faults[seconds] = child_minor_faults(
            ["separate", "--input", str(path), "--config", str(config),
             "--out", str(tmp_path / f"stems{seconds}")],
            {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"})
    per_second = (faults[6] - faults[2]) / 4
    # bytes per second of stereo audio: the float32 input and its float64
    # samples, the float64 stems and their float32 writes
    pages = SR * 2 * (4 + 8 + NUM_SOURCES * (8 + 4)) / mmap.PAGESIZE
    assert per_second <= 2 * pages


def traced_peak(mix, cfg, workers) -> int:
    with pytest.MonkeyPatch.context() as mp:
        set_blocks(mp, mix, cfg, workers=workers)
        tracemalloc.start()
        try:
            run(mix, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_memory_grows_only_with_the_returned_stems():
    # numpy reports its buffers to tracemalloc; with one worker at most two
    # blocks are in flight, so the peak hardly depends on thread timing
    cfg = shipped_config()
    short, long = toy_mix(2.0), toy_mix(6.0)
    growth = ((traced_peak(long, cfg, 1) - traced_peak(short, cfg, 1))
              / (long.length - short.length))
    # returned float64 stems plus a copy of the input, with a factor 2 of slack
    assert growth <= 2 * (NUM_SOURCES + 1) * long.channels * 8


def test_a_second_worker_adds_a_bounded_number_of_blocks():
    # one more block in flight and one more block being worked on: the
    # extra is a few blocks' spectra, at 11 blocks and at 33 alike
    cfg = shipped_config()
    for mix in (toy_mix(2.0), toy_mix(6.0)):
        extra = traced_peak(mix, cfg, 2) - traced_peak(mix, cfg, 1)
        assert extra <= 10 * engine._BLOCK_BYTES


@pytest.mark.parametrize("iterations", [1, 0])
def test_library_mwf_holds_its_output_and_a_few_blocks(iterations):
    # mwf walks the in-memory spectrogram in blocks, as run does: with two
    # workers up to five blocks are in flight, and nothing else grows with
    # the track (the whole-array form peaked at 241 MB here, 171 MB with
    # no EM pass)
    cfg = shipped_config()
    spec = stft(toy_mix(10.0), cfg.stft)
    masks = BandMaskModel.default().bin_masks(SR, cfg.stft.fft_size)
    mags = [np.abs(spec.bins) * mask for mask in masks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            mwf(mags, spec, MwfConfig(iterations=iterations))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= len(mags) * spec.bins.nbytes + 10 * engine._BLOCK_BYTES


def toy_models(spec, cfg):
    """The toy band masks' magnitudes and the spatial models of their first EM pass."""
    masks = BandMaskModel.default().bin_masks(SR, cfg.stft.fft_size)
    mags = [np.abs(spec.bins) * mask for mask in masks]
    return mags, estimate_spatial_model(initial_estimates(mags, spec), cfg.mwf.eps)


def test_library_apply_filter_holds_its_output_and_a_few_blocks():
    # apply_filter filters blocks of frames into its output (the whole-array
    # form peaked at 241 MB for this 113 MB output)
    cfg = shipped_config()
    spec = stft(toy_mix(10.0), cfg.stft)
    _, models = toy_models(spec, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            apply_filter(models, spec, cfg.mwf.eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= len(models) * spec.bins.nbytes + 10 * engine._BLOCK_BYTES


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("block_frames, workers", [(1, 1), (3, 2), (7, 3), (None, 2)])
def test_apply_filter_in_blocks_is_bitwise_the_whole_array_step(channels, block_frames, workers):
    # the filter step treats every frame on its own: blocks of C-ordered
    # copies give the bytes of one step over the whole (channel-fastest) spectrogram
    cfg = shipped_config()
    spec = stft(toy_mix(0.5, channels), cfg.stft)
    mags, models = toy_models(spec, cfg)
    cov = np.stack([m.spatial_cov for m in models])
    spatial = wiener._spatial(np.stack([cov[:, :, c, c].real for c in range(channels)], axis=1),
                              cov[:, :, 0, 1] if channels == 2 else None)
    want = wiener._filter_step(np.stack([m.psd for m in models]), spatial, spec.bins,
                               cfg.mwf.eps, np.empty((len(models),) + spec.bins.shape, complex))
    with pytest.MonkeyPatch.context() as mp:
        if block_frames is not None:
            mp.setattr(engine, "_BLOCK_BYTES", block_frames * len(models) * channels
                       * cfg.stft.num_bins * 16)
        mp.setattr(engine, "_worker_count", lambda: workers)
        got = np.stack([s.bins for s in apply_filter(models, spec, cfg.mwf.eps).sources])
    assert got.tobytes() == want.tobytes()


def test_apply_filter_rejects_a_psd_of_other_frames():
    cfg = shipped_config()
    spec = stft(toy_mix(0.5), cfg.stft)
    _, models = toy_models(spec, cfg)
    models[1] = SpatialModel(models[1].psd[:-1], models[1].spatial_cov)
    with pytest.raises(ShapeMismatch, match="psd of shape"):
        apply_filter(models, spec, cfg.mwf.eps)


def sweeps_of(monkeypatch, workers):
    """A `_Sweeps` of 14 blocks of 3 frames, on `workers` threads."""
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 3 * 16)
    monkeypatch.setattr(engine, "_worker_count", lambda: workers)
    return engine._Sweeps(engine._blocks(40, 16))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_kept_arrays_are_consumed_before_their_worker_overwrites_them(workers, monkeypatch):
    # a slow consume lets the workers run ahead until each waits in its
    # next block's first keep for the block before it to be consumed
    sweeps = sweeps_of(monkeypatch, workers)
    lock = threading.Lock()
    holding, most, consumed = set(), [0], []

    def work(start, stop):
        kept = sweeps.workspace.keep(((2,), np.int64), ((3, 2), np.float64))
        kept += sweeps.workspace.keep(((1,), np.int64))  # a block may keep more than once
        with lock:
            holding.add(start)
            most[0] = max(most[0], len(holding))
        for a in kept:
            a.fill(start)
        return start, kept

    def consume(result):
        start, kept = result
        time.sleep(0.002)  # slow ordered work
        consumed.append((start, [set(a.ravel().tolist()) for a in kept]))
        with lock:
            holding.remove(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a missed wait shows
    try:
        sweeps.ordered(work, consume)
    finally:
        sys.setswitchinterval(interval)
    assert consumed == [(start, [{start}] * 3) for start, _ in sweeps.blocks]
    assert most[0] == workers and len(sweeps.blocks) == 14


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_work_runs_on_the_workers_one_block_at_a_time_in_block_order(
        workers, monkeypatch):
    sweeps = sweeps_of(monkeypatch, workers)
    naps = random.Random(workers)
    lock = threading.Lock()
    for _ in range(2):  # a sweep after a sweep
        sleeps = [(naps.uniform(0, 0.003), naps.uniform(0, 0.001)) for _ in sweeps.blocks]
        seen, running, most = [], [0], [0]

        def work(start, stop):
            time.sleep(sleeps[start // 3][0])
            return start

        def consume(start):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            seen.append((start, threading.current_thread().name))
            time.sleep(sleeps[start // 3][1])
            with lock:
                running[0] -= 1

        sweeps.ordered(work, consume)
        assert [start for start, _ in seen] == [start for start, _ in sweeps.blocks]
        assert most[0] == 1
        assert all(name.startswith(engine._THREAD_PREFIX) for _, name in seen)
        assert not block_threads()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_drops_its_workers_buffers_when_it_ends(workers, monkeypatch):
    # the buffers live in the worker threads' workspaces, not in the `_Sweeps`
    sweeps = sweeps_of(monkeypatch, workers)
    taken = []

    def work(start, stop):
        buffer = sweeps.workspace.take("scratch", (stop - start, 2)).base
        kept = sweeps.workspace.keep(((1,), np.int64))[0].base
        taken.extend([weakref.ref(buffer), weakref.ref(kept)])

    for _ in range(2):  # a sweep after a sweep
        sweeps.ordered(work, lambda _: None)
        assert len(taken) == 2 * len(sweeps.blocks)
        assert all(ref() is None for ref in taken)
        taken.clear()


def test_a_sweep_reads_the_worker_count_when_it_starts(monkeypatch):
    sweeps = sweeps_of(monkeypatch, 1)
    lock = threading.Lock()

    def run(workers):
        names, consumed = set(), []
        started = threading.Barrier(workers)  # the first blocks go to different workers

        def work(start, stop):
            if start // 3 < workers:
                started.wait(timeout=10)
            with lock:
                names.add(threading.current_thread().name)
            return np.arange(start, stop) ** 2

        sweeps.ordered(work, consumed.append)
        return names, np.concatenate(consumed)

    one, first = run(1)
    monkeypatch.setattr(engine, "_worker_count", lambda: 3)
    three, second = run(3)
    assert len(one) == 1 and len(three) == 3
    assert all(name.startswith(engine._THREAD_PREFIX) for name in one | three)
    assert first.tobytes() == second.tobytes()


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("where", ["work", "consume"])
def test_the_first_failure_in_block_order_is_raised_and_nothing_after_it_is_consumed(
        workers, where, keep, monkeypatch):
    # blocks 5 and 7 fail; block 5 ends late, so with several workers
    # block 7 fails first in time; with `keep`, a worker whose last block
    # is 5 or later waits in its next keep until the failure wakes it
    sweeps = sweeps_of(monkeypatch, workers)
    naps = random.Random(10 + workers)
    sleeps = [naps.uniform(0, 0.002) for _ in sweeps.blocks]
    sleeps[5] = 0.03
    consumed = []

    def work(start, stop):
        index = start // 3
        if keep:
            sweeps.workspace.keep(((1,), np.int64))
        time.sleep(sleeps[index])
        if where == "work" and index in (5, 7):
            raise BlockFailure(index)
        return index

    def consume(index):
        if where == "consume" and index in (5, 7):
            raise BlockFailure(index)
        consumed.append(index)

    with pytest.raises(BlockFailure) as failure:
        sweeps.ordered(work, consume)
    assert failure.value.args == (5,)
    assert consumed == [0, 1, 2, 3, 4]
    assert not block_threads()
