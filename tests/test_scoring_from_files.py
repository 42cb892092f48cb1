"""`eval` and `search-weights` score window by window from open WAV readers.

The frames, medians and chosen weights are bitwise those of scoring the
same stems held in memory, every sample of every file is still checked
for finiteness, and memory grows with the track only by the per-window
quantities the scorer keeps, not by the stems."""

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stemfuse import (
    EvalConfig,
    SourceWaveformSet,
    Waveform,
    bsseval,
    report_to_json_dict,
    sdr_frames,
    search_weights,
    sweeps,
)
from stemfuse.cli import _stem_dir, main

from helpers import assert_frames_match_oracle, oracle_source_frames, run_child, write_stem_dir

SR = 8000


def float32_set(arrays, fortran):
    """Waveforms of the float32-rounded arrays, as the float32 stem files hold them."""
    rounded = [a.astype(np.float32).astype(np.float64) for a in arrays]
    return SourceWaveformSet([Waveform(np.asfortranarray(a) if fortran else a, SR)
                              for a in rounded])


@st.composite
def scenes(draw):
    """(references, per-model stems, cfg): 1-2 channels, 1-2 models, windows
    that overlap, tile or leave gaps, signals shorter than a window, and
    windows where a reference is silent or an estimate is exact or zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels, models = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    win = draw(st.integers(24, 200))
    hop = draw(st.integers(max(1, win // 3), 2 * win))
    length = draw(st.integers(16, 4 * win))
    filter_len = draw(st.integers(1, min(16, win, length)))
    refs = [rng.normal(size=(channels, length)) for _ in range(4)]
    stems = [[r + 0.1 * (m + 1) * rng.normal(size=r.shape) for r in refs] for m in range(models)]
    for _ in range(draw(st.integers(0, 3))):
        j, m = draw(st.integers(0, 3)), draw(st.integers(0, models - 1))
        start = draw(st.integers(0, length - 1))
        span = slice(start, start + win)
        kind = draw(st.sampled_from(["silent", "exact", "zero"]))
        if kind == "silent":
            refs[j][:, span] = 0.0
        else:
            stems[m][j][:, span] = refs[j][:, span] if kind == "exact" else 0.0
    cfg = EvalConfig(filter_len, win / SR, hop / SR)
    return refs, stems, cfg


def assert_same_frames(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def on_workers(mp, workers, score, *args):
    """score(*args) with `workers` sweep threads."""
    mp.setattr(sweeps, "_worker_count", lambda: workers)
    return score(*args)


@settings(max_examples=40, deadline=None)
@given(scene=scenes(), fortran=st.booleans(), breakdown=st.booleans(),
       batch=st.sampled_from([None, 1, 3]))
def test_scoring_from_readers_is_bitwise_scoring_in_memory(tmp_path_factory, scene, fortran,
                                                           breakdown, batch):
    # at 1, 2 and 3 workers: the windows are read and correlated on the
    # workers and their batches solved in window order, so every frame is
    # bitwise the frame of one worker
    refs, stems, cfg = scene
    root = tmp_path_factory.mktemp("scene")
    in_memory = float32_set(refs, fortran), [float32_set(s, fortran) for s in stems]
    ref_dir = write_stem_dir(root / "refs", in_memory[0])
    model_dirs = [write_stem_dir(root / f"model{m}", s) for m, s in enumerate(in_memory[1])]
    columns = [[1.0] + [0.0] * (len(stems) - 1), [1.0 / len(stems)] * len(stems)]
    tols = (bsseval.BlendScorer.CANCELLATION_TOL, bsseval.BlendScorer.REPORT_TOL)

    def frames(sets, tol):
        return bsseval.BlendScorer(*sets, cfg).frame_sdr(columns, tol)

    with pytest.MonkeyPatch.context() as mp, ExitStack() as files:
        one_batch = [on_workers(mp, 1, frames, in_memory, tol) for tol in tols]
        if batch is not None:  # `batch` frames per `_levinson` call: batches end mid-source
            mp.setattr(bsseval, "_SOLVE_VALUES", in_memory[0].channels * cfg.filter_len * batch)
        if breakdown:  # every first system of a `_levinson` call takes the dense path
            levinson = bsseval._levinson

            def first_system_breaks_down(first_row, rhs):
                coef, ok = levinson(first_row, rhs)
                ok[:1] = False
                return coef, ok

            mp.setattr(bsseval, "_levinson", first_system_breaks_down)
        from_files = (_stem_dir(ref_dir, files), [_stem_dir(d, files) for d in model_dirs])
        report = on_workers(mp, 1, sdr_frames, in_memory[0], in_memory[1][0], cfg)
        weights = on_workers(mp, 1, search_weights, in_memory[1], in_memory[0], 0.25, cfg)
        for tol, unbatched in zip(tols, one_batch):
            want = on_workers(mp, 1, frames, in_memory, tol)
            if not breakdown:  # a system's solve does not depend on the batch it is in
                assert_same_frames(want, unbatched)
            for workers in (1, 2, 3):
                assert_same_frames(on_workers(mp, workers, frames, from_files, tol), want)
                assert_same_frames(on_workers(mp, workers, frames, in_memory, tol), want)
        for frames_of, ref, est in zip(report.per_source_frames.values(), in_memory[0].sources,
                                       in_memory[1][0].sources):
            assert_frames_match_oracle(frames_of, oracle_source_frames(ref, est, cfg))
        for workers in (1, 2, 3):
            got = on_workers(mp, workers, sdr_frames, from_files[0], from_files[1][0], cfg)
            assert report_to_json_dict(got) == report_to_json_dict(report)
            got = on_workers(mp, workers, search_weights, from_files[1], from_files[0], 0.25, cfg)
            assert got.weights.tobytes() == weights.weights.tobytes()


def write_scene(tmp_path, length, channels=2):
    rng = np.random.default_rng(length)
    refs = [rng.normal(size=(channels, length)) for _ in range(4)]
    ref_dir = write_stem_dir(tmp_path / "refs", float32_set(refs, False))
    est_dir = write_stem_dir(tmp_path / "est", float32_set(
        [r + 0.2 * rng.normal(size=r.shape) for r in refs], False))
    return ref_dir, est_dir


def poison(path, frame, channel=0):
    """Set one float32 sample of a stem file to NaN."""
    blob = bytearray(path.read_bytes())
    at = blob.index(b"data") + 8 + 4 * (2 * frame + channel)
    blob[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command", ["eval", "search-weights"])
@pytest.mark.parametrize("hop, poisoned, workers", [
    pytest.param(100, [("bass", 450)], None, id="100-450"),  # the tail after the last window
    pytest.param(150, [("bass", 120)], None, id="150-120"),  # a gap between windows
    pytest.param(100, [("drums", 0)], None, id="100-0"),  # a window whose reference is silent
    # drums' last window comes before bass's first in window order (source
    # by source), whichever worker reads it first
    *[pytest.param(100, [("drums", 350), ("bass", 20)], workers, id=f"two-files-{workers}")
      for workers in (1, 2, 3)],
])
def test_a_non_finite_sample_no_window_scores_is_still_one_error_line(
        tmp_path, capsys, monkeypatch, command, hop, poisoned, workers):
    ref_dir, est_dir = write_scene(tmp_path, 460)
    if poisoned == [("drums", 0)]:  # silence the drums reference's first window
        blob = bytearray((ref_dir / "drums.wav").read_bytes())
        at = blob.index(b"data") + 8
        blob[at:at + 8 * 100] = bytes(8 * 100)
        (ref_dir / "drums.wav").write_bytes(bytes(blob))
    for name, frame in poisoned:
        poison(est_dir / f"{name}.wav", frame, channel=1)
    if workers is not None:
        monkeypatch.setattr(sweeps, "_worker_count", lambda: workers)
    head = (["eval", "--estimates", str(est_dir)] if command == "eval"
            else ["search-weights", "--stems", str(est_dir), "--grid-step", "0.5"])
    code = main(head + ["--references", str(ref_dir), "--out", str(tmp_path / "out.json"),
                        "--filter-len", "8", "--win", str(100 / SR), "--hop", str(hop / SR)])
    assert code == 1
    err = capsys.readouterr().err
    bad = est_dir / f"{poisoned[0][0]}.wav"
    assert err.startswith(f"error non-finite-samples: {bad}: non-finite samples in frames ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


# In a fresh interpreter, so no table that earlier tests grew lands in the
# traced run; untraced first: a process-wide table of the interpreter that
# grows during a run (~1-2 MB) grows there, not in the traced run.
_TRACED_PEAK = """
import sys, tracemalloc
from stemfuse.cli import main
assert main(sys.argv[1:]) == 0
tracemalloc.start()
assert main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


def traced_peak(args) -> int:
    return int(run_child(["-c", _TRACED_PEAK, *args]))


@pytest.mark.parametrize("command, models", [("eval", 1), ("search-weights", 2)])
def test_memory_grows_by_per_window_quantities_not_by_the_stems(tmp_path, command, models):
    # numpy reports its buffers to tracemalloc. Holding the stems whole, as the
    # scorer once did, grew 53 MB (eval) and 79 MB (search-weights) from 10 s
    # to 60 s here; window by window only the per-frame forms and the filled
    # part of one batch of lags grow.
    peaks = []
    for seconds in (10, 60):
        rng = np.random.default_rng(seconds)
        refs = [0.1 * rng.normal(size=(2, seconds * SR)) for _ in range(4)]
        root = tmp_path / f"s{seconds}"
        ref_dir = write_stem_dir(root / "refs", float32_set(refs, False))
        dirs = [str(write_stem_dir(root / f"m{m}", float32_set(
            [r + 0.05 * rng.normal(size=r.shape) for r in refs], False))) for m in range(models)]
        del refs
        head = (["eval", "--estimates", dirs[0]] if command == "eval"
                else ["search-weights", "--stems", *dirs, "--grid-step", "0.5"])
        peaks.append(traced_peak(head + ["--references", str(ref_dir), "--filter-len", "32",
                                         "--out", str(root / "out.json")]))
    window = (1 + models) * 2 * SR * 8  # one 1-s window of every signal, float64
    assert peaks[1] - peaks[0] <= 8 * window
