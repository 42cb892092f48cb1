"""Output files behave like ordinary files: `eval` writes both of its
outputs or neither and finds an unwritable one before it scores, every
output gets the mode a plain open() would give it, and SIGTERM or SIGINT
ends a command in one error line with no temp file left behind."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from importlib import resources

import numpy as np
import pytest

from stemfuse import SOURCE_NAMES, Waveform, audio_io, bsseval, cli, core, load_stem_dir
from stemfuse import write_wav
from stemfuse.cli import main

from helpers import make_waveform_set, write_stem_dir

SR = 44100
TOY_CONFIG = resources.files("stemfuse") / "data" / "toy_pipeline.json"


def child(script, *args) -> subprocess.Popen:
    """`python -c script *args` in a child process that imports this stemfuse."""
    path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def write_mixture(path, seconds, seed=0):
    write_wav(Waveform(0.3 * np.random.default_rng(seed).normal(size=(2, int(seconds * SR))),
                       SR), path)
    return path


# --- eval: both outputs or neither ------------------------------------------

def test_eval_with_an_unwritable_csv_scores_nothing_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    scored = []
    monkeypatch.setattr(bsseval, "sdr_frames", lambda *args: scored.append(args))
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(np.random.default_rng(40),
                                                               length=512, scale=0.3))
    out, csv = tmp_path / "r.json", tmp_path / "nodir" / "r.csv"
    code = main(["eval", "--estimates", str(refs), "--references", str(refs), "--out", str(out),
                 "--csv", str(csv), "--filter-len", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error io-failure: ") and err.count("\n") == 1
    assert f"'{csv}'" in err and ".tmp" not in err
    assert scored == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs"]


def test_eval_writes_what_the_report_writers_write(tmp_path):
    rng = np.random.default_rng(41)
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=2048, scale=0.3))
    est = write_stem_dir(tmp_path / "est", make_waveform_set(rng, length=2048, scale=0.3))
    assert main(["eval", "--estimates", str(est), "--references", str(refs),
                 "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"),
                 "--filter-len", "4"]) == 0
    report = bsseval.sdr_frames(load_stem_dir(refs), load_stem_dir(est),
                                bsseval.EvalConfig(filter_len=4))
    bsseval.save_report_json(report, tmp_path / "want.json")
    bsseval.save_report_csv(report, tmp_path / "want.csv")
    for got, want in (("r.json", "want.json"), ("r.csv", "want.csv")):
        assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()


# --- modes ---------------------------------------------------------------

# Runs each command of argv[2] (a JSON list) under the umask argv[1], and
# writes one magnitude file to each path of argv[3].
_UNDER_UMASK = """
import json, os, sys
os.umask(int(sys.argv[1], 8))
import numpy as np
from stemfuse import write_magnitudes
from stemfuse.cli import main
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
for path in json.loads(sys.argv[3]):
    write_magnitudes(path, np.ones((2, 3, 4)))
"""


def mode(path) -> int:
    return os.stat(path).st_mode & 0o777


@pytest.mark.parametrize("umask, replaced", [(0o022, 0o600), (0o077, 0o644)],
                         ids=["umask-022", "umask-077"])
def test_every_output_gets_the_mode_open_would_give_it(tmp_path, umask, replaced):
    """A new output is 0o666 less the umask; a replaced one keeps its mode."""
    rng = np.random.default_rng(42)
    mix = write_mixture(tmp_path / "mix.wav", 0.25)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "models": [{"name": "toy", "domain": "TF", "source": "builtin-toy"}],
        "stft": {"fft_size": 512, "hop": 128},
        "weights": {"models": ["toy"], "sources": list(SOURCE_NAMES), "weights": [[1.0] * 4]}}))
    refs = write_stem_dir(tmp_path / "refs", make_waveform_set(rng, length=2048, scale=0.3))
    est = write_stem_dir(tmp_path / "est", make_waveform_set(rng, length=2048, scale=0.3))
    commands, outputs = [], {}
    for kind in ("new", "old"):
        out = tmp_path / kind
        stems = [out / "stems" / f"{name}.wav" for name in SOURCE_NAMES]
        files = stems + [out / "w.json", out / "r.json", out / "r.csv", out / "x.mag"]
        commands += [
            ["separate", "--input", str(mix), "--config", str(config), "--out", str(out / "stems")],
            ["search-weights", "--stems", str(est), str(refs), "--references", str(refs),
             "--out", str(out / "w.json"), "--grid-step", "0.5", "--filter-len", "4"],
            ["eval", "--estimates", str(est), "--references", str(refs),
             "--out", str(out / "r.json"), "--csv", str(out / "r.csv"), "--filter-len", "4"]]
        outputs[kind] = files
    (tmp_path / "old" / "stems").mkdir(parents=True)
    for path in outputs["old"]:
        path.write_bytes(b"")
        os.chmod(path, replaced)
    mags = [str(outputs[kind][-1]) for kind in ("new", "old")]
    proc = child(_UNDER_UMASK, oct(umask), json.dumps(commands), json.dumps(mags))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert {p.name: mode(p) for p in outputs["new"]} == {p.name: 0o666 & ~umask
                                                         for p in outputs["new"]}
    assert {p.name: mode(p) for p in outputs["old"]} == {p.name: replaced
                                                         for p in outputs["old"]}
    assert all(p.stat().st_size > 0 for p in outputs["old"])  # replaced, not left
    assert not list(tmp_path.rglob("*.tmp"))


def test_the_umask_is_read_the_same_without_proc(monkeypatch):
    want = core._new_file_mode()

    def no_proc(*_args, **_kwargs):
        raise FileNotFoundError("no /proc")

    monkeypatch.setattr(core, "open", no_proc, raising=False)
    umask = os.umask(0o022)
    os.umask(umask)
    assert core._new_file_mode() == want == 0o666 & ~umask
    assert os.umask(umask) == umask  # and the umask was put back


def test_a_file_system_that_keeps_no_modes_still_takes_the_output(tmp_path, monkeypatch):
    def refuse(_fd, _mode):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(os, "fchmod", refuse)
    core._atomic_write(tmp_path / "x.json", [b"{}\n"])
    assert (tmp_path / "x.json").read_bytes() == b"{}\n"
    assert mode(tmp_path / "x.json") == 0o600  # mkstemp's
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


# --- interrupts ---------------------------------------------------------

# A command as a shell starts it: SIGINT raises KeyboardInterrupt and
# SIGTERM has its default action, whatever this process inherited.
_AS_FROM_A_SHELL = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
signal.signal(signal.SIGTERM, signal.SIG_DFL)
from stemfuse.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("number", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_mid_sweep_is_one_error_line_and_leaves_no_file(tmp_path, number):
    mix = write_mixture(tmp_path / "mix.wav", 60)
    out = tmp_path / "new" / "out"
    proc = child(_AS_FROM_A_SHELL, "separate", "--input", mix, "--config", TOY_CONFIG,
                 "--out", out)
    try:
        deadline = time.monotonic() + 60
        while len(list(out.glob("*.tmp"))) < len(SOURCE_NAMES):  # the stems are being written
            assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
            time.sleep(0.005)
        time.sleep(0.1)  # into the sweep, past the bookkeeping of the last temp file made
        proc.send_signal(number)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert err == f"error interrupted: {number.name}\n"
    assert proc.returncode == 128 + number
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.wav"]


def test_sigterm_in_process_joins_the_workers_and_puts_the_action_back(
        tmp_path, capsys, monkeypatch):
    if signal.getsignal(signal.SIGTERM) != signal.SIG_DFL:
        pytest.skip("SIGTERM does not have its default action here")
    payload, sent = audio_io._payload, []

    def terminate_once(samples, encoding):  # on a worker, while the main thread waits
        if not sent and signal.getsignal(signal.SIGTERM) is cli._terminate:
            sent.append(threading.current_thread().name)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)
        return payload(samples, encoding)

    monkeypatch.setattr(audio_io, "_payload", terminate_once)
    mix = write_mixture(tmp_path / "mix.wav", 1)
    out = tmp_path / "new" / "out"
    assert main(["separate", "--input", str(mix), "--config", str(TOY_CONFIG),
                 "--out", str(out)]) == 128 + signal.SIGTERM
    assert capsys.readouterr().err == "error interrupted: SIGTERM\n"
    assert sent and sent[0] != threading.main_thread().name
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.wav"]
