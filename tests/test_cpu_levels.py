"""What holds across CPUs: `separate`, `eval` and `search-weights` run in
child processes at this machine's full numpy CPU feature level and with
every dispatched level above numpy's baseline disabled
(`NPY_DISABLE_CPU_FEATURES`), as on a CPU without them.

numpy's wider loops round complex products and `np.abs` of complex values
differently from its baseline loops, so float64 results may move in their
last bits. The contract this test holds: the weights JSON and the `eval`
CSV are byte-equal, the `eval` frames agree within 1e-13 relative, and
the float32 stems within one float32 ulp."""

import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from stemfuse import SOURCE_NAMES, SourceWaveformSet, Waveform, read_wav, write_wav

from helpers import write_stem_dir

SR = 44100
FRAME_RTOL = 1e-13

try:
    from numpy._core import _multiarray_umath as _umath
    LEVELS = [name for name in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(name)]
except (ImportError, AttributeError):  # no dispatch information: nothing to compare
    LEVELS = []

# Runs each command of argv[1] (a JSON list), then prints the dispatched
# levels numpy runs at.
_COMMANDS = """
import json, sys
from numpy._core import _multiarray_umath as umath
from stemfuse.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]))
"""


def run_commands(out, inputs, disabled) -> list:
    """Run the three commands into `out` in a child, with the levels `disabled`."""
    mix, config, refs, models = inputs
    commands = [
        ["separate", "--input", str(mix), "--config", str(config), "--out", str(out / "stems")],
        ["eval", "--estimates", str(models[0]), "--references", str(refs),
         "--out", str(out / "r.json"), "--csv", str(out / "r.csv"), "--filter-len", "64"],
        ["search-weights", "--stems", *map(str, models), "--references", str(refs),
         "--out", str(out / "w.json"), "--grid-step", "0.25", "--filter-len", "16"]]
    path = [str(resources.files("stemfuse").parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, "-c", _COMMANDS, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not LEVELS, reason="numpy dispatches no level above its baseline here")
def test_outputs_hold_their_contract_without_the_levels_above_the_baseline(tmp_path):
    rng = np.random.default_rng(50)
    length = 2 * SR
    mix = tmp_path / "mix.wav"
    write_wav(Waveform(0.3 * rng.normal(size=(2, length)), SR), mix)
    refs_set = [0.3 * rng.normal(size=(2, length)) for _ in SOURCE_NAMES]
    refs = write_stem_dir(tmp_path / "refs", SourceWaveformSet([Waveform(r, SR)
                                                                for r in refs_set]))
    models = [write_stem_dir(tmp_path / f"model{k}", SourceWaveformSet(
        [Waveform(r + gain * rng.normal(size=r.shape), SR) for r in refs_set]))
        for k, gain in enumerate((0.1, 0.3))]
    inputs = (mix, resources.files("stemfuse") / "data" / "toy_pipeline.json", refs, models)
    full, base = tmp_path / "full", tmp_path / "base"
    assert run_commands(full, inputs, []) == LEVELS
    assert run_commands(base, inputs, LEVELS) == []

    for name in ("w.json", "r.csv"):
        assert (full / name).read_bytes() == (base / name).read_bytes(), name
    got, want = (json.loads((d / "r.json").read_text())["per_source_frames"] for d in (base, full))
    assert got.keys() == want.keys()
    for label in want:
        assert [v is None for v in got[label]] == [v is None for v in want[label]]
        for g, w in zip(got[label], want[label]):
            if w is not None:
                assert abs(g - w) <= FRAME_RTOL * abs(w), (label, g, w)
    for name in SOURCE_NAMES:
        a, b = (read_wav(d / "stems" / f"{name}.wav").samples for d in (base, full))
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)).astype(np.float32))
        assert np.all(np.abs(a - b) <= ulp), name
