"""Outside-in span recording around stemfuse's layers.

`install` replaces each public layer function with a wrapper at every
name it is bound to inside the stemfuse package, which is the name its
callers look up (`pipeline.stft`, `cli.read_wav`, `bsseval.median_sdr`
as `blend.search_weights` reaches it, ...). Module handles come from
`importlib.import_module`, because `stemfuse.blend` as an attribute of
the package is the `blend` function, not the module.

A wrapper records name, start, end, parent span and run id, plus the
computed megabytes of the arrays the function returns (or, for a
writer, is given) and a few counts read off arguments and results.
Spans stay in memory until `Recorder.dump`. A function that does not
exist is simply not wrapped, so a later version that stops calling or
drops it reports zero calls. No wrapper alters arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

# Public functions wrapped per layer; the layer is the stemfuse module.
LAYERS = {
    "audio_io": ("read_wav", "write_wav"),
    "stft": ("stft", "istft"),
    "wiener": ("mwf", "em_iterate", "initial_estimates", "estimate_spatial_model",
               "apply_filter"),
    "blend": ("blend", "search_weights", "load_weights", "save_weights"),
    "bsseval": ("sdr_frames", "median_sdr", "save_report_json", "save_report_csv"),
    "pipeline": ("run", "tf_branch", "load_stem_dir", "load_pipeline_config"),
    "cli": ("main",),
}

# Functions whose computed size is that of their first argument, not their result.
_SIZED_BY_ARGUMENT = {"audio_io.write_wav"}


def array_bytes(value) -> int:
    """Bytes of the numpy arrays inside a stemfuse value (sets, waveforms, ...)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    for attr in ("samples", "bins", "sources"):
        if hasattr(value, attr):
            return array_bytes(getattr(value, attr))
    return 0


def _counts(name: str, fn, args, kwargs, result) -> dict:
    """Work counts taken at the boundary, from arguments and results."""
    if name == "bsseval.sdr_frames":
        values = [v for frames in result.per_source_frames.values() for v in frames]
        excluded = sum(1 for v in values if math.isnan(v))
        return {"bsseval.frames_scored": len(values) - excluded,
                "bsseval.frames_excluded": excluded}
    if name == "blend.search_weights":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        models = len(bound.arguments["per_model_stems"])
        steps = round(1.0 / bound.arguments["grid_step"])
        sources = bound.arguments["references"].num_sources
        return {"blend.columns_scored": sources * math.comb(steps + models - 1, models - 1)}
    return {}


class Recorder:
    """In-memory span store for one operation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "bytes": 0, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            sized = args[0] if name in _SIZED_BY_ARGUMENT and args else result
            span["bytes"] = array_bytes(sized)
            try:
                span["counts"] = _counts(name, fn, args, kwargs, result)
            except (AttributeError, KeyError, TypeError):  # the signature or result changed
                pass
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function at each name bound to it inside stemfuse."""
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"stemfuse.{layer}")
        for fname in names:
            original = getattr(module, fname, None)
            if not callable(original):
                continue
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "stemfuse" and not mod_name.startswith("stemfuse."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def layer_stats(spans) -> dict:
    """Per-function calls, self seconds, inclusive seconds and bytes, plus counts.

    Self time is a span's duration minus that of its direct children;
    spans of one operation never overlap except by nesting.
    """
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    stats = {}
    counts = {}
    for span in spans:
        entry = stats.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                                "bytes": 0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
        entry["bytes"] += span["bytes"]
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"functions": stats, "counts": counts}
