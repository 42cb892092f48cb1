"""Command-line interface.

Subcommands: separate (full pipeline), blend, search-weights, eval,
wiener. Exit codes: 0 success, 1 runtime failure, 2 usage error, 128 + n
on signal n (SIGINT, or SIGTERM where it has its default action). Every
failure prints a single line ``error <code>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from contextlib import ExitStack, suppress
from pathlib import Path
from typing import Callable

from . import bsseval
from . import pipeline as pipeline_mod
from .blend import (
    _blend_plan,
    _weights_bytes,
    default_weights,
    load_weights,
    search_weights,
    validate_weights,
)
from .errors import StemfuseError
from .audio_io import WavReader, _WavFiles
from .core import SOURCE_NAMES, StftConfig, _AtomicFiles, _SourceSet, _json_bytes
from .wiener import MwfConfig


def _write_stems(out_dir: Path, names, channels: int, sample_rate: int, length: int,
                 stream: Callable) -> None:
    """Write the blocks stream(sink) hands to sink(offset, block) as they
    come, to the float32 stems `<name>.wav` of `_WavFiles` in `out_dir`,
    made with its parents; on any failure the directories made here go
    while they are empty."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with _WavFiles([out_dir / f"{name}.wav" for name in names], channels, sample_rate,
                       length) as files:
            stream(lambda _offset, block: files.write(block))
    except BaseException:
        with suppress(OSError):
            for directory in made:
                directory.rmdir()
        raise


def _separate_into(out_dir: Path, mix, cfg, names=SOURCE_NAMES) -> None:
    """Write the stems of `pipeline.run` on the mixture `mix` (a
    `WavReader`) to `out_dir`, each block as the sweep's workers finish it."""
    _write_stems(out_dir, names, mix.channels, mix.sample_rate, mix.length,
                 lambda sink: pipeline_mod._stream(mix, cfg, names, sink))


def _stem_dir(directory, files: ExitStack) -> _SourceSet:
    """The stems of a directory, as `WavReader`s kept open in `files`."""
    return _SourceSet(pipeline_mod._stem_readers(directory, files))


class _UsageError(Exception):
    """A missing input path or an empty input directory: exit code 2."""


class _Terminated(BaseException):
    """SIGTERM, raised on the main thread, so that every `with` block on
    the way out cleans up as it does for KeyboardInterrupt."""


def _terminate(_signum, _frame):
    raise _Terminated


def _require_files(*paths) -> None:
    for path in paths:
        if not Path(path).exists():
            raise _UsageError(f"no such path: {path}")


def cmd_separate(args) -> int:
    _require_files(args.input, args.config)
    with WavReader(args.input) as mix:  # its header is checked before the config
        cfg = pipeline_mod.load_pipeline_config(args.config)
        _separate_into(Path(args.out), mix, cfg)
    return 0


def cmd_blend(args) -> int:
    _require_files(*args.stems)
    if args.weights is not None:
        _require_files(args.weights)
        weights = load_weights(args.weights)
    else:
        weights = default_weights()
    with ExitStack() as files:  # stems are read block by block as the blocks are summed
        stem_sets = [_stem_dir(d, files) for d in args.stems]
        shape, stream = _blend_plan(stem_sets, weights)
        _write_stems(Path(args.out), SOURCE_NAMES, shape[1], stem_sets[0].sample_rate, shape[2],
                     stream)
    return 0


def cmd_search_weights(args) -> int:
    _require_files(*args.stems, args.references)
    with ExitStack() as files:  # the output's temp file first: it is renamed after the search
        (out,) = files.enter_context(_AtomicFiles([args.out]))
        stem_sets = [_stem_dir(d, files) for d in args.stems]
        references = _stem_dir(args.references, files)
        cfg = bsseval.EvalConfig(filter_len=args.filter_len, win=args.win, hop=args.hop)
        weights = search_weights(
            stem_sets,
            references,
            grid_step=args.grid_step,
            eval_config=cfg,
            model_names=[Path(d).name for d in args.stems],
        )
        out.write(_weights_bytes(weights))
    return 0


def cmd_eval(args) -> int:
    _require_files(args.estimates, args.references)
    paths = [args.out] + ([args.csv] if args.csv is not None else [])
    with ExitStack() as files:  # the outputs' temp files first: both are renamed after scoring
        outs = files.enter_context(_AtomicFiles(paths))
        estimates = _stem_dir(args.estimates, files)
        references = _stem_dir(args.references, files)
        cfg = bsseval.EvalConfig(filter_len=args.filter_len, win=args.win, hop=args.hop)
        report = bsseval.sdr_frames(references, estimates, cfg)
        outs[0].write(_json_bytes(bsseval.report_to_json_dict(report)))
        if args.csv is not None:
            outs[1].write(bsseval.report_to_csv(report).encode())
    return 0


def cmd_wiener(args) -> int:
    _require_files(args.mix, args.mags)
    mag_paths = sorted(Path(args.mags).glob(f"*{pipeline_mod.MAGNITUDE_SUFFIX}"))
    if not mag_paths:
        raise _UsageError(f"no *{pipeline_mod.MAGNITUDE_SUFFIX} files in {args.mags}")
    names = tuple(p.stem for p in mag_paths)
    with WavReader(args.mix) as mix:
        cfg = pipeline_mod.PipelineConfig(
            [pipeline_mod.ModelEntry("mags", pipeline_mod.TF_DOMAIN, args.mags)],
            StftConfig(fft_size=args.fft_size, hop=args.stft_hop),
            MwfConfig(iterations=args.iterations, eps=args.eps, mask_power=args.power),
            validate_weights([[1.0] * len(names)], ["mags"], names),
        )
        _separate_into(Path(args.out), mix, cfg, names)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemfuse",
        description="Separate, blend and evaluate music source-separation stems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="run the full pipeline on a mixture")
    p.add_argument("--input", required=True, help="mixture WAV file")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--out", required=True, help="output stem directory")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("blend", help="weighted-average stems from several models")
    p.add_argument("--stems", required=True, nargs="+", help="one stem directory per model")
    p.add_argument("--weights", help="weights JSON (defaults to the shipped weights)")
    p.add_argument("--out", required=True, help="output stem directory")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("search-weights", help="grid-search blend weights against references")
    p.add_argument("--stems", required=True, nargs="+", help="one stem directory per model")
    p.add_argument("--references", required=True, help="reference stem directory")
    p.add_argument("--out", required=True, help="output weights JSON")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--filter-len", type=int, default=bsseval.EvalConfig().filter_len)
    p.add_argument("--win", type=float, default=bsseval.EvalConfig().win)
    p.add_argument("--hop", type=float, default=bsseval.EvalConfig().hop)
    p.set_defaults(func=cmd_search_weights)

    p = sub.add_parser("eval", help="score estimated stems against references")
    p.add_argument("--estimates", required=True, help="estimated stem directory")
    p.add_argument("--references", required=True, help="reference stem directory")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", help="also write a one-row CSV summary")
    p.add_argument("--filter-len", type=int, default=bsseval.EvalConfig().filter_len)
    p.add_argument("--win", type=float, default=bsseval.EvalConfig().win)
    p.add_argument("--hop", type=float, default=bsseval.EvalConfig().hop)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wiener", help="refine magnitude estimates into stems via MWF")
    p.add_argument("--mix", required=True, help="mixture WAV file")
    p.add_argument("--mags", required=True, help="directory of DSMAG1 *.mag files")
    p.add_argument("--out", required=True, help="output stem directory")
    p.add_argument("--iterations", type=int, default=MwfConfig().iterations)
    p.add_argument("--power", type=float, default=MwfConfig().mask_power)
    p.add_argument("--eps", type=float, default=MwfConfig().eps)
    p.add_argument("--fft-size", type=int, default=StftConfig().fft_size)
    p.add_argument("--stft-hop", type=int, default=StftConfig().hop)
    p.set_defaults(func=cmd_wiener)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    catch_term = (threading.current_thread() is threading.main_thread()
                  and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    if catch_term:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error usage: {exc}", file=sys.stderr)
        return 2
    except StemfuseError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error invalid-json: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error io-failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error invalid-input: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Terminated) as exc:
        number = signal.SIGINT if isinstance(exc, KeyboardInterrupt) else signal.SIGTERM
        print(f"error interrupted: {number.name}", file=sys.stderr)
        return 128 + number
    finally:
        if catch_term:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())
