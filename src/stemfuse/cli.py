"""Command-line interface.

Subcommands: separate (full pipeline), blend, search-weights, eval,
wiener. Exit codes: 0 success, 1 runtime failure, 2 usage error. Every
failure prints a single line ``error <code>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bsseval
from . import pipeline as pipeline_mod
from .blend import (
    blend as blend_stems,
    default_weights,
    load_weights,
    save_weights,
    search_weights,
)
from .errors import StemfuseError
from .audio_io import read_wav, write_wav
from .core import SourceWaveformSet, StftConfig, source_labels
from .stft import stft
from .wiener import MwfConfig


def _write_stem_set(stems: SourceWaveformSet, out_dir: Path, names=None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if names is None:
        names = source_labels(stems.num_sources)
    for name, stem in zip(names, stems.sources):
        write_wav(stem, out_dir / f"{name}.wav", encoding="float32")


def _usage_error(message: str) -> int:
    print(f"error usage: {message}", file=sys.stderr)
    return 2


def _require_files(*paths) -> int | None:
    for path in paths:
        if not Path(path).exists():
            return _usage_error(f"no such path: {path}")
    return None


def cmd_separate(args) -> int:
    bad = _require_files(args.input, args.config)
    if bad is not None:
        return bad
    mix = read_wav(args.input)
    cfg = pipeline_mod.load_pipeline_config(args.config)
    fused = pipeline_mod.run(mix, cfg)
    _write_stem_set(fused, Path(args.out))
    return 0


def cmd_blend(args) -> int:
    bad = _require_files(*args.stems)
    if bad is not None:
        return bad
    if args.weights is not None:
        bad = _require_files(args.weights)
        if bad is not None:
            return bad
        weights = load_weights(args.weights)
    else:
        weights = default_weights()
    stem_sets = [pipeline_mod.load_stem_dir(d) for d in args.stems]
    fused = blend_stems(stem_sets, weights)
    _write_stem_set(fused, Path(args.out))
    return 0


def cmd_search_weights(args) -> int:
    bad = _require_files(*args.stems, args.references)
    if bad is not None:
        return bad
    stem_sets = [pipeline_mod.load_stem_dir(d) for d in args.stems]
    references = pipeline_mod.load_stem_dir(args.references)
    cfg = bsseval.EvalConfig(filter_len=args.filter_len, win=args.win, hop=args.hop)
    weights = search_weights(
        stem_sets,
        references,
        grid_step=args.grid_step,
        eval_config=cfg,
        model_names=[Path(d).name for d in args.stems],
    )
    save_weights(weights, args.out)
    return 0


def cmd_eval(args) -> int:
    bad = _require_files(args.estimates, args.references)
    if bad is not None:
        return bad
    estimates = pipeline_mod.load_stem_dir(args.estimates)
    references = pipeline_mod.load_stem_dir(args.references)
    cfg = bsseval.EvalConfig(filter_len=args.filter_len, win=args.win, hop=args.hop)
    report = bsseval.sdr_frames(references, estimates, cfg)
    bsseval.save_report_json(report, args.out)
    if args.csv is not None:
        bsseval.save_report_csv(report, args.csv)
    return 0


def cmd_wiener(args) -> int:
    bad = _require_files(args.mix, args.mags)
    if bad is not None:
        return bad
    mag_paths = sorted(Path(args.mags).glob(f"*{pipeline_mod.MAGNITUDE_SUFFIX}"))
    if not mag_paths:
        return _usage_error(f"no *{pipeline_mod.MAGNITUDE_SUFFIX} files in {args.mags}")
    mix = read_wav(args.mix)
    stft_cfg = StftConfig(fft_size=args.fft_size, hop=args.stft_hop)
    mix_spec = stft(mix, stft_cfg)
    mags = [pipeline_mod.read_magnitudes(p) for p in mag_paths]
    cfg = MwfConfig(iterations=args.iterations, eps=args.eps, mask_power=args.power)
    stems = pipeline_mod.tf_branch(mags, mix_spec, cfg, mix.length)
    _write_stem_set(stems, Path(args.out), names=[p.stem for p in mag_paths])
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
    p.add_argument("--win", type=float, default=1.0)
    p.add_argument("--hop", type=float, default=1.0)
    p.set_defaults(func=cmd_search_weights)

    p = sub.add_parser("eval", help="score estimated stems against references")
    p.add_argument("--estimates", required=True, help="estimated stem directory")
    p.add_argument("--references", required=True, help="reference stem directory")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", help="also write a one-row CSV summary")
    p.add_argument("--filter-len", type=int, default=bsseval.EvalConfig().filter_len)
    p.add_argument("--win", type=float, default=1.0)
    p.add_argument("--hop", type=float, default=1.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wiener", help="refine magnitude estimates into stems via MWF")
    p.add_argument("--mix", required=True, help="mixture WAV file")
    p.add_argument("--mags", required=True, help="directory of DSMAG1 *.mag files")
    p.add_argument("--out", required=True, help="output stem directory")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--power", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--fft-size", type=int, default=4096)
    p.add_argument("--stft-hop", type=int, default=1024)
    p.set_defaults(func=cmd_wiener)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StemfuseError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error invalid-json: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error invalid-input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
