"""stemfuse benchmark: the three CLI jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload separate|eval|search --seed N \
        --seconds S --trace 0|1

Run from anywhere; stemfuse is imported from the `src/` directory next
to this one. The seeded inputs (gen.py) are written once, before any
timed operation. Each operation is then one `stemfuse` CLI call in a
fresh child process (child.py), run one at a time, for S seconds. Every
operation's outputs are checked and must be byte-identical to the
first operation's.

--trace 0 reports the end-to-end metrics: xrt (seconds of audio per
wall-clock second of `stemfuse.cli.main`), peak_rss_mb (the child's
ru_maxrss), setup_s (child spawn to the first call into stemfuse) and
sdr_db (quality of the result, not timed). --trace 1 alternates untraced
operations with operations whose layers are wrapped from outside
(spans.py), checks the two give byte-identical outputs, and reports
per-layer calls, self time and computed megabytes plus the tracing
overhead. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.
"""

import os

# Pinned before numpy loads, here and in every child: with free BLAS
# threads the run-to-run spread of `eval` was several times wider.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TOY_CONFIG = SRC / "stemfuse" / "data" / "toy_pipeline.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBES = 5
RUN_BUDGET_S = 165.0  # the whole run, set-up included, must end well inside 180 s
SEARCH_GRID_STEP = "0.1"
SEARCH_FILTER_LEN = "32"
SDR_SILENT_ENERGY = 1e-12

END_TO_END_UNITS = {"xrt": "x", "peak_rss_mb": "MB", "setup_s": "s", "sdr_db": "dB"}

# Per-layer metrics: function -> stats reported for it.
LAYER_FUNCTION_STATS = {
    "audio_io.read_wav": ("calls", "self_ms", "mb"),
    "audio_io.write_wav": ("calls", "self_ms", "mb"),
    "stft.stft": ("calls", "self_ms"),
    "stft.istft": ("calls", "self_ms"),
    "wiener.initial_estimates": ("calls", "self_ms", "mb"),
    "wiener.estimate_spatial_model": ("calls", "self_ms"),
    "wiener.apply_filter": ("calls", "self_ms", "mb"),
    "blend.blend": ("calls", "self_ms"),
    "blend.search_weights": ("calls", "self_ms"),
    "bsseval.median_sdr": ("calls", "self_ms"),
    "bsseval.sdr_frames": ("calls", "self_ms"),
    "pipeline.run": ("calls", "self_ms"),
    "pipeline.load_stem_dir": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
}
STAT_UNITS = {"calls": "count", "self_ms": "ms", "mb": "MB_computed"}
COUNTS = ("blend.columns_scored", "bsseval.frames_scored", "bsseval.frames_excluded")

# Rows of the baseline table in ROADMAP.md: inclusive ms per call, per
# 10 s of input audio, from these wrapped functions.
BASELINE_ROWS = {
    "baseline.stft_ms": ("stft.stft",),
    "baseline.istft_ms": ("stft.istft",),
    "baseline.initial_estimates_ms": ("wiener.initial_estimates",),
    "baseline.em_pass_ms": ("wiener.estimate_spatial_model", "wiener.apply_filter"),
    "baseline.mwf_ms": ("wiener.mwf",),
    "baseline.tf_branch_ms": ("pipeline.tf_branch",),
    "baseline.pipeline_run_ms": ("pipeline.run",),
    "baseline.blend_ms": ("blend.blend",),
    "baseline.sdr_frames_ms": ("bsseval.sdr_frames",),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_description() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in cache_dir.glob("index*")]
        if levels:
            llc = max(levels)[1]
    except (OSError, ValueError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


# --- the workloads -------------------------------------------------------

def cli_args(workload: str, inputs: Path, out: Path) -> list:
    if workload == "separate":
        return ["separate", "--input", str(inputs / "mixture.wav"), "--config", str(TOY_CONFIG),
                "--out", str(out)]
    if workload == "eval":
        return ["eval", "--estimates", str(inputs / "estimates"),
                "--references", str(inputs / "references"),
                "--out", str(out / "report.json"), "--csv", str(out / "report.csv")]
    return ["search-weights", "--stems", *[str(inputs / m) for m in gen.MODELS],
            "--references", str(inputs / "references"), "--out", str(out / "weights.json"),
            "--grid-step", SEARCH_GRID_STEP, "--filter-len", SEARCH_FILTER_LEN]


def plain_sdr_db(refs: np.ndarray, ests: np.ndarray) -> float:
    """Mean over sources of the median 1-s-frame SDR, 10 log10(|s|^2 / |s - e|^2).

    refs, ests: (sources, channels, length). Frames whose reference is
    silent are skipped, as BSS-eval does.
    """
    win = gen.SAMPLE_RATE
    medians = []
    for ref, est in zip(refs, ests):
        values = []
        for start in range(0, ref.shape[-1] - win + 1, win):
            r = ref[:, start:start + win]
            energy = float(np.sum(r * r))
            if energy < SDR_SILENT_ENERGY:
                continue
            err = float(np.sum((r - est[:, start:start + win]) ** 2))
            values.append(10.0 * math.log10(energy / max(err, 1e-300)))
        medians.append(statistics.median(values))
    return statistics.fmean(medians)


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_separate(out: Path, inputs: dict) -> float:
    from stemfuse import read_wav

    mixture = inputs["mixture"]
    stems = []
    for name in gen.SOURCES:
        path = out / f"{name}.wav"
        _require(path.is_file(), f"missing {path.name}")
        stem = read_wav(path)
        _require(stem.samples.shape == mixture.shape, f"{path.name}: shape {stem.samples.shape}")
        _require(stem.sample_rate == gen.SAMPLE_RATE, f"{path.name}: rate {stem.sample_rate}")
        _require(bool(np.all(np.isfinite(stem.samples))), f"{path.name}: non-finite samples")
        stems.append(stem.samples)
    return plain_sdr_db(inputs["references"], np.stack(stems))


def check_eval(out: Path, inputs: dict) -> float:
    report = json.loads((out / "report.json").read_text())
    medians = report["per_source_median"]
    _require(list(medians) == list(gen.SOURCES), f"sources {list(medians)}")
    values = [medians[name] for name in gen.SOURCES] + [report["overall_avg"]]
    _require(all(isinstance(v, float) and math.isfinite(v) for v in values),
             f"non-finite medians {values}")
    frames = report["per_source_frames"]
    _require(frames["vocals"][1] is None, "the silent vocals frame was not excluded")
    lines = (out / "report.csv").read_text().splitlines()
    _require(len(lines) == 2, f"CSV has {len(lines)} lines")
    _require(lines[0] == "Drums,Bass,Other,Vocals,Avg", f"CSV header {lines[0]!r}")
    _require(lines[1] == ",".join(f"{v:.6f}" for v in values), "CSV row differs from JSON")
    return report["overall_avg"]


def check_search(out: Path, inputs: dict) -> float:
    from stemfuse import load_weights

    weights = load_weights(out / "weights.json")
    _require(weights.model_names == gen.MODELS, f"models {weights.model_names}")
    _require(weights.source_names == gen.SOURCES, f"sources {weights.source_names}")
    sums = weights.weights.sum(axis=0)
    _require(bool(np.all(np.abs(sums - 1.0) <= 1e-9)), f"column sums {sums}")
    models = np.stack([inputs["models"][m] for m in gen.MODELS])  # (M, J, C, N)
    blended = np.einsum("mj,mjcn->jcn", weights.weights, models)
    return plain_sdr_db(inputs["references"], blended)


CHECKS = {"separate": check_separate, "eval": check_eval, "search": check_search}


# --- running operations --------------------------------------------------

def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spawn_child(args: list, timeout: float):
    """Run child.py; return (completed process or None on timeout, wall seconds, spawn time)."""
    argv = [sys.executable, "-s", str(HERE / "child.py"), *args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        proc = None
    return proc, time.monotonic() - t_spawn, t_spawn


def run_op(workload: str, inputs_dir: Path, inputs: dict, op_dir: Path, traced: bool,
           run_id: str, timeout: float) -> dict:
    """One CLI operation in a fresh child; returns its record, with `error` on failure."""
    out = op_dir / "out"
    out.mkdir(parents=True)
    result_path = op_dir / "result.json"
    spans_path = op_dir / "spans.jsonl"
    proc, wall_s, t_spawn = spawn_child(
        [str(result_path), str(spans_path) if traced else "-", run_id, "--",
         *cli_args(workload, inputs_dir, out)], timeout)
    record = {"traced": traced, "wall_s": wall_s}
    if proc is None:
        record["error"] = f"timed out after {timeout:.0f} s"
        return record
    error_lines = [line for line in proc.stderr.splitlines() if line.startswith("error ")]
    if proc.returncode != 0 or error_lines:
        record["error"] = f"exit {proc.returncode}: " + (
            error_lines[0] if error_lines else proc.stderr.strip()[-300:])
        return record
    try:
        result = json.loads(result_path.read_text())
        record.update(setup_s=result["t_main"] - t_spawn, op_s=result["op_s"],
                      rss_mb=result["maxrss_kb"] / 1024.0)
        record["sdr_db"] = CHECKS[workload](out, inputs)
    except Exception as exc:  # any failure to read the result or check the outputs fails the op
        record["error"] = f"output check: {type(exc).__name__}: {exc}"
        return record
    record["digest"] = output_digest(out)
    if traced:
        with open(spans_path) as fh:
            record["layers"] = spans.layer_stats([json.loads(line) for line in fh])
    return record


def measure_setup(probe_dir: Path, count: int) -> list:
    """Set-up seconds of `count` children that import stemfuse and stop."""
    samples = []
    for i in range(count):
        result_path = probe_dir / f"probe{i}.json"
        proc, _, t_spawn = spawn_child([str(result_path), "-", "probe", "--"], 30.0)
        if proc is not None and proc.returncode == 0:
            samples.append(json.loads(result_path.read_text())["t_main"] - t_spawn)
    return samples


# --- metrics -------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload: str, ok: list, setup: list) -> dict:
    audio_s = gen.DURATION_S[workload]
    return {
        "xrt": median([audio_s / r["op_s"] for r in ok]),
        "peak_rss_mb": median([r["rss_mb"] for r in ok]),
        "setup_s": median(setup + [r["setup_s"] for r in ok]),
        "sdr_db": ok[0]["sdr_db"] if ok else 0.0,
    }


def per_layer_metrics(workload: str, traced: list, untraced: list) -> dict:
    metrics = {}

    def per_op(fn):
        return median([fn(r["layers"]) for r in traced])

    def fn_stat(name, key):
        return lambda layers: layers["functions"].get(name, {}).get(key, 0)

    for name, stats in LAYER_FUNCTION_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = per_op(fn_stat(name, "calls"))
            elif stat == "self_ms":
                value = 1e3 * per_op(fn_stat(name, "self_s"))
            else:
                value = per_op(fn_stat(name, "bytes")) / 1e6
            metrics[f"{name}.{stat}"] = value
    for count in COUNTS:
        metrics[count] = per_op(lambda layers: layers["counts"].get(count, 0))

    def layer_self_s(layers, layer):
        return sum(s["self_s"] for n, s in layers["functions"].items()
                   if n.split(".")[0] == layer)

    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * per_op(lambda ls: layer_self_s(ls, layer))
        metrics[f"{layer}.self_pct"] = 100.0 * per_op(
            lambda ls: layer_self_s(ls, layer) / ls["functions"]["cli.main"]["total_s"])

    scale = 10.0 / gen.DURATION_S[workload]
    for row, names in BASELINE_ROWS.items():
        def per_call_ms(layers, names=names):
            found = [layers["functions"][n] for n in names if n in layers["functions"]]
            if not found:
                return 0.0
            return 1e3 * sum(s["total_s"] for s in found) / found[0]["calls"]
        metrics[row] = scale * per_op(per_call_ms)

    audio_s = gen.DURATION_S[workload]
    xrt_traced = median([audio_s / r["op_s"] for r in traced])
    xrt_untraced = median([audio_s / r["op_s"] for r in untraced])
    metrics["trace.xrt_traced"] = xrt_traced
    metrics["trace.xrt_untraced"] = xrt_untraced
    metrics["trace.overhead_pct"] = (
        100.0 * (xrt_untraced / xrt_traced - 1.0) if xrt_traced else 0.0)
    return metrics


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYER_FUNCTION_STATS.items() for stat in stats}
    units.update({count: "count" for count in COUNTS})
    for layer in spans.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.self_pct"] = "%"
    units.update({row: "ms/10s" for row in BASELINE_ROWS})
    units.update({"trace.xrt_traced": "x", "trace.xrt_untraced": "x", "trace.overhead_pct": "%"})
    return units


def spread(values) -> str:
    if not values:
        return "no samples"
    return f"median {median(values):.6g}, min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


# --- main ----------------------------------------------------------------

def preflight() -> str | None:
    """Why stemfuse cannot be benchmarked from this checkout, or None."""
    for path in (SRC / "stemfuse" / "cli.py", TOY_CONFIG):
        if not path.is_file():
            return f"{path.relative_to(ROOT)} not found; run from a stemfuse checkout"
    proc = subprocess.run(
        [sys.executable, "-s", "-c", "import stemfuse.cli; print(stemfuse.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return f"cannot import stemfuse from {SRC}: {proc.stderr.strip()[-300:]}"
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        return f"stemfuse resolves to {proc.stdout.strip()}, not to {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stemfuse benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    problem = preflight()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks parse with stemfuse's own readers

    work = WORK_ROOT / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        inputs = gen.generate(args.workload, args.seed, work / "inputs")
        setup = measure_setup(work, SETUP_PROBES) if not args.trace else []
        records = []
        t_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            used = time.monotonic() - t_begin
            record = run_op(args.workload, work / "inputs", inputs, work / f"op{len(records)}",
                            traced, f"{args.workload}-{args.seed}-op{len(records)}",
                            timeout=max(5.0, RUN_BUDGET_S - used))
            shutil.rmtree(work / f"op{len(records)}")
            records.append(record)
            typical = median([r["wall_s"] for r in records])
            min_ops = 2 if args.trace else 1
            if len(records) >= min_ops and (
                    time.monotonic() - t_start + typical > args.seconds
                    or time.monotonic() - t_begin + typical > RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    reference = next((r["digest"] for r in records if "error" not in r), None)
    for r in records:
        if "error" not in r and r["digest"] != reference:
            r["error"] = "outputs differ from the first operation's"
    failed = [r for r in records if "error" in r]
    ok = [r for r in records if "error" not in r]

    print("machine " + json.dumps(machine_description()))
    print(f"workload {args.workload} seed {args.seed}: {len(records)} operations "
          f"({sum(r['traced'] for r in records)} traced), {len(failed)} failed")
    for r in failed:
        print(f"  failed: {r['error']}")

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"]]
        units = per_layer_units()
        metrics = per_layer_metrics(args.workload, traced, untraced) if traced and untraced \
            else {name: 0.0 for name in units}
    else:
        units = dict(END_TO_END_UNITS)
        metrics = end_to_end_metrics(args.workload, ok, setup)
        print(f"  xrt          {spread([gen.DURATION_S[args.workload] / r['op_s'] for r in ok])}")
        print(f"  setup_s      {spread(setup + [r['setup_s'] for r in ok])}")
        print(f"  peak_rss_mb  {spread([r['rss_mb'] for r in ok])}")
    fail_ratio = len(failed) / len(records)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':40s} {fail_ratio:14.6f} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
