"""Run one stemfuse CLI operation in this process and report how it went.

    python3 perfbench/child.py RESULT_JSON SPANS_JSONL|- RUN_ID -- <stemfuse cli args>

Writes RESULT_JSON with the monotonic clock reading just
before the first call into stemfuse (`t_main`), the wall time of
`stemfuse.cli.main` (`op_s`) and the peak resident set size. With a
SPANS_JSONL path, the public functions of every layer are wrapped first
(see spans.py) and their spans are written there after the operation.
With no CLI arguments it is a set-up probe: it records `t_main` only.
"""

import sys
import time


def main() -> int:
    result_path, spans_path, run_id = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT SPANS RUN_ID -- <cli args>")
    cli_args = sys.argv[5:]

    import json
    import resource

    from stemfuse import cli

    recorder = None
    if spans_path != "-":
        import spans

        recorder = spans.Recorder(run_id)
        spans.install(recorder)

    t_main = time.monotonic()
    if not cli_args:  # a set-up probe: stop before the first call into stemfuse
        with open(result_path, "w") as fh:
            json.dump({"t_main": t_main}, fh)
        return 0
    code = cli.main(cli_args)
    op_s = time.monotonic() - t_main
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"t_main": t_main, "op_s": op_s, "maxrss_kb": maxrss_kb}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
