"""Run one CLI job under the tracer, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/trace_child.py SPANS.bin JOB_ID -- ARGS...

behaves like ``python -m gainchrom.cli ARGS...`` (same stdout and exit
code) and writes the job's spans to SPANS.bin when it ends (see tracer.py).
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_path, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: trace_child.py SPANS.bin JOB_ID -- ARGS...", file=sys.stderr)
        return 2
    traced = tracer.install()
    import gainchrom.cli

    code = 1
    try:
        code = gainchrom.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        traced.dump(spans_path, job_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
