"""One benchmark process: a fresh interpreter running the l2betti CLI.

    python3 -I bench/child.py RECORD MODE [CLI ARGS...]

MODE is ``run`` (plain CLI run), ``trace`` (CLI run with the per-layer
wrappers of spans.py installed) or ``probe`` (import the CLI and exit,
to sample set-up time).  The CLI report goes to stdout exactly as the
``l2betti`` console script prints it.  RECORD receives a JSON object with
the CLOCK_MONOTONIC reading taken right after ``import l2betti.cli``
returned, and in trace mode the per-layer totals.
"""

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main() -> int:
    record_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC_DIR)
    import l2betti.cli

    imported = time.monotonic()
    if not os.path.abspath(l2betti.cli.__file__).startswith(SRC_DIR + os.sep):
        print(f"error: l2betti was imported from {l2betti.cli.__file__}", file=sys.stderr)
        return 70
    record = {"imported": imported}
    code = 0
    if mode == "trace":
        sys.path.insert(1, BENCH_DIR)
        import spans

        tracer = spans.install()
        code = l2betti.cli.main(cli_args)
        record["layers"] = tracer.summary()
    elif mode == "run":
        code = l2betti.cli.main(cli_args)
    elif mode != "probe":
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 64
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
