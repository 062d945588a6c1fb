"""`ktsurf` command line under the tracer.

Usage:  python3 perfbench/trace_cli.py STATS_JSON SPANS_JSONL ARGS...

Runs ``ktsurf.cli.main(ARGS)`` with the tracer installed, writes the raw
stats and the spans to the two files, and exits with main's exit code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        import ktsurf.cli
        code = ktsurf.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)
        tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
