"""Traced stand-in for ``python -m moescale`` used by traced cli runs.

Usage: cli_child.py SPANS_JSONL ARGS...

Runs ``moescale.cli.main(ARGS)`` with the benchmark's tracer installed and
writes the spans it recorded (import included) to SPANS_JSONL on exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.answer_id = 0
    span = tracer.open("cli.import")
    import moescale.cli

    tracer.close(span)
    tracer.install()
    try:
        return moescale.cli.main(argv)
    finally:
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main())
