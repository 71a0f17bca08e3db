"""Run the bergerhelix CLI in this process with the tracing wrappers installed.

Usage: python3 perfbench/launch_cli.py SPANS_OUT OP_ID CLI_ARG...

Behaves like ``python -m bergerhelix.cli CLI_ARG...`` (same exit code) and
writes the spans and their summary to SPANS_OUT when the CLI returns.
"""

import json
import sys

import bergerhelix.cli
from spans import Tracer


def main(argv) -> int:
    out, op, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return bergerhelix.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "summary": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
