"""Run one ``bubblelab`` CLI command with its layers traced.

    python3 bench/cli_child.py TRACE_JSON <subcommand> [options...]

Behaves like ``python -m bubblelab.cli`` (same output files, stdout and
exit code) and afterwards writes the span totals and counts of this
process to TRACE_JSON.  The ``bubblelab`` package must be importable,
e.g. through PYTHONPATH.
"""

import json
import sys

from layer_trace import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import bubblelab.cli as cli

    tracer = Tracer().install()
    try:
        code = cli.main(argv)  # looked up now, so the wrapped entry runs
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
