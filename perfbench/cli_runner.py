"""Run one traced cloudledger CLI command in its own process.

usage: cli_runner.py SPANS_FILE REQUEST_ID CLOUDLEDGER_ARGS...

Installs the tracer, calls ``cloudledger.cli.run(argv)`` and, when the
command returns, appends its span aggregates (one JSON line tagged with
REQUEST_ID) to SPANS_FILE, which lies outside the ledger directory. Exits
with the command's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, request, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    from cloudledger import cli

    try:
        return cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
