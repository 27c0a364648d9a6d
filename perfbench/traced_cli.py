"""Run the sunadalab command line under the span tracer.

    python3 perfbench/traced_cli.py SPANS_JSON ARGV...

Behaves like ``python -m sunadalab ARGV...`` (same stdout and exit
code) and also dumps the spans and counters to SPANS_JSON.
"""

import sys

import sunadalab.cli

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = sunadalab.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
