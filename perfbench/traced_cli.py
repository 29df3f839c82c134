"""Run one phasemirror command with layer spans on, then write the spans out.

usage: python perfbench/traced_cli.py SPANS.json <phasemirror arguments>

Used by traced ``shipped`` rounds, whose commands each run in a fresh process.
"""

import json
import sys

import phasemirror.cli

import layertrace


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = tracer.wrap(layertrace.ROOT, phasemirror.cli.main)(argv)
    finally:
        tracer.uninstall()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
