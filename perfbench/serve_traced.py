"""``repro serve`` with the layer wrappers installed (the traced serve run).

Usage::

    python -m perfbench.serve_traced --stats STATS.json [repro serve options]

Runs ``repro.cli.main(["serve", ...])`` inside :func:`perfbench.layers.traced`
and, once the server has drained after SIGTERM, writes the tracer's totals
to ``STATS.json`` for the benchmark process to merge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import layers
from perfbench.common import import_repro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, type=Path, help="where to write the tracer totals")
    args, serve_args = parser.parse_known_args(argv)
    import_repro()
    from repro.cli import main as repro_main

    tracer = layers.Tracer()
    with layers.traced(tracer):
        code = repro_main(["serve", *serve_args])
    args.stats.write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main())
