"""Run ``python -m repro serve`` with a layer instrument installed.

Usage::

    python3 perfbench/serve.py --spool DIR --instrument spans -- \\
        --port 0 --store DIR/store.sqlite3 --store-backend sqlite --jobs 2

``--instrument spans`` times the layer boundaries (see :mod:`layers`),
``profile`` profiles every simulated cell by package.  The server process
and the campaign workers it forks append their records to ``DIR``, one
JSONL file per process.  Everything after ``--`` goes to ``repro serve``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spool", required=True, type=Path)
    parser.add_argument("--instrument", required=True,
                        choices=("spans", "profile"))
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    args.spool.mkdir(parents=True, exist_ok=True)
    instrument = (layers.SpanRecorder(args.spool)
                  if args.instrument == "spans"
                  else layers.PackageProfiler(args.spool))
    instrument.install()
    from repro.__main__ import main as repro_main
    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
