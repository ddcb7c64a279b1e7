"""The traced daemon: ``python -m repro serve`` with the layer wrappers in.

Usage::

    python bench/daemon.py --spans OUT.json -- serve --port 0 [serve flags]

Installs :data:`layers.SERVE_TARGETS` and the admission-queue wait
probe, then hands the remaining arguments to the same CLI entry point
(so the daemon runs the ``ServerConfig`` the CLI builds), and writes
every span to ``OUT.json`` once the ``shutdown`` op has stopped it.
"""

from __future__ import annotations

import argparse
import sys

import layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as cli_main

    recorder = layers.Recorder().install(layers.SERVE_TARGETS).install_queue_wait()
    try:
        return cli_main(cli_args)
    finally:
        recorder.restore()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
