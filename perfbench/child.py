"""One benchmark sample: run a repro CLI command in this fresh process.

Usage::

    python3 perfbench/child.py plain|layers -- <repro CLI arguments>

The command's stdout is captured, and one JSON record goes to stdout as the
last line: exit code, captured output, the monotonic clock when the CLI
command function was entered and when it returned, one record per simulated
system (:func:`layers.install_probes`), and -- in ``layers`` mode -- the
per-layer host-time table of :mod:`layers`.  ``CLOCK_MONOTONIC`` is
system-wide on Linux, so the parent subtracts its own spawn time from the
entry time to get set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import repro.cli as cli  # the eager imports are part of the measured set-up

import layers


def main(argv: list[str]) -> int:
    if (len(argv) < 3 or argv[0] not in ("plain", "layers")
            or argv[1] != "--"):
        print("usage: child.py plain|layers -- <repro arguments>",
              file=sys.stderr)
        return 2
    mode, command = argv[0], argv[2:]
    record: dict = {"systems": []}
    layers.install_probes(record["systems"])
    recorder = None
    if mode == "layers":
        recorder = layers.Recorder()
        layers.install(recorder)
    name = "cmd_" + command[0]
    command_fn = getattr(cli, name)

    def entered(args):
        record["enter"] = time.monotonic()
        start = time.perf_counter()
        try:
            return command_fn(args)
        finally:
            record["cli_wall_s"] = time.perf_counter() - start

    setattr(cli, name, entered)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(command)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 1
    record["rc"] = rc
    record["stdout"] = out.getvalue()
    record["numpy"] = sys.modules["numpy"].__version__
    if recorder is not None and "cli_wall_s" in record:
        record["layers"] = recorder.table(record["cli_wall_s"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
