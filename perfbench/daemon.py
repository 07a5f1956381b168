"""Run ``repro serve`` with the benchmark's layer spans.

Usage::

    python3 perfbench/daemon.py SPANS_FILE <repro serve arguments>

The daemon starts untraced. SIGUSR1 installs the spans of
:mod:`perfbench.spans` and creates ``SPANS_FILE.on``; when the daemon
exits, every recorded span is written to ``SPANS_FILE`` as JSON.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    spans_file = Path(argv[0])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import LAYER_ENTRY_POINTS, SpanRecorder
    from repro.cli import main as repro_main

    # Import every traced module now: the signal handler must not import.
    for module_name, *_ in LAYER_ENTRY_POINTS:
        importlib.import_module(module_name)
    recorder = SpanRecorder()

    def start_tracing(signum, frame) -> None:
        if not recorder.installed:
            recorder.install()
            spans_file.with_suffix(".on").touch()

    signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        recorder.restore()
        spans_file.write_text(
            json.dumps([dataclasses.astuple(span) for span in recorder.spans])
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
