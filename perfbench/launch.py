"""Run one fabmon daemon with spans installed; used by traced TCP runs.

Usage: python3 launch.py <trace file> <fabmon arguments...>

Installs the same wrappers as the in-process workloads, calls fabmon's CLI
entry point, and writes the spans when the daemon returns (SIGINT stops
fabmon's daemons cleanly).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    from fabmon.surface import cli

    code = cli.main(sys.argv[2:])
    tracer.dump(Path(sys.argv[1]))
    sys.exit(code)
