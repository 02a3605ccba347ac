"""The benchmark's tracer wraps fabmon's seams by name; renaming one must fail here.

perfbench/spans.py is only read, never edited: it is imported in a child
process that writes no bytecode next to it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import spans
tracer = spans.Tracer()
spans.install(tracer)
import fabmon.wire.codec as codec
from fabmon.core import MetricSample, ResourcePath
line = codec.encode_sample(MetricSample(ResourcePath.parse("a/b"), "m", 1, 0.5, 60))
codec.decode_wire_line(line)
names = tracer.aggregate()["spans"]
assert names["wire.codec.encode"][0] == 1 and names["wire.codec.decode"][0] == 1, names

# archive.filestore.opens_per_append counts opens made through the file
# store's module-global open(); an append that bypassed it would read 0.
import tempfile
from fabmon.archive.filestore import FileSegmentStore
with tempfile.TemporaryDirectory() as root:
    FileSegmentStore(root).append(MetricSample(ResourcePath.parse("a/b"), "m", 2, 0.5, 60))
agg = tracer.aggregate()
parents = agg["parents"]
assert parents.get("archive.filestore.open<archive.filestore.append") == 1, parents
# archive.store.append_us times the file store's in-memory mirror: one
# file store append is one MemoryStore.append
assert agg["spans"]["archive.store.append"][0] == 1, agg["spans"]
assert parents.get("archive.store.append<archive.filestore.append") == 1, parents
"""


def test_spans_install_on_current_seams():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
