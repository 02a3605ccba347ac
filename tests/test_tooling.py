"""Checks on the source tree as a whole.

The benchmark's tracer wraps fabmon's seams by name; renaming one must fail
here. perfbench/spans.py is only read, never edited: it is imported in a
child process that writes no bytecode next to it. Every definition in src/
must have a caller in src/, and every dataclass field a reader there, so no
API exists only for the tests. The error codes src/ sends, and the
control-message kinds with their senders, are the ones docs/protocol.md
lists.
"""

from __future__ import annotations

import ast
import os
import re
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


# Definitions nothing in src/ names, each with the reason it stays.
_UNREFERENCED_OK = {
    "_ConnHandler.handle": "socketserver calls it per connection",
    "_Handler.do_GET": "http.server dispatches GET to it",
    "_Handler.log_message": "silences http.server's per-request stderr log",
    "WireServer.connections": "tests use it to prove that sessions close",
}


def _src_trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "fabmon").rglob("*.py"))]


def test_every_src_definition_has_a_src_caller():
    # a definition counts as used when src/ names it outside its own body:
    # as a name, an attribute, an import or a dispatch string. A bare name
    # can be a local that shadows a method, so a method (a def directly in
    # a class body) counts a bare name only in its own class body, as in
    # on_query_registry = registry_dump
    defs, refs, class_names = [], [], set()
    for path, tree in _src_trees():

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
                    defs.append((path, prefix + child.name, child.name,
                                 child.lineno, child.end_lineno, method))
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
                    if isinstance(node, ast.ClassDef):
                        class_names.update((path, prefix + n.id) for n in ast.walk(child)
                                           if isinstance(n, ast.Name))

        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, True))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, False))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, (node.asname or node.name).split(".")[-1], False))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((path, node.lineno, node.value, False))
    unused = [
        f"{path.relative_to(ROOT)}: {qualname}"
        for path, qualname, name, first, last, method in defs
        if not (name.startswith("__") and name.endswith("__"))  # called by the runtime
        and qualname not in _UNREFERENCED_OK
        and not (method and (path, qualname) in class_names)
        and not any(n == name and not (method and bare)
                    and not (p == path and first <= line <= last)
                    for p, line, n, bare in refs)
    ]
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_src_dataclass_field_is_read_in_src():
    # a field counts as read when src/ loads it as an attribute or names it
    # in a string (a getattr or a serialized key); setting it is not a read
    fields, reads = [], set()
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend(
                    (path, f"{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = [f"{path.relative_to(ROOT)}: {qualname}"
              for path, qualname, name in fields if name not in reads]
    assert unread == []


def test_error_codes_sent_are_the_documented_ones():
    # a code is sent as RequestError's first argument, as the code argument
    # of WireServer._send_error(conn, code, message) or as a {"code": ...} body
    sent = set()
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "RequestError" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                sent.add(node.args[0].value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_send_error" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                sent.add(node.args[1].value)
            elif isinstance(node, ast.Dict):
                sent.update(v.value for k, v in zip(node.keys, node.values)
                            if isinstance(k, ast.Constant) and k.value == "code"
                            and isinstance(v, ast.Constant))
    doc = (ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
    listed = doc.split("Error codes in use:", 1)[1].split("\n\n", 1)[0]
    assert sent == set(re.findall(r"`(\w+)`", listed))


def test_message_kinds_and_senders_are_the_documented_ones():
    from fabmon.wire.codec import _SCHEMAS
    from fabmon.wire.session import CONSUMER_KINDS, PRODUCER_KINDS

    def sender(kind):
        if kind in PRODUCER_KINDS:
            return "producer"
        if kind in CONSUMER_KINDS:
            return "consumer"
        return "either" if kind == "HELLO" else "server"  # a peer's REPLY or ERROR is refused

    doc = (ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
    table = doc.split("## Control messages", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"^\| ([A-Z_]+) +\| (\w+) +\|", table, re.M))
    assert documented == {kind: sender(kind) for kind in _SCHEMAS}
