"""Line codec shared by the wire protocol and the flat-file archive segments.

One record per line, UTF-8 JSON, keys emitted in a fixed order so encoded
bytes are stable. A sample travels as a bare record:

    {"t":1000,"p":"bnl/farm/n1","m":"cpu.load1","v":0.5,"ttl":60}\n

Control messages use the same line discipline but lead with a "k" kind and
a "cid" correlation id:

    {"k":"QUERY_LATEST","cid":7,"path":"bnl/farm/n1","m... }\n

Decoding is strict: unknown keys, missing keys, wrong types and text UTF-8
cannot encode are all rejected, so a control line can never be mistaken for
a sample, and nothing decoded fails to encode again. Decoding is
also the only validation: a decoded message carries domain values
(ResourcePath, MetricSample), and encoding serializes them as they are.

Lines are formatted directly, field by field, into the bytes json.JSONEncoder(
separators=(",", ":"), ensure_ascii=False, allow_nan=False) writes for the
same object; a non-finite float raises ValueError.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from math import isfinite
from typing import Any

from fabmon.core import PARSE_CACHE_SIZE, MalformedPath, MetricSample, ResourcePath, is_token


class MalformedRecord(ValueError):
    """Line is not one syntactically valid JSON object."""


class SchemaViolation(ValueError):
    """Line parsed but keys/types do not match the record or message schema."""

    control = False  # decode_wire_line sets it when the line had a "k": a control message


PROVIDER_KINDS = ("agent", "archive", "directory")
ROLES = ("producer", "consumer")

_SAMPLE_KEYS = frozenset(("t", "p", "m", "v", "ttl"))


def _reject_constant(_value):
    raise MalformedRecord("non-finite numbers are not valid records")


# built once: json.loads with non-default arguments builds a decoder per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _loads(line: bytes) -> dict:
    try:
        obj = _DECODER.decode(line.decode("utf-8"))
    except MalformedRecord:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedRecord(f"bad record line: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record line must be a JSON object")
    return obj


def _scalar(value: Any) -> str:
    """One JSON scalar: a string, number, true, false or null."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not a JSON scalar")


def _utf8(text: str) -> bool:
    """False for a lone surrogate (JSON's \\ud800 escape), which UTF-8 cannot encode."""
    return text.isascii() or not any("\ud800" <= c <= "\udfff" for c in text)


def _path(value: Any) -> ResourcePath:
    if not isinstance(value, str):
        raise SchemaViolation("path must be a string")
    try:
        return ResourcePath.parse(value)
    except MalformedPath as exc:
        raise SchemaViolation(f"bad path: {exc}") from None


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _metric(value: Any) -> str:
    """One shared str per legal metric name, as ResourcePath.parse shares paths.

    Only legal names are cached; anything else raises TypeError (unhashable)
    or ValueError on every call.
    """
    if not is_token(value):
        raise ValueError(f"illegal metric name {value!r}")
    return value


def sample_to_obj(sample: MetricSample) -> dict:
    return {
        "t": sample.timestamp,
        "p": str(sample.path),
        "m": sample.metric,
        "v": sample.value,
        "ttl": sample.ttl,
    }


def sample_from_obj(obj: dict) -> MetricSample:
    """Build a sample from a decoded record; MetricSample checks the field types."""
    keys = obj.keys()
    if keys != _SAMPLE_KEYS:
        raise SchemaViolation(
            f"sample keys off: missing={sorted(_SAMPLE_KEYS - keys)} extra={sorted(keys - _SAMPLE_KEYS)}")
    if isinstance(obj["v"], str) and not _utf8(obj["v"]):
        raise SchemaViolation("text value is not valid UTF-8")
    try:
        return MetricSample(path=_path(obj["p"]), metric=_metric(obj["m"]), timestamp=obj["t"],
                            value=obj["v"], ttl=obj["ttl"])
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(str(exc)) from None


def _sample_text(sample: MetricSample) -> str:
    # MetricSample validated every field: the ints are ints, and path and metric
    # are tokens, which need no escaping
    return (f'{{"t":{sample.timestamp},"p":"{str(sample.path)}","m":"{sample.metric}",'
            f'"v":{_scalar(sample.value)},"ttl":{sample.ttl}}}')


def encode_sample(sample: MetricSample) -> bytes:
    """Serialize one sample as a record line, trailing newline included."""
    return (_sample_text(sample) + "\n").encode("utf-8")


def decode_sample(line: bytes) -> MetricSample:
    """Strict inverse of encode_sample."""
    return sample_from_obj(_loads(line))


@dataclass(frozen=True)
class Message:
    """One control message.

    body holds the kind's fields as domain values: path and subtree are
    ResourcePaths, sample is a MetricSample or None, samples a list of
    MetricSamples; every other field is its JSON value.
    """

    kind: str
    cid: int | None
    body: dict = field(default_factory=dict)


# Per-kind schema: field name -> (type tag, required). Encoding emits fields
# in this declaration order, which fixes the bytes for a given message.
_NULLABLE_CID = {"ERROR"}

_SCHEMAS: dict[str, tuple[tuple[str, str, bool], ...]] = {
    "HELLO": (
        ("role", "role", False),
        ("name", "str", True),
    ),
    "QUERY_LATEST": (
        ("path", "path", True),
        ("metric", "metric", True),
        ("hops", "int", False),
    ),
    "QUERY_RANGE": (
        ("path", "path", True),
        ("metric", "metric", True),
        ("t0", "int", True),
        ("t1", "int", True),
        ("hops", "int", False),
    ),
    "REGISTER": (
        ("subtree", "path", True),
        ("kind", "provider_kind", True),
        ("endpoint", "str", True),
        ("ttl", "int", True),
    ),
    "DEREGISTER": (
        ("subtree", "path", True),
        ("endpoint", "str", True),
    ),
    "QUERY_REGISTRY": (),
    "REPLY": (
        ("ok", "bool", False),
        ("expires_at", "int", False),
        ("sample", "sample_or_null", False),
        ("stale", "bool", False),
        ("source", "str", False),
        ("samples", "sample_list", False),
        ("removed", "int", False),
        ("registrations", "registration_list", False),
    ),
    "ERROR": (
        ("code", "str", True),
        ("message", "str", True),
    ),
}
_FIELDS = {kind: frozenset(name for name, _, _ in schema) for kind, schema in _SCHEMAS.items()}

# One live registration in a QUERY_REGISTRY reply: field name -> type tag, in
# wire order. An entry stays a JSON object (subtree as text) once checked.
_REGISTRATION = {"subtree": "path", "kind": "provider_kind", "endpoint": "str",
                 "ttl": "int", "registered_at": "int", "expires_at": "int"}


def _convert(name: str, tag: str, value: Any) -> Any:
    """Check one decoded field and return its domain value."""
    if tag == "path":
        return _path(value)
    if tag == "sample_or_null":
        if value is None:
            return None
        if isinstance(value, dict):
            return sample_from_obj(value)
        ok = False
    elif tag == "sample_list":
        if isinstance(value, list):
            if not all(isinstance(item, dict) for item in value):
                raise SchemaViolation(f"{name} entries must be sample objects")
            return [sample_from_obj(item) for item in value]
        ok = False
    elif tag == "registration_list":
        ok = isinstance(value, list) and all(
            isinstance(e, dict) and e.keys() == _REGISTRATION.keys() for e in value)
        if ok:
            for entry in value:
                for key, entry_tag in _REGISTRATION.items():
                    _convert(key, entry_tag, entry[key])
    elif tag == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif tag == "str":
        ok = isinstance(value, str) and _utf8(value)
    elif tag == "bool":
        ok = isinstance(value, bool)
    elif tag == "role":
        ok = value in ROLES
    elif tag == "provider_kind":
        ok = value in PROVIDER_KINDS
    elif tag == "metric":
        ok = is_token(value)
    else:  # pragma: no cover - schema table bug
        raise AssertionError(f"unknown type tag {tag}")
    if not ok:
        raise SchemaViolation(f"field {name!r} has wrong type or value")
    return value


def _field_text(name: str, tag: str, value: Any) -> str:
    """One field's domain value as JSON text."""
    if tag == "path":
        if not isinstance(value, ResourcePath):
            raise TypeError(f"field {name!r} must be a ResourcePath")
        return f'"{str(value)}"'  # segments are tokens: nothing to escape
    if tag == "sample_or_null" and value is not None:
        if not isinstance(value, MetricSample):
            raise TypeError(f"field {name!r} must be a MetricSample or None")
        return _sample_text(value)
    if tag == "sample_list":
        if not all(isinstance(s, MetricSample) for s in value):
            raise TypeError(f"field {name!r} must hold MetricSamples")
        return f"[{','.join(map(_sample_text, value))}]"
    if tag == "registration_list":
        return "[" + ",".join(
            "{" + ",".join(f'"{key}":{_scalar(e[key])}' for key in _REGISTRATION) + "}"
            for e in value) + "]"
    return _scalar(value)


def encode_message(msg: Message) -> bytes:
    if msg.kind not in _SCHEMAS:
        raise ValueError(f"cannot encode message kind {msg.kind!r}")
    extra = msg.body.keys() - _FIELDS[msg.kind]
    if extra:
        raise ValueError(f"unknown fields for {msg.kind}: {sorted(extra)}")
    parts = [f'{{"k":"{msg.kind}","cid":{_scalar(msg.cid)}']
    for name, tag, required in _SCHEMAS[msg.kind]:
        if name in msg.body:
            parts.append(f',"{name}":{_field_text(name, tag, msg.body[name])}')
        elif required:
            raise ValueError(f"{msg.kind} requires field {name!r}")
    return ("".join(parts) + "}\n").encode("utf-8")


def message_from_obj(obj: dict) -> Message:
    kind = obj.get("k")
    if kind == "SAMPLE":
        raise SchemaViolation("samples travel as bare record lines, not k=SAMPLE")
    if kind not in _SCHEMAS:
        raise SchemaViolation(f"unknown message kind {kind!r}")
    if "cid" not in obj:
        raise SchemaViolation("control messages need a cid")
    cid = obj["cid"]
    if cid is None:
        if kind not in _NULLABLE_CID:
            raise SchemaViolation(f"{kind} needs an integer cid")
    elif isinstance(cid, bool) or not isinstance(cid, int):
        raise SchemaViolation("cid must be an integer")
    extra = obj.keys() - _FIELDS[kind] - {"k", "cid"}
    if extra:
        raise SchemaViolation(f"unknown fields for {kind}: {sorted(extra)}")
    body = {}
    for name, tag, required in _SCHEMAS[kind]:
        if name in obj:
            body[name] = _convert(name, tag, obj[name])
        elif required:
            raise SchemaViolation(f"{kind} requires field {name!r}")
    return Message(kind=kind, cid=cid, body=body)


def decode_wire_line(line: bytes) -> Message | MetricSample:
    """Classify and decode one wire line: control message or bare sample."""
    obj = _loads(line)
    if "k" in obj:
        try:
            return message_from_obj(obj)
        except SchemaViolation as exc:
            exc.control = True
            raise
    return sample_from_obj(obj)
