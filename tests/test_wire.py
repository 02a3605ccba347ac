from __future__ import annotations

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EPOCH_MS, make_sample, paths, samples, tokens
from fabmon.core import MetricSample, ResourcePath, SimClock
from fabmon.wire import (
    LatestResult,
    MalformedRecord,
    Message,
    ProtocolViolation,
    RequestError,
    SchemaViolation,
    WireClient,
    WireHandler,
    WireServer,
    connect_memory,
    decode_sample,
    encode_message,
    encode_sample,
)
from fabmon.wire.codec import PROVIDER_KINDS, ROLES, _SCHEMAS, decode_wire_line, sample_to_obj
from fabmon.wire.pool import open_session

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# the generic encoder whose bytes the codec's direct formatting reproduces
_STDLIB = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def _stdlib_line(obj) -> bytes:
    return (_STDLIB.encode(obj) + "\n").encode("utf-8")


# any text UTF-8 can carry (no lone surrogates), with escapes made likely
_EDGE_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀'),
                               st.characters(blacklist_categories=("Cs",))), max_size=20)
_EDGE_INTS = st.one_of(st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, -(2**63) - 1]), st.integers())
_EDGE_FLOATS = st.one_of(st.sampled_from([-0.0, 1e16, 5e-324, 1.7976931348623157e308]),
                         st.floats(allow_nan=False, allow_infinity=False))


def edge_samples() -> st.SearchStrategy[MetricSample]:
    """Samples whose values are the encoder's hard cases: escapes, big ints, odd floats."""
    return st.builds(MetricSample, path=paths(), metric=tokens(),
                     timestamp=st.integers(1, 2**63 - 1),
                     value=st.one_of(_EDGE_INTS, _EDGE_FLOATS, _EDGE_TEXT),
                     ttl=st.integers(0, 2**63 - 1))


def registrations(text=_EDGE_TEXT, ints=_EDGE_INTS) -> st.SearchStrategy[list[dict]]:
    """QUERY_REGISTRY reply entries, their keys in wire order."""
    entry = st.builds(
        lambda subtree, kind, endpoint, ttl, at, until: {
            "subtree": str(subtree), "kind": kind, "endpoint": endpoint,
            "ttl": ttl, "registered_at": at, "expires_at": until},
        paths(), st.sampled_from(PROVIDER_KINDS), text, ints, ints, ints)
    return st.lists(entry, max_size=3)


_EDGE_FIELDS = {
    "path": paths(), "metric": tokens(), "int": _EDGE_INTS, "str": _EDGE_TEXT,
    "bool": st.booleans(), "role": st.sampled_from(ROLES),
    "provider_kind": st.sampled_from(PROVIDER_KINDS),
    "sample_or_null": st.one_of(st.none(), edge_samples()),
    "sample_list": st.lists(edge_samples(), max_size=3),
    "registration_list": registrations(),
}


@st.composite
def edge_messages(draw) -> Message:
    """Any kind, any subset of its optional fields, the body in a shuffled order."""
    kind = draw(st.sampled_from(sorted(_SCHEMAS)))
    fields = [(name, draw(_EDGE_FIELDS[tag])) for name, tag, required in _SCHEMAS[kind]
              if required or draw(st.booleans())]
    cid = draw(st.one_of(st.none(), _EDGE_INTS))
    return Message(kind, cid, dict(draw(st.permutations(fields))))


def _wire_value(value):
    if isinstance(value, ResourcePath):
        return str(value)
    if isinstance(value, MetricSample):
        return sample_to_obj(value)
    if isinstance(value, list):  # samples, or registrations already JSON objects
        return [sample_to_obj(s) if isinstance(s, MetricSample) else s for s in value]
    return value


class TestSampleCodec:
    def test_spec_record_bytes(self):
        line = encode_sample(make_sample(ts=1000, value=0.5))
        assert line == b'{"t":1000,"p":"bnl/farm/n1","m":"cpu.load1","v":0.5,"ttl":60}\n'

    def test_text_value(self):
        line = encode_sample(make_sample(ts=1000, value="up 14 days"))
        assert line == b'{"t":1000,"p":"bnl/farm/n1","m":"cpu.load1","v":"up 14 days","ttl":60}\n'

    def test_decode_inverse(self):
        s = make_sample(ts=1000, value=0.5)
        assert decode_sample(encode_sample(s)) == s

    def test_missing_key(self):
        with pytest.raises(SchemaViolation):
            decode_sample(b'{"p":"a","m":"m","v":1,"ttl":1}\n')

    def test_extra_key_rejected(self):
        with pytest.raises(SchemaViolation):
            decode_sample(b'{"t":1,"p":"a","m":"m","v":1,"ttl":1,"x":2}\n')

    def test_truncated_line(self):
        with pytest.raises(MalformedRecord):
            decode_sample(b'{"t":1000,"p":"bnl/fa')

    def test_non_object(self):
        with pytest.raises(MalformedRecord):
            decode_sample(b"[1,2]\n")

    def test_nan_literal_rejected(self):
        with pytest.raises(MalformedRecord):
            decode_sample(b'{"t":1,"p":"a","m":"m","v":NaN,"ttl":1}\n')

    @pytest.mark.parametrize("line", [
        b'{"t":true,"p":"a","m":"m","v":1,"ttl":1}\n',
        b'{"t":1,"p":5,"m":"m","v":1,"ttl":1}\n',
        b'{"t":1,"p":"a","m":"m","v":true,"ttl":1}\n',
        b'{"t":1,"p":"a","m":"m","v":1,"ttl":"x"}\n',
        b'{"t":1,"p":"A//b","m":"m","v":1,"ttl":1}\n',
        # past the archive's int64 timestamp and ttl columns
        b'{"t":9223372036854775808,"p":"a","m":"m","v":1,"ttl":1}\n',
        b'{"t":1,"p":"a","m":"m","v":1,"ttl":9223372036854775808}\n',
        # a token with a trailing newline would put a raw newline into a line
        b'{"t":1,"p":"a","m":"m\\n","v":1,"ttl":1}\n',
        b'{"t":1,"p":"a\\n","m":"m","v":1,"ttl":1}\n',
    ])
    def test_wrong_types(self, line):
        with pytest.raises(SchemaViolation):
            decode_sample(line)

    @given(samples())
    @settings(max_examples=300)
    def test_round_trip_property(self, s):
        assert decode_sample(encode_sample(s)) == s

    @given(edge_samples())
    @example(make_sample(value=-0.0))
    @example(make_sample(value=1e16))
    @example(make_sample(value=5e-324))
    @example(make_sample(value=2**63))
    @example(make_sample(value=-(2**64) - 1))
    @example(make_sample(value='é"\\\x00\x1f\x7f\u2028😀'))
    @settings(max_examples=300)
    def test_bytes_match_stdlib_encoder(self, s):
        assert encode_sample(s) == _stdlib_line(sample_to_obj(s))


def messages() -> st.SearchStrategy[Message]:
    """Every message kind with typed bodies: ResourcePath and MetricSample values."""
    cid = st.integers(min_value=0, max_value=2**63 - 1)
    path = paths()
    return st.one_of(
        st.builds(lambda c, r, n: Message("HELLO", c, {"role": r, "name": n}),
                  cid, st.sampled_from(["producer", "consumer"]), st.text(max_size=16)),
        st.builds(lambda c, p, m: Message("QUERY_LATEST", c, {"path": p, "metric": m}),
                  cid, path, tokens()),
        st.builds(lambda c, p, m, t0, t1: Message("QUERY_RANGE", c,
                                                  {"path": p, "metric": m, "t0": t0, "t1": t1}),
                  cid, path, tokens(), st.integers(0, 2**53), st.integers(0, 2**53)),
        st.builds(lambda c, p, k, e, t: Message("REGISTER", c,
                                                {"subtree": p, "kind": k, "endpoint": e, "ttl": t}),
                  cid, path, st.sampled_from(["agent", "archive", "directory"]),
                  st.text(max_size=24), st.integers(5, 86400)),
        st.builds(lambda c, p, e: Message("DEREGISTER", c, {"subtree": p, "endpoint": e}),
                  cid, path, st.text(max_size=24)),
        st.builds(lambda c, s: Message("REPLY", c, {"sample": s, "stale": False,
                                                    "source": "upstream"}),
                  cid, samples()),
        st.builds(lambda c, lst: Message("REPLY", c, {"samples": lst}),
                  cid, st.lists(samples(), max_size=4)),
        st.builds(lambda c, e: Message("REPLY", c, {"expires_at": e}), cid, st.integers(0, 2**53)),
        st.builds(lambda c: Message("QUERY_REGISTRY", c, {}), cid),
        st.builds(lambda c, regs: Message("REPLY", c, {"registrations": regs}),
                  cid, registrations(st.text(max_size=24), st.integers(0, 2**53))),
        st.builds(lambda c, code, msg: Message("ERROR", c, {"code": code, "message": msg}),
                  st.one_of(st.none(), cid), tokens(), st.text(max_size=40)),
    )


def _registration_reply(old: bytes, new: bytes) -> bytes:
    """A REPLY listing one valid registration, with old in its bytes replaced by new."""
    entry = (b'{"subtree":"a","kind":"agent","endpoint":"e:1","ttl":60,'
             b'"registered_at":1,"expires_at":60001}')
    return b'{"k":"REPLY","cid":1,"registrations":[' + entry.replace(old, new) + b']}\n'

# a valid body for every kind with a text field, which the lone surrogate cases replace
_TEXT_BODIES = {
    "HELLO": {"role": "producer", "name": "x"},
    "REGISTER": {"subtree": "a", "kind": "agent", "endpoint": "e:1", "ttl": 60},
    "DEREGISTER": {"subtree": "a", "endpoint": "e:1"},
    "REPLY": {"source": "cache"},
    "ERROR": {"code": "x", "message": "y"},
}
# every text field of every kind: a lone surrogate in it must not decode
LONE_SURROGATE_LINES = {
    f"{kind}.{name}": (json.dumps({"k": kind, "cid": 1, **_TEXT_BODIES[kind],
                                   name: "\ud800"}) + "\n").encode()
    for kind, schema in _SCHEMAS.items() for name, tag, _ in schema if tag == "str"
}
LONE_SURROGATE_LINES["REPLY.registrations.endpoint"] = _registration_reply(b'"e:1"', b'"e\\udfff"')
LONE_SURROGATE_LINES["sample.v"] = b'{"t":1,"p":"a","m":"m","v":"up \\ud800","ttl":1}\n'


class TestMessageCodec:
    @given(messages())
    @settings(max_examples=300)
    def test_round_trip(self, msg):
        assert decode_wire_line(encode_message(msg)) == msg

    @given(edge_messages())
    @example(Message("REPLY", 2**63, {"source": 'é"\\\x00\x1f\u2028😀', "removed": -(2**63) - 1,
                                       "sample": make_sample(value=-0.0)}))
    @settings(max_examples=300)
    def test_bytes_match_stdlib_encoder(self, msg):
        # keys in schema order, whatever order the body holds them in
        obj = {"k": msg.kind, "cid": msg.cid}
        obj.update((name, _wire_value(msg.body[name]))
                   for name, _, _ in _SCHEMAS[msg.kind] if name in msg.body)
        assert encode_message(msg) == _stdlib_line(obj)

    def test_unknown_kind(self):
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"NOPE","cid":1}\n')

    def test_sample_kind_is_reserved(self):
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"SAMPLE","cid":1}\n')

    def test_missing_required_field(self):
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"REGISTER","cid":1,"subtree":"a","kind":"agent","ttl":60}\n')

    def test_unknown_field(self):
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"HELLO","cid":1,"name":"x","bogus":1}\n')

    def test_cid_required(self):
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"HELLO","name":"x"}\n')
        with pytest.raises(SchemaViolation):
            decode_wire_line(b'{"k":"QUERY_LATEST","cid":null,"path":"a","metric":"m"}\n')

    def test_wire_line_classification(self):
        assert isinstance(decode_wire_line(encode_sample(make_sample())), MetricSample)
        assert decode_wire_line(b'{"k":"ERROR","cid":null,"code":"x","message":""}\n').kind == "ERROR"

    def test_control_message_golden_bytes(self):
        with open(os.path.join(GOLDEN, "messages.jsonl"), "rb") as fh:
            golden = fh.read().splitlines(True)
        assert len(golden) == len(GOLDEN_MESSAGES)
        for msg, line in zip(GOLDEN_MESSAGES, golden):
            assert encode_message(msg) == line
            assert decode_wire_line(line) == msg

    @pytest.mark.parametrize("line", [
        b'{"k":"QUERY_LATEST","cid":1,"path":"a//b","metric":"m"}\n',
        b'{"k":"QUERY_LATEST","cid":1,"path":5,"metric":"m"}\n',
        b'{"k":"QUERY_LATEST","cid":1,"path":"a","metric":"M M"}\n',
        b'{"k":"SUBSCRIBE","cid":1,"prefix":"a","metric":"*","expires":true}\n',
        b'{"k":"SUBSCRIBE","cid":1,"prefix":"a","metric":"*","expires":10}\n',
        b'{"k":"HELLO","cid":1,"role":"boss","name":"x"}\n',
        b'{"k":"REGISTER","cid":1,"subtree":"a","kind":"oracle","endpoint":"e","ttl":60}\n',
        b'{"k":"REPLY","cid":1,"sample":{"t":1,"p":"a","m":"m","v":true,"ttl":1}}\n',
        b'{"k":"REPLY","cid":1,"sample":[1]}\n',
        b'{"k":"REPLY","cid":1,"samples":[{"t":1,"p":"a","m":"m","v":1}]}\n',
        b'{"k":"REPLY","cid":1,"samples":[7]}\n',
        b'{"k":"REPLY","cid":1,"samples":{}}\n',
        b'{"k":"REPLY","cid":1,"stale":1}\n',
        b'{"k":"REPLY","cid":1,"registrations":{}}\n',
        b'{"k":"REPLY","cid":1,"registrations":[7]}\n',
        b'{"k":"REPLY","cid":1,"registrations":[{"subtree":"a"}]}\n',
        _registration_reply(b'"a"', b'"a//b"'),
        _registration_reply(b'"agent"', b'"oracle"'),
        _registration_reply(b'"e:1"', b'1'),
        _registration_reply(b'"ttl":60', b'"ttl":true'),
        _registration_reply(b'}', b',"x":1}'),
        b'{"k":"QUERY_REGISTRY","cid":1,"subtree":"a"}\n',
    ])
    def test_field_rejections(self, line):
        with pytest.raises(SchemaViolation):
            decode_wire_line(line)

    @pytest.mark.parametrize("field", sorted(LONE_SURROGATE_LINES))
    def test_text_utf8_cannot_encode_is_rejected(self, field):
        # JSON's \ud800 escape decodes to a lone surrogate, which no reply could carry
        with pytest.raises(SchemaViolation):
            decode_wire_line(LONE_SURROGATE_LINES[field])

    def test_paired_surrogate_escapes_decode(self):
        line = b'{"t":1,"p":"a","m":"m","v":"\\ud83d\\ude00","ttl":1}\n'
        assert decode_wire_line(line).value == "\U0001f600"

    def test_encode_takes_domain_values_only(self):
        with pytest.raises(TypeError):
            encode_message(Message("QUERY_LATEST", 1, {"path": "a/b", "metric": "m"}))
        with pytest.raises(TypeError):
            encode_message(Message("REPLY", 1, {"sample": sample_to_obj(make_sample())}))
        with pytest.raises(TypeError):
            encode_message(Message("REPLY", 1, {"samples": [sample_to_obj(make_sample())]}))

    def test_encode_checks_kind_and_field_names(self):
        with pytest.raises(ValueError):
            encode_message(Message("NOPE", 1, {}))
        with pytest.raises(ValueError):
            encode_message(Message("HELLO", 1, {"name": "x", "bogus": 1}))
        with pytest.raises(ValueError):
            encode_message(Message("DEREGISTER", 1, {"endpoint": "x"}))

    def test_encode_rejects_non_finite_values(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                encode_sample(make_sample(value=value))
            with pytest.raises(ValueError):
                encode_message(Message("REPLY", 1, {"sample": make_sample(value=value)}))
            with pytest.raises(ValueError):
                encode_message(Message("REPLY", 1, {"samples": [make_sample(value=value)]}))


# the messages behind tests/golden/messages.jsonl, line by line
_G_PATH = ResourcePath.parse("bnl/farm/n1")
_G_SAMPLES = [
    MetricSample(_G_PATH, "cpu.load1", 1600000000000, 0.5, 60),
    MetricSample(_G_PATH, "cpu.load1", 1600000030000, 1, 60),
    MetricSample(_G_PATH, "cpu.load1", 1600000060000, "up 14 days", 60),
]
GOLDEN_MESSAGES = [
    Message("HELLO", 1, {"role": "consumer", "name": "probe"}),
    Message("QUERY_LATEST", 7, {"path": _G_PATH, "metric": "cpu.load1", "hops": 2}),
    Message("QUERY_RANGE", 8, {"path": ResourcePath.parse("bnl/farm"), "metric": "cpu.load1",
                               "t0": 1600000000000, "t1": 1600000060000}),
    Message("REPLY", 7, {"sample": _G_SAMPLES[0], "stale": True, "source": "cache"}),
    Message("REPLY", 8, {"samples": _G_SAMPLES}),
    Message("REPLY", 9, {"expires_at": 1600000120000}),
    Message("ERROR", None, {"code": "malformed_record", "message": "bad record line: ü"}),
    Message("QUERY_REGISTRY", 10, {}),
    Message("REPLY", 10, {"registrations": [
        {"subtree": "bnl", "kind": "archive", "endpoint": "127.0.0.1:9812", "ttl": 120,
         "registered_at": 1600000000000, "expires_at": 1600000120000},
        {"subtree": "bnl/farm/n1", "kind": "agent", "endpoint": "n1.bnl:9810", "ttl": 60,
         "registered_at": 1600000030000, "expires_at": 1600000090000},
    ]}),
]


class _StoreHandler(WireHandler):
    """Tiny handler: remembers samples, answers latest from memory."""

    def __init__(self):
        self.samples: list[MetricSample] = []
        self.bad_lines = 0

    def on_sample(self, sample):
        self.samples.append(sample)

    def on_query_latest(self, path, metric, hops):
        for s in reversed(self.samples):
            if s.path == path and s.metric == metric:
                return LatestResult(s, source="test")
        return LatestResult(None, source="test")

    def on_bad_line(self, line, error):
        self.bad_lines += 1


def _mem_pair(handler=None, clock=None):
    clock = clock or SimClock(EPOCH_MS)
    server = WireServer(handler or _StoreHandler(), clock, name="test-server")
    return server, clock


class TestSession:
    def test_hello_exchange(self):
        server, _ = _mem_pair()
        client = WireClient(connect_memory(server), role="consumer", name="c1")
        assert client.server_name == "test-server"

    def test_sample_before_hello_is_violation(self):
        server, _ = _mem_pair()
        channel = connect_memory(server)
        channel.send(encode_sample(make_sample()))
        reply = decode_wire_line(channel.recv())
        assert reply.kind == "ERROR" and reply.body["code"] == "protocol_violation"
        assert channel.closed

    def test_double_hello_is_violation(self):
        server, _ = _mem_pair()
        channel = connect_memory(server)
        channel.send(encode_message(Message("HELLO", 1, {"role": "producer", "name": "x"})))
        channel.recv()
        channel.send(encode_message(Message("HELLO", 2, {"role": "producer", "name": "x"})))
        reply = decode_wire_line(channel.recv())
        assert reply.body["code"] == "protocol_violation"

    def test_consumer_cannot_publish(self):
        server, _ = _mem_pair()
        channel = connect_memory(server)
        channel.send(encode_message(Message("HELLO", 1, {"role": "consumer", "name": "x"})))
        channel.recv()
        channel.send(encode_sample(make_sample()))
        assert decode_wire_line(channel.recv()).body["code"] == "protocol_violation"
        assert channel.closed

    def test_producer_cannot_query(self):
        server, _ = _mem_pair()
        channel = connect_memory(server)
        channel.send(encode_message(Message("HELLO", 1, {"role": "producer", "name": "x"})))
        channel.recv()
        channel.send(encode_message(
            Message("QUERY_LATEST", 2, {"path": ResourcePath.parse("a"), "metric": "m"})))
        assert decode_wire_line(channel.recv()).body["code"] == "protocol_violation"

    def test_publish_and_query_interleave(self):
        handler = _StoreHandler()
        server, _ = _mem_pair(handler)
        producer = WireClient(connect_memory(server), role="producer", name="p")
        consumer = WireClient(connect_memory(server), role="consumer", name="c")
        s = make_sample(value=1.25)
        producer.publish(s)
        got = consumer.query_latest(ResourcePath.parse("bnl/farm/n1"), "cpu.load1")
        assert got.sample == s

    @pytest.mark.parametrize("line", [
        b'{"k":"SUBSCRIBE","cid":2,"prefix":"a","metric":"*","expires":10}\n',
        b'{"k":"UNSUBSCRIBE","cid":2,"prefix":"a","metric":"*"}\n',
    ])
    def test_subscription_verbs_rejected_session_stays_up(self, line):
        server, _ = _mem_pair()
        client = WireClient(connect_memory(server), role="consumer", name="c")
        client._channel.send(line)
        error = decode_wire_line(client._channel.recv(0))
        assert (error.kind, error.body["code"]) == ("ERROR", "schema_violation")
        assert client.query_latest(ResourcePath.parse("a"), "m").absent

    @pytest.mark.parametrize("line", [
        b'{"t":1,"p":"bnl/n1","m":"k","v":1,"ttl":-1}\n',
        b'{"t":1,"p":"bnl/n1","m":"m","v":"k","ttl":-1}\n',
        b'{"t":1,"p":"k/n1","m":"m","v":1,"ttl":-1}\n',
        b'{"t":1,"p":"k","m":"m","v":1,"ttl":-1}\n',
    ])
    def test_bad_sample_naming_k_is_a_bad_data_line(self, line):
        # a "k" in the text is not a "k" key: the line is a malformed sample
        handler = _StoreHandler()
        server, _ = _mem_pair(handler)
        client = WireClient(connect_memory(server), role="producer", name="p")
        client._channel.send(line)
        error = decode_wire_line(client._channel.recv(0))
        assert (error.kind, error.body["code"]) == ("ERROR", "malformed_record")
        assert handler.bad_lines == 1

    def test_record_line_while_awaiting_reply_is_violation(self):
        class Scripted:
            """A peer that answers HELLO, then sends a record line before its REPLY."""

            def __init__(self):
                self.inbox = [encode_message(Message("HELLO", 1, {"name": "s"}))]

            def send(self, line):
                if decode_wire_line(line).kind == "QUERY_LATEST":
                    self.inbox += [encode_sample(make_sample()),
                                   encode_message(Message("REPLY", 2, {"sample": None}))]

            def recv(self, timeout=None):
                return self.inbox.pop(0)

        client = WireClient(Scripted(), role="consumer", name="c")
        with pytest.raises(ProtocolViolation):
            client.query_latest(ResourcePath.parse("a"), "m")

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.0 400 Bad request version\r\n",  # the endpoint speaks HTTP
        b'{"k":"HELLO","cid":1,"name":5}\n',
    ])
    def test_undecodable_reply_is_violation_and_the_channel_closed(self, reply):
        class Peer:
            closed = False

            def send(self, line):
                pass

            def recv(self, timeout=None):
                return reply

            def close(self):
                self.closed = True

        peer = Peer()
        with pytest.raises(ProtocolViolation, match="^undecodable reply to HELLO: "):
            open_session(lambda endpoint: peer, "web:80", "consumer", "c")
        assert peer.closed

    def test_unsupported_request_gets_error(self):
        server, _ = _mem_pair()
        client = WireClient(connect_memory(server), role="producer", name="p")
        with pytest.raises(RequestError, match="^unsupported: "):
            client.register(ResourcePath.parse("a"), "agent", "x:1", 60)

    def test_malformed_line_counted_not_fatal(self):
        handler = _StoreHandler()
        server, _ = _mem_pair(handler)
        client = WireClient(connect_memory(server), role="producer", name="p")
        client._channel.send(b"this is not json\n")
        client.publish(make_sample())
        assert handler.bad_lines == 1
        assert len(handler.samples) == 1

    def test_correlation_completeness(self):
        # every request gets exactly one REPLY or ERROR with its cid
        handler = _StoreHandler()
        server, _ = _mem_pair(handler)
        channel = connect_memory(server)
        channel.send(encode_message(Message("HELLO", 1, {"role": "consumer", "name": "x"})))
        ab = ResourcePath.parse("a/b")
        requests = [
            Message("QUERY_LATEST", 3, {"path": ab, "metric": "m"}),
            Message("QUERY_RANGE", 4, {"path": ab, "metric": "m", "t0": 0, "t1": 1}),
        ]
        for m in requests:
            channel.send(encode_message(m))
        replies = []
        while True:
            line = channel.recv(timeout=0)
            if line is None:
                break
            replies.append(decode_wire_line(line))
        hello, rest = replies[0], replies[1:]
        assert hello.kind == "HELLO" and hello.cid == 1
        assert len(rest) == len(requests)
        assert [m.cid for m in rest] == [m.cid for m in requests]
        assert all(m.kind in ("REPLY", "ERROR") for m in rest)


class TestRequestErrors:
    def test_handler_request_error_becomes_error_reply(self, clock):
        class Rejecting(WireHandler):
            def on_query_latest(self, path, metric, hops):
                raise RequestError("no_provider", "nothing here")

        server = WireServer(Rejecting(), clock)
        client = WireClient(connect_memory(server), role="consumer", name="c")
        with pytest.raises(RequestError, match="^no_provider: "):
            client.query_latest(ResourcePath.parse("a"), "m")

    def test_handler_crash_becomes_internal_error(self, clock):
        class Crashing(WireHandler):
            def on_query_latest(self, path, metric, hops):
                raise RuntimeError("boom")

        server = WireServer(Crashing(), clock)
        client = WireClient(connect_memory(server), role="consumer", name="c")
        with pytest.raises(RequestError, match="^internal: "):
            client.query_latest(ResourcePath.parse("a"), "m")

    def test_protocol_violation_exception_type(self):
        assert issubclass(ProtocolViolation, RuntimeError)


class TestDecodeOnce:
    def test_range_reply_builds_one_sample_per_sample(self, clock, monkeypatch):
        # encode serializes the handler's samples as they are; only the
        # client's decode of the REPLY line builds MetricSamples
        history = [make_sample(ts=EPOCH_MS + i * 30_000, value=float(i)) for i in range(12)]

        class Ranged(WireHandler):
            def on_query_range(self, path, metric, t0, t1, hops):
                return history

        client = WireClient(connect_memory(WireServer(Ranged(), clock)),
                            role="consumer", name="c")
        built = []
        post_init = MetricSample.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MetricSample, "__post_init__", counting)
        got = client.query_range(ResourcePath.parse("bnl/farm/n1"), "cpu.load1", 0, 1 << 62)
        monkeypatch.undo()
        assert got == history
        assert len(built) == 12


class TestDecoderBuiltOnce:
    def test_no_decoder_built_per_line(self, monkeypatch):
        import json

        built = []
        init = json.JSONDecoder.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "__init__", counting)
        sample_line = encode_sample(make_sample())
        query_line = encode_message(Message("QUERY_LATEST", 7, {
            "path": ResourcePath.parse("bnl/farm/n1"), "metric": "cpu.load1"}))
        for _ in range(500):
            decode_sample(sample_line)
            decode_wire_line(query_line)
        monkeypatch.undo()
        assert built == []

    @pytest.mark.parametrize("line", [
        b'{"t":1,"p":"a","m":"m","v":NaN,"ttl":1}\n',
        b'{"t":1,"p":"a","m":"m","v":-Infinity,"ttl":1}\n',
        b'\xef\xbb\xbf{"t":1,"p":"a","m":"m","v":1,"ttl":1}\n',  # UTF-8 BOM
        b'{"t":1,"p":"a","m":"m","v":1,"ttl":1} x\n',
        b'{"t":1,"p":"a","m":"m","v":1,"ttl":1}{}\n',
        b'"a string"\n',
        b"null\n",
        b"\xff\n",
    ])
    def test_malformed_lines_still_raise(self, line):
        for decode in (decode_sample, decode_wire_line):
            with pytest.raises(MalformedRecord):
                decode(line)

    @pytest.mark.parametrize("metric", ['"Bad Name"', "5", "true", "[1]", "{}"])
    def test_bad_metric_raises_on_every_decode(self, metric):
        line = b'{"t":1,"p":"a","m":%s,"v":1,"ttl":1}\n' % metric.encode()
        for _ in range(2):
            with pytest.raises(SchemaViolation):
                decode_sample(line)
