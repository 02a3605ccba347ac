from fabmon.wire.codec import (  # noqa: F401
    MalformedRecord,
    Message,
    SchemaViolation,
    decode_sample,
    decode_wire_line,
    encode_message,
    encode_sample,
)
from fabmon.wire.session import (  # noqa: F401
    ConnectionLost,
    LatestResult,
    ProtocolViolation,
    RequestError,
    WireHandler,
    WireServer,
)
from fabmon.wire.channel import (  # noqa: F401
    MemoryChannel,
    TcpChannel,
    TcpWireServer,
    connect_memory,
    tcp_dial,
)
from fabmon.wire.client import WireClient  # noqa: F401
