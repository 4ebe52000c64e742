"""Reference codecs for HTTP/2, HPACK, protobuf and gRPC: the test oracle.

These are the encoders and decoders ``repro.protocols`` used before the
encode path was made cheap (hash-indexed HPACK static table, header-block
reuse, struct-packed frames, table-driven varints), kept unchanged: a
linear scan of the static table per header, one ``Frame`` object per
frame, one byte at a time. The differential tests in
``tests/test_protocols_oracle.py`` run both on the same inputs and require
byte-identical output. The decoders here predate the stricter checks
(unknown frame types, compressed flags other than 0/1, table-size updates
over the limit), so they are compared only on valid input.

The error types, enums and the static table are the package's own, so an
error raised on either side is the same type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.protocols.grpc_codec import WIRE_LEN, WIRE_VARINT, GrpcError
from repro.protocols.http2 import (
    DEFAULT_HEADER_TABLE_SIZE,
    DEFAULT_MAX_FRAME_SIZE,
    FRAME_HEADER_LEN,
    STATIC_TABLE,
    Flags,
    FrameType,
    Http2Error,
)

FieldValue = Union[int, bytes, str]


# -- HTTP/2 frames and HPACK ---------------------------------------------------------

@dataclass
class Frame:
    """One HTTP/2 frame: 9-byte header + payload."""

    frame_type: FrameType
    flags: int = 0
    stream_id: int = 0
    payload: bytes = b""

    def encode(self) -> bytes:
        if len(self.payload) > 2**24 - 1:
            raise Http2Error("frame payload exceeds 24-bit length")
        if not 0 <= self.stream_id < 2**31:
            raise Http2Error("stream id out of 31-bit range")
        return (
            len(self.payload).to_bytes(3, "big")
            + bytes([self.frame_type, self.flags])
            + self.stream_id.to_bytes(4, "big")
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes, offset: int = 0) -> tuple["Frame", int]:
        """Returns (frame, next_offset)."""
        if len(raw) - offset < FRAME_HEADER_LEN:
            raise Http2Error("truncated frame header")
        length = int.from_bytes(raw[offset : offset + 3], "big")
        frame_type = FrameType(raw[offset + 3])
        flags = raw[offset + 4]
        stream_id = int.from_bytes(raw[offset + 5 : offset + 9], "big") & 0x7FFFFFFF
        end = offset + FRAME_HEADER_LEN + length
        if end > len(raw):
            raise Http2Error(f"truncated frame payload (want {length} bytes)")
        return (
            cls(
                frame_type=frame_type,
                flags=flags,
                stream_id=stream_id,
                payload=raw[offset + FRAME_HEADER_LEN : end],
            ),
            end,
        )


def decode_frames(raw: bytes) -> list[Frame]:
    frames = []
    offset = 0
    while offset < len(raw):
        frame, offset = Frame.decode(raw, offset)
        frames.append(frame)
    return frames

def encode_integer(value: int, prefix_bits: int, first_byte_flags: int = 0) -> bytes:
    """HPACK prefix-coded integer."""
    if value < 0:
        raise Http2Error("negative integer")
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return bytes([first_byte_flags | value])
    out = bytearray([first_byte_flags | limit])
    value -= limit
    while value >= 128:
        out.append((value % 128) | 0x80)
        value //= 128
    out.append(value)
    return bytes(out)


def decode_integer(raw: bytes, offset: int, prefix_bits: int) -> tuple[int, int]:
    """Returns (value, next_offset)."""
    if offset >= len(raw):
        raise Http2Error("truncated integer")
    limit = (1 << prefix_bits) - 1
    value = raw[offset] & limit
    offset += 1
    if value < limit:
        return value, offset
    shift = 0
    while True:
        if offset >= len(raw):
            raise Http2Error("truncated integer continuation")
        byte = raw[offset]
        offset += 1
        value += (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 35:
            raise Http2Error("integer overflow")


def _encode_string(text: str) -> bytes:
    data = text.encode("utf-8")
    return encode_integer(len(data), 7) + data  # H bit 0: no Huffman


def _decode_string(raw: bytes, offset: int) -> tuple[str, int]:
    if offset >= len(raw):
        raise Http2Error("truncated string length")
    huffman = bool(raw[offset] & 0x80)
    length, offset = decode_integer(raw, offset, 7)
    if huffman:
        raise Http2Error("Huffman-coded strings are not supported")
    end = offset + length
    if end > len(raw):
        raise Http2Error("truncated string body")
    return raw[offset:end].decode("utf-8"), end


def _entry_size(name: str, value: str) -> int:
    return len(name.encode()) + len(value.encode()) + 32  # RFC 7541 §4.1


class HpackCodec:
    """Encoder/decoder pair sharing the dynamic-table discipline.

    One codec instance models one endpoint's context; use separate
    instances for each direction of a connection.
    """

    def __init__(self, max_table_size: int = DEFAULT_HEADER_TABLE_SIZE) -> None:
        self.max_table_size = max_table_size
        self._dynamic: list[tuple[str, str]] = []  # newest first
        self._dynamic_size = 0

    # -- table management ------------------------------------------------------
    def _add(self, name: str, value: str) -> None:
        size = _entry_size(name, value)
        self._dynamic.insert(0, (name, value))
        self._dynamic_size += size
        while self._dynamic_size > self.max_table_size and self._dynamic:
            old_name, old_value = self._dynamic.pop()
            self._dynamic_size -= _entry_size(old_name, old_value)

    def _lookup_index(self, name: str, value: str) -> tuple[Optional[int], Optional[int]]:
        """(exact-match index, name-only index), 1-based HPACK numbering."""
        exact = None
        name_only = None
        for index, (entry_name, entry_value) in enumerate(STATIC_TABLE, start=1):
            if entry_name == name:
                if entry_value == value:
                    return index, index
                if name_only is None:
                    name_only = index
        base = len(STATIC_TABLE)
        for index, (entry_name, entry_value) in enumerate(self._dynamic, start=1):
            if entry_name == name:
                if entry_value == value:
                    return base + index, base + index
                if name_only is None:
                    name_only = base + index
        return exact, name_only

    def _entry_at(self, index: int) -> tuple[str, str]:
        if index <= 0:
            raise Http2Error("HPACK index 0 is invalid")
        if index <= len(STATIC_TABLE):
            return STATIC_TABLE[index - 1]
        dynamic_index = index - len(STATIC_TABLE) - 1
        if dynamic_index >= len(self._dynamic):
            raise Http2Error(f"HPACK index {index} beyond table")
        return self._dynamic[dynamic_index]

    # -- encode/decode -----------------------------------------------------------
    def encode(self, headers: Iterable[tuple[str, str]]) -> bytes:
        out = bytearray()
        for name, value in headers:
            exact, name_index = self._lookup_index(name, value)
            if exact is not None:
                out += encode_integer(exact, 7, 0x80)  # indexed field
                continue
            if name_index is not None:
                out += encode_integer(name_index, 6, 0x40)  # literal, indexed name
            else:
                out += encode_integer(0, 6, 0x40)
                out += _encode_string(name)
            out += _encode_string(value)
            self._add(name, value)
        return bytes(out)

    def decode(self, raw: bytes) -> list[tuple[str, str]]:
        headers = []
        offset = 0
        while offset < len(raw):
            first = raw[offset]
            if first & 0x80:  # indexed
                index, offset = decode_integer(raw, offset, 7)
                headers.append(self._entry_at(index))
            elif first & 0x40:  # literal with incremental indexing
                index, offset = decode_integer(raw, offset, 6)
                if index:
                    name = self._entry_at(index)[0]
                else:
                    name, offset = _decode_string(raw, offset)
                value, offset = _decode_string(raw, offset)
                headers.append((name, value))
                self._add(name, value)
            elif first & 0x20:  # dynamic table size update
                size, offset = decode_integer(raw, offset, 5)
                self.max_table_size = size
                while self._dynamic_size > size and self._dynamic:
                    name, value = self._dynamic.pop()
                    self._dynamic_size -= _entry_size(name, value)
            else:  # literal without indexing / never indexed (4-bit prefix)
                index, offset = decode_integer(raw, offset, 4)
                if index:
                    name = self._entry_at(index)[0]
                else:
                    name, offset = _decode_string(raw, offset)
                value, offset = _decode_string(raw, offset)
                headers.append((name, value))
        return headers

    @property
    def dynamic_entries(self) -> int:
        return len(self._dynamic)


# -- gRPC over HTTP/2 --------------------------------------------------------------

def grpc_request_headers(path: str, authority: str = "localhost") -> list[tuple[str, str]]:
    return [
        (":method", "POST"),
        (":scheme", "http"),
        (":path", path),
        (":authority", authority),
        ("content-type", "application/grpc"),
        ("te", "trailers"),
    ]


def encode_grpc_request(
    codec: HpackCodec,
    path: str,
    grpc_frame: bytes,
    stream_id: int = 1,
    max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
) -> bytes:
    """One unary gRPC call as HEADERS + DATA frame(s)."""
    header_block = codec.encode(grpc_request_headers(path))
    frames = [
        Frame(
            FrameType.HEADERS,
            flags=Flags.END_HEADERS,
            stream_id=stream_id,
            payload=header_block,
        )
    ]
    chunks = [
        grpc_frame[start : start + max_frame_size]
        for start in range(0, len(grpc_frame), max_frame_size)
    ] or [b""]
    for position, chunk in enumerate(chunks):
        last = position == len(chunks) - 1
        frames.append(
            Frame(
                FrameType.DATA,
                flags=Flags.END_STREAM if last else 0,
                stream_id=stream_id,
                payload=chunk,
            )
        )
    return b"".join(frame.encode() for frame in frames)


def decode_grpc_request(codec: HpackCodec, raw: bytes) -> tuple[str, bytes]:
    """Reassemble (path, grpc_frame) from a HEADERS + DATA frame stream."""
    path = ""
    body = bytearray()
    for frame in decode_frames(raw):
        if frame.frame_type is FrameType.HEADERS:
            for name, value in codec.decode(frame.payload):
                if name == ":path":
                    path = value
        elif frame.frame_type is FrameType.DATA:
            body += frame.payload
    if not path:
        raise Http2Error("no :path pseudo-header in request")
    return path, bytes(body)


# -- protobuf and gRPC framing --------------------------------------------------------

def encode_varint(value: int) -> bytes:
    if value < 0:
        raise GrpcError("varints here are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(raw: bytes, offset: int = 0) -> tuple[int, int]:
    """Returns (value, next_offset)."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(raw):
            raise GrpcError("truncated varint")
        byte = raw[position]
        result |= (byte & 0x7F) << shift
        position += 1
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise GrpcError("varint too long")


@dataclass
class ProtoMessage:
    """An ordered mapping of field numbers to values (int, bytes, or str)."""

    fields: dict[int, FieldValue] = field(default_factory=dict)

    def set(self, number: int, value: FieldValue) -> "ProtoMessage":
        if number < 1:
            raise GrpcError("field numbers start at 1")
        self.fields[number] = value
        return self

    def get_int(self, number: int, default: int = 0) -> int:
        value = self.fields.get(number, default)
        if not isinstance(value, int):
            raise GrpcError(f"field {number} is not an int")
        return value

    def get_bytes(self, number: int, default: bytes = b"") -> bytes:
        value = self.fields.get(number, default)
        if isinstance(value, str):
            return value.encode()
        if not isinstance(value, bytes):
            raise GrpcError(f"field {number} is not bytes")
        return value

    def get_str(self, number: int, default: str = "") -> str:
        return self.get_bytes(number, default.encode()).decode()

    def encode(self) -> bytes:
        out = bytearray()
        for number in sorted(self.fields):
            value = self.fields[number]
            if isinstance(value, int):
                out += encode_varint((number << 3) | WIRE_VARINT)
                out += encode_varint(value)
            else:
                data = value.encode() if isinstance(value, str) else value
                out += encode_varint((number << 3) | WIRE_LEN)
                out += encode_varint(len(data))
                out += data
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "ProtoMessage":
        message = cls()
        offset = 0
        while offset < len(raw):
            key, offset = decode_varint(raw, offset)
            number, wire_type = key >> 3, key & 0x07
            if wire_type == WIRE_VARINT:
                value, offset = decode_varint(raw, offset)
                message.fields[number] = value
            elif wire_type == WIRE_LEN:
                length, offset = decode_varint(raw, offset)
                if offset + length > len(raw):
                    raise GrpcError("length-delimited field truncated")
                message.fields[number] = raw[offset : offset + length]
                offset += length
            else:
                raise GrpcError(f"unsupported wire type {wire_type}")
        return message


# -- gRPC framing ------------------------------------------------------------------

FRAME_HEADER_SIZE = 5


def encode_frame(message: bytes, compressed: bool = False) -> bytes:
    """Length-prefixed gRPC message frame."""
    return bytes([1 if compressed else 0]) + len(message).to_bytes(4, "big") + message


def decode_frame(raw: bytes) -> tuple[bytes, bool]:
    """Returns (message, compressed)."""
    if len(raw) < FRAME_HEADER_SIZE:
        raise GrpcError("frame shorter than its header")
    compressed = raw[0] == 1
    length = int.from_bytes(raw[1:5], "big")
    if len(raw) < FRAME_HEADER_SIZE + length:
        raise GrpcError(f"frame truncated: want {length}, have {len(raw) - 5}")
    return raw[5 : 5 + length], compressed


@dataclass
class GrpcCall:
    """A unary call: /package.Service/Method plus a request message."""

    service: str
    method: str
    message: ProtoMessage

    @property
    def path(self) -> str:
        return f"/{self.service}/{self.method}"

    def encode(self) -> bytes:
        return encode_frame(self.message.encode())

    @classmethod
    def decode(cls, path: str, raw: bytes) -> "GrpcCall":
        if not path.startswith("/") or "/" not in path[1:]:
            raise GrpcError(f"malformed gRPC path {path!r}")
        service, _, method = path[1:].partition("/")
        frame, _ = decode_frame(raw)
        return cls(service=service, method=method, message=ProtoMessage.decode(frame))


# -- the gRPC plane's per-hop encode and the fabric's gRPC wire -------------------------

def encode_call(
    hpack: dict[str, HpackCodec],
    streams: dict[str, int],
    function_name: str,
    payload: bytes,
    use_http2_framing: bool = True,
) -> bytes:
    """``GrpcDataplane.encode_call`` as it was: per-destination HPACK
    contexts in ``hpack`` and next stream ids in ``streams``."""
    call = GrpcCall(
        service=f"hipstershop.{function_name.title().replace('-', '')}Service",
        method="Invoke",
        message=ProtoMessage().set(1, payload),
    )
    grpc_frame = call.encode()
    if not use_http2_framing:
        return grpc_frame
    codec = hpack.setdefault(function_name, HpackCodec())
    stream_id = streams.get(function_name, 1)
    streams[function_name] = stream_id + 2  # client streams are odd
    return encode_grpc_request(codec, call.path, grpc_frame, stream_id=stream_id)


def encode_grpc_wire(payload: bytes) -> bytes:
    """``cluster.fabric.encode_wire(payload, "grpc")`` as it was."""
    return encode_frame(ProtoMessage().set(1, payload).encode())
