"""gRPC message framing and a compact protobuf-style field codec.

The boutique functions talk gRPC in the paper's 'server-full' baseline; we
implement the two layers that matter for serialization accounting:

* protobuf wire format (varint / length-delimited fields; types 0 and 2,
  which is what the boutique messages use), and
* the gRPC length-prefixed message frame ``[compressed:1][length:4][data]``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Union

FieldValue = Union[int, bytes, str]

WIRE_VARINT = 0
WIRE_LEN = 2


class GrpcError(Exception):
    """Malformed frames or protobuf bytes."""


# -- varints -------------------------------------------------------------------

#: Every one-byte varint, prebuilt.
_SMALL_VARINTS = tuple(bytes((value,)) for value in range(128))


def encode_varint(value: int) -> bytes:
    if value < 0:
        raise GrpcError("varints here are unsigned")
    if value < 128:
        return _SMALL_VARINTS[value]
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


def encode_bytes_field(number: int, data: bytes) -> bytes:
    """One length-delimited field: ``ProtoMessage().set(number, data).encode()``
    for bytes ``data``, without building the message."""
    return encode_varint(number << 3 | WIRE_LEN) + encode_varint(len(data)) + data


# -- protobuf-style message ------------------------------------------------------

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
                out += encode_bytes_field(number, data)
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
#: ``[compressed:1][length:4]``
_FRAME_HEADER = struct.Struct(">BI")


def encode_frame(message: bytes, compressed: bool = False) -> bytes:
    """Length-prefixed gRPC message frame."""
    return _FRAME_HEADER.pack(1 if compressed else 0, len(message)) + message


def decode_frame(raw: bytes) -> tuple[bytes, bool]:
    """Returns (message, compressed)."""
    if len(raw) < FRAME_HEADER_SIZE:
        raise GrpcError("frame shorter than its header")
    flag, length = _FRAME_HEADER.unpack_from(raw)
    if flag > 1:
        raise GrpcError(f"compressed flag must be 0 or 1, got {flag}")
    if len(raw) < FRAME_HEADER_SIZE + length:
        raise GrpcError(f"frame truncated: want {length}, have {len(raw) - 5}")
    return raw[5 : 5 + length], flag == 1


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
