"""HTTP/2 framing and HPACK header compression (RFC 7540 / 7541 subset).

gRPC — the boutique's inter-function protocol — runs over HTTP/2: every call
is a HEADERS frame (HPACK-compressed pseudo-headers) plus DATA frames
carrying the length-prefixed gRPC messages. This module implements the
frame layer and HPACK (static table, dynamic table with eviction,
prefix-coded integers, literal strings; Huffman coding is the spec-optional
part we omit) so the bytes the cost model charges for gRPC mode are genuine.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

FRAME_HEADER_LEN = 9
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"
DEFAULT_MAX_FRAME_SIZE = 16384
DEFAULT_HEADER_TABLE_SIZE = 4096


class Http2Error(Exception):
    """Malformed frames or HPACK blocks."""


class FrameType(enum.IntEnum):
    DATA = 0x0
    HEADERS = 0x1
    RST_STREAM = 0x3
    SETTINGS = 0x4
    PING = 0x6
    GOAWAY = 0x7
    WINDOW_UPDATE = 0x8


class Flags(enum.IntFlag):
    NONE = 0x0
    END_STREAM = 0x1
    END_HEADERS = 0x4
    ACK = 0x1  # for SETTINGS/PING


#: The 9-byte frame header as one struct: the 24-bit length and the 8-bit
#: type share the first word (``length << 8 | type``), then flags and the
#: stream id.
_FRAME_HEADER = struct.Struct(">IBI")
_pack_frame_header = _FRAME_HEADER.pack
MAX_FRAME_PAYLOAD = 2**24 - 1
_FRAME_TYPES = {frame_type.value: frame_type for frame_type in FrameType}


def _frame_header(length: int, frame_type: int, flags: int, stream_id: int) -> bytes:
    if length > MAX_FRAME_PAYLOAD:
        raise Http2Error("frame payload exceeds 24-bit length")
    if not 0 <= stream_id < 2**31:
        raise Http2Error("stream id out of 31-bit range")
    return _pack_frame_header(length << 8 | frame_type, flags, stream_id)


@dataclass
class Frame:
    """One HTTP/2 frame: 9-byte header + payload."""

    frame_type: FrameType
    flags: int = 0
    stream_id: int = 0
    payload: bytes = b""

    def encode(self) -> bytes:
        payload = self.payload
        return (
            _frame_header(len(payload), self.frame_type, self.flags, self.stream_id)
            + payload
        )

    @classmethod
    def decode(cls, raw: bytes, offset: int = 0) -> tuple["Frame", int]:
        """Returns (frame, next_offset)."""
        if len(raw) - offset < FRAME_HEADER_LEN:
            raise Http2Error("truncated frame header")
        length_type, flags, stream_id = _FRAME_HEADER.unpack_from(raw, offset)
        frame_type = _FRAME_TYPES.get(length_type & 0xFF)
        if frame_type is None:
            raise Http2Error(f"unsupported frame type {length_type & 0xFF:#x}")
        start = offset + FRAME_HEADER_LEN
        end = start + (length_type >> 8)
        if end > len(raw):
            raise Http2Error(f"truncated frame payload (want {length_type >> 8} bytes)")
        return (
            cls(
                frame_type=frame_type,
                flags=flags,
                stream_id=stream_id & 0x7FFFFFFF,
                payload=raw[start:end],
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


# -- HPACK (RFC 7541) --------------------------------------------------------------

# Entries 1..61 of the static table (the ones gRPC actually touches plus
# enough of the rest to be faithful for tests).
STATIC_TABLE: list[tuple[str, str]] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
]


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


_STATIC_SIZE = len(STATIC_TABLE)
#: (name, value) -> its first static index, and name -> its first static
#: index: the linear scan's first match, as two dict lookups. Iterating in
#: reverse lets the lowest index overwrite the others.
_STATIC_EXACT = {
    entry: index for index, entry in reversed(list(enumerate(STATIC_TABLE, 1)))
}
_STATIC_NAME = {
    entry[0]: index for index, entry in reversed(list(enumerate(STATIC_TABLE, 1)))
}


class HpackCodec:
    """Encoder/decoder pair sharing the dynamic-table discipline.

    One codec instance models one endpoint's context; use separate
    instances for each direction of a connection.

    ``max_table_size`` is both the table's current size and the limit a
    peer's dynamic-table-size update may not exceed (the
    SETTINGS_HEADER_TABLE_SIZE this endpoint advertised); a size update
    received in :meth:`decode` changes only the former.

    :meth:`encode` keeps the last header block it produced without adding
    to the table. A block that adds nothing is a pure function of the
    header list and the table, so while the table is unchanged the same
    list gets the same block back without being encoded again. Everything
    that changes the table (:meth:`_add`, a size update in :meth:`decode`,
    setting ``max_table_size``) drops the kept block.
    """

    def __init__(self, max_table_size: int = DEFAULT_HEADER_TABLE_SIZE) -> None:
        self._dynamic: list[tuple[str, str]] = []  # newest first
        self._dynamic_size = 0
        self._block: Optional[bytes] = None
        self._block_headers: list[tuple[str, str]] = []
        self.max_table_size = max_table_size

    @property
    def max_table_size(self) -> int:
        return self._max_size

    @max_table_size.setter
    def max_table_size(self, size: int) -> None:
        self._max_size = self._size_limit = size
        self._block = None

    # -- table management ------------------------------------------------------
    def _add(self, name: str, value: str) -> None:
        self._block = None
        self._dynamic.insert(0, (name, value))
        self._dynamic_size += _entry_size(name, value)
        self._evict()

    def _evict(self) -> None:
        while self._dynamic_size > self._max_size and self._dynamic:
            old_name, old_value = self._dynamic.pop()
            self._dynamic_size -= _entry_size(old_name, old_value)

    def _entry_at(self, index: int) -> tuple[str, str]:
        if index <= 0:
            raise Http2Error("HPACK index 0 is invalid")
        if index <= _STATIC_SIZE:
            return STATIC_TABLE[index - 1]
        dynamic_index = index - _STATIC_SIZE - 1
        if dynamic_index >= len(self._dynamic):
            raise Http2Error(f"HPACK index {index} beyond table")
        return self._dynamic[dynamic_index]

    # -- encode/decode -----------------------------------------------------------
    def encode(self, headers: Iterable[tuple[str, str]]) -> bytes:
        if not isinstance(headers, list):
            headers = list(headers)
        block = self._block
        if block is not None and headers == self._block_headers:
            return block
        out = bytearray()
        dynamic = self._dynamic
        added = False
        for name, value in headers:
            # First match wins: the static table, then the dynamic table
            # newest first; an exact match anywhere beats a name-only one.
            index = _STATIC_EXACT.get((name, value))
            if index is None:
                name_index = _STATIC_NAME.get(name)
                for position, (entry_name, entry_value) in enumerate(
                    dynamic, _STATIC_SIZE + 1
                ):
                    if entry_name == name:
                        if entry_value == value:
                            index = position
                            break
                        if name_index is None:
                            name_index = position
            if index is not None:
                out += encode_integer(index, 7, 0x80)  # indexed field
                continue
            if name_index is not None:
                out += encode_integer(name_index, 6, 0x40)  # literal, indexed name
            else:
                out += encode_integer(0, 6, 0x40)
                out += _encode_string(name)
            out += _encode_string(value)
            self._add(name, value)
            added = True
        block = bytes(out)
        if not added:
            self._block = block
            self._block_headers = [(name, value) for name, value in headers]
        return block

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
                if size > self._size_limit:  # RFC 7541 §6.3
                    raise Http2Error(
                        f"dynamic table size update {size} exceeds the limit "
                        f"{self._size_limit}"
                    )
                self._max_size = size
                self._block = None
                self._evict()
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
    if max_frame_size < 1:
        raise Http2Error("max_frame_size must be positive")
    header_block = codec.encode(grpc_request_headers(path))
    parts = [
        _frame_header(
            len(header_block), FrameType.HEADERS, Flags.END_HEADERS, stream_id
        ),
        header_block,
    ]
    length = len(grpc_frame)
    # An empty message still gets one (empty) DATA frame to end the stream.
    for start in range(0, length or 1, max_frame_size):
        chunk = grpc_frame[start : start + max_frame_size]
        flags = Flags.END_STREAM if start + max_frame_size >= length else 0
        parts += (_frame_header(len(chunk), FrameType.DATA, flags, stream_id), chunk)
    return b"".join(parts)


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
