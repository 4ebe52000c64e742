"""Byte-level protocol codecs: HTTP/1.1, gRPC, MQTT v5, CoAP, CloudEvents."""

from .cloudevents import CloudEvent, CloudEventError
from .coap import CoapCode, CoapError, CoapMessage, CoapType
from .grpc_codec import (
    GrpcCall,
    GrpcError,
    ProtoMessage,
    decode_frame,
    decode_varint,
    encode_bytes_field,
    encode_frame,
    encode_varint,
)
from .http2 import (
    Frame,
    FrameType,
    HpackCodec,
    Http2Error,
    decode_frames,
    decode_grpc_request,
    encode_grpc_request,
)
from .http1 import (
    HttpError,
    HttpRequest,
    HttpResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .mqtt import (
    ConnackPacket,
    ConnectPacket,
    MqttError,
    PacketType,
    PubackPacket,
    PublishPacket,
    packet_type,
)

__all__ = [
    "CloudEvent",
    "CloudEventError",
    "CoapCode",
    "CoapError",
    "CoapMessage",
    "CoapType",
    "ConnackPacket",
    "ConnectPacket",
    "GrpcCall",
    "GrpcError",
    "Frame",
    "FrameType",
    "HpackCodec",
    "Http2Error",
    "decode_frames",
    "decode_grpc_request",
    "encode_grpc_request",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "MqttError",
    "PacketType",
    "ProtoMessage",
    "PubackPacket",
    "PublishPacket",
    "decode_frame",
    "decode_request",
    "decode_response",
    "decode_varint",
    "encode_bytes_field",
    "encode_frame",
    "encode_request",
    "encode_response",
    "encode_varint",
    "packet_type",
]
