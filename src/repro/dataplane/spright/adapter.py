"""Event-driven protocol adaptation inside the SPRIGHT gateway (§3.6).

Adapters are dynamically loadable programs attached to a hook point on the
gateway datapath, invoked as plain function calls when a matching message
arrives — no separate adapter pod, no extra protocol-stack traversal.
Stateful protocols (MQTT) keep their L7 session at the gateway; the adapter
itself stays stateless. Every adapter normalizes to a CloudEvent.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, Optional

from ...protocols import (
    CloudEvent,
    CoapCode,
    CoapMessage,
    ConnackPacket,
    ConnectPacket,
    MqttError,
    PacketType,
    PubackPacket,
    PublishPacket,
    decode_request,
    packet_type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...kernel import KernelOps

_event_ids = itertools.count(1)


class AdapterError(Exception):
    """Unadaptable input or unknown protocol."""


class ProtocolAdapter(abc.ABC):
    """One pluggable adapter: raw protocol bytes -> CloudEvent."""

    protocol: str = ""

    @abc.abstractmethod
    def adapt(self, raw: bytes) -> tuple[CloudEvent, str]:
        """Returns (event, topic). Raises AdapterError on malformed input."""

    @abc.abstractmethod
    def build_ack(self, raw: bytes) -> bytes:
        """Protocol-level acknowledgement for the client, if any."""


class HttpAdapter(ProtocolAdapter):
    """HTTP/REST: the serverless default; body becomes the event data."""

    protocol = "http"

    def adapt(self, raw: bytes) -> tuple[CloudEvent, str]:
        try:
            request = decode_request(raw)
        except Exception as error:
            raise AdapterError(f"bad HTTP request: {error}") from error
        topic = request.path.strip("/").replace("/", ".")
        event = CloudEvent(
            id=f"http-{next(_event_ids)}",
            source=request.path,
            type="com.spright.http.request",
            data=request.body,
            datacontenttype=request.header("content-type", "application/octet-stream"),
            subject=topic,
        )
        return event, topic

    def build_ack(self, raw: bytes) -> bytes:
        return b""  # HTTP response is built by the gateway at ⑨


class MqttAdapter(ProtocolAdapter):
    """MQTT: PUBLISH payloads become events; QoS1 gets a PUBACK."""

    protocol = "mqtt"

    def adapt(self, raw: bytes) -> tuple[CloudEvent, str]:
        try:
            if packet_type(raw) != PacketType.PUBLISH:
                raise AdapterError("adapter only accepts PUBLISH packets")
            publish = PublishPacket.decode(raw)
        except MqttError as error:
            raise AdapterError(f"bad MQTT packet: {error}") from error
        event = CloudEvent(
            id=f"mqtt-{next(_event_ids)}",
            source=f"mqtt:{publish.topic}",
            type="com.spright.mqtt.publish",
            data=publish.payload,
            subject=publish.topic,
        )
        return event, publish.topic

    def build_ack(self, raw: bytes) -> bytes:
        publish = PublishPacket.decode(raw)
        if publish.qos == 0:
            return b""
        return PubackPacket(packet_id=publish.packet_id).encode()


class CoapAdapter(ProtocolAdapter):
    """CoAP: POST/PUT payloads become events, keyed by the Uri-Path."""

    protocol = "coap"

    def adapt(self, raw: bytes) -> tuple[CloudEvent, str]:
        try:
            message = CoapMessage.decode(raw)
        except Exception as error:
            raise AdapterError(f"bad CoAP message: {error}") from error
        topic = ".".join(message.uri_path)
        event = CloudEvent(
            id=f"coap-{next(_event_ids)}",
            source=message.path,
            type="com.spright.coap.request",
            data=message.payload,
            subject=topic,
        )
        return event, topic

    def build_ack(self, raw: bytes) -> bytes:
        message = CoapMessage.decode(raw)
        ack = CoapMessage(
            code=CoapCode.CREATED,
            message_id=message.message_id,
            msg_type=message.msg_type,
            token=message.token,
        )
        return ack.encode()


class MqttSessionTable:
    """Gateway-held L7 MQTT sessions (the stateful part of §3.6)."""

    def __init__(self) -> None:
        self._sessions: dict[str, ConnectPacket] = {}

    def connect(self, raw: bytes) -> bytes:
        packet = ConnectPacket.decode(raw)
        self._sessions[packet.client_id] = packet
        return ConnackPacket(reason_code=0).encode()

    def __len__(self) -> int:
        return len(self._sessions)


class AdapterHookPoint:
    """The gateway's protocol-adaptation hook: runtime-pluggable adapters."""

    def __init__(self) -> None:
        self._adapters: dict[str, ProtocolAdapter] = {}
        self.sessions = MqttSessionTable()
        self.invocations = 0

    def load(self, adapter: ProtocolAdapter) -> None:
        """Attach an adapter at runtime (dynamic library loading in §3.6)."""
        if adapter.protocol in self._adapters:
            raise AdapterError(f"adapter for {adapter.protocol!r} already loaded")
        self._adapters[adapter.protocol] = adapter

    def loaded(self) -> list[str]:
        return sorted(self._adapters)

    def adapt(self, raw: bytes, protocol: str, ops: Optional["KernelOps"] = None):
        """Generator: run the adapter at the hook point, charging parse cost.

        Returns (CloudEvent, topic, ack_bytes). The whole adaptation happens
        inside the gateway component — zero additional context switches or
        stack traversals compared to a separate adapter pod.
        """
        adapter = self._adapters.get(protocol)
        if adapter is None:
            raise AdapterError(f"no adapter loaded for {protocol!r}")
        self.invocations += 1
        if ops is not None:
            yield ops.deserialize(len(raw))
        event, topic = adapter.adapt(raw)
        ack = adapter.build_ack(raw)
        if ops is not None and ack:
            yield ops.serialize(len(ack))
        return event, topic, ack
