"""Property-based tests (hypothesis) on codec roundtrips and invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem import PacketDescriptor
from repro.protocols import (
    CoapCode,
    CoapMessage,
    HttpRequest,
    HttpResponse,
    ProtoMessage,
    PublishPacket,
    decode_frame,
    decode_request,
    decode_response,
    decode_varint,
    encode_frame,
    encode_request,
    encode_response,
    encode_varint,
)

header_token = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-"),
    min_size=1,
    max_size=24,
)


@given(body=st.binary(max_size=2048), path_suffix=header_token)
def test_http_request_roundtrip_property(body, path_suffix):
    request = HttpRequest(method="POST", path=f"/{path_suffix}", body=body)
    decoded = decode_request(encode_request(request))
    assert decoded.body == body
    assert decoded.path == f"/{path_suffix}"


@given(status=st.sampled_from([200, 201, 204, 400, 404, 500, 503]), body=st.binary(max_size=1024))
def test_http_response_roundtrip_property(status, body):
    decoded = decode_response(encode_response(HttpResponse(status=status, body=body)))
    assert decoded.status == status
    assert decoded.body == body


@given(value=st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_roundtrip_property(value):
    decoded, offset = decode_varint(encode_varint(value))
    assert decoded == value
    assert offset == len(encode_varint(value))


@given(
    fields=st.dictionaries(
        keys=st.integers(min_value=1, max_value=100),
        values=st.one_of(
            st.integers(min_value=0, max_value=2**63),
            st.binary(max_size=128),
        ),
        max_size=12,
    )
)
def test_proto_message_roundtrip_property(fields):
    message = ProtoMessage()
    for number, value in fields.items():
        message.set(number, value)
    decoded = ProtoMessage.decode(message.encode())
    for number, value in fields.items():
        if isinstance(value, int):
            assert decoded.get_int(number) == value
        else:
            assert decoded.get_bytes(number) == value


@given(payload=st.binary(max_size=4096))
def test_grpc_frame_roundtrip_property(payload):
    message, compressed = decode_frame(encode_frame(payload))
    assert message == payload
    assert not compressed


@given(
    topic=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="/_-"),
        min_size=1,
        max_size=64,
    ),
    payload=st.binary(max_size=512),
    qos=st.integers(min_value=0, max_value=2),
    packet_id=st.integers(min_value=1, max_value=0xFFFF),
)
def test_mqtt_publish_roundtrip_property(topic, payload, qos, packet_id):
    packet = PublishPacket(topic=topic, payload=payload, qos=qos, packet_id=packet_id)
    decoded = PublishPacket.decode(packet.encode())
    assert decoded.topic == topic
    assert decoded.payload == payload
    assert decoded.qos == qos
    if qos > 0:
        assert decoded.packet_id == packet_id


@given(
    message_id=st.integers(min_value=0, max_value=0xFFFF),
    token=st.binary(max_size=8),
    segments=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=30,
        ),
        max_size=4,
    ),
    payload=st.binary(max_size=256),
)
def test_coap_roundtrip_property(message_id, token, segments, payload):
    message = CoapMessage(
        code=CoapCode.POST,
        message_id=message_id,
        token=token,
        uri_path=segments,
        payload=payload,
    )
    decoded = CoapMessage.decode(message.encode())
    assert decoded.message_id == message_id
    assert decoded.token == token
    assert decoded.uri_path == segments
    assert decoded.payload == payload


@given(
    next_fn=st.integers(min_value=0, max_value=2**32 - 1),
    shm_offset=st.integers(min_value=0, max_value=2**64 - 1),
    length=st.integers(min_value=0, max_value=2**32 - 1),
    generation=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_descriptor_roundtrip_property(next_fn, shm_offset, length, generation):
    descriptor = PacketDescriptor(
        next_fn=next_fn, shm_offset=shm_offset, length=length, generation=generation
    )
    assert PacketDescriptor.unpack(descriptor.pack()) == descriptor
    assert len(descriptor.pack()) == 24
