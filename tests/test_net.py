"""Unit tests for the packet-crafting substrate (repro.net)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FieldRangeError, PacketError, TruncatedPacketError
from repro.net import (
    EthernetHeader,
    Ipv4Address,
    Ipv4Header,
    MacAddress,
    Packet,
    PacketBuilder,
    TcpHeader,
    UdpHeader,
    VlanTag,
    internet_checksum,
    parse_layers,
)
from repro.net.builder import COMMON_HEADER_LEN
from repro.net.checksum import pseudo_header_ipv4
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_VLAN
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP
from repro.net.udp_ import MENSHEN_RECONFIG_DPORT
from repro.net.vlan import MAX_VID


class TestPacketBuffer:
    def test_len_and_bytes(self):
        pkt = Packet(b"\x01\x02\x03")
        assert len(pkt) == 3
        assert pkt.tobytes() == b"\x01\x02\x03"

    def test_read_write_int_roundtrip(self):
        pkt = Packet(b"\x00" * 8)
        pkt.write_int(2, 4, 0xDEADBEEF)
        assert pkt.read_int(2, 4) == 0xDEADBEEF

    def test_out_of_range_read(self):
        pkt = Packet(b"\x00" * 4)
        with pytest.raises(TruncatedPacketError):
            pkt.read_bytes(2, 3)

    def test_negative_offset(self):
        with pytest.raises(TruncatedPacketError):
            Packet(b"\x00" * 4).read_bytes(-1, 2)

    def test_write_int_range_check(self):
        pkt = Packet(b"\x00" * 4)
        with pytest.raises(FieldRangeError):
            pkt.write_int(0, 1, 256)

    def test_pad_and_truncate(self):
        pkt = Packet(b"\xaa")
        pkt.pad_to(4)
        assert pkt.tobytes() == b"\xaa\x00\x00\x00"
        pkt.truncate(2)
        assert len(pkt) == 2

    def test_pad_to_smaller_is_noop(self):
        pkt = Packet(b"\xaa\xbb")
        pkt.pad_to(1)
        assert len(pkt) == 2

    def test_copy_is_independent(self):
        pkt = Packet(b"\x01\x02", ingress_port=3)
        dup = pkt.copy()
        dup.write_int(0, 1, 0xFF)
        assert pkt.read_int(0, 1) == 0x01
        assert dup.ingress_port == 3

    def test_equality_with_bytes(self):
        assert Packet(b"\x01") == b"\x01"
        assert Packet(b"\x01") == Packet(b"\x01")


class TestMacAddress:
    def test_from_string_roundtrip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert int(mac) == 0x02000000002A

    def test_from_int_and_bytes(self):
        assert MacAddress(0x1).tobytes() == b"\x00" * 5 + b"\x01"
        assert MacAddress(b"\xff" * 6).is_broadcast

    def test_multicast_bit(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast
        assert not MacAddress("02:00:00:00:00:01").is_multicast

    def test_bad_strings(self):
        for bad in ["", "1:2:3", "zz:00:00:00:00:00", "01:02:03:04:05:666",
                    "0x2:00:00:00:00:01", "+2:00:00:00:00:01",
                    "0_2:00:00:00:00:01", " 2:00:00:00:00:01"]:
            with pytest.raises(FieldRangeError, match="bad MAC string"):
                MacAddress(bad)

    def test_short_and_uppercase_octets(self):
        assert MacAddress("2:0:0:0:0:A") == MacAddress("02:00:00:00:00:0a")

    def test_int_out_of_range(self):
        with pytest.raises(FieldRangeError):
            MacAddress(1 << 48)

    def test_equality_modes(self):
        assert MacAddress("02:00:00:00:00:01") == "02:00:00:00:00:01"
        assert MacAddress(5) == 5


class TestIpv4Address:
    def test_string_roundtrip(self):
        ip = Ipv4Address("10.1.2.3")
        assert str(ip) == "10.1.2.3"
        assert int(ip) == (10 << 24) | (1 << 16) | (2 << 8) | 3

    def test_bad_strings(self):
        for bad in ["10.0.0", "256.0.0.1", "a.b.c.d", "1.2.3.4.5",
                    "10.0.0.1_0", "10.0.0.+1", " 10.0.0.1", "10.0.0.1\n",
                    "\u0967\u0966.0.0.1"]:  # Devanagari digits
            with pytest.raises(FieldRangeError, match="bad IPv4 string"):
                Ipv4Address(bad)

    def test_leading_zero_octets(self):
        assert Ipv4Address("010.000.0.01") == Ipv4Address("10.0.0.1")

    def test_subnet_membership(self):
        ip = Ipv4Address("192.168.1.77")
        assert ip.in_subnet(Ipv4Address("192.168.1.0"), 24)
        assert not ip.in_subnet(Ipv4Address("192.168.2.0"), 24)
        assert ip.in_subnet(Ipv4Address("0.0.0.0"), 0)

    def test_subnet_bad_prefix(self):
        with pytest.raises(FieldRangeError):
            Ipv4Address("1.2.3.4").in_subnet(Ipv4Address("0.0.0.0"), 33)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example: checksum of this word sequence is 0xddf2.
        data = bytes([0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF


class TestBuilderAndViews:
    def build_udp(self, vid=7, payload=b"hello", **udp_kw):
        return (PacketBuilder()
                .ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
                .vlan(vid=vid)
                .ipv4(src="10.0.0.1", dst="10.0.0.2")
                .udp(**({"sport": 5000, "dport": 5001} | udp_kw))
                .payload(payload)
                .build())

    def test_common_header_length(self):
        pkt = self.build_udp(payload=b"")
        assert len(pkt) == COMMON_HEADER_LEN

    def test_layers_parse_back(self):
        pkt = self.build_udp()
        layers = parse_layers(pkt)
        assert isinstance(layers["ethernet"], EthernetHeader)
        assert isinstance(layers["vlan"], VlanTag)
        assert isinstance(layers["ipv4"], Ipv4Header)
        assert isinstance(layers["udp"], UdpHeader)
        assert layers["vlan"].vid == 7
        assert str(layers["ipv4"].dst) == "10.0.0.2"
        assert layers["udp"].sport == 5000

    def test_ip_total_length_and_udp_length(self):
        pkt = self.build_udp(payload=b"x" * 10)
        layers = parse_layers(pkt)
        assert layers["ipv4"].total_length == 20 + 8 + 10
        assert layers["udp"].length == 8 + 10

    def test_ipv4_checksum_valid(self):
        pkt = self.build_udp()
        assert parse_layers(pkt)["ipv4"].checksum_ok()

    def test_checksum_invalidated_by_mutation(self):
        pkt = self.build_udp()
        ip = parse_layers(pkt)["ipv4"]
        ip.ttl = 10
        assert not ip.checksum_ok()
        ip.update_checksum()
        assert ip.checksum_ok()

    def test_tcp_packet(self):
        pkt = (PacketBuilder()
               .ethernet()
               .vlan(vid=3)
               .ipv4()
               .tcp(sport=1234, dport=80, seq=42, flags=0x02)
               .payload(b"GET")
               .build())
        layers = parse_layers(pkt)
        tcp = layers["tcp"]
        assert isinstance(tcp, TcpHeader)
        assert tcp.sport == 1234 and tcp.dport == 80
        assert tcp.seq == 42
        assert tcp.has_flag(0x02)
        assert layers["ipv4"].protocol == 6

    def test_no_vlan_packet(self):
        pkt = (PacketBuilder().ethernet().ipv4().udp().build())
        layers = parse_layers(pkt)
        assert "vlan" not in layers
        assert "udp" in layers

    def test_vlan_requires_ethernet(self):
        with pytest.raises(PacketError):
            PacketBuilder().vlan(vid=1)

    def test_udp_requires_ipv4(self):
        with pytest.raises(PacketError):
            PacketBuilder().ethernet().udp()

    def test_udp_and_tcp_mutually_exclusive(self):
        builder = PacketBuilder().ethernet().ipv4().udp()
        with pytest.raises(PacketError):
            builder.tcp()

    def test_build_requires_ethernet(self):
        with pytest.raises(PacketError):
            PacketBuilder().build()

    def test_pad_to_minimum_frame(self):
        pkt = self.build_udp(payload=b"")
        assert len(pkt) == 46
        pkt2 = (PacketBuilder().ethernet().vlan(vid=1).ipv4().udp()
                .build(pad_to=64))
        assert len(pkt2) == 64

    def test_reconfig_port_detection(self):
        pkt = self.build_udp(dport=MENSHEN_RECONFIG_DPORT)
        assert parse_layers(pkt)["udp"].is_reconfig

    def test_vlan_tci_subfields(self):
        pkt = (PacketBuilder().ethernet().vlan(vid=0xABC, pcp=5, dei=1)
               .ipv4().udp().build())
        vlan = parse_layers(pkt)["vlan"]
        assert vlan.vid == 0xABC
        assert vlan.pcp == 5
        assert vlan.dei == 1
        vlan.vid = 0x123
        assert vlan.pcp == 5  # VID write must not clobber PCP/DEI
        assert vlan.dei == 1

    def test_dscp_set_preserves_ecn(self):
        pkt = self.build_udp()
        ip = parse_layers(pkt)["ipv4"]
        ip.dscp = 46
        assert ip.dscp == 46
        assert ip.ecn == 0

    def test_header_view_bounds(self):
        with pytest.raises(TruncatedPacketError):
            EthernetHeader(Packet(b"\x00" * 10), 0)

    def test_ihl_below_five_is_refused(self):
        pkt = self.build_udp()
        ip = parse_layers(pkt)["ipv4"]
        for ihl in range(5):
            ip.set_version_ihl(ihl=ihl)
            with pytest.raises(PacketError, match=f"IHL {ihl}"):
                parse_layers(pkt)

    def test_int_payload_is_refused(self):
        for bad in (5, True):
            with pytest.raises(PacketError, match="bytes-like"):
                PacketBuilder().ethernet().payload(bad)


def _reference_build(builder, pad_to=0, ingress_port=0, arrival_time=0.0):
    """The field-by-field build that one-pass packing replaced, kept as
    the golden reference: zeroed headers appended in stack order, filled
    through the checked header-view setters, lengths and checksums
    fixed up last."""
    if builder._eth is None:
        raise PacketError("packet needs at least an Ethernet layer")
    pkt = Packet(ingress_port=ingress_port, arrival_time=arrival_time)

    pkt.append(b"\x00" * EthernetHeader.HEADER_LEN)
    eth = EthernetHeader(pkt, 0)
    eth.dst, eth.src = builder._eth
    offset = eth.HEADER_LEN

    vlan_view = None
    if builder._vlan is not None:
        eth.ethertype = ETHERTYPE_VLAN
        pkt.append(b"\x00" * VlanTag.HEADER_LEN)
        vlan_view = VlanTag(pkt, offset)
        vlan_view.vid, vlan_view.pcp, vlan_view.dei = builder._vlan
        offset += VlanTag.HEADER_LEN

    ip_view = None
    ip_offset = offset
    if builder._ipv4 is not None:
        if vlan_view is not None:
            vlan_view.inner_ethertype = ETHERTYPE_IPV4
        else:
            eth.ethertype = ETHERTYPE_IPV4
        pkt.append(b"\x00" * Ipv4Header.HEADER_LEN)
        ip_view = Ipv4Header(pkt, ip_offset)
        ip_view.set_version_ihl()
        (ip_view.src, ip_view.dst, ip_view.ttl, ip_view.dscp,
         ip_view.identification) = builder._ipv4
        offset += Ipv4Header.HEADER_LEN
    elif vlan_view is not None:
        vlan_view.inner_ethertype = 0xFFFF

    l4_offset = offset
    if builder._udp is not None:
        ip_view.protocol = PROTO_UDP
        pkt.append(b"\x00" * UdpHeader.HEADER_LEN)
    elif builder._tcp is not None:
        ip_view.protocol = PROTO_TCP
        pkt.append(b"\x00" * TcpHeader.HEADER_LEN)

    pkt.append(builder._payload)

    if ip_view is not None:
        ip_view.total_length = len(pkt) - ip_offset
    if builder._udp is not None:
        udp = UdpHeader(pkt, l4_offset)
        udp.sport, udp.dport = builder._udp
        udp.length = len(pkt) - l4_offset
        udp.update_checksum(int(ip_view.src), int(ip_view.dst))
    elif builder._tcp is not None:
        tcp = TcpHeader(pkt, l4_offset)
        sport, dport, seq, ack, flags, window = builder._tcp
        tcp.sport, tcp.dport, tcp.seq, tcp.ack = sport, dport, seq, ack
        tcp.data_offset = 5
        tcp.flags, tcp.window = flags, window
        tcp.update_checksum(int(ip_view.src), int(ip_view.dst),
                            len(pkt) - l4_offset)
    if ip_view is not None:
        ip_view.update_checksum()

    if pad_to:
        pkt.pad_to(pad_to)
    return pkt


def _build_outcome(build, builder, **kwargs):
    """The packet's bytes and metadata, or the error's type and text."""
    try:
        pkt = build(builder, **kwargs)
    except PacketError as exc:
        return type(exc), str(exc)
    return pkt.tobytes(), pkt.ingress_port, pkt.arrival_time


def _assert_builds_agree(builder, **kwargs):
    got = _build_outcome(PacketBuilder.build, builder, **kwargs)
    assert got == _build_outcome(_reference_build, builder, **kwargs)
    return got


#: Every settable field in the order build() validates it, with its
#: valid range; "length" stands for an IPv4 total length past 65 535.
_FIELDS = {
    "vid": (0, MAX_VID), "pcp": (0, 7), "dei": (0, 1),
    "ttl": (0, 0xFF), "dscp": (0, 0x3F), "identification": (0, 0xFFFF),
    "length": None,
    "sport": (0, 0xFFFF), "dport": (0, 0xFFFF),
    "seq": (0, 0xFFFFFFFF), "ack": (0, 0xFFFFFFFF),
    "flags": (0, 0xFF), "window": (0, 0xFFFF),
}
_OVERSIZED_PAYLOAD = 0xFFFF - 20 - 8 + 1


def _builder(layers, fields, payload=b""):
    """A builder with ``layers`` (a subset of vlan / ipv4 / udp / tcp on
    top of Ethernet) and the named field values."""
    builder = PacketBuilder().ethernet(dst="02:00:00:00:00:2a",
                                       src=fields.get("mac", 0x0200000000FF))
    if "vlan" in layers:
        builder.vlan(fields["vid"], fields["pcp"], fields["dei"])
    if "ipv4" in layers:
        builder.ipv4(src=fields.get("src", "10.0.0.1"),
                     dst=fields.get("dst", "10.1.2.3"), ttl=fields["ttl"],
                     dscp=fields["dscp"],
                     identification=fields["identification"])
    if "udp" in layers:
        builder.udp(fields["sport"], fields["dport"])
    elif "tcp" in layers:
        builder.tcp(fields["sport"], fields["dport"], fields["seq"],
                    fields["ack"], fields["flags"], fields["window"])
    return builder.payload(payload)


_LAYER_STACKS = [
    vlan + ip + l4
    for vlan in ((), ("vlan",))
    for ip, l4 in (((), ()), (("ipv4",), ()), (("ipv4",), ("udp",)),
                   (("ipv4",), ("tcp",)))
]


@st.composite
def _builder_specs(draw):
    """A builder over a random layer stack. A run of up to three fields,
    adjacent in write order, is out of range, so a reordered check shows;
    sometimes the payload's first word cancels the UDP checksum to 0."""
    layers = draw(st.sampled_from(_LAYER_STACKS))
    start = draw(st.integers(0, len(_FIELDS) - 1))
    bad = list(_FIELDS)[start:start + draw(st.integers(0, 3))]
    fields = {}
    for name, bounds in _FIELDS.items():
        if bounds is None:
            continue
        lo, hi = bounds
        if name in bad:
            fields[name] = draw(st.integers(lo - 3, lo - 1)
                                | st.integers(hi + 1, hi + 3))
        else:
            fields[name] = draw(st.integers(lo, hi))
    fields["src"] = draw(st.integers(0, 0xFFFFFFFF))
    fields["dst"] = draw(st.integers(0, 0xFFFFFFFF))
    fields["mac"] = draw(st.integers(0, (1 << 48) - 1))
    # The largest payload whose IPv4 total length still fits 16 bits.
    limit = 0xFFFF - 20 - (8 if "udp" in layers else
                           20 if "tcp" in layers else 0)
    if "length" in bad:
        size = limit + draw(st.integers(1, 30))
    else:
        size = draw(st.integers(0, 90) | st.integers(limit - 30, limit))
    fill = draw(st.binary(min_size=1, max_size=7))
    payload = (fill * (size // len(fill) + 1))[:size]
    builder = _builder(layers, fields, payload)
    if "udp" in layers and size >= 2 and draw(st.booleans()):
        builder.payload(b"\x00\x00" + payload[2:])
        try:
            probe = _reference_build(builder)
        except PacketError:
            return builder
        word = parse_layers(probe)["udp"].checksum.to_bytes(2, "big")
        builder.payload(word + payload[2:])
    return builder


class TestOnePassBuild:
    """``PacketBuilder.build`` equals the field-by-field reference: the
    same bytes and metadata, or the same error type and message."""

    @settings(max_examples=500, deadline=None)
    @given(builder=_builder_specs(),
           pad_to=st.sampled_from([0, 1, 46, 60, 64, 200]),
           ingress_port=st.integers(0, 64),
           arrival_time=st.floats(0, 1, allow_nan=False))
    def test_build_equals_the_field_by_field_reference(
            self, builder, pad_to, ingress_port, arrival_time):
        _assert_builds_agree(builder, pad_to=pad_to,
                             ingress_port=ingress_port,
                             arrival_time=arrival_time)

    def test_first_bad_field_in_write_order_is_reported(self):
        valid = {name: bounds[0] for name, bounds in _FIELDS.items()
                 if bounds is not None}
        tcp_only = {"seq", "ack", "flags", "window"}
        for l4 in ("udp", "tcp"):
            names = [name for name in _FIELDS
                     if l4 == "tcp" or name not in tcp_only]
            for pair in itertools.combinations(names, 2):
                fields = dict(valid)
                payload = b""
                for name in pair:
                    if name == "length":
                        payload = bytes(_OVERSIZED_PAYLOAD)
                    else:
                        fields[name] = _FIELDS[name][1] + 1
                got = _assert_builds_agree(
                    _builder(("vlan", "ipv4", l4), fields, payload))
                assert got[0] is FieldRangeError, (pair, l4)

    def test_udp_checksum_computing_to_zero_is_sent_as_ffff(self):
        fields = {name: bounds[0] for name, bounds in _FIELDS.items()
                  if bounds is not None}
        layers = ("vlan", "ipv4", "udp")
        probe = _builder(layers, fields, b"\x00\x00").build()
        # A payload word equal to the zero word's checksum brings the
        # one's-complement sum to 0xFFFF, so the checksum computes to 0,
        # which RFC 768 transmits as 0xFFFF.
        word = parse_layers(probe)["udp"].checksum.to_bytes(2, "big")
        pkt_bytes, _, _ = _assert_builds_agree(
            _builder(layers, fields, word))
        segment = bytearray(pkt_bytes[COMMON_HEADER_LEN - 8:])
        assert segment[6:8] == b"\xff\xff"
        segment[6:8] = b"\x00\x00"
        pseudo = pseudo_header_ipv4(int(Ipv4Address("10.0.0.1")),
                                    int(Ipv4Address("10.1.2.3")),
                                    PROTO_UDP, len(segment))
        assert internet_checksum(pseudo + segment) == 0
