"""Unit tests for the PHV, containers, and metadata."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, FieldRangeError
from repro.rmt import PHV, ContainerRef, ContainerType, Metadata
from repro.rmt.params import DEFAULT_PARAMS


class TestContainerRef:
    def test_encode5_layout(self):
        # type in bits 4:3, index in bits 2:0
        assert ContainerRef(ContainerType.B2, 0).encode5() == 0
        assert ContainerRef(ContainerType.B4, 3).encode5() == 0b01011
        assert ContainerRef(ContainerType.B6, 7).encode5() == 0b10111

    def test_decode5_roundtrip(self):
        for ctype in (ContainerType.B2, ContainerType.B4, ContainerType.B6):
            for index in range(8):
                ref = ContainerRef(ctype, index)
                assert ContainerRef.decode5(ref.encode5()) == ref

    def test_index_bounds(self):
        with pytest.raises(FieldRangeError):
            ContainerRef(ContainerType.B2, 8)
        with pytest.raises(FieldRangeError):
            ContainerRef(ContainerType.META, 1)

    def test_flat_index_mapping(self):
        assert ContainerRef(ContainerType.B2, 0).flat_index == 0
        assert ContainerRef(ContainerType.B4, 0).flat_index == 8
        assert ContainerRef(ContainerType.B6, 7).flat_index == 23
        assert ContainerRef(ContainerType.META, 0).flat_index == 24

    def test_from_flat_roundtrip(self):
        for flat in range(25):
            assert ContainerRef.from_flat(flat).flat_index == flat

    def test_from_flat_bounds(self):
        with pytest.raises(FieldRangeError):
            ContainerRef.from_flat(25)

    def test_sizes(self):
        assert ContainerRef(ContainerType.B2, 0).size_bytes == 2
        assert ContainerRef(ContainerType.B4, 0).size_bytes == 4
        assert ContainerRef(ContainerType.B6, 0).size_bytes == 6


class TestMetadata:
    def test_starts_zeroed(self):
        meta = Metadata()
        assert bytes(meta.buf) == b"\x00" * 32

    def test_discard_flag_roundtrip(self):
        meta = Metadata()
        meta.discard = True
        assert meta.discard
        meta.discard = False
        assert not meta.discard

    def test_field_roundtrips(self):
        meta = Metadata()
        meta.dst_port = 5
        meta.src_port = 2
        meta.pkt_len = 1500
        meta.mcast_group = 9
        meta.module_id = 0xFFF
        meta.enq_timestamp = 123456
        meta.queue_delay = 789
        assert meta.dst_port == 5
        assert meta.src_port == 2
        assert meta.pkt_len == 1500
        assert meta.mcast_group == 9
        assert meta.module_id == 0xFFF
        assert meta.enq_timestamp == 123456
        assert meta.queue_delay == 789

    def test_field_range_check(self):
        with pytest.raises(FieldRangeError):
            Metadata().dst_port = 1 << 16

    def test_copy_independent(self):
        meta = Metadata()
        meta.dst_port = 1
        dup = meta.copy()
        dup.dst_port = 2
        assert meta.dst_port == 1


class TestPHV:
    def test_fresh_phv_is_zero(self):
        # Isolation property: the PHV is zeroed for each incoming packet.
        assert PHV().is_zero()

    def test_get_set_roundtrip(self):
        phv = PHV()
        ref = ContainerRef(ContainerType.B4, 2)
        phv.set(ref, 0xDEADBEEF)
        assert phv.get(ref) == 0xDEADBEEF

    def test_set_range_check(self):
        phv = PHV()
        with pytest.raises(FieldRangeError):
            phv.set(ContainerRef(ContainerType.B2, 0), 1 << 16)

    def test_set_wrapping(self):
        phv = PHV()
        ref = ContainerRef(ContainerType.B2, 0)
        phv.set_wrapping(ref, (1 << 16) + 5)
        assert phv.get(ref) == 5
        phv.set_wrapping(ref, -1)
        assert phv.get(ref) == 0xFFFF

    def test_bytes_roundtrip(self):
        phv = PHV()
        ref = ContainerRef(ContainerType.B6, 1)
        phv.set_bytes(ref, b"\x01\x02\x03\x04\x05\x06")
        assert phv.get_bytes(ref) == b"\x01\x02\x03\x04\x05\x06"

    def test_set_bytes_wrong_length(self):
        with pytest.raises(FieldRangeError):
            PHV().set_bytes(ContainerRef(ContainerType.B2, 0), b"\x01")

    def test_metadata_not_container_accessible(self):
        phv = PHV()
        meta_ref = ContainerRef(ContainerType.META, 0)
        with pytest.raises(ConfigError):
            phv.get(meta_ref)
        with pytest.raises(ConfigError):
            phv.set(meta_ref, 1)

    # The raw writers raised a bare KeyError on the metadata container.
    def test_set_bytes_on_metadata_is_a_config_error(self):
        phv = PHV()
        with pytest.raises(ConfigError, match="not directly writable"):
            phv.set_bytes(ContainerRef(ContainerType.META, 0), bytes(32))
        assert phv.is_zero()

    def test_set_wrapping_on_metadata_is_a_config_error(self):
        phv = PHV()
        with pytest.raises(ConfigError, match="not directly writable"):
            phv.set_wrapping(ContainerRef(ContainerType.META, 0), 1)
        assert phv.is_zero()

    def test_copy_independent(self):
        phv = PHV()
        ref = ContainerRef(ContainerType.B2, 0)
        phv.set(ref, 7)
        dup = phv.copy()
        dup.set(ref, 9)
        dup.metadata.dst_port = 3
        assert phv.get(ref) == 7
        assert phv.metadata.dst_port == 0

    def test_snapshot_round_trips_and_shares_nothing(self):
        phv = PHV()
        for flat, value in ((0, 0xBEEF), (9, 0xDEADBEEF), (23, 1 << 47)):
            phv.set(ContainerRef.from_flat(flat), value)
        phv.metadata.dst_port = 5
        snap = phv.snapshot()
        rebuilt = PHV.from_snapshot(snap)
        assert rebuilt == phv and rebuilt.snapshot() == snap
        rebuilt.set(ContainerRef.from_flat(0), 1)
        rebuilt.metadata.dst_port = 6
        assert PHV.from_snapshot(snap) == phv
        # A collection untracks a tuple whose items are all untracked:
        # the flat snapshot at the first, the youngest generation's.
        gc.collect(0)
        assert not gc.is_tracked(snap)

    def test_containers_enumeration(self):
        phv = PHV()
        refs = [r for r, _ in phv.containers()]
        assert len(refs) == 24
        assert len(set(r.flat_index for r in refs)) == 24

    def test_equality(self):
        a, b = PHV(), PHV()
        assert a == b
        a.set(ContainerRef(ContainerType.B2, 0), 1)
        assert a != b


_DATA_REFS = [ContainerRef.from_flat(flat) for flat in range(24)]
_META_REF = ContainerRef(ContainerType.META, 0)


def _fitting(ref):
    return st.integers(0, (1 << (8 * ref.size_bytes)) - 1)


@st.composite
def _phvs(draw):
    """A PHV with random container values and metadata bytes."""
    phv = PHV.from_container_values([draw(_fitting(r)) for r in _DATA_REFS])
    phv.metadata.buf[:] = draw(st.binary(min_size=32, max_size=32))
    return phv


class TestFlatLayout:
    """``PHV.data`` is one list of 24 ints in §4.1 flat ALU order."""

    @settings(max_examples=200, deadline=None)
    @given(phv=_phvs(), ref=st.sampled_from(_DATA_REFS), data=st.data())
    def test_every_accessor_addresses_the_flat_index(self, phv, ref, data):
        value = data.draw(_fitting(ref))
        width = 8 * ref.size_bytes
        before = phv.data[:]
        want = before[:]
        want[ref.flat_index] = value
        assert phv.get(ref) == before[ref.flat_index]
        assert phv.get_bytes(ref) == before[ref.flat_index].to_bytes(
            ref.size_bytes, "big")
        writers = (
            lambda p: p.set(ref, value),
            lambda p: p.set_wrapping(ref, value + (data.draw(
                st.integers(-3, 3)) << width)),
            lambda p: p.set_bytes(ref, value.to_bytes(ref.size_bytes, "big")),
        )
        for write in writers:
            dup = phv.copy()
            write(dup)
            assert dup.data == want
            assert dup.metadata.buf == phv.metadata.buf
        assert phv.data == before

    @settings(max_examples=100, deadline=None)
    @given(phv=_phvs())
    def test_copy_and_snapshot_round_trip_and_share_nothing(self, phv):
        snap = phv.snapshot()
        assert snap == (*phv.data, bytes(phv.metadata.buf))
        dups = [phv.copy(), PHV.from_snapshot(snap), PHV.from_snapshot(snap)]
        for dup in dups:
            assert dup == phv and dup.snapshot() == snap
            assert type(dup.data) is list and len(dup.data) == 24
        owners = [phv, *dups]
        assert len({id(p.data) for p in owners}) == len(owners)
        assert len({id(p.metadata.buf) for p in owners}) == len(owners)
        for dup in dups:
            dup.data[:] = [0] * 24
            dup.metadata.buf[0] ^= 0xFF
        assert phv.snapshot() == snap

    @settings(max_examples=50, deadline=None)
    @given(phv=_phvs(), value=st.integers(0, 255))
    def test_metadata_container_refuses_direct_access(self, phv, value):
        snap = phv.snapshot()
        for access in (lambda: phv.get(_META_REF),
                       lambda: phv.get_bytes(_META_REF),
                       lambda: phv.set(_META_REF, value),
                       lambda: phv.set_wrapping(_META_REF, value),
                       lambda: phv.set_bytes(_META_REF, bytes(32))):
            with pytest.raises(ConfigError):
                access()
        assert phv.snapshot() == snap


class TestParamsGeometry:
    def test_table5_values(self):
        p = DEFAULT_PARAMS
        assert p.num_containers == 25
        assert p.phv_bytes == 128
        assert p.key_bytes == 24
        assert p.key_bits == 193
        assert p.cam_entry_bits == 205
        assert p.parser_entry_bits == 160
        assert p.vliw_entry_bits == 625
        assert p.max_modules == 32
        assert p.num_stages == 5
        assert p.module_id_bits == 12

    def test_with_overrides(self):
        p = DEFAULT_PARAMS.with_overrides(num_stages=3)
        assert p.num_stages == 3
        assert DEFAULT_PARAMS.num_stages == 5

    def test_inventory_has_all_tables(self):
        inv = DEFAULT_PARAMS.table_inventory()
        assert set(inv) == {
            "parser_table", "deparser_table", "key_extractor_table",
            "key_mask_table", "exact_match_cam", "vliw_action_table",
            "segment_table", "stateful_memory",
        }
        assert inv["exact_match_cam"]["width_bits"] == 205
        assert inv["vliw_action_table"]["width_bits"] == 625
