"""NetCache (simplified): an in-network key-value cache (SOSP'17).

GET packets carry ``op | key | value | stat``. Stage 1: the cache table
matches hot keys and reads the cached value from stateful memory into
the packet. Stage 2: a statistics table counts cache operations with a
``loadd`` counter (the simplification drops NetCache's hot-key tagging,
as the paper's evaluation version does).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, Match, TableEntry
from .base import (
    COMMON_HEADER_DECLS,
    EntryList,
    apply_entries,
    common_packet,
    parser_chain,
    read_module_field,
)

NAME = "netcache"

OP_GET = 1

P4_SOURCE = COMMON_HEADER_DECLS + """
header kv_t {
    bit<16> op;
    bit<32> kkey;
    bit<32> value;
    bit<32> stat;
}
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp; kv_t kv;
}
""" + parser_chain("""
    state parse_kv { packet.extract(hdr.kv); transition accept; }
""", first_module_state="parse_kv", parser_name="NcParser") + """
control NcIngress(inout headers_t hdr) {
    register<bit<32>>(8) values;
    register<bit<32>>(4) op_stats;

    action cache_read(bit<16> idx) {
        values.read(hdr.kv.value, idx);
    }
    action cache_miss() { hdr.kv.value = 0; }
    table cache {
        key = { hdr.kv.kkey: exact; }
        actions = { cache_read; cache_miss; }
        size = 4;
    }

    action count_op() {
        op_stats.loadd(hdr.kv.stat, 0);
    }
    table stats {
        key = { hdr.kv.op: exact; }
        actions = { count_op; }
        size = 2;
    }

    apply {
        cache.apply();
        stats.apply();
    }
}
"""


def entries(cached: Iterable[Tuple[int, int, int]] = ()) -> EntryList:
    """Cache rules for (key, slot index, value) triples + the GET stat."""
    rules: EntryList = [("cache", TableEntry(
        Match({"hdr.kv.kkey": key}),
        ActionCall("cache_read", {"idx": idx})))
        for key, idx, _value in cached]
    rules.append(("stats", TableEntry(Match({"hdr.kv.op": OP_GET}),
                                      ActionCall("count_op"))))
    return rules


def install(tenant, cached: Iterable[Tuple[int, int, int]] = ()) -> None:
    """Install cached keys through a tenant handle: (key, slot, value).

    Preloads each value into the ``values`` register, then wires the
    cache and statistics tables."""
    values = tenant.register("values")
    for _key, idx, value in cached:
        values.write(idx, value)
    apply_entries(tenant, entries(cached))


def make_get(vid: int, key: int, pad_to: int = 0) -> Packet:
    payload = (OP_GET.to_bytes(2, "big") + key.to_bytes(4, "big")
               + (0).to_bytes(4, "big") + (0).to_bytes(4, "big"))
    return common_packet(vid, payload, pad_to=pad_to)


def read_value(packet: Packet) -> int:
    return read_module_field(packet, 6, 4)


def read_stat(packet: Packet) -> int:
    return read_module_field(packet, 10, 4)
