"""The system-level module (§3.3): OS-like services for tenant modules.

Written in the same P4-16 subset as tenant modules and compiled against
the *system target* (first + last stage), sandwiching tenant processing:

* **First stage** — the virtual-IP table: every packet whose destination
  is a virtual IP gets it rewritten to the physical IP (as the
  dstHi/dstLo halves) and a per-tenant packet counter bumped into a
  scratch PHV field (the pipeline statistics tenants may read but never
  write).
* **Last stage** — the routing table: physical destination -> output
  port, with multicast groups resolved here too.

Tenant modules are "sandwiched" between these two halves; the shared
dstHi/dstLo containers are the narrow interface through which they see
the system module's effects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..modules.base import COMMON_HEADER_DECLS, ip_halves, parser_chain
from ..rmt.entry_types import ActionCall, Match, TableEntry

#: ~70 lines of P4-16, matching the paper's "120 lines" scale.
SYSTEM_P4_SOURCE = COMMON_HEADER_DECLS + """
header scratch_t {
    bit<32> pkt_count;
}
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
    scratch_t scratch;
}
""" + parser_chain("""
    state parse_scratch { packet.extract(hdr.scratch); transition accept; }
""", first_module_state="parse_scratch", parser_name="SystemParser") + """
control SystemIngress(inout headers_t hdr) {
    register<bit<32>>(32) tenant_counters;

    action translate(bit<16> hi, bit<16> lo, bit<16> idx) {
        hdr.ipv4.dstHi = hi;
        hdr.ipv4.dstLo = lo;
        tenant_counters.loadd(hdr.scratch.pkt_count, idx);
    }
    action count_only(bit<16> idx) {
        tenant_counters.loadd(hdr.scratch.pkt_count, idx);
    }
    table vip {
        key = { hdr.ipv4.dstHi: exact; hdr.ipv4.dstLo: exact; }
        actions = { translate; count_only; }
        size = 16;
    }

    action set_port(bit<16> port) { standard_metadata.egress_spec = port; }
    action to_mcast(bit<16> grp) { standard_metadata.mcast_grp = grp; }
    table route {
        key = { hdr.ipv4.dstHi: exact; hdr.ipv4.dstLo: exact; }
        actions = { set_port; to_mcast; }
        size = 16;
    }

    apply {
        vip.apply();
        route.apply();
    }
}
"""


def _dst_match(ip: str) -> Match:
    halves = ip_halves(ip)
    return Match({"hdr.ipv4.dstHi": halves["hi"],
                  "hdr.ipv4.dstLo": halves["lo"]})


def system_entries(vip_map: Dict[str, str],
                   routes: Dict[str, int],
                   mcast_routes: Iterable[Tuple[str, int]] = (),
                   counter_index: Optional[Dict[str, int]] = None
                   ) -> List[Tuple[str, TableEntry]]:
    """The system module's entries as typed ``(table, entry)`` pairs.

    ``vip_map``: virtual IP -> physical IP. ``routes``: physical IP ->
    output port. ``mcast_routes``: (physical IP, multicast group).
    ``counter_index``: virtual/physical IP -> tenant counter slot.
    Consumed by :meth:`repro.api.Switch.install_system`.
    """
    counter_index = counter_index or {}
    entries: List[Tuple[str, TableEntry]] = []
    for vip, pip in vip_map.items():
        p = ip_halves(pip)
        entries.append(("vip", TableEntry(
            match=_dst_match(vip),
            action=ActionCall("translate",
                              {"hi": p["hi"], "lo": p["lo"],
                               "idx": counter_index.get(vip, 0)}))))
    for pip, port in routes.items():
        entries.append(("route", TableEntry(
            match=_dst_match(pip),
            action=ActionCall("set_port", {"port": port}))))
    for pip, grp in mcast_routes:
        entries.append(("route", TableEntry(
            match=_dst_match(pip),
            action=ActionCall("to_mcast", {"grp": grp}))))
    return entries
