"""The §4.1 configuration word stream, pinned.

For each of the eight stock modules, a fabric tenant is placed on a
three-switch route, updated and unloaded. Every ``(resource, index,
entry)`` that reaches ``SoftwareHardwareInterface.write_config`` and
every switch's final :class:`InterfaceStats` (packets, modelled time,
register reads and writes) are hashed with the epochs and counters they
move, and the hashes are fixed here.
A faster word path must send exactly these words at exactly this
modelled time; a change that means to alter the stream re-derives the
constants and says why.
"""

import dataclasses
import hashlib

import pytest

from repro.fabric import leaf_spine
from repro.modules import (
    calc,
    firewall,
    load_balancer,
    multicast,
    netcache,
    netchain,
    qos,
    source_routing,
)
from repro.modules.registry import ALL_MODULES
from repro.runtime.interface import SoftwareHardwareInterface

#: One entry installer per module, each installing at least one entry
#: where the module takes any.
INSTALLERS = {
    calc.NAME: lambda handle, port: calc.install(handle, port=port),
    firewall.NAME: lambda handle, port: firewall.install(
        handle, blocked=[("10.0.0.9", 53)], allowed=[("10.0.0.8", 80, port)]),
    load_balancer.NAME: lambda handle, port: load_balancer.install(
        handle, flows=[("10.0.0.7", 4000, port, 8080)]),
    qos.NAME: lambda handle, port: qos.install(handle),
    source_routing.NAME: lambda handle, port: source_routing.install(handle),
    netcache.NAME: lambda handle, port: netcache.install(
        handle, cached=[(0x1234, 2, 0xBEEF)]),
    netchain.NAME: lambda handle, port: netchain.install(handle, port=port),
    multicast.NAME: lambda handle, port: multicast.install(
        handle, groups=[("10.0.0.6", 3)]),
}

VID = 5

#: sha256 of each module's word stream (each word with the epochs of the
#: tenant and of a bystander VID after it lands) and of every switch's
#: final interface statistics, reconfiguration counter and epoch.
EXPECTED = {
    "calc": (
        "780e7b2398205ca797d0f485e09dec2c664d084a0733cbfcb09fe9c50ad76fff",
        "0dd134cd2b4f6314a07049ef640d1da154d6848728f1e4ba3a61ae0f3ea34eb8"),
    "firewall": (
        "ccb1fa158eae88d1b1fee7de8fc086db49a82dbaf1e548e0041edbe155a882da",
        "f8df10d9da2a19bb95c151e9331a4d640296cd9d03dc0e7766526c00c59ebd1c"),
    "load_balancer": (
        "484f1985b2d0992fe128a3ea7a13bc951e561de378ca879711669733e0aeb4f0",
        "e2973e6c7b12ba3fc836073894626aea09b028e58cba39c3fbd54566a03dacf3"),
    "qos": (
        "d7bfd6359bd52cf5ee7134c30ffc22f6e1d50a8f830052cd51cf458d0d1ff6c4",
        "f8df10d9da2a19bb95c151e9331a4d640296cd9d03dc0e7766526c00c59ebd1c"),
    "source_routing": (
        "7cbd2385ea1cbbcd649ed95e3d4bd27889ce4ab67e0d2d268a6146885b40c737",
        "e2973e6c7b12ba3fc836073894626aea09b028e58cba39c3fbd54566a03dacf3"),
    "netcache": (
        "d62fd35896a01a806bd9bfa9f7cf7ddee11d0378b5fe41cdbdc795cc6004ed59",
        "b93da8be6bbce1dbb98f4e63298aa6fc86d34f8c1a4cab25e55bc482dd74cfc5"),
    "netchain": (
        "1b8e51189574e114c1c3e185c5b159ff238ab709ca2823888fef54705faf8bde",
        "8d87e5324dad885cf1c25657073caf4585a73fbb26a0436021fdb97ba2f2c280"),
    "multicast": (
        "671e64df136b90c272a6f8031f7a2ca6672801f06965a07291ad11588f081e33",
        "e2973e6c7b12ba3fc836073894626aea09b028e58cba39c3fbd54566a03dacf3"),
}


def _words_and_stats(module, monkeypatch):
    fabric = leaf_spine(leaves=2, spines=1)
    interfaces = [member.switch.interface for member in fabric.switches()]
    # A word is tagged with its switch's position, not object identity.
    position = {id(interface): i for i, interface in enumerate(interfaces)}
    words = []
    write_config = SoftwareHardwareInterface.write_config

    def recording(interface, resource, index, entry):
        payload = write_config(interface, resource, index, entry)
        pipeline = interface.pipeline
        words.append((position[id(interface)], int(resource.rtype),
                      resource.stage, index, entry,
                      pipeline.epoch_of(VID), pipeline.epoch_of(VID + 1)))
        return payload

    monkeypatch.setattr(SoftwareHardwareInterface, "write_config",
                        recording)
    tenant = fabric.tenant(module.NAME, module.P4_SOURCE, vid=VID,
                           installer=INSTALLERS[module.NAME])
    tenant.place(("leaf0", 0), ("leaf1", 1))
    tenant.update(module.P4_SOURCE)
    tenant.unload()
    return words, [(dataclasses.astuple(i.stats),
                    i.pipeline.packet_filter.read_counter(),
                    i.pipeline.config_epoch) for i in interfaces]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.NAME)
def test_word_stream_and_interface_stats_are_pinned(module, monkeypatch):
    stream, stats = _words_and_stats(module, monkeypatch)
    assert stream and all(s[0][0] for s in stats)   # packets were sent
    assert (_digest(stream), _digest(stats)) == EXPECTED[module.NAME]
