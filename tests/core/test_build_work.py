"""Platform build does only the work a run needs, each pass once.

The network compiles every switch's routes into a dense row, and both
route validation and the deadlock check read those rows; the routing
function is asked per destination only where a row leaves the route
open.  Elaborating a spec hashes it once, register banks wait for
their first access, bus slots come from a per-bus cursor and wired
links carry no standalone queues.  These are counter gates, not timing
gates, so they hold on any host.
"""

import pytest

import repro.core.platform as platform_module
from repro.core.bus import N_BUSES, BusFabric
from repro.core.config import generic_platform_config
from repro.core.platform import build_platform
from repro.core.registers import Register
from repro.experiments.spec import ScenarioSpec
from repro.noc.routing import RoutingFunction


@pytest.fixture
def ports_for_calls(monkeypatch):
    """Count :meth:`RoutingFunction.ports_for` calls on every routing
    class."""
    calls = [0]
    for cls in (RoutingFunction, *RoutingFunction.__subclasses__()):
        original = cls.ports_for

        def counted(self, switch, dst, _original=original):
            calls[0] += 1
            return _original(self, switch, dst)

        monkeypatch.setattr(cls, "ports_for", counted)
    return calls


def test_mesh_16x16_build_asks_ports_for_at_most_once_per_node(
    ports_for_calls,
):
    platform = build_platform(
        generic_platform_config("mesh:16:16", routing="auto")
    )
    n_nodes = platform.topology.n_nodes
    assert n_nodes == 256
    assert ports_for_calls[0] <= n_nodes



@pytest.fixture
def register_count(monkeypatch):
    """Count :class:`Register` constructions."""
    count = [0]
    original = Register.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Register, "__init__", counted)
    return count


def test_mesh_8x8_build_constructs_no_register(register_count):
    platform = build_platform(generic_platform_config("mesh:8:8"))
    assert register_count[0] == 0
    device = platform.tg_devices[5]
    bank = device.bank
    assert register_count[0] == len(bank) > 0
    assert device.bank is bank
    others = [platform.control, *platform.tg_devices, *platform.tr_devices]
    assert [d for d in others if d._bank is not None] == [device]


def test_to_platform_config_hashes_the_spec_once(monkeypatch):
    calls = [0]
    original = ScenarioSpec.key

    def counted(self):
        calls[0] += 1
        return original.fget(self)

    monkeypatch.setattr(ScenarioSpec, "key", property(counted))
    spec = ScenarioSpec(topology="mesh:16:16")
    config = spec.to_platform_config()
    assert calls[0] == 1
    assert len(config.tgs) == 256


def test_mesh_8x8_build_creates_no_deque_on_wired_links():
    platform = build_platform(generic_platform_config("mesh:8:8"))
    links = platform.network.links
    assert links
    queued = [
        link.name
        for link in links
        if link._in_flight is not None
        or link._credits_in_flight is not None
    ]
    assert queued == []


class _ProbeCountingSlots(dict):
    probes = 0

    def __contains__(self, slot):
        _ProbeCountingSlots.probes += 1
        return super().__contains__(slot)


def test_auto_slot_attaches_probe_once_per_device(monkeypatch):
    class CountingFabric(BusFabric):
        def __init__(self):
            super().__init__()
            self._devices = [_ProbeCountingSlots() for _ in range(N_BUSES)]

    monkeypatch.setattr(_ProbeCountingSlots, "probes", 0)
    monkeypatch.setattr(platform_module, "BusFabric", CountingFabric)
    platform = build_platform(generic_platform_config("mesh:16:16"))
    devices = len(platform.fabric.devices())
    assert devices == 513
    assert _ProbeCountingSlots.probes <= devices + N_BUSES
