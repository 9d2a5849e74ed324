"""Lazily built register banks and cursor bus slots change nothing.

A device builds its register bank on first access and the bus fabric
allocates auto slots from a per-bus cursor; both must give exactly the
registers and addresses the eager bank and the slot-0 probe gave.  The
golden register table below was captured from the eager
implementation; platforms past 1024 devices spill onto buses 1-3.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bus import (
    DEVICES_PER_BUS,
    MAX_DEVICES,
    N_BUSES,
    AddressError,
    BusFabric,
    Device,
    make_address,
    split_address,
)
from repro.core.config import TG_MODELS, TR_KINDS, generic_platform_config
from repro.core.devices import TGDevice
from repro.core.errors import ConfigError
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.link import Link
from repro.noc.ni import NetworkInterface
from repro.traffic.base import FixedDestination
from repro.traffic.generator import TrafficGenerator
from repro.traffic.uniform import UniformTraffic

#: ``(name, byte offset, mode, reset value)`` of every register of the
#: second TG/TR of the paper platform (``ScenarioSpec(seed=3,
#: packets=50)`` with the given traffic model or receptor kind), as the
#: eager banks built them.
GOLDEN = {
    "tg:uniform": [
        ("CTRL", 0, "rw", 1),
        ("SEED", 4, "rw", 1287482296),
        ("MAX_PKTS", 8, "rw", 50),
        ("MODEL_TYPE", 12, "ro", 1),
        ("PARAM0", 16, "rw", 8),
        ("PARAM1", 20, "rw", 18),
        ("PARAM2", 24, "rw", 0),
        ("SENT", 28, "ro", 0),
        ("FLITS", 32, "ro", 0),
        ("BACKPRES", 36, "ro", 0),
    ],
    "tg:burst": [
        ("CTRL", 0, "rw", 1),
        ("SEED", 4, "rw", 855315076),
        ("MAX_PKTS", 8, "rw", 50),
        ("MODEL_TYPE", 12, "ro", 2),
        ("PARAM0", 16, "rw", 8),
        ("PARAM1", 20, "rw", 6703),
        ("PARAM2", 24, "rw", 8192),
        ("SENT", 28, "ro", 0),
        ("FLITS", 32, "ro", 0),
        ("BACKPRES", 36, "ro", 0),
    ],
    "tg:poisson": [
        ("CTRL", 0, "rw", 1),
        ("SEED", 4, "rw", 2395703534),
        ("MAX_PKTS", 8, "rw", 50),
        ("MODEL_TYPE", 12, "ro", 3),
        ("PARAM0", 16, "rw", 8),
        ("PARAM1", 20, "rw", 3686),
        ("PARAM2", 24, "rw", 0),
        ("SENT", 28, "ro", 0),
        ("FLITS", 32, "ro", 0),
        ("BACKPRES", 36, "ro", 0),
    ],
    "tg:onoff": [
        ("CTRL", 0, "rw", 1),
        ("SEED", 4, "rw", 2838521936),
        ("MAX_PKTS", 8, "rw", 50),
        ("MODEL_TYPE", 12, "ro", 4),
        ("PARAM0", 16, "rw", 8),
        ("PARAM1", 20, "rw", 8),
        ("PARAM2", 24, "rw", 78),
        ("SENT", 28, "ro", 0),
        ("FLITS", 32, "ro", 0),
        ("BACKPRES", 36, "ro", 0),
    ],
    "tg:trace": [
        ("CTRL", 0, "rw", 1),
        ("SEED", 4, "rw", 764313707),
        ("MAX_PKTS", 8, "rw", 50),
        ("MODEL_TYPE", 12, "ro", 5),
        ("PARAM0", 16, "rw", 2048),
        ("PARAM1", 20, "rw", 0),
        ("PARAM2", 24, "rw", 0),
        ("SENT", 28, "ro", 0),
        ("FLITS", 32, "ro", 0),
        ("BACKPRES", 36, "ro", 0),
    ],
    "tr:stochastic": [
        ("CTRL", 0, "rw", 1),
        ("KIND", 4, "ro", 1),
        ("PACKETS", 8, "ro", 0),
        ("FLITS", 12, "ro", 0),
        ("RUNTIME", 16, "ro", 0),
        ("HIST_SELECT", 20, "rw", 0),
        ("HIST_INDEX", 24, "rw", 0),
        ("HIST_DATA", 28, "ro", 0),
        ("HIST_OVERFLOW", 32, "ro", 0),
        ("HIST_TOTAL", 36, "ro", 0),
    ],
    "tr:tracedriven": [
        ("CTRL", 0, "rw", 1),
        ("KIND", 4, "ro", 2),
        ("PACKETS", 8, "ro", 0),
        ("FLITS", 12, "ro", 0),
        ("RUNTIME", 16, "ro", 0),
        ("LAT_MIN", 20, "ro", 0),
        ("LAT_MAX", 24, "ro", 0),
        ("LAT_SUM_LO", 28, "ro", 0),
        ("LAT_SUM_HI", 32, "ro", 0),
        ("LAT_COUNT", 36, "ro", 0),
        ("STALL_LO", 40, "ro", 0),
        ("STALL_HI", 44, "ro", 0),
        ("CONGESTED", 48, "ro", 0),
    ],
    "control": [
        ("CTRL", 0, "rw", 0),
        ("STATUS", 4, "ro", 0),
        ("CYCLES_LO", 8, "ro", 0),
        ("CYCLES_HI", 12, "ro", 0),
        ("SENT", 16, "ro", 0),
        ("RECEIVED", 20, "ro", 0),
    ],
}


def bank_table(device):
    bank = device.bank
    return [
        (
            name,
            bank.offset_of(name),
            "rw" if bank[name].writable else "ro",
            bank[name]._value,
        )
        for name in bank.names()
    ]


@pytest.mark.parametrize("model", TG_MODELS)
def test_tg_bank_matches_the_eager_table(model):
    platform = build_platform(
        ScenarioSpec(traffic=model, seed=3, packets=50).to_platform_config()
    )
    assert bank_table(platform.tg_devices[1]) == GOLDEN[f"tg:{model}"]


@pytest.mark.parametrize("kind", TR_KINDS)
def test_tr_and_control_banks_match_the_eager_table(kind):
    platform = build_platform(
        ScenarioSpec(receptors=kind, seed=3, packets=50).to_platform_config()
    )
    assert bank_table(platform.tr_devices[1]) == GOLDEN[f"tr:{kind}"]
    assert bank_table(platform.control) == GOLDEN["control"]


def test_bank_reads_construction_values_after_generator_mutation():
    ni = NetworkInterface(0)
    ni.connect(Link(), credits=1000)
    model = UniformTraffic(
        length=4, interval=8, destination=FixedDestination(3), seed=77
    )
    generator = TrafficGenerator(0, model, ni, max_packets=10)
    device = TGDevice("tg0", generator)
    generator.reset(seed=999)
    generator.max_packets = 3
    model._length_range = (9, 9)
    model._interval_range = (2, 2)
    assert device._bank is None
    assert device.bank.dump() == {
        "CTRL": 1,
        "SEED": 77,
        "MAX_PKTS": 10,
        "MODEL_TYPE": 1,
        "PARAM0": 4,
        "PARAM1": 8,
        "PARAM2": 0,
        "SENT": 0,
        "FLITS": 0,
        "BACKPRES": 0,
    }


def lowest_free(occupied, bus):
    slot = 0
    while (bus, slot) in occupied:
        slot += 1
    return slot


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_BUSES - 1),
            st.none() | st.integers(min_value=0, max_value=24),
        ),
        max_size=80,
    )
)
def test_cursor_slots_follow_the_lowest_free_rule(ops):
    """Auto slots equal a from-zero probe, explicit attaches interleaved."""
    fabric = BusFabric()
    occupied = set()
    for index, (bus, slot) in enumerate(ops):
        device = Device(f"d{index}")
        if slot is not None and (bus, slot) in occupied:
            with pytest.raises(AddressError, match="occupied"):
                fabric.attach(device, bus=bus, slot=slot)
            continue
        expected = lowest_free(occupied, bus) if slot is None else slot
        assert fabric.attach(device, bus=bus, slot=slot) == make_address(
            bus, expected
        )
        occupied.add((bus, expected))


def test_full_bus_still_raises_with_the_cursor():
    fabric = BusFabric()
    for index in range(DEVICES_PER_BUS):
        fabric.attach(Device(f"d{index}"), bus=2)
    with pytest.raises(AddressError, match="bus 2 is full"):
        fabric.attach(Device("extra"), bus=2)


def test_mesh_8x8_addresses_are_unchanged():
    platform = build_platform(generic_platform_config("mesh:8:8"))
    expected = [("control", 0)]
    expected += [(f"tg{i}", make_address(0, 1 + i)) for i in range(64)]
    expected += [(f"tr{i}", make_address(0, 65 + i)) for i in range(64)]
    assert [
        (d.name, d.base_address) for d in platform.fabric.devices()
    ] == expected


def test_mesh_23x23_spills_past_bus_0():
    platform = build_platform(generic_platform_config("mesh:23:23"))
    fabric = platform.fabric
    devices = fabric.devices()
    assert len(devices) == 1 + 2 * 529
    assert split_address(platform.control.base_address) == (0, 0, 0)
    for index, device in enumerate(devices):
        assert split_address(device.base_address) == (
            index // DEVICES_PER_BUS,
            index % DEVICES_PER_BUS,
            0,
        )
    spilled = devices[DEVICES_PER_BUS]
    assert split_address(spilled.base_address) == (1, 0, 0)
    assert fabric.read(spilled.register_address("KIND")) == 2
    assert fabric.reads == [0, 1, 0, 0]


def test_more_devices_than_the_fabric_holds_is_a_config_error():
    config = generic_platform_config("mesh:46:46")
    assert 1 + len(config.tgs) + len(config.trs) > MAX_DEVICES
    with pytest.raises(ConfigError, match=str(MAX_DEVICES)):
        build_platform(config)
