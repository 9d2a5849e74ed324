"""Platform build does each per-(switch, destination) pass once.

The network compiles every switch's routes into a dense row, and both
route validation and the deadlock check read those rows; the routing
function is asked per destination only where a row leaves the route
open.  These are counter gates, not timing gates, so they hold on any
host.
"""

import pytest

from repro.core.config import generic_platform_config
from repro.core.platform import build_platform
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

