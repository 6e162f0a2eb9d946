"""Routing algorithms: XY, west-first, PANR (the paper's), ICON,
and the odd-even extension baseline."""

from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.routing.xy import XYRouting
from repro.noc.routing.west_first import WestFirstRouting
from repro.noc.routing.panr import PanrRouting
from repro.noc.routing.icon import IconRouting
from repro.noc.routing.odd_even import OddEvenRouting


def make_routing(name: str) -> RoutingAlgorithm:
    """Build a routing algorithm by its evaluation name.

    Accepted names (case-insensitive): ``"xy"``, ``"west-first"``
    (or ``"westfirst"``), ``"panr"``, ``"icon"``, ``"odd-even"`` (or
    ``"oddeven"``).
    """
    table = {
        "xy": XYRouting,
        "west-first": WestFirstRouting,
        "westfirst": WestFirstRouting,
        "panr": PanrRouting,
        "icon": IconRouting,
        "odd-even": OddEvenRouting,
        "oddeven": OddEvenRouting,
    }
    try:
        return table[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(set(table)))
        raise KeyError(f"unknown routing scheme {name!r}; known: {known}")


__all__ = [
    "RoutingAlgorithm",
    "XYRouting",
    "WestFirstRouting",
    "PanrRouting",
    "IconRouting",
    "OddEvenRouting",
    "make_routing",
]
