"""Chip platform model: technology nodes, mesh floorplan, power domains, DVFS.

This package models the hardware substrate of the paper's 60-core CMP
(Section 3 of the paper): a 10x6 mesh of tiles, each tile holding a core,
a NoC router and private L1 caches; tiles grouped into 2x2 power-supply
domains with independent voltage regulators; per-domain dynamic voltage
scaling between 0.4 V (near-threshold) and 0.8 V.

The RC thermal model, :mod:`repro.chip.thermal`, solves with scipy and
is not re-exported here: import it directly.
"""

from repro.chip.technology import TechnologyNode, TECHNOLOGY_LIBRARY, technology
from repro.chip.mesh import MeshGeometry, Coordinate
from repro.chip.domains import DomainMap
from repro.chip.dvfs import VddLadder, alpha_power_frequency
from repro.chip.power import PowerModel, TilePower
from repro.chip.cmp import ChipDescription, default_chip

__all__ = [
    "TechnologyNode",
    "TECHNOLOGY_LIBRARY",
    "technology",
    "MeshGeometry",
    "Coordinate",
    "DomainMap",
    "VddLadder",
    "alpha_power_frequency",
    "PowerModel",
    "TilePower",
    "ChipDescription",
    "default_chip",
]
