"""Persistence for offline application profiles (JSON).

In the paper's deployment, profiling runs once offline (GEM5/McPAT) and
the runtime only reads the resulting tables.  This module gives the
reproduction the same workflow: serialise a built
:class:`~repro.apps.profiles.ApplicationProfile` - spec, per-DoP task
graphs and per-(Vdd, DoP) operating points - to a JSON document, and
reload it without re-running the performance model.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.apps.profiles import (
    ApplicationProfile,
    AppKind,
    BenchmarkSpec,
    OperatingPoint,
)
from repro.chip.technology import technology
from repro.pdn.waveforms import ActivityBin

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def profile_to_dict(profile: ApplicationProfile, tech_name: str) -> dict:
    """Serialise a profile to a JSON-compatible dictionary.

    Args:
        profile: The profile to serialise.
        tech_name: Name of the technology node the profile was built
            for (stored with the profile and checked again on load).
    """
    technology(tech_name)  # validate early
    spec = profile.spec
    graphs = {}
    for dop in profile.supported_dops:
        graph = profile.graph(dop)
        graphs[str(dop)] = {
            "tasks": [
                {
                    "id": t.task_id,
                    "bin": t.activity_bin.value,
                    "work_cycles": t.work_cycles,
                    "activity_factor": t.activity_factor,
                }
                for t in graph.tasks()
            ],
            "edges": [
                {"src": s, "dst": d, "volume_bytes": v}
                for s, d, v in graph.edges()
            ],
        }
    points = [
        {
            "vdd": p.vdd,
            "dop": p.dop,
            "wcet_s": p.wcet_s,
            "power_w": p.power_w,
            "avg_router_flits_per_cycle": p.avg_router_flits_per_cycle,
        }
        for p in (
            profile.point(v, d)
            for v in profile.supported_vdds
            for d in profile.supported_dops
        )
    ]
    return {
        "format_version": FORMAT_VERSION,
        "tech": tech_name,
        "spec": {
            "name": spec.name,
            "kind": spec.kind.value,
            "work_gcycles": spec.work_gcycles,
            "serial_fraction": spec.serial_fraction,
            "high_fraction": spec.high_fraction,
            "total_comm_mb": spec.total_comm_mb,
            "seed": spec.seed,
        },
        "graphs": graphs,
        "points": points,
    }


def profile_from_dict(data: dict) -> ApplicationProfile:
    """Rebuild an :class:`ApplicationProfile` from its dictionary form."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    spec_d = data["spec"]
    spec = BenchmarkSpec(
        name=spec_d["name"],
        kind=AppKind(spec_d["kind"]),
        work_gcycles=spec_d["work_gcycles"],
        serial_fraction=spec_d["serial_fraction"],
        high_fraction=spec_d["high_fraction"],
        total_comm_mb=spec_d["total_comm_mb"],
        seed=spec_d["seed"],
    )
    graphs: Dict[int, ApplicationGraph] = {}
    for dop_str, g in data["graphs"].items():
        graph = ApplicationGraph()
        for t in g["tasks"]:
            graph.add_task(
                TaskNode(
                    task_id=t["id"],
                    activity_bin=ActivityBin(t["bin"]),
                    work_cycles=t["work_cycles"],
                    activity_factor=t["activity_factor"],
                )
            )
        for e in g["edges"]:
            graph.add_edge(e["src"], e["dst"], e["volume_bytes"])
        graphs[int(dop_str)] = graph
    points: Dict[Tuple[float, int], OperatingPoint] = {}
    for p in data["points"]:
        point = OperatingPoint(
            vdd=p["vdd"],
            dop=p["dop"],
            wcet_s=p["wcet_s"],
            power_w=p["power_w"],
            avg_router_flits_per_cycle=p["avg_router_flits_per_cycle"],
        )
        points[(round(point.vdd, 9), point.dop)] = point
    technology(data["tech"])  # reject an unknown node, as on save
    return ApplicationProfile(spec, graphs, points)


def save_profile(
    profile: ApplicationProfile, path: str, tech_name: str = "7nm"
) -> None:
    """Write a profile to a JSON file."""
    with open(path, "w") as handle:
        json.dump(profile_to_dict(profile, tech_name), handle)


def load_profile(path: str) -> ApplicationProfile:
    """Read a profile back from a JSON file."""
    with open(path) as handle:
        return profile_from_dict(json.load(handle))
