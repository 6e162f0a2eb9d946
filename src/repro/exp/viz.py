"""ASCII renderers for placements and PSN traces.

Terminal-friendly visualisation used by the examples: one application's
placement with each task's activity bin, and a timeline of the chip's
peak PSN with the voltage-emergency margin highlighted.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.graph import ApplicationGraph
from repro.chip.cmp import ChipDescription
from repro.core.base import MappingDecision

def render_placement(
    chip: ChipDescription,
    decision: MappingDecision,
    graph: ApplicationGraph,
) -> str:
    """One application's placement: ``H``/``L`` per task, ``.`` dark."""
    tile_task = {tile: task for task, tile in decision.task_to_tile.items()}
    lines = []
    for y in range(chip.mesh.height):
        cells = []
        for x in range(chip.mesh.width):
            tile = chip.mesh.tile_at((x, y))
            task_id = tile_task.get(tile)
            if task_id is None:
                cells.append(".")
            else:
                bin_ = graph.task(task_id).activity_bin
                cells.append("H" if bin_.is_high else "L")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_psn_timeline(
    trace,
    width: int = 64,
    threshold_pct: Optional[float] = 5.0,
) -> str:
    """ASCII timeline of chip peak PSN from a runtime trace.

    Args:
        trace: ``RunMetrics.trace`` entries (time, peak PSN %, occupied
            tiles), as recorded with ``record_trace=True``.
        width: Number of time buckets to render.
        threshold_pct: Rows above this level render with ``!``.
    """
    if not trace:
        return "(empty trace)"
    t_end = trace[-1][0]
    if t_end <= 0:
        return "(trace too short)"
    # Bucket by time, keeping the worst peak per bucket.
    buckets = [0.0] * width
    for t, peak, _ in trace:
        idx = min(int(t / t_end * (width - 1)), width - 1)
        buckets[idx] = max(buckets[idx], peak)
    top = max(max(buckets), 1e-9)
    levels = 8
    lines = []
    for level in range(levels, 0, -1):
        cut = top * (level - 0.5) / levels
        marker_row = ""
        for value in buckets:
            if value >= cut:
                over = (
                    threshold_pct is not None and cut >= threshold_pct
                )
                marker_row += "!" if over else "#"
            else:
                marker_row += " "
        lines.append(f"{top * level / levels:6.1f}% |{marker_row}|")
    lines.append(f"{'':>8s}0s{'':>{max(width - 10, 1)}s}{t_end:.2f}s")
    return "\n".join(lines)
