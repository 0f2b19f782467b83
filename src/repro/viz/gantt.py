"""Text Gantt charts of application executions."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.execution import ApplicationResult

__all__ = ["gantt"]


def gantt(result: ApplicationResult, width: int = 72) -> str:
    """Render one lane per host, one bar per task execution.

    Bars are labelled with the task id's first letters; overlapping
    tasks on one host (processor sharing) stack onto extra lanes.
    """
    if width < 20:
        raise ValueError("width must be >= 20")
    records = list(result.records.values())
    if not records:
        return f"{result.application}: (no tasks)"
    t0 = result.startup_at
    t1 = max(r.finished_at for r in records)
    span = max(t1 - t0, 1e-9)
    scale = (width - 1) / span

    def col(t: float) -> int:
        return max(0, min(width - 1, int((t - t0) * scale)))

    # host -> list of (start_col, end_col, label)
    by_host: Dict[str, List[Tuple[int, int, str]]] = {}
    for record in sorted(records, key=lambda r: (r.started_at, r.task_id)):
        for host in record.hosts:
            by_host.setdefault(host, []).append(
                (col(record.started_at), col(record.finished_at), record.task_id)
            )

    label_width = max(len(h) for h in by_host) + 2
    lines = [
        f"{result.application} (scheduler={result.scheduler}, "
        f"makespan={result.makespan:.3f}s)"
    ]
    for host in sorted(by_host):
        lanes: List[List[Tuple[int, int, str]]] = []
        for bar in by_host[host]:
            placed = False
            for lane in lanes:
                if all(bar[0] > b[1] or bar[1] < b[0] for b in lane):
                    lane.append(bar)
                    placed = True
                    break
            if not placed:
                lanes.append([bar])
        for lane_index, lane in enumerate(lanes):
            row = [" "] * width
            for start, end, task_id in lane:
                end = max(end, start)
                for c in range(start, end + 1):
                    row[c] = "="
                label = task_id[: max(1, end - start + 1)]
                for offset, ch in enumerate(label):
                    if start + offset <= end:
                        row[start + offset] = ch
            prefix = host if lane_index == 0 else ""
            lines.append(f"{prefix:<{label_width}}|{''.join(row)}|")
    lines.append(
        f"{'':<{label_width}} t={t0:.2f}s {'':{max(0, width - 24)}} t={t1:.2f}s"
    )
    return "\n".join(lines)
