"""Campaign reporting: per-point metrics tables and manifest summaries.

Since the inference subsystem landed, the table construction lives in
:mod:`repro.inference.tabulate` (the same :class:`CampaignFrame` the
statistical analyses consume) — this module is the campaign-facing
facade that renders those rows with :mod:`repro.core.tables` so CLI
output matches the benchmark tables' look.  Reports are driven entirely
by what the store holds — each point's axis assignment, replicate, wall
time and scalar metrics — so a campaign reloaded from a
``JsonlResultStore`` directory reports identically to one still in
memory.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..core.tables import render_kv, render_table
from ..inference.tabulate import report_rows
from .store import CampaignResult, ResultStore


def metrics_table(
    source: Union[CampaignResult, ResultStore],
    metrics: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """The aligned per-point metrics table the CLI prints."""
    headers, rows = report_rows(source, metrics=metrics)
    if not rows:
        return title or "(no stored results)"
    return render_table(headers, rows, title=title)


def manifest_summary(manifest: dict[str, Any]) -> str:
    """Key/value header block for ``repro report``."""
    pairs = [
        ("name", manifest.get("name") or "(unnamed)"),
        ("kind", manifest.get("campaign", {}).get("base", {}).get("kind", "?")),
        ("points", manifest.get("n_points", "?")),
        ("seed", manifest.get("seed", "?")),
        ("executor", f"{manifest.get('executor', '?')} ×{manifest.get('workers', '?')}"),
        ("backend", manifest.get("backend") or "(spec default)"),
        ("total wall", f"{float(manifest.get('total_wall_s', 0.0)):.3g} s"),
        ("version", manifest.get("version", "?")),
    ]
    return render_kv("campaign", pairs)
