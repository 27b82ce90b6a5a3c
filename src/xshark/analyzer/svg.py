"""Hand-rolled SVG artifacts.

Colors and segment semantics are contractual (docs/reports.md): in the DMA
timeline green is base-latency stall, purple is transfer stall, gray hatch
is slack, the thin outline spans issue..complete and the black whisker shows
the backtail. Geometry is incidental. Output is byte-stable apart from the
version comment on line two.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional

from .. import __version__
from ..isa import VMEM_BUCKETS
from .deps import Backtail
from .dma import DmaRecord
from .vmem import VmemPageStats

COLOR_BASE_STALL = "#2e8b57"        # green
COLOR_TRANSFER_STALL = "#7d3c98"    # purple
COLOR_SLACK = "#9e9e9e"             # gray, hatched
COLOR_TRANSFER = "#c8d6e5"
COLOR_BACKTAIL = "#000000"
_WIDTH = 960                        # pixels, both artifacts

_HATCH = ('<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
          'patternTransform="rotate(45)"><rect width="6" height="6" fill="%s"/>'
          '<line x1="0" y1="0" x2="0" y2="6" stroke="white" stroke-width="2"/>'
          '</pattern>') % COLOR_SLACK


def _doc(height: int, body: List[str]) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
            f"<!-- xshark {__version__} -->",
            f"<defs>{_HATCH}</defs>"]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def render_dma_timeline(records: List[DmaRecord],
                        backtails: Optional[Dict[int, Backtail]]) -> str:
    if not records:
        return _doc(40, ['<text x="8" y="24" font-size="12">no DMAs</text>'])
    t0 = min(r.issue_cycle for r in records)
    if backtails:
        t0 = min([t0] + [b.earliest_cycle for b in backtails.values()])
    t1 = max(max(r.complete_cycle or r.issue_cycle, r.wait_cycle or 0)
             for r in records) + 1
    span = max(1, t1 - t0)
    row_h, pad_l, pad_t = 18, 120, 24
    scale = (_WIDTH - pad_l - 16) / span

    def x(c):
        return pad_l + (c - t0) * scale

    def bar(start, stop, fill, stroke=""):      # on the row at `mid`
        return (f'<rect x="{x(start):.1f}" y="{mid}" '
                f'width="{max(1.0, (stop - start) * scale):.1f}" height="10" '
                f'fill="{fill}"{stroke}/>')

    body = [f'<text x="8" y="16" font-size="12">DMA timeline '
            f'(cycles {t0}..{t1})</text>']
    for row, r in enumerate(sorted(records, key=lambda r: r.dma_id)):
        y = pad_t + row * row_h
        mid = y + 4
        body.append(f'<text x="8" y="{y + 12}" font-size="10">dma {r.dma_id} '
                    f's{r.slot} {r.link} {r.size}B</text>')
        end = r.complete_cycle if r.complete_cycle is not None else t1
        body.append(bar(r.issue_cycle, end, COLOR_TRANSFER,
                        ' stroke="#666" stroke-width="0.5"'))
        w, bd, c = r.wait_cycle, r.base_done_cycle, r.complete_cycle
        if r.scenario == "base_then_transfer":
            body += [bar(w, bd, COLOR_BASE_STALL), bar(bd, c, COLOR_TRANSFER_STALL)]
        elif r.scenario == "transfer_only":
            body.append(bar(w, c, COLOR_TRANSFER_STALL))
        elif r.scenario == "slack" and w > c:
            body.append(bar(c, w, "url(#hatch)"))
        if backtails and r.dma_id in backtails:
            b = backtails[r.dma_id]
            body.append(f'<line x1="{x(b.earliest_cycle):.1f}" y1="{mid + 5}" '
                        f'x2="{x(r.issue_cycle):.1f}" y2="{mid + 5}" '
                        f'stroke="{COLOR_BACKTAIL}" stroke-width="1.2"/>')
            body.append(f'<line x1="{x(b.earliest_cycle):.1f}" y1="{mid + 1}" '
                        f'x2="{x(b.earliest_cycle):.1f}" y2="{mid + 9}" '
                        f'stroke="{COLOR_BACKTAIL}" stroke-width="1.2"/>')
    return _doc(pad_t + len(records) * row_h + 12, body)


def render_vmem_heatmap(stats: VmemPageStats) -> str:
    """128 bucket rows x sample columns; cell shade = used pages in bucket."""
    n_samples = len(stats.samples)
    cell_w = max(1.0, (_WIDTH - 140) / max(1, n_samples))
    cell_h = 4
    body = [f'<text x="8" y="16" font-size="12">VMEM heatmap: {VMEM_BUCKETS} buckets '
            f'x {n_samples} samples (interval {stats.sample_interval})</text>']
    rows, drawn = stats.bucket_used, [[] for _ in range(VMEM_BUCKETS)]
    for s, row in enumerate(rows):      # each bucket's samples with used pages
        for b in compress(range(VMEM_BUCKETS), row):
            drawn[b].append(s)
    for b in range(VMEM_BUCKETS):
        y = 24 + b * cell_h
        for s in drawn[b]:
            shade = 255 - int(200 * rows[s][b] / stats.bucket_pages)
            body.append(f'<rect x="{120 + s * cell_w:.1f}" y="{y}" '
                        f'width="{cell_w:.1f}" height="{cell_h}" '
                        f'fill="rgb({shade},{shade // 2},{255 - shade})"/>')
        if b % 16 == 0:
            body.append(f'<text x="8" y="{y + 4}" font-size="8">bucket {b}</text>')
    return _doc(24 + VMEM_BUCKETS * cell_h + 12, body)
