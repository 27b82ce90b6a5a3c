"""Report bundle writer.

Layout of the output directory (documented in docs/reports.md):
  report.json        all records, series and graph edges
  dma_timeline.svg   one row per DMA with stall/slack segments + backtails
  util_<unit>.csv    per-bucket busy fraction per unit
  vmem_heatmap.svg   128 buckets x time
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter
from typing import Dict, List, Optional

from .deps import Backtail, DependencyGraph
from .dma import DmaRecord
from .svg import render_dma_timeline, render_vmem_heatmap
from .utilization import UtilizationSeries
from .vmem import VmemPageStats


def write_report(outdir: str,
                 dma_records: Optional[List[DmaRecord]] = None,
                 utilization: Optional[Dict[str, UtilizationSeries]] = None,
                 vmem: Optional[VmemPageStats] = None,
                 graph: Optional[DependencyGraph] = None,
                 backtails: Optional[Dict[int, Backtail]] = None,
                 regions: Optional[dict] = None) -> List[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    doc: dict = {}
    if dma_records is not None:
        doc["dma"] = [r.to_json() for r in dma_records]
        path = os.path.join(outdir, "dma_timeline.svg")
        with open(path, "w") as fh:
            fh.write(render_dma_timeline(dma_records, backtails))
        written.append(path)
    if utilization is not None:
        doc["utilization"] = section = {}
        for unit, series in sorted(utilization.items()):
            path = os.path.join(outdir, f"util_{unit.lower()}.csv")
            section[unit] = {"unit": series.unit, "bucket_width": series.bucket_width,
                             "samples": _Samples(series, path),
                             "annotations": series.annotations}
            written.append(path)
    if vmem is not None:
        doc["vmem"] = vmem.to_json()
        path = os.path.join(outdir, "vmem_heatmap.svg")
        with open(path, "w") as fh:
            fh.write(render_vmem_heatmap(vmem))
        written.append(path)
    if graph is not None:
        doc["dependencies"] = {
            "nodes": graph.n,
            "conservative": [e.to_json() for e in graph.conservative],
            "relaxed": [e.to_json() for e in graph.relaxed],
            "chains": {str(k): list(v) for k, v in sorted(graph.chains.items())},
        }
    if backtails is not None:
        doc["backtails"] = [b.to_json() for _, b in sorted(backtails.items())]
    if regions:
        doc["regions"] = regions
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        _write_json(fh, doc, "\n")
    written.append(path)
    return written


# report.json is the text of json.dump(doc, fh, indent=1, sort_keys=True).
# That encoder holds the whole text in memory or spends a generator step per
# token, so a dict is written key by key, a utilization series' samples go
# out run by run (_Samples), a list of equally shaped rows of scalars
# (utilization annotations, VMEM bucket rows, graph edges) as one %-format
# string per batch of about _BATCH values, a list of scalars as one string,
# any other list item by item, and a scalar as its own json.dumps text. So
# json.dumps never gets `indent`, whose pure-Python encoder leaves
# reference cycles for the collector.
_BATCH = 1000
_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})
_DICT = frozenset({dict})
_SEQUENCES = frozenset({list, tuple})
_INT = frozenset({int})


class _Samples:
    """The samples of `series` as report.json rows [cycle, fraction], written
    run by run, and to the series' CSV file at `path` alongside. Each
    fraction is formatted once for each file, and a run's cycles' text, at
    most _BATCH cycles at a time, is joined between constant pieces for
    both."""

    def __init__(self, series: UtilizationSeries, path: str):
        self.series, self.path = series, path

    def write(self, fh, nl: str) -> None:
        runs, w = self.series.runs, self.series.bucket_width
        row, cell = nl + " ", nl + "  "
        lead, later, step = "[" + row + "[" + cell, "," + row + "[" + cell, w * _BATCH
        pieces = {}     # fraction -> (JSON row separator, JSON row end, CSV row end)
        with open(self.path, "w", newline="") as csv:   # csv.writer's bytes
            csv.write("bucket_start_cycle,busy_fraction\r\n")
            for a, b, f in runs:
                if f not in pieces:
                    end = "," + cell + repr(round(f, 6)) + row + "]"
                    pieces[f] = end + later, end, ",%.6f\r\n" % f
                json_sep, json_end, csv_end = pieces[f]
                while a < b:
                    c = min(b, a + step)
                    cycles = list(map(str, range(a, c, w)))
                    fh.write(lead)
                    fh.write(json_sep.join(cycles))
                    fh.write(json_end)
                    csv.write(csv_end.join(cycles))
                    csv.write(csv_end)
                    lead, a = later, c
        fh.write(nl + "]" if runs else "[]")


def _scalar(v):
    """v as a %s argument that formats to v's JSON text."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int or t is float and isfinite(v):
        return v
    return json.dumps(v)


def _table(rows, nl: str):
    """(row format, row getter, values per row) when `rows` is a non-empty
    list of non-empty rows of scalars that all have one shape, else None;
    `nl` is the newline and indent of each row's own line."""
    if type(rows) not in _SEQUENCES or not rows or not rows[0]:
        return None
    first, inner = rows[0], nl + " "
    if type(first) is dict:
        if not (_DICT.issuperset(map(type, rows)) and _STR.issuperset(map(type, first))
                and all(map(first.keys().__eq__, map(dict.keys, rows)))):
            return None
        keys = sorted(first)
        get = itemgetter(*keys) if len(keys) > 1 else lambda r, k=keys[0]: (r[k],)
        cells, row = [_quote(k).replace("%", "%%") + ": %s" for k in keys], "{}"
    elif _SEQUENCES.issuperset(map(type, rows)) and set(map(len, rows)) == {len(first)}:
        get, cells, row = tuple, ["%s"] * len(first), "[]"
    else:
        return None
    if not _SCALARS.issuperset(map(type, chain.from_iterable(map(get, rows)))):
        return None
    return (row[0] + inner + ("," + inner).join(cells) + nl + row[1],
            get, len(cells))


def _write_json(fh, value, nl: str) -> None:
    """Writes the text of json.dumps(value, indent=1, sort_keys=True) to fh;
    `nl` is the newline and indent of value's own line."""
    if type(value) is _Samples:
        value.write(fh, nl)
        return
    inner = nl + " "
    if type(value) is dict and value:
        if not _STR.issuperset(map(type, value)):
            raise TypeError("report.json keys must be str")
        lead = "{" + inner
        for key, v in sorted(value.items()):
            fh.write(lead + _quote(key) + ": ")
            _write_json(fh, v, inner)
            lead = "," + inner
        fh.write(nl + "}")
        return
    table = _table(value, inner)
    if table is None:
        if type(value) not in _SEQUENCES or not value:      # a scalar, [] or {}
            fh.write(json.dumps(value))
        elif _SCALARS.issuperset(map(type, value)):
            fh.write("[" + inner + ("," + inner).join(map(str, map(_scalar, value)))
                     + nl + "]")
        else:
            lead = "[" + inner
            for v in value:
                fh.write(lead)
                _write_json(fh, v, inner)
                lead = "," + inner
            fh.write(nl + "]")
        return
    row, get, n = table
    sep = "," + inner
    step, lead = max(1, _BATCH // n), "[" + inner
    for i in range(0, len(value), step):
        part = value[i:i + step]
        fh.write(lead + _filled(sep.join([row] * len(part)), part, get))
        lead = sep
    fh.write(nl + "]")


def _filled(fmt: str, rows, get) -> str:
    """`fmt` filled with the scalars of `rows`, each row's in `get` order."""
    values = tuple(chain.from_iterable(map(get, rows)))
    if not _INT.issuperset(map(type, values)):
        values = tuple(map(_scalar, values))
    return fmt % values
