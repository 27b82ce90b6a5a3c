"""Report bundle writer.

Layout of the output directory (documented in docs/reports.md):
  report.json        all records, series and graph edges
  dma_timeline.svg   one row per DMA with stall/slack segments + backtails
  util_<unit>.csv    per-bucket busy fraction per unit
  vmem_heatmap.svg   128 buckets x time
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
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
        doc["utilization"] = {u: s.to_json() for u, s in sorted(utilization.items())}
        for unit, series in sorted(utilization.items()):
            path = os.path.join(outdir, f"util_{unit.lower()}.csv")
            with open(path, "w", newline="") as fh:   # csv.writer's bytes
                fh.write("bucket_start_cycle,busy_fraction\r\n")
                fh.writelines(map("%d,%.6f\r\n".__mod__, series.samples))
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
        for batch in _json_batches(doc, "\n"):
            fh.writelines(batch)
    written.append(path)
    return written


# report.json is the text of json.dump(doc, fh, indent=1, sort_keys=True),
# written without that encoder's generator step per token: a container of
# scalars is one join, a list of equal-length number lists is one format
# string per batch of rows, and the items of a larger container go out in
# lists of at most _BATCH strings (rows of numbers in strings of about
# _BATCH numbers), so the text is never whole in memory.
_BATCH = 1000
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NUMBERS = frozenset({int, float})
_SEQUENCES = frozenset({list, tuple})
_STR = frozenset({str})


def _numbers(text: str) -> str:
    """JSON spelling of the non-finite floats in text made of number reprs
    (no other number repr holds an "n")."""
    if "n" in text:
        return text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _scalar(v) -> str:
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int or t is float:
        return _numbers(repr(v))
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    raise TypeError(f"report.json cannot hold a {t.__name__}")


def _sorted_items(d: dict) -> list:
    if not _STR.issuperset(map(type, d)):
        raise TypeError("report.json keys must be str")
    return sorted(d.items())


def _flat(v, nl: str):
    """The text of `v` when it is a scalar or a container of scalars, else
    None; `nl` is the newline and indent of v's own line."""
    t = type(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        types = set(map(type, v))
        if not types <= _SCALARS:
            return None
        inner = nl + " "
        if types <= _NUMBERS:
            return "[" + inner + _numbers(("," + inner).join(map(repr, v))) + nl + "]"
        return "[" + inner + ("," + inner).join(map(_scalar, v)) + nl + "]"
    if t is dict:
        if not v:
            return "{}"
        if not _SCALARS.issuperset(map(type, v.values())):
            return None
        inner = nl + " "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _scalar(x) for k, x in _sorted_items(v)]) + nl + "}"
    return _scalar(v)


def _number_rows(o, nl: str):
    """(row format, rows per batch) when the items of list `o` are non-empty
    lists of numbers, all of one length, else None; `nl` is the rows'
    newline."""
    if not _SEQUENCES.issuperset(map(type, o)):
        return None
    lengths = set(map(len, o))
    if len(lengths) != 1 or 0 in lengths:
        return None
    if not _NUMBERS.issuperset(map(type, chain.from_iterable(o))):
        return None
    inner = nl + " "
    n = lengths.pop()
    return ("[" + inner + ("," + inner).join(["%s"] * n) + nl + "]",
            max(1, _BATCH // n))


def _json_batches(o, nl: str):
    """Yields the text of `o` as lists of at most _BATCH strings; `nl` is
    the newline and indent of o's own line."""
    text = _flat(o, nl)
    if text is not None:
        yield [text]
        return
    inner = nl + " "
    sep = "," + inner
    if type(o) is dict:
        yield ["{" + inner]
        items = ((_quote(k) + ": ", v) for k, v in _sorted_items(o))
        close = nl + "}"
    else:
        yield ["[" + inner]
        close = nl + "]"
        fmt = _number_rows(o, inner)
        if fmt is not None:
            row, step = fmt
            for i in range(0, len(o), step):
                part = o[i:i + step]
                text = sep.join([row] * len(part)) % tuple(chain.from_iterable(part))
                yield [sep + _numbers(text) if i else _numbers(text)]
            yield [close]
            return
        items = zip(repeat(""), o)
    buf = []
    for i, (key, v) in enumerate(items):
        lead = sep + key if i else key
        text = _flat(v, inner)
        if text is None:
            buf.append(lead)
            yield buf
            yield from _json_batches(v, inner)
            buf = []
        else:
            buf.append(lead + text)
            if len(buf) >= _BATCH:
                yield buf
                buf = []
    buf.append(close)
    yield buf
