"""Per-layer accounting of chromheap calls from a cProfile run.

The layers are the package's modules.  cProfile (with builtins off, so
time in C functions stays with the Python function that called them)
records every Python function and every caller -> callee edge.  Only
functions whose code lives in the chromheap package are kept:

* `L.self_s` is the own time of L's functions plus the whole time of
  calls they make into Python code outside the package (`fractions`,
  `json`, `argparse`, dataclass-generated methods), so that work counts
  for the layer that asked for it;
* `L.calls` counts calls of L's functions; a generator counts once per
  resume, as the profiler sees it;
* an entry-point time is the inclusive time of the calls into a group of
  functions from outside that group, so nesting inside the group (such as
  `acyclic_orientation_list` around `enumerate_acyclic`) is not counted
  twice.
"""
from __future__ import annotations

import cProfile
import sys
from pathlib import Path

LAYERS = ("graphs", "orientations", "chromatic", "polynomials", "reciprocity", "series", "symfunc", "cli")

# (module, function name or prefix ending in "*") -> entry-point metric
ENTRY_POINTS = {
    ("graphs", "independence_table"): "graphs.independence_table_s",
    ("orientations", "acyclic_count_table"): "orientations.tables_s",
    ("orientations", "unique_source_min_table"): "orientations.tables_s",
    ("orientations", "enumerate_acyclic"): "orientations.enumerate_s",
    ("orientations", "acyclic_orientation_list"): "orientations.enumerate_s",
    ("orientations", "subgraph_*"): "orientations.enumerate_s",
    ("chromatic", "chromatic_polynomial"): "chromatic.polynomial_s",
    ("chromatic", "bivariate_polynomial"): "chromatic.bivariate_s",
    ("series", "TruncatedSeries.__mul__"): "series.mul_s",
    ("series", "TruncatedSeries.reciprocal"): "series.reciprocal_s",
    ("series", "TruncatedSeries.log"): "series.log_s",
    ("series", "TruncatedSeries.exp"): "series.exp_s",
    ("series", "verify_heap_identities"): "series.verify_s",
    ("symfunc", "csf_powersum"): "symfunc.csf_powersum_s",
    ("symfunc", "verify_*"): "symfunc.verify_s",
}
GROUPS = sorted(set(ENTRY_POINTS.values()))


def _group_of(layer: str, qualname: str) -> str | None:
    for (mod, pattern), group in ENTRY_POINTS.items():
        if mod == layer and (qualname == pattern or pattern.endswith("*") and qualname.startswith(pattern[:-1])):
            return group
    return None


class LayerProfiler:
    """A cProfile run whose statistics are folded into per-layer metrics."""

    def __init__(self, package_dir: Path):
        self.package_dir = str(package_dir.resolve()) + "/"
        self.profile = cProfile.Profile(builtins=False)
        self.entries: list = []

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        self.entries = self.profile.getstats()
        return False

    def _where(self, code) -> tuple[str | None, str | None]:
        """(layer, entry-point group) of a code object; layer None outside the package."""
        filename = getattr(code, "co_filename", "")
        if not filename.startswith(self.package_dir):
            return None, None
        layer = Path(filename).stem
        if layer not in LAYERS:
            return None, None
        return layer, _group_of(layer, code.co_qualname)

    def metrics(self) -> dict[str, float]:
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        group_s = dict.fromkeys(GROUPS, 0.0)
        group_calls = dict.fromkeys(GROUPS, 0)
        for entry in self.entries:
            layer, group = self._where(entry.code)
            if layer is not None:
                self_s[layer] += entry.inlinetime
                calls[layer] += entry.callcount
            for sub in entry.calls or ():
                sub_layer, sub_group = self._where(sub.code)
                if layer is not None and sub_layer is None:
                    self_s[layer] += sub.totaltime
                if sub_group is not None and sub_group != group:
                    group_s[sub_group] += sub.totaltime
                    group_calls[sub_group] += sub.callcount
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out.update(group_s)
        out["series.mul_calls"] = group_calls["series.mul_s"]
        return out

    def top_functions(self, count: int = 25) -> list[dict]:
        """The package's functions with the most own time."""
        rows = []
        for entry in self.entries:
            layer, _ = self._where(entry.code)
            if layer is not None:
                rows.append({"function": f"{layer}.{entry.code.co_qualname}",
                             "calls": entry.callcount, "self_s": entry.inlinetime,
                             "cumulative_s": entry.totaltime})
        return sorted(rows, key=lambda r: -r["self_s"])[:count]


def cache_totals() -> dict[str, int]:
    """Entries, hits and misses summed over the package's lru_cache functions."""
    seen: set[int] = set()
    totals = {"cache.entries": 0, "cache.hits": 0, "cache.misses": 0}
    for name, module in list(sys.modules.items()):
        if not name.startswith("chromheap"):
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is None or id(value) in seen or not callable(info):
                continue
            seen.add(id(value))
            ci = info()
            totals["cache.entries"] += ci.currsize
            totals["cache.hits"] += ci.hits
            totals["cache.misses"] += ci.misses
    return totals
