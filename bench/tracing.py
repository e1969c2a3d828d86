"""Timing shims around eczero's public functions, installed at run time.

The shims replace module attributes, so every caller that reaches a
function through a module global (the CLI, the survey pipeline, the
function's own module) enters a span.  No source file is edited and the
untraced run never installs them.

A span is (name, start_ns, end_ns, parent index), kept in memory until the
run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("survey", "rational", "fp", "localpoints", "verdicts", "arith")
COUNTERS = ("survey.generators_found", "survey.records_ingested", "survey.records_rejected",
            "survey.report_bytes", "rational.points_found")


def _observe(name: str, result, counters: dict) -> None:
    # Counts read from return values at the layer boundary.
    if name == "survey.find_generator":
        counters["survey.generators_found"] += result is not None
    elif name == "survey.ingest_curves":
        counters["survey.records_ingested"] += len(result.records)
        counters["survey.records_rejected"] += len(result.rejected)
    elif name == "survey.emit_report":
        counters["survey.report_bytes"] += len(result.encode())
    elif name == "rational.naive_point_search":
        counters["rational.points_found"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            _observe(name, result, counters)
            return result

        return shim

    def install(self) -> int:
        """Wrap every public function of each layer at every module attribute
        that holds it; returns the number of attributes patched."""
        modules = [importlib.import_module(f"eczero.{layer}") for layer in LAYERS]
        holders = [m for n, m in sorted(sys.modules.items()) if n == "eczero" or n.startswith("eczero.")]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                shim = self.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, hattr, fn))
                            setattr(holder, hattr, shim)
        return len(self._patches)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def mark(self) -> int:
        self.counters.clear()
        return len(self.spans)

    def summarize(self, start: int) -> dict:
        """Per-layer totals for the spans recorded since ``start``."""
        names = [s[0] for s in self.spans[start:]]
        parents = [s[3] - start if s[3] >= start else -1 for s in self.spans[start:]]
        durs = [s[2] - s[1] for s in self.spans[start:]]
        child_ns = [0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durs[i]
        ms, self_ms, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        certify_ns = fallbacks = retries = 0
        for i, name in enumerate(names):
            anc = []
            j = parents[i]
            while j >= 0:
                anc.append(names[j])
                j = parents[j]
            calls[name] += 1
            self_ms[name] += (durs[i] - child_ns[i]) / 1e6
            if name not in anc:
                ms[name] += durs[i] / 1e6
            if name == "rational.q_scalar_mul" and anc[:1] == ["survey.find_generator"]:
                certify_ns += durs[i]
            elif name == "fp.count_points_naive" and "fp.count_points_bsgs" in anc:
                fallbacks += 1
            elif name == "localpoints.embed_point" and "localpoints.decompose_point" in anc:
                retries += 1
        # One embedding per decomposition is the plan; any beyond it is a retry.
        retries = max(0, retries - calls["localpoints.decompose_point"])
        searched = calls["survey.find_generator"]
        bsgs = calls["fp.count_points_bsgs"]
        derived = {
            "survey.find_generator.certify_ms": certify_ns / 1e6,
            "survey.generator_yield": self.counters["survey.generators_found"] / searched if searched else 0.0,
            "fp.bsgs_fallbacks": fallbacks,
            "fp.points_per_bsgs": calls["fp.point_at_x"] / bsgs if bsgs else 0.0,
            "localpoints.precision_retries": retries,
            "trace.spans": len(names),
        }
        return {"ms": dict(ms), "self_ms": dict(self_ms), "calls": dict(calls),
                "counters": {k: self.counters[k] for k in COUNTERS}, "derived": derived}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
