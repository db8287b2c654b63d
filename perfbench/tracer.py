"""Spans around pledger's public functions, recorded from outside the package.

`Tracer.install()` replaces each target with a wrapper that records a span:
name, start, end, parent span and the id of the command it ran under. It
patches the defining module and every `pledger.*` module that bound the same
object with `from .x import y`, so calls through either name are seen. Spans
stay in memory; `uninstall()` puts the originals back. A target that no
longer exists under its name is reported as absent instead of failing, so
this file can trace later versions of the package unchanged.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time


def _len_attr(attr):
    return lambda args, result: {attr: len(getattr(result, attr))}


# (span name, module, attribute, counts taken from (args, result))
TARGETS = (
    ("cli.main", "pledger.cli", "main", None),
    ("store.read_entries", "pledger.store", "read_entries",
     lambda args, result: {"bytes": os.path.getsize(args[0])}),
    ("store.LedgerFile", "pledger.store", "LedgerFile.__init__", None),
    ("store.append", "pledger.store", "LedgerFile.append", None),
    ("model.parse_entry", "pledger.model", "parse_entry", None),
    ("model.serialize_entry", "pledger.model", "serialize_entry", None),
    ("model.validate_structure", "pledger.model", "validate_structure", None),
    ("canonical.canonical_bytes", "pledger.canonical", "canonical_bytes", None),
    ("canonical.canonical_json", "pledger.canonical", "canonical_json", None),
    ("integrity.verify_chain", "pledger.integrity", "verify_chain", None),
    ("integrity.seal", "pledger.integrity", "seal", None),
    ("graph.build_graph", "pledger.graph", "build_graph", _len_attr("edges")),
    ("graph.linkage_completeness", "pledger.graph", "linkage_completeness", None),
    ("query.parse_query", "pledger.query", "parse_query", None),
    ("query.evaluate", "pledger.query", "evaluate", _len_attr("rows")),
    ("governance.compute_accrual", "pledger.governance", "compute_accrual",
     lambda args, result: {"considered": result[1].considered, "minted": len(result[0])}),
    ("governance.credit_report", "pledger.governance", "credit_report", None),
    ("governance.gate_check", "pledger.governance", "gate_check", None),
    ("harness.run_suite", "pledger.harness", "run_suite", _len_attr("runs")),
    ("harness.detect_regressions", "pledger.harness", "detect_regressions", None),
    ("evidence.build_export", "pledger.evidence", "build_export",
     lambda args, result: {"entries": len(result["entries"])}),
    ("evidence.audit_corpus", "pledger.evidence", "audit_corpus", None),
    ("evidence.flag_consent_violations", "pledger.evidence", "flag_consent_violations", None),
    ("evidence.check_export_conformance", "pledger.evidence", "check_export_conformance", None),
)


class Tracer:
    """Spans kept as parallel lists of numbers, so that recording them adds
    almost nothing for the garbage collector to scan."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a command's top span
        self.ops: list[int] = []
        self.child_time: list[float] = []
        self.counts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op = 0
        self.absent: set[str] = set()
        self.fsyncs_in_append = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        ops, child_time, stack, clock = self.ops, self.child_time, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.op += 1
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            child_time.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[index] = clock()
                stack.pop()
                if parents[index] >= 0:
                    child_time[parents[index]] += end - starts[index]
            if counter is not None:
                try:
                    self.counts[index] = counter(args, result)
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    pass
            return result
        return traced

    def _fsync(self, fn):
        @functools.wraps(fn)
        def counted(fd):
            if any(self.names[i] == "store.append" for i in self.stack):
                self.fsyncs_in_append += 1
            return fn(fd)
        return counted

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, attr, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, counter)
            self._patch(holder, leaf, wrapper)
            if owner:
                continue
            for other_name, other in list(sys.modules.items()):
                if other is module or other_name.split(".")[0] != "pledger":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        self._patch(os, "fsync", self._fsync(os.fsync))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------------

    def of(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def median(self, name: str, scale: float = 1e3) -> float:
        spans = self.of(name)
        return statistics.median(self.duration(i) for i in spans) * scale if spans else 0.0

    def count_median(self, name: str, key: str) -> float:
        values = [self.counts[i][key] for i in self.of(name) if key in self.counts.get(i, {})]
        return float(statistics.median(values)) if values else 0.0

    def total(self, name: str, key: str) -> int:
        return sum(self.counts.get(i, {}).get(key, 0) for i in self.of(name))

    def command_time(self) -> float:
        return sum(self.duration(i) for i in self.of("cli.main"))

    def self_share(self, layer: str) -> float:
        busy = self.command_time()
        own = sum(self.self_time(i) for i, n in enumerate(self.names)
                  if n.split(".")[0] == layer)
        return own / busy if busy else 0.0
