"""Spans around the program's public layer functions, recorded from outside.

:class:`Tracer` rebinds the layer entry points where their callers look
them up (module globals for functions imported by name, class attributes
for methods) and records one span per call: name, start, end, parent span
and the id of the benchmark operation that caused it.  Spans stay in memory
until the run ends.  :meth:`Tracer.uninstall` restores every binding, so an
untraced phase runs the unmodified program.

Spans opened on a thread with no open span of its own (the sharded tier's
per-shard threads) take the main thread's innermost open span as parent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.partition as partition_mod
import repro.core.treepi as treepi_mod
import repro.persistence as persistence_mod
import repro.storage.segments as segments_mod
from repro.core.engine import QueryEngine
from repro.core.treepi import TreePiIndex
from repro.serving import ShardedEngine
from repro.storage import PostingList

# A span is [name, start, end, parent span or None, op id, attribute].
Span = List[Any]


def _file_size(result: Any, args: Tuple[Any, ...]) -> int:
    return os.path.getsize(args[0])


def _manifest_size(result: Any, args: Tuple[Any, ...]) -> int:
    return os.path.getsize(os.path.join(args[0], segments_mod.MANIFEST_NAME))


class Tracer:
    """Records spans for every call into the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_id = -1
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._local.stack = self._main_stack
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), 0.0, parent, self.op_id, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attr: Optional[Callable[[Any, Tuple[Any, ...]], Any]] = None,
    ) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if attr is not None:
                span[5] = attr(result, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def _rebind(self, owner: Any, attr_name: str, new: Any) -> None:
        self._restore.append((owner, attr_name, owner.__dict__[attr_name]))
        setattr(owner, attr_name, new)

    def _function(self, module: Any, attr_name: str, name: str, attr=None) -> None:
        self._rebind(module, attr_name, self.wrap(name, getattr(module, attr_name), attr))

    def _method(self, cls: type, attr_name: str, name: str, attr=None) -> None:
        raw = cls.__dict__[attr_name]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self.wrap(name, raw.__func__, attr))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, attr))
        else:
            new = self.wrap(name, raw, attr)
        self._rebind(cls, attr_name, new)

    def install(self) -> None:
        """Wrap every traced entry point where its callers look it up."""
        t = treepi_mod
        self._function(
            t, "run_partitions", "partition",
            lambda run, args: run.sfq_size,
        )
        self._function(
            t, "filter_candidates", "filter",
            lambda outcome, args: len(outcome.candidates),
        )
        self._function(
            t, "center_prune", "prune",
            lambda report, args: (len(args[1]), len(report.survivors)),
        )
        self._function(t, "verify_candidate", "verify.reconstruct")
        self._function(t, "is_subgraph_isomorphic", "verify.direct")
        # Not in repro.core.engine: its query_cache_key calls are cache
        # work, made once per query whatever the partition does.
        for module in (t, partition_mod):
            self._function(module, "tree_canonical_string", "canonical")
        self._method(TreePiIndex, "build", "mining.build")
        self._method(TreePiIndex, "plan", "index.plan")
        self._method(
            TreePiIndex, "verify", "index.verify", lambda ok, args: bool(ok)
        )
        self._method(TreePiIndex, "finish", "index.finish")
        self._method(PostingList, "intersect_many", "posting.intersect_many")
        for op in ("query", "insert", "delete", "compact"):
            self._method(QueryEngine, op, "engine." + op)
        self._method(ShardedEngine, "query", "sharded.query")
        self._method(segments_mod.SegmentStore, "flush", "segments.flush")
        self._function(segments_mod, "write_segment", "segments.write", _file_size)
        self._function(
            segments_mod, "write_manifest", "segments.manifest", _manifest_size
        )
        self._function(persistence_mod, "save_segment_index", "segments.save")
        self._function(persistence_mod, "load_segment_index", "segments.open")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr_name, old = self._restore.pop()
            setattr(owner, attr_name, old)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    @staticmethod
    def dump(spans: List[Span], path: str) -> None:
        """Write ``spans`` as one JSON record per line."""
        ids = {id(span): i for i, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op, attr) in enumerate(spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "op": op,
                }
                if isinstance(attr, (int, float, bool, tuple)):
                    record["attr"] = attr
                out.write(json.dumps(record) + "\n")


def _dur(span: Span) -> float:
    return span[2] - span[1]


def layer_metrics(
    spans: List[Span], queries: int, rounds: int, scale: float
) -> Dict[str, float]:
    """Per-layer figures of one traced timed phase.

    ``queries`` is the number of benchmark query operations and ``rounds``
    the number of whole rounds the phase ran; per-query figures are sums
    over the phase divided by ``queries``.  Times are multiplied by the
    drift ``scale`` of the phase.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
        if span[3] is not None:
            children[id(span[3])].append(span)

    def total_ms(name: str) -> float:
        return 1000.0 * scale * sum(_dur(s) for s in by_name[name])

    def per_query(value: float) -> float:
        return value / queries if queries else 0.0

    out: Dict[str, float] = {}
    plans = by_name["index.plan"]
    augment = 0.0
    for plan in plans:
        inner = sum(
            _dur(c) for c in children[id(plan)]
            if c[0] in ("partition", "filter", "prune")
        )
        augment += _dur(plan) - inner
    parts = by_name["partition"]
    filters = by_name["filter"]
    prunes = by_name["prune"]
    verifies = by_name["index.verify"]
    out["partition.ms"] = per_query(total_ms("partition"))
    out["partition.augment_ms"] = per_query(1000.0 * scale * augment)
    out["partition.canonical_calls"] = per_query(len(by_name["canonical"]))
    out["partition.sfq_size"] = (
        sum(s[5] for s in parts) / len(parts) if parts else 0.0
    )
    out["filter.ms"] = per_query(total_ms("filter"))
    out["filter.candidates"] = (
        sum(s[5] for s in filters) / len(filters) if filters else 0.0
    )
    out["posting.intersect_ms"] = per_query(total_ms("posting.intersect_many"))
    out["posting.intersect_calls"] = per_query(len(by_name["posting.intersect_many"]))
    pruned_in = sum(s[5][0] for s in prunes)
    pruned_out = sum(s[5][1] for s in prunes)
    out["prune.ms"] = per_query(total_ms("prune"))
    out["prune.survivors"] = pruned_out / len(prunes) if prunes else 0.0
    out["prune.refuted_ratio"] = 1.0 - pruned_out / pruned_in if pruned_in else 0.0
    out["verify.ms"] = per_query(total_ms("index.verify"))
    out["verify.calls"] = per_query(len(verifies))
    out["verify.reconstruct_calls"] = per_query(len(by_name["verify.reconstruct"]))
    out["verify.precision"] = (
        sum(1 for s in verifies if s[5]) / len(verifies) if verifies else 0.0
    )

    engine_queries = by_name["engine.query"]
    engine_ms = total_ms("engine.query")
    staged = 1000.0 * scale * sum(
        _dur(c)
        for s in engine_queries
        for c in children[id(s)]
        if c[0] in ("index.plan", "index.verify", "index.finish")
    )
    out["engine.query_ms"] = engine_ms / len(engine_queries) if engine_queries else 0.0
    out["engine.overhead_ms"] = (
        (engine_ms - staged) / len(engine_queries) if engine_queries else 0.0
    )
    attributed = (
        out["partition.ms"] + out["partition.augment_ms"] + out["filter.ms"]
        + out["prune.ms"] + out["verify.ms"]
    ) * queries
    out["trace.attributed_pct"] = 100.0 * attributed / engine_ms if engine_ms else 0.0

    tier = by_name["sharded.query"]
    slowest = gather = 0.0
    for span in tier:
        shard_calls = [c for c in children[id(span)] if c[0] == "engine.query"]
        worst = max((_dur(c) for c in shard_calls), default=0.0)
        slowest += worst
        gather += _dur(span) - worst
    out["sharded.plans_per_query"] = len(plans) / len(tier) if tier else 0.0
    out["sharded.slowest_shard_ms"] = 1000.0 * scale * slowest / len(tier) if tier else 0.0
    out["sharded.gather_overhead_ms"] = 1000.0 * scale * gather / len(tier) if tier else 0.0

    per_round = (lambda v: v / rounds) if rounds else (lambda v: 0.0)
    compactions = by_name["engine.compact"]
    out["segments.flushes"] = per_round(len(by_name["segments.flush"]))
    out["segments.compactions"] = per_round(len(compactions))
    out["segments.compact_ms"] = (
        total_ms("engine.compact") / len(compactions) if compactions else 0.0
    )
    out["segments.bytes_written"] = per_round(
        sum(s[5] for s in by_name["segments.write"])
        + sum(s[5] for s in by_name["segments.manifest"])
    )
    return out
