"""Per-layer tracing from outside the program.

Spans are recorded by wrapping the public functions and methods at each layer
boundary of the serving path (and, where a module imported a function by
name, that module's reference).  Nothing under ``src/`` changes: the wrappers
are installed for a traced round and removed after it, so untraced rounds run
the program's own functions.

Each span has a name, start, end, the name of the span that caused it (the
innermost open span when it started) and a few attributes: byte counts, batch
sizes, request ids.  A layer's self time is its duration minus what its child
spans cover (:meth:`Tracer.self_times`).
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from .common import MIB, Patcher, percentile


@dataclass
class Span:
    name: str
    parent: str | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder plus the HTTP token bookkeeping."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.current_request = None
        """Request the running prefill chunk or router generate belongs to."""
        self._request_ids = itertools.count()
        self.submit_times: dict[int, float] = {}
        self._spill_starts: dict[int, float] = {}
        # HTTP emit lag: when the step that produced token (rid, index) ended
        self.track_emits = False
        self._emitted: dict[int, int] = {}
        self.token_ready: dict[tuple[int, int], float] = {}
        # client-side samples reported by the HTTP workload
        self.submit_lags_ms: list[float] = []
        self.emit_lags_ms: list[float] = []
        self.sse_events = 0

    def traced(self, name: str, original, before=None, after=None):
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1].name if self._stack else None)
            span.start = time.perf_counter()
            if before is not None:
                before(span, args)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """A span measured across calls rather than around one."""
        self.spans.append(Span(name, None, start, end, attrs))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time covered by its child spans."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
            if span.parent is not None:
                totals[span.parent] -= span.end - span.start
        return dict(totals)

    def dump(self, path) -> None:
        summary = defaultdict(lambda: {"count": 0, "total_s": 0.0})
        for span in self.spans:
            summary[span.name]["count"] += 1
            summary[span.name]["total_s"] += span.end - span.start
        for name, seconds in self.self_times().items():
            summary[name]["self_s"] = seconds
        with open(path, "w") as handle:
            json.dump(dict(sorted(summary.items())), handle, indent=1)

    # ------------------------------------------------------------------
    # hooks that need state across calls
    # ------------------------------------------------------------------
    def _on_submit(self, span, args, handle) -> None:
        self.submit_times[handle.request_id] = span.end
        if self.track_emits:
            self._emitted[handle.request_id] = 0

    def _on_begin(self, span, args) -> None:
        request = args[1]
        submitted = self.submit_times.get(request.request_id)
        if submitted is not None:
            span.attrs["wait_ms"] = (span.start - submitted) * 1e3

    def _on_step(self, span, args, result) -> None:
        if not self._emitted:
            return
        service = args[0]
        for request_id, known in list(self._emitted.items()):
            tokens = service.generated_tokens(request_id)
            for index in range(known, len(tokens)):
                self.token_ready[(request_id, index)] = span.end
            self._emitted[request_id] = len(tokens)
        for request_id in result:
            self._emitted.pop(request_id, None)

    def client_read(self, request_id: int, index: int, when: float) -> None:
        """The HTTP client read token ``index`` of ``request_id`` at ``when``."""
        self.sse_events += 1
        ready = self.token_ready.pop((request_id, index), None)
        if ready is not None:
            self.emit_lags_ms.append((when - ready) * 1e3)

    def _set_request(self, span, args) -> None:
        self.current_request = args[1].request.request_id

    def _new_request(self, span, args) -> None:
        self.current_request = f"generate-{next(self._request_ids)}"

    def _clear_request(self, span, args, result) -> None:
        self.current_request = None

    def _on_prefill(self, span, args) -> None:
        span.attrs["tokens"] = len(args[1])
        span.attrs["request"] = self.current_request

    def _on_snapshot_to_bytes(self, span, args, result) -> None:
        span.attrs["bytes"] = len(result)
        # a spill starts by serializing the snapshot it is about to drop
        self._spill_starts[id(args[0])] = span.start

    def _on_context_spill(self, span, args) -> None:
        span.attrs["spill_start"] = self._spill_starts.pop(id(args[0].snapshot), span.start)

    def _after_context_spill(self, span, args, result) -> None:
        self.record("core.spill", span.attrs["spill_start"], span.end)

    def _end_store_call(self, span, args, result) -> None:
        # a snapshot serialized by a durable add or an explicit persist is
        # not a spill; forget it once the public store call that wrote it ends
        self._spill_starts.clear()

    def _before_ensure_resident(self, span, args) -> None:
        store, context_id = args[0], args[1]
        span.attrs["was_resident"] = context_id in store.resident_ids()

    def _after_ensure_resident(self, span, args, result) -> None:
        self._end_store_call(span, args, result)
        if not span.attrs["was_resident"]:
            spilled = 0.0
            for s in reversed(self.spans):
                if s.end < span.start:
                    break
                if s.name == "core.spill":
                    spilled += s.end - s.start
            self.record("core.reload", span.start, span.end - spilled)


def _attr(key, fn):
    def after(span, args, result):
        span.attrs[key] = fn(args, result)

    return after


def _retrieval_attrs(span, args, outcomes) -> None:
    plan = args[1]
    span.attrs.update(
        kind=str(plan.index_kind),
        heads=len(outcomes),
        selected=sum(o.num_selected for o in outcomes),
        distance=sum(o.num_distance_computations for o in outcomes),
        hops=sum(o.num_hops for o in outcomes),
    )


def _block_score_attrs(span, args, result) -> None:
    index = args[0]
    span.attrs["distance"] = (
        int(result.shape[0]) * index.num_blocks * index.num_representatives
    )


def _plan_attrs(span, args, plans) -> None:
    for plan in plans.values():
        if plan.is_full_attention:
            kind = "dense"
        else:
            kind = str(plan.index_kind)
        span.attrs[kind] = span.attrs.get(kind, 0) + 1
        if plan.predicate is not None:
            span.attrs["filtered"] = span.attrs.get("filtered", 0) + 1


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary the per-layer metrics read; returns the
    patcher whose ``restore()`` removes the wrappers."""
    from repro.core import context_store
    from repro.core.attention_engine import DataCentricAttentionEngine
    from repro.core.context_store import ContextStore, StoredContext
    from repro.core.db import DB
    from repro.core.optimizer import RuleBasedOptimizer
    from repro.core.planner import PlanExecutor
    from repro.core.service import InferenceService
    from repro.index.coarse import CoarseBlockIndex
    from repro.index.roargraph import RoarGraphIndex
    from repro.llm.model import TransformerModel
    from repro.sharding.router import ShardedContextRouter, ShardWorker
    from repro.storage.backend import FilesystemBackend, InMemoryBackend
    from repro.storage.manifest import ContextManifest

    t = tracer
    patcher = Patcher()

    def wrap(owner, attr, name, before=None, after=None):
        patcher.wrap(owner, attr, lambda original: t.traced(name, original, before, after))

    # scheduler
    wrap(InferenceService, "step", "scheduler.step", after=t._on_step)
    wrap(InferenceService, "submit", "scheduler.submit", after=t._on_submit)
    wrap(InferenceService, "begin_request", "scheduler.begin", before=t._on_begin)
    wrap(InferenceService, "decode_batch", "scheduler.decode_batch",
         after=_attr("batch", lambda args, _: len(args[1])))
    wrap(InferenceService, "decode_step", "scheduler.decode_batch",
         after=_attr("batch", lambda args, _: 1))
    # llm
    wrap(InferenceService, "prefill_chunk", "llm.prefill_chunk",
         before=t._set_request, after=t._clear_request)
    wrap(ShardedContextRouter, "generate", "sharding.generate",
         before=t._new_request, after=t._clear_request)
    wrap(TransformerModel, "prefill", "llm.prefill", before=t._on_prefill)
    wrap(TransformerModel, "decode_batch", "llm.decode",
         after=_attr("tokens", lambda args, _: len(args[1])))
    wrap(TransformerModel, "decode_step", "llm.decode", after=_attr("tokens", lambda *_: 1))
    # core
    wrap(RuleBasedOptimizer, "plan_all_layers", "core.plan", after=_plan_attrs)
    wrap(InferenceService, "ingest", "core.ingest")
    wrap(DB, "create_session", "core.create_session",
         after=_attr("reused", lambda _, result: result[0].reused_prefix_length))
    wrap(DB, "store", "core.store")
    wrap(StoredContext, "spill", "core.drop_snapshot",
         before=t._on_context_spill, after=t._after_context_spill)
    wrap(ContextStore, "ensure_resident", "core.ensure_resident",
         before=t._before_ensure_resident, after=t._after_ensure_resident)
    for method in ("add", "persist", "spill"):
        wrap(ContextStore, method, f"core.store_{method}", after=t._end_store_call)
    # query
    wrap(PlanExecutor, "retrieve_heads", "query.retrieve", after=_retrieval_attrs)
    wrap(CoarseBlockIndex, "block_scores_batch", "query.block_scores", after=_block_score_attrs)
    # index
    wrap(RoarGraphIndex, "build", "index.roargraph_build")
    wrap(CoarseBlockIndex, "build", "index.coarse_build")
    wrap(context_store, "serialize_context_indexes", "index.serialize")
    wrap(context_store, "deserialize_context_indexes", "index.deserialize")
    # kvcache
    wrap(context_store, "snapshot_to_bytes", "kvcache.serialize", after=t._on_snapshot_to_bytes)
    wrap(context_store, "snapshot_from_bytes", "kvcache.deserialize")
    # storage
    for backend in (FilesystemBackend, InMemoryBackend):
        wrap(backend, "write_bytes", "storage.write",
             after=_attr("bytes", lambda args, _: len(args[2])))
        wrap(backend, "read_bytes", "storage.read")
    wrap(ContextManifest, "save", "storage.manifest_save")
    # sharding
    wrap(ShardedContextRouter, "ingest", "sharding.ingest")
    wrap(DB, "shard_context", "sharding.shard_context")
    for method in ("window_seed", "retrieve", "coarse_block_scores", "attend", "attend_dense"):
        wrap(ShardWorker, method, "sharding.worker")
    wrap(DataCentricAttentionEngine, "merge_sharded_partials", "sharding.merge")
    wrap(CoarseBlockIndex, "top_blocks_from_scores", "sharding.merge")
    return patcher


PER_LAYER = [
    ("scheduler.steps", "count"),
    ("scheduler.step_ms_p50", "ms"),
    ("scheduler.decode_batch_mean", "count"),
    ("scheduler.queue_wait_ms_p50", "ms"),
    ("llm.prefill_tokens", "count"),
    ("llm.prefill_ms_per_request_p50", "ms"),
    ("llm.decode_ms_per_token_p50", "ms"),
    ("core.dense_s_per_token", "s"),
    ("core.retrieval_s_per_token", "s"),
    ("core.merge_s_per_token", "s"),
    ("core.plans_flat", "count"),
    ("core.plans_fine", "count"),
    ("core.plans_filtered", "count"),
    ("core.plans_coarse", "count"),
    ("core.plans_dense", "count"),
    ("core.ingest_s", "s"),
    ("core.reused_tokens", "count"),
    ("core.store_ms_p50", "ms"),
    ("core.spills", "count"),
    ("core.reloads", "count"),
    ("core.spill_ms_p50", "ms"),
    ("core.reload_ms_p50", "ms"),
    ("query.fine_ms_per_token", "ms"),
    ("query.flat_ms_per_token", "ms"),
    ("query.coarse_ms_per_token", "ms"),
    ("query.distance_computations_per_token", "count"),
    ("query.graph_hops_per_token", "count"),
    ("query.selected_per_head", "count"),
    ("index.roargraph_builds", "count"),
    ("index.roargraph_build_s", "s"),
    ("index.coarse_build_s", "s"),
    ("index.serialize_ms_p50", "ms"),
    ("index.deserialize_ms_p50", "ms"),
    ("kvcache.serialize_ms_p50", "ms"),
    ("kvcache.deserialize_ms_p50", "ms"),
    ("kvcache.serialized_mib", "MiB"),
    ("storage.writes", "count"),
    ("storage.write_mib", "MiB"),
    ("storage.write_ms_p50", "ms"),
    ("storage.reads", "count"),
    ("storage.read_ms_p50", "ms"),
    ("storage.manifest_saves", "count"),
    ("storage.buffer_hits", "count"),
    ("storage.buffer_misses", "count"),
    ("server.submit_lag_ms_p50", "ms"),
    ("server.emit_lag_ms_p50", "ms"),
    ("server.sse_events", "count"),
    ("sharding.ingest_s", "s"),
    ("sharding.shard_context_s", "s"),
    ("sharding.fanout_calls_per_token", "count"),
    ("sharding.worker_ms_per_token", "ms"),
    ("sharding.merge_ms_per_token", "ms"),
    ("sharding.max_shards_per_worker", "count"),
    ("trace.overhead_pct", "%"),
]
"""Per-layer metrics, in print order.  Counts and totals are per traced
round; ``per_token`` divides by the decode steps (tokens after each request's
first) of the traced rounds."""


def layer_metrics(tracer: Tracer, rounds: int, decode_steps: int, extras: dict) -> dict:
    """Per-layer metric values from the traced rounds' spans.

    ``extras`` carries what the workload reads from the program's own public
    counters over the traced rounds: StageTimings deltas (``dense_s``,
    ``retrieval_s``, ``merge_s``), buffer-pool deltas (``buffer_hits``,
    ``buffer_misses``), ``max_shards_per_worker`` and ``overhead_pct``.
    """
    spans = tracer.spans
    steps = max(decode_steps, 1)

    def ms(name, where=lambda s: True):
        return [s.ms for s in spans if s.name == name and where(s)]

    def count(name, where=lambda s: True):
        return sum(1 for s in spans if s.name == name and where(s))

    def total(name, key=None, where=lambda s: True):
        return sum(
            (s.attrs.get(key, 0) if key else s.end - s.start)
            for s in spans
            if s.name == name and where(s)
        )

    def kind(k):
        return lambda s: s.attrs.get("kind") == k

    def outside_retrieval(s):
        return s.parent != "query.retrieve"

    batches = [s.attrs["batch"] for s in spans if s.name == "scheduler.decode_batch"]
    prefill_by_request: dict = defaultdict(float)
    for s in spans:
        if s.name == "llm.prefill" and s.attrs.get("request") is not None:
            prefill_by_request[s.attrs["request"]] += s.ms
    decode_per_token = [s.ms / s.attrs["tokens"] for s in spans if s.name == "llm.decode"]
    heads = total("query.retrieve", "heads")
    coarse_s = total("query.retrieve", where=kind("coarse")) + total(
        "query.block_scores", where=outside_retrieval
    )
    distance = total("query.retrieve", "distance") + total(
        "query.block_scores", "distance", where=outside_retrieval
    )
    values = {
        "scheduler.steps": count("scheduler.step") / rounds,
        "scheduler.step_ms_p50": percentile(ms("scheduler.step"), 50),
        "scheduler.decode_batch_mean": sum(batches) / len(batches) if batches else 0.0,
        "scheduler.queue_wait_ms_p50": percentile(
            [s.attrs["wait_ms"] for s in spans if "wait_ms" in s.attrs], 50
        ),
        "llm.prefill_tokens": total("llm.prefill", "tokens") / rounds,
        "llm.prefill_ms_per_request_p50": percentile(prefill_by_request.values(), 50),
        "llm.decode_ms_per_token_p50": percentile(decode_per_token, 50),
        "core.dense_s_per_token": extras.get("dense_s", 0.0) / steps,
        "core.retrieval_s_per_token": extras.get("retrieval_s", 0.0) / steps,
        "core.merge_s_per_token": extras.get("merge_s", 0.0) / steps,
        "core.ingest_s": total("core.ingest") / rounds,
        "core.reused_tokens": total("core.create_session", "reused") / rounds,
        "core.store_ms_p50": percentile(ms("core.store"), 50),
        "core.spills": count("core.spill") / rounds,
        "core.reloads": count("core.reload") / rounds,
        "core.spill_ms_p50": percentile(ms("core.spill"), 50),
        "core.reload_ms_p50": percentile(ms("core.reload"), 50),
        "query.fine_ms_per_token": total("query.retrieve", where=kind("fine")) * 1e3 / steps,
        "query.flat_ms_per_token": total("query.retrieve", where=kind("flat")) * 1e3 / steps,
        "query.coarse_ms_per_token": coarse_s * 1e3 / steps,
        "query.distance_computations_per_token": distance / steps,
        "query.graph_hops_per_token": total("query.retrieve", "hops") / steps,
        "query.selected_per_head": total("query.retrieve", "selected") / heads if heads else 0.0,
        "index.roargraph_builds": count("index.roargraph_build") / rounds,
        "index.roargraph_build_s": total("index.roargraph_build") / rounds,
        "index.coarse_build_s": total("index.coarse_build") / rounds,
        "index.serialize_ms_p50": percentile(ms("index.serialize"), 50),
        "index.deserialize_ms_p50": percentile(ms("index.deserialize"), 50),
        "kvcache.serialize_ms_p50": percentile(ms("kvcache.serialize"), 50),
        "kvcache.deserialize_ms_p50": percentile(ms("kvcache.deserialize"), 50),
        "kvcache.serialized_mib": total("kvcache.serialize", "bytes") / rounds / MIB,
        "storage.writes": count("storage.write") / rounds,
        "storage.write_mib": total("storage.write", "bytes") / rounds / MIB,
        "storage.write_ms_p50": percentile(ms("storage.write"), 50),
        "storage.reads": count("storage.read") / rounds,
        "storage.read_ms_p50": percentile(ms("storage.read"), 50),
        "storage.manifest_saves": count("storage.manifest_save") / rounds,
        "storage.buffer_hits": extras.get("buffer_hits", 0) / rounds,
        "storage.buffer_misses": extras.get("buffer_misses", 0) / rounds,
        "server.submit_lag_ms_p50": percentile(tracer.submit_lags_ms, 50),
        "server.emit_lag_ms_p50": percentile(tracer.emit_lags_ms, 50),
        "server.sse_events": tracer.sse_events / rounds,
        "sharding.ingest_s": total("sharding.ingest") / rounds,
        "sharding.shard_context_s": total("sharding.shard_context") / rounds,
        "sharding.fanout_calls_per_token": count("sharding.worker") / steps,
        "sharding.worker_ms_per_token": total("sharding.worker") * 1e3 / steps,
        "sharding.merge_ms_per_token": total("sharding.merge", where=outside_retrieval) * 1e3 / steps,
        "sharding.max_shards_per_worker": extras.get("max_shards_per_worker", 0),
        "trace.overhead_pct": extras.get("overhead_pct", 0.0),
    }
    for plan_kind in ("flat", "fine", "coarse", "dense", "filtered"):
        values[f"core.plans_{plan_kind}"] = total("core.plan", plan_kind) / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
