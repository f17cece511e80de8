"""What every workload shares: the round record, request timing and probes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .common import Patcher


@dataclass
class RequestSample:
    """Client-side timing of one request: send time and each token's arrival."""

    sent: float
    token_times: list[float] = field(default_factory=list)

    @property
    def ttft_s(self) -> float:
        return self.token_times[0] - self.sent

    @property
    def tpot_s(self) -> float | None:
        """``(last − first) / (tokens − 1)``; ``None`` below two tokens."""
        if len(self.token_times) < 2:
            return None
        return (self.token_times[-1] - self.token_times[0]) / (len(self.token_times) - 1)


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0


@dataclass
class RoundResult:
    """Everything one round measured; rounds of a run repeat the same inputs."""

    setup_s: float
    serve_s: float = 0.0
    samples: list[RequestSample] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    """Per-operation outputs in input order; equal in every round."""
    phases: dict[str, Phase] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    """Deterministic work counts printed by the run and checked for closure."""
    resident_kv_peak_bytes: int = 0
    stored_bytes: int = 0
    extras: dict = field(default_factory=dict)
    """Program counters read over the round, for the per-layer metrics."""
    problems: list[str] = field(default_factory=list)
    """Correctness checks that failed during the round."""
    traced: bool = False

    @property
    def generated_tokens(self) -> int:
        return sum(len(s.token_times) for s in self.samples)

    @property
    def decode_steps(self) -> int:
        return sum(max(len(s.token_times) - 1, 0) for s in self.samples)


def stage_timings(timings) -> dict:
    return {
        "dense_s": timings.dense_seconds,
        "retrieval_s": timings.retrieval_seconds,
        "merge_s": timings.merge_seconds,
    }


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclass
class FineSearch:
    """One fine-layer retrieval sampled from the serving path."""

    keys: np.ndarray
    """``(num_kv_heads, n, head_dim)`` keys the index was built over."""
    queries: np.ndarray
    beta: float
    allowed: int
    """Positions ``< allowed`` may be returned (the plan's predicate)."""
    gqa_group_size: int
    offset: int
    returned: list[np.ndarray]


class Probes:
    """Always-on observation points the end-to-end checks need.

    They count fine retrievals and graph hops, sample fine searches for the
    recall oracle, record the optimizer's plans, and time each token the
    sharded router samples (its ``generate`` has no streaming callback).  Each
    adds one Python call around work that takes milliseconds.
    """

    SAMPLE_EVERY = 8
    """Keep one fine search in this many for the recall oracle."""

    def __init__(self):
        self.patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        """Start a round: drop the last round's counts and samples."""
        self.fine_calls = 0
        self.fine_searches: list[FineSearch] = []
        self.graph_hops = 0
        self.plans: list[dict] = []
        self.token_times: list[float] = []

    def install(self) -> None:
        from repro.core.optimizer import RuleBasedOptimizer
        from repro.core.planner import PlanExecutor
        from repro.sharding import router

        probes = self

        def retrieve_heads(original):
            def wrapper(executor, plan, data, queries, *args, **kwargs):
                outcomes = original(executor, plan, data, queries, *args, **kwargs)
                if str(plan.index_kind) == "fine":
                    probes._fine_search(plan, data, queries, outcomes)
                return outcomes

            return wrapper

        def plan_all_layers(original):
            def wrapper(optimizer, query_context):
                plans = original(optimizer, query_context)
                probes.plans.append(plans)
                return plans

            return wrapper

        def sample_token(original):
            def wrapper(*args, **kwargs):
                token = original(*args, **kwargs)
                probes.token_times.append(time.perf_counter())
                return token

            return wrapper

        self.patcher.wrap(PlanExecutor, "retrieve_heads", retrieve_heads)
        self.patcher.wrap(RuleBasedOptimizer, "plan_all_layers", plan_all_layers)
        self.patcher.wrap(router, "sample_token", sample_token)

    def _fine_search(self, plan, data, queries, outcomes) -> None:
        self.fine_calls += 1
        self.graph_hops += sum(outcome.num_hops for outcome in outcomes)
        if self.fine_calls % self.SAMPLE_EVERY:
            return
        num_tokens = data.keys.shape[1]
        allowed = num_tokens if plan.predicate is None else min(
            plan.predicate.max_position, num_tokens
        )
        self.fine_searches.append(
            FineSearch(
                keys=data.keys,
                queries=np.array(queries, dtype=np.float32),
                beta=float(plan.query.beta),
                allowed=int(allowed),
                gqa_group_size=int(data.gqa_group_size),
                offset=int(data.position_offset),
                returned=[np.array(outcome.positions) for outcome in outcomes],
            )
        )

    def restore(self) -> None:
        self.patcher.restore()
