"""``docqa-dipr``: document QA over a durable context DB, planned as DIPR.

A few long documents are ingested; each request is "stored document + fresh
question", so it reuses the whole document and prefills only the question.
Four requests are kept outstanding in-process (a closed loop: an analyst's
next question waits for an answer).  The GPU budget is too small for the
coarse index, so the optimizer plans a flat first layer and RoarGraph fine
layers, with the ``filter<reused_prefix_length>`` predicate of partial reuse.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from . import oracles
from .workload import Phase, RequestSample, RoundResult, delta, stage_timings

NAME = "docqa-dipr"

SHAPE = {
    "num_docs": 3,
    "doc_tokens": 1024,
    "questions_per_doc": 14,
    "question_tokens": 24,
    "max_new_tokens": 5,
    "outstanding": 4,
}
MODEL = {"dim": 128, "num_layers": 2, "num_query_heads": 8, "num_kv_heads": 2, "hidden_dim": 256}
CONFIG = {
    "window_initial_tokens": 16,
    "window_last_tokens": 64,
    "short_context_threshold": 256,
    "gpu_memory_budget_bytes": 256 * 1024,
    "dipr_beta": 10.0,
    "max_inflight_requests": 4,
}
MODEL_SEED = 11

RECALL_FLOOR = 0.90
"""Mean recall of sampled fine searches against the brute-force beta range."""


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    docs = rng.integers(0, 256, (SHAPE["num_docs"], SHAPE["doc_tokens"]))
    questions = rng.integers(
        0, 256, (SHAPE["num_docs"], SHAPE["questions_per_doc"], SHAPE["question_tokens"])
    )
    return {"docs": docs.tolist(), "questions": questions.tolist()}


def _requests(inputs: dict) -> list[tuple[int, list[int]]]:
    """(document, prompt) in submission order: questions cycle over documents."""
    docs, questions = inputs["docs"], inputs["questions"]
    return [
        (d, docs[d] + questions[d][q])
        for q in range(SHAPE["questions_per_doc"])
        for d in range(SHAPE["num_docs"])
    ]


class Workload:
    name = NAME

    def __init__(self, inputs: dict, workdir, probes):
        from repro.llm.model import ModelConfig, TransformerModel

        self.inputs = inputs
        self.workdir = workdir
        self.probes = probes
        self.model = TransformerModel(ModelConfig(seed=MODEL_SEED, **MODEL))
        self.round = 0
        self.first_round_searches = None
        """Fine searches sampled in round 0, the round the oracles check."""

    def run_round(self, tracer) -> RoundResult:
        from repro.core.config import AlayaDBConfig
        from repro.core.service import InferenceService
        from repro.errors import ReproError

        path = self.workdir / f"docqa-{self.round}"
        self.round += 1
        self.probes.reset()
        ingest = Phase()
        start = time.perf_counter()
        service = InferenceService(
            self.model, AlayaDBConfig(context_db_path=str(path), **CONFIG)
        )
        for d, doc in enumerate(self.inputs["docs"]):
            ingest.attempted += 1
            try:
                service.ingest(doc, context_id=f"doc-{d}")
            except ReproError:
                ingest.failed += 1
        result = RoundResult(setup_s=time.perf_counter() - start)
        result.phases["ingest"] = ingest
        timings_before = stage_timings(service.decode_timings)
        buffer = service.db.buffer_stats
        hits, misses = buffer.hits, buffer.misses
        serve_start = time.perf_counter()
        self._serve(service, result)
        result.serve_s = time.perf_counter() - serve_start

        store = service.db.store_registry
        report = service.memory_report()
        result.stored_bytes = store.backend.total_bytes()
        result.extras = dict(
            delta(stage_timings(service.decode_timings), timings_before),
            buffer_hits=buffer.hits - hits,
            buffer_misses=buffer.misses - misses,
        )
        reused = sum(output["reused"] for output in result.outputs if output is not None)
        result.counts = {
            "generated_tokens": result.generated_tokens,
            "reused_tokens": reused,
            "fine_retrievals": self.probes.fine_calls,
            "graph_hops": self.probes.graph_hops,
            "spills": report["context_spills"],
            "reloads": report["context_reloads"],
        }
        result.problems += self._check_round(result)
        if self.first_round_searches is None:
            self.first_round_searches = self.probes.fine_searches
        shutil.rmtree(path, ignore_errors=True)
        return result

    def _serve(self, service, result: RoundResult) -> None:
        from repro.scheduler.request import RequestState

        requests = _requests(self.inputs)
        serve = result.phases["serve"] = Phase()
        outputs: list = [None] * len(requests)
        live: dict[int, tuple[int, object, RequestSample]] = {}
        next_request = 0
        store = service.db.store_registry
        while next_request < len(requests) or live:
            while next_request < len(requests) and len(live) < SHAPE["outstanding"]:
                _doc, prompt = requests[next_request]
                sample = RequestSample(sent=time.perf_counter())
                handle = service.submit(prompt, max_new_tokens=SHAPE["max_new_tokens"])
                live[handle.request_id] = (next_request, handle, sample)
                next_request += 1
                serve.attempted += 1
            service.step()
            now = time.perf_counter()
            for request_id, (index, handle, sample) in list(live.items()):
                arrived = len(service.generated_tokens(request_id))
                sample.token_times += [now] * (arrived - len(sample.token_times))
                if not handle.is_done:
                    continue
                del live[request_id]
                result.resident_kv_peak_bytes = max(
                    result.resident_kv_peak_bytes, store.resident_kv_bytes
                )
                if handle.status != RequestState.FINISHED or not sample.token_times:
                    serve.failed += 1
                    continue
                generation, record = service.result(handle)
                result.samples.append(sample)
                outputs[index] = {
                    "tokens": [int(t) for t in generation.generated_tokens],
                    "reused": record.reused_tokens,
                }
        result.outputs = outputs

    def _check_round(self, result: RoundResult) -> list[str]:
        """Every request reuses its whole document and decodes through the
        fine layer; the run must walk the graph."""
        problems = []
        for (doc, _prompt), output in zip(_requests(self.inputs), result.outputs):
            if output is not None and output["reused"] != len(self.inputs["docs"][doc]):
                problems.append(
                    f"a request reused {output['reused']} tokens of a "
                    f"{len(self.inputs['docs'][doc])}-token document"
                )
        for plans in self.probes.plans:
            kinds = [plans[layer].index_kind for layer in sorted(plans)]
            if kinds != ["flat"] + ["fine"] * (len(kinds) - 1):
                problems.append(f"planned {kinds}, expected a flat first layer and fine layers")
        if len(self.probes.plans) != len(result.samples):
            problems.append(
                f"{len(self.probes.plans)} layer plans for {len(result.samples)} requests"
            )
        fine_layers = MODEL["num_layers"] - 1
        if self.probes.fine_calls != fine_layers * result.decode_steps:
            problems.append(
                f"{self.probes.fine_calls} fine retrievals for {result.decode_steps} decode "
                f"steps over {fine_layers} fine layer(s)"
            )
        if self.probes.graph_hops == 0:
            problems.append("no graph hops: the fine index was never walked")
        return problems

    def check_outputs(self, outputs: list) -> list[str]:
        searches = self.first_round_searches
        recall = oracles.mean_beta_range_recall(searches)
        print(
            f"recall of {len(searches)} sampled fine searches: "
            f"{recall:.4f} (floor {RECALL_FLOOR})"
        )
        if recall < RECALL_FLOOR:
            return [f"fine-search recall {recall:.4f} is below {RECALL_FLOOR}"]
        return []
