"""``sharded-coarse``: context-parallel serving through the sharded router.

Each document is cut into block-aligned shards placed over two workers;
questions arrive one at a time (a closed loop of one caller).  The GPU budget
is large, so the optimizer plans the coarse top-k index: decode fans out to
the shard owners and merges their partial attentions by log-sum-exp.  No fine
walk and no HTTP run here.
"""

from __future__ import annotations

import time

import numpy as np

from . import oracles
from .workload import Phase, RequestSample, RoundResult

NAME = "sharded-coarse"

SHAPE = {
    "num_docs": 3,
    "doc_tokens": 1024,
    "num_shards": 4,
    "num_workers": 2,
    "questions_per_doc": 20,
    "question_tokens": 16,
    "max_new_tokens": 16,
}
MODEL = {"dim": 64, "num_layers": 2, "num_query_heads": 8, "num_kv_heads": 2, "hidden_dim": 128}
CONFIG = {
    "window_initial_tokens": 16,
    "window_last_tokens": 64,
    "short_context_threshold": 256,
    "coarse_block_size": 64,
    "coarse_num_blocks": 4,
}
MODEL_SEED = 17


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    docs = rng.integers(0, 256, (SHAPE["num_docs"], SHAPE["doc_tokens"]))
    questions = rng.integers(
        0, 256, (SHAPE["num_docs"], SHAPE["questions_per_doc"], SHAPE["question_tokens"])
    )
    return {"docs": docs.tolist(), "questions": questions.tolist()}


def _requests(inputs: dict) -> list[tuple[int, list[int]]]:
    docs, questions = inputs["docs"], inputs["questions"]
    return [
        (d, docs[d] + questions[d][q])
        for q in range(SHAPE["questions_per_doc"])
        for d in range(SHAPE["num_docs"])
    ]


class Workload:
    name = NAME

    def __init__(self, inputs: dict, workdir, probes):
        from repro.core.config import AlayaDBConfig
        from repro.llm.model import ModelConfig, TransformerModel

        self.inputs = inputs
        self.probes = probes
        self.model = TransformerModel(ModelConfig(seed=MODEL_SEED, **MODEL))
        self.config = AlayaDBConfig(**CONFIG)

    def run_round(self, tracer) -> RoundResult:
        from repro.errors import ReproError
        from repro.sharding import ShardedContextRouter

        self.probes.reset()
        ingest = Phase()
        start = time.perf_counter()
        router = ShardedContextRouter(
            self.model, num_workers=SHAPE["num_workers"], config=self.config
        )
        for d, doc in enumerate(self.inputs["docs"]):
            ingest.attempted += 1
            try:
                router.ingest(doc, context_id=f"doc-{d}", num_shards=SHAPE["num_shards"])
            except ReproError:
                ingest.failed += 1
        result = RoundResult(setup_s=time.perf_counter() - start)
        result.phases["ingest"] = ingest
        serve = result.phases["serve"] = Phase()
        dbs = [router.db] + [worker.db for worker in router.workers]
        hits = sum(db.buffer_stats.hits for db in dbs)
        misses = sum(db.buffer_stats.misses for db in dbs)
        serve_start = time.perf_counter()
        for d, prompt in _requests(self.inputs):
            serve.attempted += 1
            self.probes.token_times.clear()
            sample = RequestSample(sent=time.perf_counter())
            try:
                generation = router.generate(
                    f"doc-{d}", prompt=prompt, max_new_tokens=SHAPE["max_new_tokens"]
                )
            except ReproError:
                serve.failed += 1
                result.outputs.append(None)
                continue
            sample.token_times = list(self.probes.token_times)
            result.samples.append(sample)
            result.outputs.append([int(t) for t in generation.generated_tokens])
            result.resident_kv_peak_bytes = max(
                result.resident_kv_peak_bytes,
                max(worker.db.store_registry.resident_kv_bytes for worker in router.workers),
            )
        result.serve_s = time.perf_counter() - serve_start

        result.stored_bytes = router.backend.total_bytes()
        owned = [len(worker.owned) for worker in router.workers]
        result.extras = {
            "buffer_hits": sum(db.buffer_stats.hits for db in dbs) - hits,
            "buffer_misses": sum(db.buffer_stats.misses for db in dbs) - misses,
            "max_shards_per_worker": max(owned),
        }
        result.counts = {"generated_tokens": result.generated_tokens}
        result.counts.update({f"shards_worker{i}": n for i, n in enumerate(owned)})
        result.problems += self._check_round(router, owned)
        return result

    def _check_round(self, router, owned: list[int]) -> list[str]:
        """Every document is sharded, every worker owns a shard, and every
        plan is the coarse index."""
        problems = []
        for d in range(SHAPE["num_docs"]):
            shards = router.ref(f"doc-{d}").num_shards
            if shards < SHAPE["num_shards"]:
                problems.append(f"doc-{d} has {shards} shards, expected {SHAPE['num_shards']}")
        if min(owned) == 0:
            problems.append(f"a worker owns no shard: shards per worker {owned}")
        for plans in self.probes.plans:
            kinds = {plan.index_kind for plan in plans.values()}
            if kinds != {"coarse"}:
                problems.append(f"planned {sorted(map(str, kinds))}, expected the coarse index")
                break
        if not self.probes.plans:
            problems.append("the optimizer planned nothing")
        return problems

    def check_outputs(self, outputs: list) -> list[str]:
        requests = _requests(self.inputs)
        reference = oracles.unsharded_reference(
            self.model,
            self.config,
            self.inputs["docs"],
            [prompt for _, prompt in requests],
            SHAPE["max_new_tokens"],
        )
        mismatches = oracles.token_mismatches(reference, outputs)
        print(f"unsharded oracle: {len(outputs) - len(mismatches)}/{len(outputs)} requests match")
        return [f"{len(mismatches)} requests differ from unsharded serving"] if mismatches else []
