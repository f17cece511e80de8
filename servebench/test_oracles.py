"""The benchmark's correctness oracles accept correct outputs and reject
deliberately corrupted ones; its inputs are a pure function of the seed.

    PYTHONPATH=src python -m pytest servebench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.generation import GenerationLoop
from repro.llm.model import ModelConfig, TransformerModel
from repro.sharding import ShardedContextRouter
from servebench import chat, docqa, oracles, sharded
from servebench.common import digest
from servebench.workload import FineSearch


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(ModelConfig.tiny(seed=5))


def _exact_search(rng, num_tokens=300, allowed=240, beta=1.5) -> FineSearch:
    keys = rng.standard_normal((2, num_tokens, 8)).astype(np.float32)
    queries = rng.standard_normal((4, 8)).astype(np.float32)
    returned = []
    for head in range(4):
        scores = keys[head // 2][:allowed] @ queries[head]
        returned.append(np.flatnonzero(scores >= scores.max() - beta))
    return FineSearch(keys, queries, beta, allowed, 2, 0, returned)


def test_recall_oracle_rejects_a_truncated_result_set():
    search = _exact_search(np.random.default_rng(0))
    assert oracles.mean_beta_range_recall([search]) == 1.0
    assert all(len(r) >= 2 for r in search.returned)
    search.returned = [r[: len(r) // 2] for r in search.returned]
    assert oracles.mean_beta_range_recall([search]) < docqa.RECALL_FLOOR


def test_recompute_oracle_rejects_a_one_token_change(model):
    rng = np.random.default_rng(2)
    stored = [int(t) for t in rng.integers(0, 256, 96)]
    prompt = stored + [int(t) for t in rng.integers(0, 256, 8)]
    config = AlayaDBConfig(short_context_threshold=1 << 20)
    service = InferenceService(model, config)
    service.ingest(stored, context_id="stored")
    served, record = service.serve(prompt, max_new_tokens=6)
    assert record.reused_tokens == len(stored)
    tokens = list(served.generated_tokens)
    assert oracles.recompute_mismatches(model, [(prompt, tokens)], 6) == []
    tokens[3] = (tokens[3] + 1) % 256
    assert oracles.recompute_mismatches(model, [(prompt, tokens)], 6) == [0]


def test_unsharded_oracle_rejects_a_swapped_token(model):
    rng = np.random.default_rng(3)
    doc = [int(t) for t in rng.integers(0, 256, 256)]
    prompts = [doc + [int(t) for t in rng.integers(0, 256, 6)] for _ in range(2)]
    config = AlayaDBConfig(
        short_context_threshold=64, coarse_block_size=32, coarse_num_blocks=2,
        window_initial_tokens=8, window_last_tokens=16,
    )
    router = ShardedContextRouter(model, num_workers=2, config=config)
    router.ingest(doc, context_id="doc-0", num_shards=2)
    served = [
        [int(t) for t in router.generate("doc-0", prompt=p, max_new_tokens=6).generated_tokens]
        for p in prompts
    ]
    reference = oracles.unsharded_reference(model, config, [doc], prompts, 6)
    assert oracles.token_mismatches(reference, served) == []
    tokens = served[1]
    first = next(i for i in range(len(tokens) - 1) if tokens[i] != tokens[i + 1])
    tokens[first], tokens[first + 1] = tokens[first + 1], tokens[first]
    assert oracles.token_mismatches(reference, served) == [1]


def test_failed_operations_are_skipped_not_compared(monkeypatch):
    """A failed operation has a ``None`` output; the run counts it in
    ``failed``, and the oracles compare only what was served, as the client
    sent it.  (The recall oracle reads sampled searches, not outputs.)"""
    assert oracles.token_mismatches([[1, 2], [3, 4]], [None, [3, 4]]) == []
    assert oracles.token_mismatches([[1, 2], [3, 4]], [None, [4, 3]]) == [1]

    small = dict(
        chat.SHAPE, connections=1, sessions_per_connection=1, turns=3,
        preamble_tokens=16, user_tokens=4, max_new_tokens=3,
    )
    monkeypatch.setattr(chat, "SHAPE", small)
    inputs = chat.make_inputs(1)
    workload = chat.Workload(inputs, None, None)
    loop = GenerationLoop(workload.model)
    # turn 1 fails, so turn 2 is sent after turn 0's transcript
    outputs = [None] * 3
    transcript = inputs["preamble"]
    for turn in (0, 2):
        prompt = transcript + inputs["users"][0][0][turn]
        tokens = list(loop.run_tokens(prompt, max_new_tokens=3).generated_tokens)
        outputs[turn] = {"tokens": tokens, "reused": 0}
        transcript = prompt + tokens
    rebuilt = list(chat.transcripts(inputs, outputs))
    assert rebuilt[2][1] == transcript[:-3]
    assert [previous for _, _, previous in rebuilt] == [None, 16 + 4 + 3, None]
    assert workload.check_outputs(outputs) == []


@pytest.mark.parametrize("module", [docqa, chat, sharded])
def test_inputs_are_a_pure_function_of_the_seed(module):
    assert digest(module.make_inputs(7)) == digest(module.make_inputs(7))
    assert digest(module.make_inputs(7)) != digest(module.make_inputs(8))
