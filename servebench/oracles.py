"""Correctness oracles, each computed apart from the serving path.

* :func:`mean_beta_range_recall` — brute-force NumPy DIPR: for a sampled fine
  search, the exact answer is ``{i < allowed : q·k_i >= max − beta}``; recall
  is the share of it the serving path returned.
* :func:`recompute_mismatches` — greedy decoding of each prompt from scratch
  with a fresh dense cache: no context store, no reuse, no HTTP.
* :func:`token_mismatches` — positions where served tokens differ from a
  reference (the unsharded service for the sharded router).
"""

from __future__ import annotations

import numpy as np


def beta_range_recall(
    keys: np.ndarray, query: np.ndarray, beta: float, allowed: int, returned: np.ndarray
) -> float:
    """Share of the exact beta range over ``keys[:allowed]`` found in ``returned``."""
    scores = keys[:allowed] @ query
    exact = np.flatnonzero(scores >= scores.max() - beta)
    return float(np.isin(exact, returned).mean())


def mean_beta_range_recall(searches) -> float:
    """Mean per-head recall over sampled fine searches (0.0 when none)."""
    recalls = []
    for search in searches:
        for head, returned in enumerate(search.returned):
            keys = search.keys[head // search.gqa_group_size]
            recalls.append(
                beta_range_recall(
                    keys,
                    search.queries[head],
                    search.beta,
                    search.allowed,
                    np.asarray(returned) - search.offset,
                )
            )
    return float(np.mean(recalls)) if recalls else 0.0


def recompute_mismatches(model, cases, max_new_tokens: int) -> list[int]:
    """Indices of ``(prompt, served_tokens)`` cases whose tokens differ from
    greedy decoding of ``prompt`` from scratch."""
    from repro.llm.generation import GenerationLoop

    loop = GenerationLoop(model)
    return [
        index
        for index, (prompt, served) in enumerate(cases)
        if loop.run_tokens(prompt, max_new_tokens=max_new_tokens).generated_tokens != list(served)
    ]


def unsharded_reference(model, config, docs, prompts, max_new_tokens: int) -> list[list[int]]:
    """Tokens an unsharded service over the same documents serves per prompt."""
    from repro.core.service import InferenceService

    service = InferenceService(model, config)
    for d, doc in enumerate(docs):
        service.ingest(doc, context_id=f"doc-{d}")
    return [
        [int(t) for t in service.serve(prompt, max_new_tokens=max_new_tokens)[0].generated_tokens]
        for prompt in prompts
    ]


def token_mismatches(expected, actual) -> list[int]:
    """Indices where two per-request token lists differ.  A request that
    failed (``None`` in ``actual``) served nothing to compare and is skipped;
    the run counts it in ``failed``."""
    if len(expected) != len(actual):
        return list(range(max(len(expected), len(actual))))
    return [
        i
        for i, (e, a) in enumerate(zip(expected, actual))
        if a is not None and list(e) != list(a)
    ]
