"""``chat-spill-http``: multi-turn chat streamed over the HTTP/SSE frontend.

Two client connections each interleave their sessions round-robin and send
each turn together (a turn slot starts once both have their answers); every
session opens with a shared stored preamble and sends its whole transcript
plus a new user message each turn, storing the grown context under the
session's id (a closed loop: a user writes the next message after reading the
answer).  The context-store budget holds only a few live transcripts, so
cold ones spill to disk and reload on their next turn.  Contexts stay below
``short_context_threshold``, so attention is dense and no retrieval runs.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time

import numpy as np

from . import oracles
from .workload import Phase, RequestSample, RoundResult, stage_timings

NAME = "chat-spill-http"

SHAPE = {
    "connections": 2,
    "sessions_per_connection": 8,
    "turns": 6,
    "preamble_tokens": 256,
    "user_tokens": 64,
    "max_new_tokens": 16,
}
MODEL = {"dim": 64, "num_layers": 2, "num_query_heads": 4, "num_kv_heads": 2, "hidden_dim": 128}
CONFIG = {
    "short_context_threshold": 1 << 20,
    "context_store_budget_bytes": 1_500_000,
    "max_inflight_requests": 4,
    "http_port": 0,
}
MODEL_SEED = 13

SETUPS_PER_ROUND = 5
"""Set-up takes ~70 ms, so each round repeats it and reports the median."""


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    preamble = rng.integers(0, 256, SHAPE["preamble_tokens"])
    users = rng.integers(
        0,
        256,
        (
            SHAPE["connections"],
            SHAPE["sessions_per_connection"],
            SHAPE["turns"],
            SHAPE["user_tokens"],
        ),
    )
    return {"preamble": preamble.tolist(), "users": users.tolist()}


def _index(connection: int, session: int, turn: int) -> int:
    return (connection * SHAPE["sessions_per_connection"] + session) * SHAPE["turns"] + turn


def transcripts(inputs: dict, outputs: list):
    """Yield ``(index, prompt, previous transcript length)`` for every turn,
    rebuilding each prompt from the inputs and the served tokens as the
    client sends them.  A failed turn (``None`` output) leaves its session's
    transcript as it was.  The previous length is ``None`` where the turn's
    exact reuse is unknown: on a session's first turn, and after a failed
    turn, whose context may or may not have been stored."""
    for c in range(SHAPE["connections"]):
        for s in range(SHAPE["sessions_per_connection"]):
            transcript = list(inputs["preamble"])
            previous = None
            for t in range(SHAPE["turns"]):
                index = _index(c, s, t)
                prompt = transcript + inputs["users"][c][s][t]
                yield index, prompt, previous
                if outputs[index] is None:
                    previous = None
                    continue
                transcript = prompt + outputs[index]["tokens"]
                previous = len(transcript)


class Workload:
    name = NAME

    def __init__(self, inputs: dict, workdir, probes):
        from repro.llm.model import ModelConfig, TransformerModel

        self.inputs = inputs
        self.workdir = workdir
        self.model = TransformerModel(ModelConfig(seed=MODEL_SEED, **MODEL))
        self.round = 0

    def run_round(self, tracer) -> RoundResult:
        path = self.workdir / f"chat-{self.round}"
        self.round += 1
        try:
            return asyncio.run(self._round(path, tracer))
        finally:
            shutil.rmtree(path, ignore_errors=True)

    async def _round(self, path, tracer) -> RoundResult:
        from repro.core.config import AlayaDBConfig
        from repro.core.service import InferenceService
        from repro.errors import ReproError
        from repro.server import AlayaDBServer, ServerClient

        ingest = Phase()
        setups = []
        for repeat in range(SETUPS_PER_ROUND):
            if repeat:  # tear the last set-up down; only the final one serves
                await server.shutdown()
                shutil.rmtree(path, ignore_errors=True)
            ingest.attempted += 1
            start = time.perf_counter()
            service = InferenceService(
                self.model, AlayaDBConfig(**CONFIG), storage_dir=str(path)
            )
            try:
                service.ingest(self.inputs["preamble"], context_id="preamble")
            except ReproError:
                ingest.failed += 1
            server = AlayaDBServer(service)
            await server.start()
            setups.append(time.perf_counter() - start)
        result = RoundResult(setup_s=statistics.median(setups))
        result.phases["ingest"] = ingest
        result.phases["serve"] = Phase()
        result.outputs = [None] * (
            SHAPE["connections"] * SHAPE["sessions_per_connection"] * SHAPE["turns"]
        )
        if tracer is not None:
            tracer.track_emits = True
        buffer = service.db.buffer_stats
        hits, misses = buffer.hits, buffer.misses
        client = ServerClient(*server.address)
        turn_slot = asyncio.Barrier(SHAPE["connections"])
        serve_start = time.perf_counter()
        await asyncio.gather(
            *(
                self._connection(c, client, service, result, tracer, turn_slot)
                for c in range(SHAPE["connections"])
            )
        )
        result.serve_s = time.perf_counter() - serve_start
        try:
            await server.shutdown()  # asserts check_drained
        except AssertionError as exc:
            result.problems.append(f"after shutdown: {exc}")

        report = service.memory_report()
        result.stored_bytes = service.db.store_registry.backend.total_bytes()
        result.extras = dict(
            stage_timings(service.decode_timings),
            buffer_hits=buffer.hits - hits,
            buffer_misses=buffer.misses - misses,
        )
        result.counts = {
            "generated_tokens": result.generated_tokens,
            "reused_tokens": sum(o["reused"] for o in result.outputs if o is not None),
            "spills": report["context_spills"],
            "reloads": report["context_reloads"],
        }
        result.problems += self._check_round(result)
        return result

    async def _connection(
        self, c: int, client, service, result: RoundResult, tracer, turn_slot
    ) -> None:
        serve = result.phases["serve"]
        store = service.db.store_registry
        sessions = range(SHAPE["sessions_per_connection"])
        transcript = {s: list(self.inputs["preamble"]) for s in sessions}
        for t in range(SHAPE["turns"]):
            for s in sessions:
                # Connections send in step.  Left free, a turn that ends early
                # on EOS shifts their relative phase, and a run then settles
                # either with both prefills in one step (long TTFT, short
                # TPOT) or with each prefill stalling the other's decode (the
                # reverse), which flips TTFT and TPOT between runs.
                await turn_slot.wait()
                prompt = transcript[s] + self.inputs["users"][c][s][t]
                serve.attempted += 1
                sample = RequestSample(sent=time.perf_counter())
                stream, tokens, final = await self._turn(client, prompt, f"chat-c{c}-s{s}", sample, tracer)
                result.resident_kv_peak_bytes = max(
                    result.resident_kv_peak_bytes, store.resident_kv_bytes
                )
                if (
                    stream.status != 200
                    or final is None
                    or final.get("status") != "finished"
                    or final.get("token_ids") != tokens
                    or not tokens
                ):
                    serve.failed += 1
                    continue
                result.samples.append(sample)
                result.outputs[_index(c, s, t)] = {
                    "tokens": tokens,
                    "reused": final["usage"]["reused_tokens"],
                }
                transcript[s] = prompt + tokens

    async def _turn(self, client, prompt, context_id, sample: RequestSample, tracer):
        stream = await client.stream_completion(
            prompt=prompt, max_new_tokens=SHAPE["max_new_tokens"], store_context_id=context_id
        )
        if stream.status != 200:
            await stream.close()
            return stream, [], None
        request_id = stream.request_id
        if tracer is not None:
            tracer.submit_lags_ms.append((tracer.submit_times[request_id] - sample.sent) * 1e3)
        tokens, final = [], None
        async for event in stream.events():
            if "token_id" in event:
                now = time.perf_counter()
                sample.token_times.append(now)
                tokens.append(event["token_id"])
                if tracer is not None:
                    tracer.client_read(request_id, event["index"], now)
            elif event.get("done"):
                final = event
        return stream, tokens, final

    def _check_round(self, result: RoundResult) -> list[str]:
        """Follow-ups reuse the previous transcript minus its unfed last
        token; other turns reuse at least the preamble; the store spills and
        reloads."""
        problems = []
        preamble = len(self.inputs["preamble"])
        for index, _prompt, previous in transcripts(self.inputs, result.outputs):
            output = result.outputs[index]
            if output is None:
                continue
            expected = preamble if previous is None else previous - 1
            reused = output["reused"]
            if (previous is None and reused < expected) or (
                previous is not None and reused != expected
            ):
                problems.append(f"turn {index} reused {reused} tokens, expected {expected}")
        if result.counts["spills"] == 0 or result.counts["reloads"] == 0:
            problems.append(
                f"{result.counts['spills']} spills and {result.counts['reloads']} reloads: "
                "the spill tier was not exercised"
            )
        return problems

    def check_outputs(self, outputs: list) -> list[str]:
        cases = [
            (prompt, outputs[index]["tokens"])
            for index, prompt, _ in transcripts(self.inputs, outputs)
            if outputs[index] is not None
        ]
        mismatches = oracles.recompute_mismatches(self.model, cases, SHAPE["max_new_tokens"])
        print(f"recompute oracle: {len(cases) - len(mismatches)}/{len(cases)} turns match")
        return [f"{len(mismatches)} turns differ from a from-scratch recompute"] if mismatches else []
