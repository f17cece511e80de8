"""The repository benchmark: closed-loop serving workloads over the real stack.

    python3 servebench/run.py --workload docqa-dipr --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload for about ``--seconds``: it stops at the
round boundary nearest to it, after at least three rounds and 100 requests.
Every round sets the stack up afresh and replays the same seeded inputs, so
its outputs must equal the first round's.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics, with
the traced rounds' slowdown as ``trace.overhead_pct``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A failed correctness or closure check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".servebench"
WORKLOADS = ("docqa-dipr", "chat-spill-http", "sharded-coarse")
MIN_ROUNDS = 3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p90_ms", "ms"),
    ("output_tok_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("resident_kv_peak_mib", "MiB"),
    ("stored_mib", "MiB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(rounds, peak_rss) -> dict:
    from servebench.common import MIB, p90, percentile

    samples = [s for r in rounds for s in r.samples]
    ttft = [s.ttft_s * 1e3 for s in samples]
    tpot = [s.tpot_s * 1e3 for s in samples if s.tpot_s is not None]
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ttft_p50_ms": percentile(ttft, 50),
        "ttft_p90_ms": p90(ttft),
        "tpot_p50_ms": percentile(tpot, 50),
        "tpot_p90_ms": p90(tpot),
        "output_tok_s": sum(r.generated_tokens for r in rounds) / sum(r.serve_s for r in rounds),
        "peak_rss_mib": peak_rss,
        "resident_kv_peak_mib": max(r.resident_kv_peak_bytes for r in rounds) / MIB,
        "stored_mib": rounds[-1].stored_bytes / MIB,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer, rounds) -> dict:
    from servebench.tracing import layer_metrics

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    extras: dict = {}
    for r in traced:
        for key, value in r.extras.items():
            merge = max if key.startswith("max_") else (lambda a, b: a + b)
            extras[key] = merge(extras[key], value) if key in extras else value
    extras["overhead_pct"] = 100.0 * (
        statistics.median(r.serve_s for r in traced)
        / statistics.median(r.serve_s for r in untraced)
        - 1.0
    )
    decode_steps = sum(r.decode_steps for r in traced)
    return layer_metrics(tracer, len(traced), decode_steps, extras)


def run(args) -> int:
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401  (the program under test, built from src/)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from servebench import chat, docqa, sharded
    from servebench.common import P90_MIN_SAMPLES, digest, peak_rss_mib
    from servebench.tracing import Tracer, install
    from servebench.workload import Probes

    modules = {m.NAME: m for m in (docqa, chat, sharded)}
    inputs = {name: module.make_inputs(args.seed) for name, module in modules.items()}
    for name in WORKLOADS:
        print(f"inputs {name} seed {args.seed} sha256 {digest(inputs[name])}")

    WORKDIR.mkdir(exist_ok=True)
    probes = Probes()
    probes.install()
    workload = modules[args.workload].Workload(inputs[args.workload], WORKDIR, probes)
    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            patcher = install(tracer) if traced else None
            try:
                result = workload.run_round(tracer if traced else None)
            finally:
                if patcher is not None:
                    patcher.restore()
            result.traced = traced
            rounds.append(result)
            if len(rounds) == MIN_ROUNDS:
                # a run's round count follows the host's speed; the peak of
                # a fixed number of rounds does not
                peak_rss = peak_rss_mib()
            done = sum(len(r.samples) for r in rounds)
            elapsed = time.perf_counter() - start
            # stop at the round boundary nearest to --seconds
            if (
                len(rounds) >= MIN_ROUNDS
                and done >= P90_MIN_SAMPLES
                and elapsed + elapsed / len(rounds) / 2 >= args.seconds
            ):
                break
        problems = [p for r in rounds for p in r.problems]
        for index, r in enumerate(rounds[1:], start=1):
            if r.outputs != rounds[0].outputs:
                problems.append(f"round {index} outputs differ from round 0 on the same inputs")
        problems += workload.check_outputs(rounds[0].outputs)
    finally:
        probes.restore()

    attempted = failed = 0
    for phase in rounds[0].phases:
        tried = sum(r.phases[phase].attempted for r in rounds)
        missed = sum(r.phases[phase].failed for r in rounds)
        attempted, failed = attempted + tried, failed + missed
        print(f"phase {phase}: attempted {tried} failed {missed}")
    for index, r in enumerate(rounds):
        counts = " ".join(f"{key}={value}" for key, value in r.counts.items())
        label = "traced" if r.traced else "untraced"
        print(f"round {index} ({label}) setup {r.setup_s:.3f}s serve {r.serve_s:.3f}s {counts}")
    if tracer is not None:
        metrics = per_layer_metrics(tracer, rounds)
        tracer.dump(WORKDIR / f"trace-{args.workload}.json")
    else:
        metrics = end_to_end_metrics(rounds, peak_rss)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
