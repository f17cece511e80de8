"""The repository benchmark: closed-loop serving workloads with per-layer tracing."""
