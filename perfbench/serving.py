"""Pieces both served workloads share: the closed-loop client, response
checks, and the fold of traced responses into per-layer times."""

from __future__ import annotations

import time

from perfbench import spans as span_fold
from perfbench.common import median, percentile
from perfbench.oracle import decode_json_array, mismatches

#: Every request gets a deadline; a server that stops answering fails
#: the request instead of hanging the run.
REQUEST_TIMEOUT = 30.0


class Requester:
    """One connection, one request at a time (a closed loop), timed
    from just before the send to just after the reply is parsed."""

    def __init__(self, port: int):
        from repro.serve.client import ServeClient
        # A reset is a failed request here, never silently retried.
        self.client = ServeClient("127.0.0.1", port,
                                  timeout=REQUEST_TIMEOUT,
                                  retry_resets=False)

    def send(self, op: str, **fields) -> tuple[float, dict | None, str]:
        """``(seconds, response or None, error)`` for one request."""
        t0 = time.perf_counter()
        try:
            resp = self.client.request_raw(op, **fields)
        except (OSError, ValueError) as exc:
            self.client.close()
            error = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - t0, None, error
        return time.perf_counter() - t0, resp, ""

    def close(self) -> None:
        self.client.close()


def wait_ready(port: int, timeout: float) -> None:
    """Ping until the server answers (the cluster's readiness)."""
    deadline = time.monotonic() + timeout
    last = ""
    while time.monotonic() < deadline:
        req = Requester(port)
        try:
            _, resp, last = req.send("ping")
            if resp is not None and resp.get("ok"):
                return
        finally:
            req.close()
        time.sleep(0.02)
    raise RuntimeError(f"server on port {port} never answered ping: {last}")


class ProbeClock:
    """Samples the host probe between requests every ``interval``
    seconds: a record of the host's speed during the phase, printed with
    the run so a run on a slow host can be told from a regression."""

    def __init__(self, host, interval: float = 0.5):
        self.host = host
        self.interval = interval
        self.next = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() >= self.next:
            self.host.sample()
            self.next = time.perf_counter() + self.interval


class ResponseChecker:
    """Judge ``run`` responses against simulator references.

    The first answer per (model, input seed) is compared with allclose;
    every later one, on any backend, must repeat its ``output_sha256``.
    """

    def __init__(self, references: dict, tolerance: dict):
        self.references = references   # (model, seed) -> named outputs
        self.tolerance = tolerance
        self.first: dict = {}           # key -> digest of its first answer
        self.wrong: set = set()

    def check(self, key: tuple, resp: dict | None, error: str) -> str | None:
        if resp is None:
            return error or "no response"
        if not resp.get("ok"):
            err = resp.get("error") or {}
            return f"[{err.get('type')}] {err.get('message')}"
        result = resp.get("result") or {}
        digest = result.get("output_sha256")
        if key not in self.first:
            outputs = {name: decode_json_array(value) for name, value
                       in (result.get("outputs") or {}).items()}
            problems = mismatches(outputs, self.references[key],
                                  self.tolerance)
            self.first[key] = digest
            if problems:
                self.wrong.add(key)
                return "; ".join(problems[:3])
            return None
        if self.first[key] != digest:
            return f"output_sha256 of {key} differs from its first answer"
        if key in self.wrong:
            return f"{key} repeats a wrong output"
        return None


class Phase:
    """Timings of the requests of one measured phase."""

    def __init__(self):
        self.rtt: list[float] = []
        self.service: list[float] = []
        self.execute: dict[tuple, list[float]] = {}
        self.vm_hits = self.artifact_hits = self.answered = 0
        #: (rtt, service seconds, span forest) per traced reply
        self.forests: list[tuple[float, float, list]] = []

    def add(self, cell: tuple, rtt: float, resp: dict) -> None:
        meta = resp.get("meta") or {}
        result = resp.get("result") or {}
        self.answered += 1
        self.rtt.append(rtt)
        service = float(meta.get("service_seconds", 0.0))
        self.service.append(service)
        self.execute.setdefault(cell, []).append(
            float(result.get("execute_seconds", 0.0)))
        self.vm_hits += meta.get("vm_cache") == "hit"
        self.artifact_hits += meta.get("artifact_cache") == "hit"
        if "trace" in result:
            self.forests.append((rtt, service, result["trace"]))

    def step_us(self, cells) -> list[float]:
        """Median ``execute_seconds`` (steps = 1) per cell, in µs."""
        return [median(self.execute[c]) * 1e6 for c in cells
                if c in self.execute]


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """Latency and throughput of one untraced phase.  One connection
    waits for each reply, so throughput is requests per second of round
    trip time."""
    n = len(phase.rtt)
    values = {"latency_p50_ms": percentile(phase.rtt, 50) * 1e3,
              "latency_p90_ms": percentile(phase.rtt, 90) * 1e3,
              "throughput_rps": n / sum(phase.rtt)}
    return values, {k: n for k in values}


def layer_times(untraced: Phase, traced: Phase,
                encode_ms: float) -> tuple[dict, dict, dict]:
    """Per-layer medians (ms) from the traced phase's span forests, cache
    hit ratios, the tracing overhead, and the unattributed remainder:
    the mean round trip minus the mean outermost span and the replayed
    response encoding (``encode_ms``), which no span covers.  Also
    returns each span name's mean self time per request (ms).
    """
    per: dict[str, list[float]] = {}

    def add(name: str, seconds: float) -> None:
        per.setdefault(name, []).append(seconds * 1e3)

    self_total: dict[str, float] = {}
    root_wall = []
    for rtt, service, forest in traced.forests:
        wall = span_fold.durations(forest)
        for name, seconds in span_fold.self_times(forest).items():
            self_total[name] = self_total.get(name, 0.0) + seconds
        add("serve.client.outside_worker_ms", rtt - service)
        add("serve.handlers.service_ms", service)
        for layer, span in (("serve.batching.queue_wait_ms", "queue.wait"),
                            ("serve.cache.lookup_ms", "cache.lookup"),
                            ("ir.interp.acquire_ms", "vm.acquire"),
                            ("serve.handlers.codegen_ms", "codegen"),
                            ("serve.cache.store_ms", "cache.store")):
            if span in wall:
                add(layer, wall[span])
        if "pool.execute" in wall and "worker.handle" in wall:
            add("serve.pool.ipc_ms",
                wall["pool.execute"] - wall["worker.handle"])
        if "router.route" in wall and "shard.forward" in wall:
            add("serve.router.overhead_ms",
                wall["router.route"] - wall["shard.forward"])
        # The outermost span: the router's on a cluster, else the
        # server's request span.
        root_wall.append(max(float(n.get("wall_seconds", 0.0))
                             for n in forest))
    values = {name: median(v) for name, v in per.items()}
    samples = {name: len(v) for name, v in per.items()}
    execute = [s for v in traced.execute.values() for s in v]
    values["ir.interp.run_ms"] = median(execute) * 1e3
    samples["ir.interp.run_ms"] = len(execute)
    answered = untraced.answered + traced.answered
    values["serve.vm_cache_hit_ratio"] = (
        (untraced.vm_hits + traced.vm_hits) / answered)
    values["serve.artifact_cache_hit_ratio"] = (
        (untraced.artifact_hits + traced.artifact_hits) / answered)
    values["obs.tracing_overhead_ms"] = (
        percentile(traced.rtt, 50) - percentile(untraced.rtt, 50)) * 1e3
    n = len(traced.forests)
    mean_self = {name: total * 1e3 / n for name, total
                 in sorted(self_total.items())}
    values["serve.unattributed_ms"] = (
        sum(rtt for rtt, _, _ in traced.forests) - sum(root_wall)) \
        * 1e3 / n - encode_ms
    return values, samples, mean_self
