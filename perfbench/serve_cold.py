"""``serve-cold``: never-seen uploads against a two-shard cluster.

``frodo serve --cluster 2 --workers 1`` answers ``run`` requests
(``auto``, steps 1), each uploading a ``.slx`` that
``repro.corpus.generate_model`` drew from the seed before timing.  Every
request pays the whole chain — ``.slx`` parse, analysis, Algorithm 1
ranges, codegen, fusion and VM build — plus a shared-store miss and
publish, and it is the only workload whose traffic crosses the router.
"""

from __future__ import annotations

import base64
import random
import time

from perfbench import serving
from perfbench.common import RunContext, ServeProcess, geomean, median
from perfbench.oracle import CORPUS_TOLERANCE

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
CLUSTER_SHARDS = 2
#: End-to-end metrics quoted as measured (all are CPU-bound here, so
#: every time is quoted at reference host speed).
RAW_METRICS: frozenset = frozenset()
#: Payloads drawn per measured second: above the rate the cluster
#: sustains, so the deadline, not the payload supply, ends a run.
PAYLOADS_PER_SECOND = 50
#: Requests in each phase of a traced run: fixed, so the compile count
#: is exact.
TRACED_REQUESTS = 120
#: Payloads the in-process replay walks (a fixed prefix, for exact
#: counts).
REPLAYED = 48


def payloads(seed: int, count: int, tmp) -> list[dict]:
    """``count`` seeded corpus models as upload fields, with their input
    seeds and simulator references."""
    from repro.corpus import generate_model
    from repro.model.slx import save_slx
    from repro.sim.simulator import Simulator, random_inputs
    rng = random.Random(seed)
    corpus_seeds = rng.sample(range(10 ** 9), count)
    out = []
    for i, corpus_seed in enumerate(corpus_seeds):
        model = generate_model(corpus_seed)
        path = save_slx(model, tmp / f"cold-{i}.slx")
        input_seed = rng.randrange(2 ** 31)
        sim = Simulator(model)
        reference = sim.run(random_inputs(sim.analyzed, seed=input_seed),
                            steps=1).outputs
        out.append({"fields": {
            "model_payload": base64.b64encode(path.read_bytes()).decode(),
            "model_format": "slx"},
            "seed": input_seed, "key": (corpus_seed, input_seed),
            "reference": reference})
        path.unlink()
    return out


def _launch(ctx: RunContext, index: int) -> tuple[ServeProcess, float]:
    server = ServeProcess(["--port", "0", "--cluster", str(CLUSTER_SHARDS),
                           "--workers", "1",
                           "--cache-dir", str(ctx.tmp / f"cold-{index}")],
                          ctx.root, ctx.env)
    t0 = time.perf_counter()
    server.start()
    try:
        server.wait_output(r"shard s\d+ on ", CLUSTER_SHARDS)
        serving.wait_ready(server.port, timeout=60.0)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


class ColdTraffic:
    """The upload stream: each payload is sent once, in seeded order."""

    def __init__(self, items, checker, ctx: RunContext):
        self.items = items
        self.checker = checker
        self.outcome = ctx.outcome
        self.host = ctx.host
        self.sent = 0

    def run_phase(self, port: int, seconds: float | None, count: int | None,
                  trace: bool = False) -> serving.Phase:
        """Send payloads until the deadline (or ``count`` requests)."""
        phase = serving.Phase()
        req = serving.Requester(port)
        try:
            deadline = time.perf_counter() + (
                seconds if seconds is not None else float("inf"))
            stop = len(self.items) if count is None else min(
                len(self.items), self.sent + count)
            probe = serving.ProbeClock(self.host)
            while time.perf_counter() < deadline and self.sent < stop:
                probe.tick()
                item = self.items[self.sent]
                self.sent += 1
                fields = {**item["fields"], "generator": "frodo",
                          "backend": "auto", "steps": 1,
                          "seed": item["seed"]}
                if trace:
                    fields["trace"] = True
                rtt, resp, error = req.send("run", **fields)
                problem = self.checker.check(item["key"], resp, error)
                if self.outcome.record(problem is None,
                                       f"payload {item['key']}: {problem}"):
                    phase.add(item["key"], rtt, resp)
        finally:
            req.close()
        return phase


def _fleet_compiles(port: int) -> int:
    """Artifact-cache misses summed over the fleet's merged metrics."""
    req = serving.Requester(port)
    try:
        _, resp, error = req.send("metrics", render=False)
    finally:
        req.close()
    if resp is None or not resp.get("ok"):
        raise RuntimeError(f"metrics request failed: {error or resp}")
    rows = resp["result"]["snapshot"].get("cache_events_total", ())
    return sum(int(row["value"]) for row in rows
               if row["labels"].get("cache") == "artifact"
               and row["labels"].get("event") == "miss")


def run(ctx: RunContext) -> tuple[dict, dict]:
    if ctx.smoke:
        count = 8
    elif ctx.trace:
        count = 2 * TRACED_REQUESTS
    else:
        count = int(ctx.seconds * PAYLOADS_PER_SECOND) + 1
    items = payloads(ctx.seed, max(count, REPLAYED if ctx.trace else 0),
                     ctx.tmp)
    checker = serving.ResponseChecker(
        {item["key"]: item["reference"] for item in items},
        CORPUS_TOLERANCE)
    traffic = ColdTraffic(items, checker, ctx)

    setups = 1 if ctx.trace or ctx.smoke else SETUPS
    setup_seconds = []
    server = None
    try:
        for index in range(setups):
            if server is not None:
                server.stop(ctx.outcome)
            server, elapsed = _launch(ctx, index)
            setup_seconds.append(elapsed)
        if not ctx.trace:
            phase = traffic.run_phase(server.port, ctx.seconds,
                                      count if ctx.smoke else None)
            rss = server.peak_rss_mb()
        else:
            per_phase = count // 2
            untraced = traffic.run_phase(server.port, None, per_phase)
            traced = traffic.run_phase(server.port, None, per_phase,
                                       trace=True)
            compiles = _fleet_compiles(server.port)
    finally:
        if server is not None:
            server.stop(ctx.outcome)

    ctx.report.note(f"serve-cold: {traffic.sent} of {len(items)} payloads "
                    "sent; set-ups "
                    + ", ".join(f"{s:.2f}" for s in setup_seconds) + " s")
    if not ctx.trace:
        if traffic.sent >= len(items):
            ctx.report.note("serve-cold: payload supply ran out before "
                            "the deadline")
        values, samples = serving.end_to_end(phase)
        auto = phase.step_us(list(phase.execute))
        values.update({"setup_s": median(setup_seconds),
                       "step_us.auto": geomean(auto),
                       "step_us.all": geomean(auto),
                       "peak_rss_mb": rss})
        samples.update({"setup_s": len(setup_seconds),
                        "step_us.auto": len(auto), "step_us.all": len(auto),
                        "peak_rss_mb": 1})
        return values, samples

    from perfbench.replay import replay
    entries = [(item["fields"], item["seed"]) for item in items[:REPLAYED]]
    replayed, replay_samples = replay(entries, ctx.tmp, ctx.host)
    values, samples, mean_self = serving.layer_times(
        untraced, traced, replayed["serve.protocol.encode_ms"])
    values.update(replayed)
    samples.update(replay_samples)
    for name, ms in mean_self.items():
        ctx.report.note(f"  self time {name:32s} {ms:9.4f} ms/request")
    values["serve.store.compiles"] = compiles
    ctx.report.note(f"serve-cold: {compiles} fleet compiles for "
                    f"{untraced.answered + traced.answered} distinct "
                    "payloads answered")
    return values, samples
