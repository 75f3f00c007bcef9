"""``serve-hot``: warm ``run`` requests against ``frodo serve``.

The server runs with its defaults (two pool workers, coalescing on) and
a fresh cache directory.  One closed-loop connection asks for every zoo
model on ``auto`` and ``native`` (steps 1, outputs included) with input
seeds cycling.  Timing starts once each of the 26 keys has answered
with ``meta.vm_cache == "hit"``, so every request measured is a repeat:
transport, the coalescing queue, pool IPC and handler bookkeeping, with
``vm.run`` a small share.
"""

from __future__ import annotations

import random
import time

from perfbench import serving
from perfbench.catalog import BACKENDS, KERNEL_MODELS
from perfbench.common import RunContext, ServeProcess, geomean, median
from perfbench.oracle import ZOO_TOLERANCE

#: Input seeds per model; requests cycle through them.
INPUT_SEEDS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Warm-up passes over the keys before giving up on an all-hit pass.
WARM_PASSES = 5
#: End-to-end metrics quoted as measured: a warm round trip is mostly
#: waiting (the coalescer's 2 ms batching window, process wake-ups),
#: which does not scale with the host's CPU speed.
RAW_METRICS = frozenset({"latency_p50_ms", "latency_p90_ms",
                         "throughput_rps"})


def zoo_models() -> list[str]:
    from repro.zoo import EXTENDED_MODELS, MODELS
    return [*MODELS, *EXTENDED_MODELS, "Motivating"]


def plan(seed: int):
    """Seeded request order: the 26 (model, backend) keys in a permuted
    order, and each model's input seeds."""
    rng = random.Random(seed)
    models = zoo_models()
    keys = [(m, b) for m in models for b in BACKENDS]
    rng.shuffle(keys)
    seeds = {m: [rng.randrange(2 ** 31) for _ in range(INPUT_SEEDS)]
             for m in models}
    return keys, seeds


def references(seeds: dict) -> dict:
    from repro.sim.simulator import Simulator, random_inputs
    from repro.zoo import build_model
    refs = {}
    for name, model_seeds in seeds.items():
        sim = Simulator(build_model(name))
        for s in model_seeds:
            refs[name, s] = sim.run(random_inputs(sim.analyzed, seed=s),
                                    steps=1).outputs
    return refs


class HotTraffic:
    """The request stream: key ``i % 26``, input seed advancing once per
    pass over the keys."""

    def __init__(self, keys, seeds, checker, outcome):
        self.keys = keys
        self.seeds = seeds
        self.checker = checker
        self.outcome = outcome
        self.sent = 0

    def one(self, req: serving.Requester, phase: serving.Phase | None,
            trace: bool = False) -> dict | None:
        """Send the next request, recording it in ``phase`` if given."""
        model, backend = self.keys[self.sent % len(self.keys)]
        seed = self.seeds[model][(self.sent // len(self.keys))
                                 % INPUT_SEEDS]
        self.sent += 1
        fields = {"model": model, "generator": "frodo", "backend": backend,
                  "steps": 1, "seed": seed}
        if trace:
            fields["trace"] = True
        rtt, resp, error = req.send("run", **fields)
        problem = self.checker.check((model, seed), resp, error)
        if not self.outcome.record(problem is None,
                                   f"{model}/{backend}: {problem}"):
            return None
        if phase is not None:
            phase.add((model, backend), rtt, resp)
        return resp


def _launch(ctx: RunContext, traffic: HotTraffic, index: int,
            trace: bool) -> tuple[ServeProcess, float, list]:
    """Start a server on a fresh cache and warm it until every key hits.
    Returns the server, the set-up seconds, and the warm-up traces."""
    server = ServeProcess(["--port", "0", "--cache-dir",
                           str(ctx.tmp / f"hot-cache-{index}")],
                          ctx.root, ctx.env)
    t0 = time.perf_counter()
    server.start()
    req = serving.Requester(server.port)
    forests = []
    try:
        hit: set = set()
        for _ in range(WARM_PASSES):
            for _ in traffic.keys:
                key = traffic.keys[traffic.sent % len(traffic.keys)]
                resp = traffic.one(req, None, trace=trace)
                if resp is None:
                    continue
                if (resp.get("meta") or {}).get("vm_cache") == "hit":
                    hit.add(key)
                if trace and "trace" in resp["result"]:
                    forests.append(resp["result"]["trace"])
            if len(hit) == len(traffic.keys):
                return server, time.perf_counter() - t0, forests
    except BaseException:
        server.stop()
        raise
    finally:
        req.close()
    server.stop()
    raise RuntimeError(f"only {len(hit)} of {len(traffic.keys)} keys "
                       f"reached a warm VM in {WARM_PASSES} passes")


def _measure(traffic: HotTraffic, ctx: RunContext, port: int,
             seconds: float, trace: bool = False) -> serving.Phase:
    phase = serving.Phase()
    req = serving.Requester(port)
    try:
        deadline = time.perf_counter() + seconds
        probe = serving.ProbeClock(ctx.host)
        while time.perf_counter() < deadline:
            probe.tick()
            traffic.one(req, phase, trace=trace)
            if ctx.smoke and traffic.sent % len(traffic.keys) == 0:
                break
    finally:
        req.close()
    return phase


def run(ctx: RunContext) -> tuple[dict, dict]:
    keys, seeds = plan(ctx.seed)
    checker = serving.ResponseChecker(references(seeds), ZOO_TOLERANCE)
    traffic = HotTraffic(keys, seeds, checker, ctx.outcome)

    setups = 1 if ctx.trace or ctx.smoke else SETUPS
    setup_seconds = []
    server = None
    try:
        for index in range(setups):
            if server is not None:
                server.stop(ctx.outcome)
            server, elapsed, warm_forests = _launch(ctx, traffic, index,
                                                    ctx.trace)
            setup_seconds.append(elapsed)
        if not ctx.trace:
            phase = _measure(traffic, ctx, server.port, ctx.seconds)
            rss = server.peak_rss_mb()
        else:
            untraced = _measure(traffic, ctx, server.port, ctx.seconds / 2)
            traced = _measure(traffic, ctx, server.port, ctx.seconds / 2,
                              trace=True)
    finally:
        if server is not None:
            server.stop(ctx.outcome)

    ctx.report.note(f"serve-hot: {traffic.sent} requests; set-ups "
                    + ", ".join(f"{s:.2f}" for s in setup_seconds) + " s")
    models = zoo_models()
    if not ctx.trace:
        values, samples = serving.end_to_end(phase)
        auto = phase.step_us([(m, "auto") for m in models])
        every = phase.step_us(keys)
        values.update({"setup_s": median(setup_seconds),
                       "step_us.auto": geomean(auto),
                       "step_us.all": geomean(every),
                       "peak_rss_mb": rss})
        samples.update({"setup_s": len(setup_seconds),
                        "step_us.auto": len(auto), "step_us.all": len(every),
                        "peak_rss_mb": 1})
        return values, samples

    from perfbench import spans as span_fold
    from perfbench.replay import replay
    entries = [({"model": m}, seeds[m][0]) for m in models]
    replayed, replay_samples = replay(entries, ctx.tmp, ctx.host)
    values, samples, mean_self = serving.layer_times(
        untraced, traced, replayed["serve.protocol.encode_ms"])
    values.update(replayed)
    samples.update(replay_samples)
    for name, ms in mean_self.items():
        ctx.report.note(f"  self time {name:32s} {ms:9.4f} ms/request")
    # Set-up work the warm traffic never repeats: gcc, codegen, stores.
    setup_layers = {"native.compile": "native.build_ms",
                    "codegen": "serve.handlers.codegen_ms",
                    "cache.store": "serve.cache.store_ms"}
    per: dict[str, list[float]] = {}
    for forest in warm_forests:
        for node in span_fold.walk(forest):
            layer = setup_layers.get(node.get("name"))
            if layer is not None:
                per.setdefault(layer, []).append(
                    float(node["wall_seconds"]) * 1e3)
    for layer, ms in per.items():
        values[layer] = median(ms)
        samples[layer] = len(ms)
    for model in KERNEL_MODELS:
        for backend in BACKENDS:
            cell = traced.execute.get((model, backend), []) + \
                untraced.execute.get((model, backend), [])
            if cell:
                name = f"ir.interp.step_us.{model}.{backend}"
                values[name] = median(cell) * 1e6
                samples[name] = len(cell)
    for backend in BACKENDS:
        cells = [values[f"ir.interp.step_us.{m}.{backend}"]
                 for m in KERNEL_MODELS
                 if f"ir.interp.step_us.{m}.{backend}" in values]
        values[f"ir.interp.step_us.{backend}"] = geomean(cells)
        samples[f"ir.interp.step_us.{backend}"] = len(cells)

    return values, samples
