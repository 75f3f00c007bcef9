"""Request execution for the serve subsystem.

Pure functions from a decoded request dict to a result dict.  The same
code runs in two places:

* inside each :mod:`repro.serve.pool` worker process (the production
  path — one request at a time per worker, private warm VM cache);
* inline in the server process when the pool is disabled
  (``workers=0``, used by unit tests and debugging).

Handlers never touch sockets or asyncio; typed failures are raised as
:class:`~repro.serve.protocol.ServeError` and everything else is the
caller's ``internal`` error.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs import tracing
from repro.serve.cache import (Artifact, ArtifactCache, artifact_key,
                               model_fingerprint)
from repro.serve.protocol import ServeError

#: Upper bound on ``steps`` for a single run request — a service-side
#: guardrail so one request cannot monopolize a worker for minutes.
MAX_STEPS = 100_000

#: Upper bound on instances in one ``run_batch`` request (same guardrail:
#: a batch occupies one worker for its whole duration).
MAX_BATCH_INSTANCES = 256


# -- model resolution ----------------------------------------------------------


def _known_model_names() -> list[str]:
    from repro.zoo import EXTENDED_MODELS, MODELS
    return [*MODELS, *EXTENDED_MODELS, "Motivating"]


def resolve_model(req: dict):
    """Build the request's model from a zoo name or an uploaded payload.

    Returns ``(model, fingerprint)``.  Payloads are base64-encoded
    ``.slx`` (zip container) or ``.mdl`` (text) bytes with
    ``model_format`` naming which.
    """
    payload = req.get("model_payload")
    if payload is not None:
        fmt = req.get("model_format", "slx")
        if fmt not in ("slx", "mdl"):
            raise ServeError("bad_request",
                             f"model_format must be 'slx' or 'mdl', got {fmt!r}")
        try:
            blob = base64.b64decode(payload, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise ServeError("invalid_model",
                             f"model_payload is not valid base64: {exc}")
        from repro.model.mdl import load_mdl
        from repro.model.slx import load_slx
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            path = Path(tmp) / f"upload.{fmt}"
            path.write_bytes(blob)
            try:
                model = load_mdl(path) if fmt == "mdl" else load_slx(path)
            except ReproError as exc:
                raise ServeError("invalid_model", str(exc))
        return model, model_fingerprint(model)

    name = req.get("model")
    if isinstance(name, str):
        from repro.corpus import is_corpus_spec
        if is_corpus_spec(name):
            from repro.corpus import build_corpus_model
            try:
                model = build_corpus_model(name)
            except ReproError as exc:
                raise ServeError("invalid_model", str(exc))
            return model, model_fingerprint(model)
    if not isinstance(name, str) or not name:
        raise ServeError("bad_request",
                         "request needs a 'model' name or a 'model_payload'")
    from repro.zoo import build_model
    try:
        model = build_model(name)
    except KeyError:
        from repro.corpus import corpus_spec_help
        known = ", ".join(_known_model_names())
        raise ServeError("unknown_model",
                         f"unknown model {name!r}; known zoo models: {known}; "
                         f"corpus specs also accepted: {corpus_spec_help()}")
    return model, model_fingerprint(model)


def _generator_name(req: dict) -> str:
    from repro.codegen import ALL_GENERATORS, FRODO_VARIANTS
    name = req.get("generator", "frodo")
    if name not in ALL_GENERATORS and name not in FRODO_VARIANTS:
        known = ", ".join([*ALL_GENERATORS, *FRODO_VARIANTS])
        raise ServeError("unknown_generator",
                         f"unknown generator {name!r}; known: {known}")
    return name


def _backend_name(req: dict) -> str:
    from repro.ir.interp import BACKENDS
    backend = req.get("backend", "auto")
    if backend not in BACKENDS:
        raise ServeError(
            "bad_request",
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}")
    return backend


def _fuse_flag(req: dict) -> bool:
    """The request's ``fuse`` switch (default on) for the IR-level
    loop-fusion pass (:mod:`repro.ir.fuse`)."""
    value = req.get("fuse", True)
    if not isinstance(value, bool):
        raise ServeError("bad_request",
                         f"fuse must be a boolean, got {value!r}")
    return value


def _native_vm(program, backend: str, ctx: "HandlerContext"):
    """``cached_vm`` over an artifact's program, with native-backend
    wiring: ``.so`` bundles live in the artifact cache's blob store, and
    toolchain failures become the typed ``native_unavailable`` error
    instead of an internal one (explicit ``backend="native"`` never
    silently falls back — benchmark numbers must not lie).
    ``backend="auto"`` may resolve to a *native* VM when the program's
    fingerprint was promoted by the adaptive tier (see
    :mod:`repro.serve.adaptive`); callers report ``vm.backend`` as the
    effective backend.

    The program is run as stored (``fuse=False``): the artifact already
    holds the fused program when the request asked for fusion.

    On a cluster shard that store is the shard's local store in front of
    the shared one, so another shard's build is a download + dlopen and
    a local build is published — the fleet pays gcc once per distinct
    program."""
    from repro.errors import NativeToolchainError
    from repro.ir.interp import cached_vm
    so_store = None
    if backend == "native" and ctx.cache is not None:
        so_store = ctx.cache.store
    try:
        acquire = tracing.span("vm.acquire", backend=backend,
                               program=program.name)
        with acquire:
            vm = cached_vm(program, backend=backend, so_cache_dir=so_store,
                           fuse=False)
            if vm.backend != backend:
                acquire.set(backend_effective=vm.backend)
        return vm
    except NativeToolchainError as exc:
        raise ServeError("native_unavailable", str(exc))


def _observe_adaptive(artifact: Artifact, backend: str, steps: int,
                      batch: int, ctx: "HandlerContext") -> None:
    """Feed one ``auto`` request into the adaptive heat tracker.

    Only updates counters and possibly *enqueues* a background compile —
    the promotion itself lands later, off the request path, and is
    observed by a subsequent request through the VM cache swap.
    """
    if backend != "auto":
        return
    from repro.serve import adaptive
    controller = adaptive.controller()
    if controller is None:
        return
    ctx.meta["adaptive"] = controller.observe(
        artifact.program, steps=steps, batch=batch,
        model_name=artifact.model_name)


def _int_field(req: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = req.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or not lo <= value <= hi:
        raise ServeError("bad_request",
                         f"{name} must be an integer in [{lo}, {hi}], "
                         f"got {value!r}")
    return value


# -- artifact production -------------------------------------------------------


def get_or_compile(model, model_fp: str, generator: str,
                   cache: ArtifactCache | None,
                   fuse: bool = True) -> tuple[Artifact, str]:
    """Fetch the compiled artifact for (model, generator, fuse).

    Returns ``(artifact, source)`` where source is ``"hit"`` (loaded from
    the on-disk cache), ``"miss"`` (freshly generated and stored), or
    ``"off"`` (no cache configured).  Compiling is code generation and,
    with ``fuse`` on, one :func:`~repro.ir.fuse.fuse_program` call: the
    artifact stores the fused program with its stats in
    ``stats["fusion"]``, so no consumer fuses again (the ``codegen``
    span covers both).  The other stats describe the program as
    generated.  No backend enters the key: every backend runs the same
    stored program.
    """
    key = artifact_key(model_fp, generator, fuse=fuse)
    if cache is not None:
        lookup = tracing.span("cache.lookup", cache="artifact", key=key[:12])
        with lookup:
            artifact = cache.get(key)
            lookup.set(outcome="hit" if artifact is not None else "miss")
        if artifact is not None:
            return artifact, "hit"
    from repro.codegen import make_generator
    from repro.ir.fuse import fuse_program
    with tracing.span("codegen", generator=generator, model=model.name):
        code = make_generator(generator).generate(model)
        program, fstats = (fuse_program(code.program) if fuse
                           else (code.program, None))
    artifact = Artifact(
        model_fingerprint=model_fp,
        model_name=model.name,
        generator=generator,
        backend="-",
        program=program,
        input_buffers=dict(code.input_buffers),
        output_buffers=dict(code.output_buffers),
        stats={
            "static_bytes": code.program.static_bytes,
            "buffer_count": len(code.program.buffers),
            "function_count": len(code.program.functions),
            "statement_count": sum(1 for _ in code.program.walk()),
            "optimizable_blocks": len(code.ranges.optimizable),
            "eliminated_elements":
                code.ranges.eliminated_elements(code.analyzed),
        },
    )
    if fstats is not None:
        artifact.stats["fusion"] = fstats.as_dict()
    if cache is not None:
        with tracing.span("cache.store", cache="artifact", key=key[:12]):
            cache.put(key, artifact)
        return artifact, "miss"
    return artifact, "off"


def _fetch_artifact(model, model_fp: str, generator: str, fuse: bool,
                    ctx: "HandlerContext") -> Artifact:
    """:func:`get_or_compile`, noting the cache outcome and the
    artifact's fusion stats in the response meta (the server counts
    fusion work only for artifacts that were not a cache hit)."""
    artifact, source = get_or_compile(model, model_fp, generator, ctx.cache,
                                      fuse)
    ctx.meta["artifact_cache"] = source
    if "fusion" in artifact.stats:
        ctx.meta["fusion"] = artifact.stats["fusion"]
    return artifact


# -- op implementations --------------------------------------------------------


def op_ping(req: dict, ctx: "HandlerContext") -> dict:
    from repro.serve.protocol import PROTOCOL_VERSION
    result = {"pong": True, "pid": os.getpid(),
              "protocol_version": PROTOCOL_VERSION}
    if ctx.shard is not None:
        result["shard"] = ctx.shard
    return result


def op_compile(req: dict, ctx: "HandlerContext") -> dict:
    generator = _generator_name(req)
    _backend_name(req)  # validated; the artifact serves every backend
    fuse = _fuse_flag(req)
    model, model_fp = resolve_model(req)
    artifact = _fetch_artifact(model, model_fp, generator, fuse, ctx)
    result = {
        "model": artifact.model_name,
        "model_fingerprint": model_fp,
        "generator": generator,
        "fuse": fuse,
        "stats": dict(artifact.stats),
    }
    if req.get("include_source"):
        from repro.codegen import emit_c
        result["c_source"] = emit_c(artifact.program)
    return result


def _decode_inputs(req: dict, model, artifact: Artifact,
                   seed: int) -> dict[str, np.ndarray]:
    """Explicit per-inport inputs, or deterministic random ones by seed."""
    raw = req.get("inputs")
    if raw is None:
        from repro.sim.simulator import random_inputs
        named = random_inputs(model, seed=seed)
    else:
        if not isinstance(raw, dict):
            raise ServeError("bad_request",
                             "inputs must be an object keyed by inport name")
        named = {}
        for name, value in raw.items():
            if isinstance(value, dict) and set(value) == {"re", "im"}:
                named[name] = (np.asarray(value["re"], dtype=float)
                               + 1j * np.asarray(value["im"], dtype=float))
            else:
                try:
                    named[name] = np.asarray(value)
                except (ValueError, TypeError) as exc:
                    raise ServeError("bad_request",
                                     f"input {name!r} is not array-like: {exc}")
    mapped = {}
    for name, value in named.items():
        buffer = artifact.input_buffers.get(name)
        if buffer is None:
            known = ", ".join(sorted(artifact.input_buffers))
            raise ServeError("bad_request",
                             f"unknown inport {name!r}; known: {known}")
        mapped[buffer] = value
    return mapped


def op_run(req: dict, ctx: "HandlerContext") -> dict:
    from repro.errors import SimulationError
    from repro.ir.interp import vm_cache_stats
    generator = _generator_name(req)
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    seed = _int_field(req, "seed", 0, 0, 2 ** 32 - 1)
    model, model_fp = resolve_model(req)
    artifact = _fetch_artifact(model, model_fp, generator, fuse, ctx)

    inputs = _decode_inputs(req, model, artifact, seed)
    _observe_adaptive(artifact, backend, steps, 1, ctx)
    hits_before = vm_cache_stats()["hits"]
    vm = _native_vm(artifact.program, backend, ctx)
    ctx.meta["vm_cache"] = (
        "hit" if vm_cache_stats()["hits"] > hits_before else "miss")
    t0 = time.perf_counter()
    try:
        exec_result = vm.run(inputs, steps=steps)
    except SimulationError as exc:
        raise ServeError("bad_request", f"execution rejected: {exc}")
    execute_seconds = time.perf_counter() - t0

    outputs = {name: exec_result.outputs[buffer]
               for name, buffer in artifact.output_buffers.items()}
    totals = exec_result.counts.total
    result = {
        "model": artifact.model_name,
        "model_fingerprint": model_fp,
        "generator": generator,
        "backend": backend,
        "backend_effective": vm.backend,
        "fuse": fuse,
        "fusion": artifact.stats.get("fusion"),
        "steps": steps,
        "execute_seconds": round(execute_seconds, 6),
        "counts": totals.as_dict(),
        "counts_exact": bool(getattr(vm, "counts_exact", True)),
        "total_element_ops": totals.total_element_ops,
        "peak_buffer_bytes": exec_result.peak_buffer_bytes,
        "output_sha256": _output_digest(outputs),
    }
    if req.get("include_outputs", True):
        result["outputs"] = outputs
    return result


def _output_digest(outputs: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(outputs[name]).tobytes())
    return digest.hexdigest()


def op_run_batch(req: dict, ctx: "HandlerContext") -> dict:
    """Evaluate B independent instances of one compiled program in a
    single batched VM call.

    ``instances`` is a list of per-instance objects, each shaped like a
    ``run`` request's input fields (``seed``, ``inputs``,
    ``include_outputs``); model/generator/backend/steps are shared.  The
    warm VM cache serves **one** batched VM (the per-batch-size companion
    lives inside it) rather than B singletons.  A malformed instance
    fails alone — its slot carries a typed error while the rest execute.

    The aggregate ``counts`` equal the sum over executed instances
    whenever ``counts_exact`` is True (the batched-execution contract,
    see :mod:`repro.ir.batch`).
    """
    from repro.errors import SimulationError
    from repro.ir.interp import vm_cache_stats
    generator = _generator_name(req)
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    instances = req.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ServeError("bad_request",
                         "run_batch needs a non-empty 'instances' list")
    if len(instances) > MAX_BATCH_INSTANCES:
        raise ServeError(
            "bad_request",
            f"run_batch accepts at most {MAX_BATCH_INSTANCES} instances, "
            f"got {len(instances)}")
    model, model_fp = resolve_model(req)
    artifact = _fetch_artifact(model, model_fp, generator, fuse, ctx)

    results: list[dict | None] = [None] * len(instances)
    decoded: list[tuple[int, dict]] = []
    for i, inst in enumerate(instances):
        if not isinstance(inst, dict):
            results[i] = {"ok": False, "error_type": "bad_request",
                          "error": f"instance {i} must be an object"}
            continue
        try:
            seed = _int_field(inst, "seed", 0, 0, 2 ** 32 - 1)
            decoded.append((i, _decode_inputs(inst, model, artifact, seed)))
        except ServeError as exc:
            results[i] = {"ok": False, "error_type": exc.error_type,
                          "error": exc.message}

    _observe_adaptive(artifact, backend, steps, max(len(decoded), 1), ctx)
    hits_before = vm_cache_stats()["hits"]
    vm = _native_vm(artifact.program, backend, ctx)
    ctx.meta["vm_cache"] = (
        "hit" if vm_cache_stats()["hits"] > hits_before else "miss")
    ctx.meta["batched"] = len(decoded)

    execute_seconds = 0.0
    counts: dict = {}
    total_element_ops = 0
    counts_exact = bool(getattr(vm, "counts_exact", True))
    peak_buffer_bytes = 0
    if decoded:
        t0 = time.perf_counter()
        try:
            batch_res = vm.run_batch([inputs for _, inputs in decoded],
                                     steps=steps)
        except SimulationError as exc:
            raise ServeError("bad_request", f"execution rejected: {exc}")
        execute_seconds = time.perf_counter() - t0
        totals = batch_res.counts.total
        counts = totals.as_dict()
        total_element_ops = totals.total_element_ops
        counts_exact = batch_res.counts_exact
        peak_buffer_bytes = batch_res.peak_buffer_bytes
        for (i, _), out in zip(decoded, batch_res.outputs):
            outputs = {name: out[buffer]
                       for name, buffer in artifact.output_buffers.items()}
            entry: dict = {"ok": True,
                           "output_sha256": _output_digest(outputs)}
            if instances[i].get("include_outputs",
                                req.get("include_outputs", True)):
                entry["outputs"] = outputs
            results[i] = entry

    return {
        "model": artifact.model_name,
        "model_fingerprint": model_fp,
        "generator": generator,
        "backend": backend,
        "backend_effective": vm.backend,
        "fuse": fuse,
        "fusion": artifact.stats.get("fusion"),
        "steps": steps,
        "batch": len(instances),
        "executed": len(decoded),
        "execute_seconds": round(execute_seconds, 6),
        "counts": counts,
        "counts_exact": counts_exact,
        "total_element_ops": total_element_ops,
        "peak_buffer_bytes": peak_buffer_bytes,
        "results": results,
    }


def op_ranges(req: dict, ctx: "HandlerContext") -> dict:
    from repro.core.analysis import analyze
    from repro.core.ranges import determine_ranges
    model, model_fp = resolve_model(req)
    analyzed = analyze(model)
    ranges = determine_ranges(analyzed)
    blocks = []
    for name in analyzed.schedule:
        sig = analyzed.signal_of(name)
        blocks.append({
            "block": name,
            "shape": list(sig.shape),
            "range": ranges.output_range[name].describe(),
            "optimizable": name in ranges.optimizable,
        })
    return {
        "model": model.name,
        "model_fingerprint": model_fp,
        "optimizable_blocks": len(ranges.optimizable),
        "eliminated_elements": ranges.eliminated_elements(analyzed),
        "blocks": blocks,
    }


def op_report(req: dict, ctx: "HandlerContext") -> dict:
    """Per-generator comparison table for one model (counts + memory)."""
    from repro.codegen import ALL_GENERATORS
    from repro.sim.simulator import random_inputs
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    seed = _int_field(req, "seed", 0, 0, 2 ** 32 - 1)
    generators = req.get("generators", list(ALL_GENERATORS))
    if not isinstance(generators, list) or not generators:
        raise ServeError("bad_request", "generators must be a non-empty list")
    model, model_fp = resolve_model(req)
    named = random_inputs(model, seed=seed)
    artifact_hits = artifact_misses = 0
    rows = []
    for generator in generators:
        _generator_name({"generator": generator})
        artifact, source = get_or_compile(model, model_fp, generator,
                                          ctx.cache, fuse)
        artifact_hits += source == "hit"
        artifact_misses += source == "miss"
        vm = _native_vm(artifact.program, backend, ctx)
        inputs = {artifact.input_buffers[n]: v for n, v in named.items()}
        totals = vm.run(inputs, steps=steps).counts.total
        rows.append({
            "generator": generator,
            "total_element_ops": totals.total_element_ops,
            "flops": totals.flops,
            "static_bytes": artifact.stats["static_bytes"],
            "eliminated_elements": artifact.stats["eliminated_elements"],
            "fusion": artifact.stats.get("fusion"),
        })
    ctx.meta["artifact_cache"] = (
        "hit" if artifact_misses == 0 and artifact_hits else
        "miss" if artifact_misses else "off")
    baseline = next((r for r in rows if r["generator"] == "simulink"), rows[0])
    for row in rows:
        row["ops_vs_baseline"] = (
            round(baseline["total_element_ops"]
                  / row["total_element_ops"], 3)
            if row["total_element_ops"] else None)
    return {"model": model.name, "model_fingerprint": model_fp,
            "steps": steps, "fuse": fuse, "rows": rows}


def op_sleep(req: dict, ctx: "HandlerContext") -> dict:
    """Debug op: hold the worker for N seconds (timeout-path testing).

    With ``"exit": true`` the worker process dies without replying after
    the sleep — the deterministic crash used to test the pool's
    retry-once-then-fail recovery path.
    """
    if not ctx.allow_debug:
        raise ServeError("bad_request",
                         "sleep is a debug op; start the server with "
                         "--debug-ops to enable it")
    seconds = req.get("seconds", 0.1)
    if not isinstance(seconds, (int, float)) or not 0 <= seconds <= 300:
        raise ServeError("bad_request",
                         f"seconds must be in [0, 300], got {seconds!r}")
    time.sleep(float(seconds))
    if req.get("exit"):
        os._exit(17)
    return {"slept": float(seconds), "pid": os.getpid()}


_HANDLERS = {
    "ping": op_ping,
    "compile": op_compile,
    "run": op_run,
    "run_batch": op_run_batch,
    "ranges": op_ranges,
    "report": op_report,
    "sleep": op_sleep,
}


class HandlerContext:
    """Per-request execution context handed to op implementations."""

    def __init__(self, cache: ArtifactCache | None, allow_debug: bool = False,
                 shard: str | None = None):
        self.cache = cache
        self.allow_debug = allow_debug
        self.shard = shard
        self.meta: dict = {}


def handle_request(req: dict, cache: ArtifactCache | None,
                   allow_debug: bool = False,
                   shard: str | None = None) -> tuple[dict, dict]:
    """Execute one decoded request; returns ``(result, meta)``.

    Raises :class:`ServeError` for typed failures; any other exception is
    a bug and becomes the caller's ``internal`` error.  ``metrics`` and
    ``shutdown`` are served by the front-end, not here.  ``shard``
    (cluster mode) is stamped into the response meta so clients and the
    router can attribute which shard served a request.
    """
    op = req.get("op")
    handler = _HANDLERS.get(op)
    if handler is None:
        raise ServeError("bad_request",
                         f"op {op!r} is not executable by a worker")
    ctx = HandlerContext(cache, allow_debug, shard)
    ctx.meta["worker_pid"] = os.getpid()
    if shard is not None:
        ctx.meta["shard"] = shard
    root = tracing.resume(req.get("_trace"), "worker.handle", op=op)
    t0 = time.perf_counter()
    with root:
        result = handler(req, ctx)
    ctx.meta["service_seconds"] = round(time.perf_counter() - t0, 6)
    spans = root.export()
    _attach_adaptive_meta(ctx, spans)
    if spans:
        ctx.meta["spans"] = spans
    return result, ctx.meta


def _attach_adaptive_meta(ctx: HandlerContext, spans: list) -> None:
    """Ship adaptive-tier telemetry on the next handled request.

    Promotions complete on a background thread — no request is in flight
    to carry the news — so completed events, the ``native.promote`` trace
    spans, the current state distribution, and the cumulative VM-cache
    eviction count ride the meta of whatever this worker handles next.
    The server folds them into counters and the per-worker state gauge.
    """
    from repro.ir.interp import vm_cache_stats
    from repro.serve import adaptive
    controller = adaptive.controller()
    if controller is not None:
        # Traced vector runs calibrate the promotion threshold's
        # overhead factor (no-op for untraced requests).
        controller.record_vm_run_spans(spans)
        events = controller.drain_events()
        if events:
            for event in events:
                spans.extend(event.pop("spans", ()))
            ctx.meta["adaptive_events"] = events
        ctx.meta["adaptive_states"] = controller.state_counts()
    evictions = vm_cache_stats()["evictions"]
    if evictions:
        ctx.meta["vm_cache_evictions"] = evictions
