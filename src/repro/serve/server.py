"""Asyncio front-end for the compile-and-execute service.

One TCP listener speaks both transports:

* **NDJSON** (native): each line is a request, each reply is a line, in
  order on the same connection (see :mod:`repro.serve.protocol`);
* **HTTP shim**: if the first line of a connection looks like an HTTP
  request, the server answers exactly one of ``GET /healthz``,
  ``GET /metrics`` or ``POST /rpc`` (body = one protocol request object)
  and closes — enough for ``curl`` and load-balancer health checks
  without an HTTP dependency.

The event loop never executes model work itself: requests are handed to
the :class:`~repro.serve.pool.WorkerPool` via the default thread
executor, so slow compiles stall neither the accept loop nor other
connections.  ``metrics``, ``ping`` and ``shutdown`` are answered by the
front-end directly — health checks must not consume workers.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass, field

from repro.obs import tracing
from repro.obs.export import span_tree, write_jsonl
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import PoolConfig, WorkerPool
from repro.serve.protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION,
                                  ServeError, decode_request, encode,
                                  error_response, ok_response)

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"DELETE ", b"HEAD ")


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read back from server.port
    workers: int = 2
    cache_dir: str | None = None
    timeout_seconds: float = 60.0
    max_pending: int = 16
    #: Dynamic micro-batching: concurrent ``run`` requests sharing
    #: (model, generator, backend, steps) coalesce into one ``run_batch``
    #: worker call of up to ``max_batch`` instances, waiting at most
    #: ``max_batch_wait_ms`` for companions.  ``max_batch=1`` disables
    #: coalescing entirely.
    max_batch: int = 8
    max_batch_wait_ms: float = 2.0
    #: Tiered adaptive execution (see :mod:`repro.serve.adaptive` and
    #: docs/adaptive.md): serve ``backend="auto"`` on the vector tier
    #: immediately and promote hot fingerprints to native via background
    #: compilation.  Off by default — promotion changes the *counts*
    #: reported for promoted fingerprints (native counts are analytic),
    #: so callers opt in per server.
    adaptive: bool = False
    #: Fixed promotion threshold in estimated vector-work milliseconds;
    #: None seeds the threshold from the cost model per fingerprint.
    promote_threshold_ms: float | None = None
    #: Requests a fingerprint needs before it is promotion-eligible.
    promote_min_runs: int = 2
    #: Background native compiles allowed in flight per worker.
    promote_compiles: int = 1
    #: Warm per-worker VM cache bound (LRU evicted beyond); None keeps
    #: the library default.
    vm_cache_max: int | None = None
    allow_debug: bool = False
    #: Whether the ``shutdown`` op is honoured (CI smoke and tests use it;
    #: production deployments may prefer signals only).
    allow_shutdown: bool = True
    #: Shard identity (cluster mode): stamped into response meta, the
    #: ``shard`` metrics label, and ``ping`` results.  None for a plain
    #: standalone server — whose behavior is then unchanged.
    shard: str | None = None
    #: ``host:port`` of a shared artifact store (see
    #: :mod:`repro.serve.store`); workers read through and publish to it.
    store: str | None = None
    #: When set, every request is traced (not just ``trace: true`` ones)
    #: and all finished spans are appended to this JSON-lines file.
    trace_log: str | None = None
    extra: dict = field(default_factory=dict)

    def pool_config(self) -> PoolConfig:
        adaptive_cfg = None
        if self.adaptive:
            from repro.serve.adaptive import AdaptiveConfig
            adaptive_cfg = AdaptiveConfig(
                threshold_ms=self.promote_threshold_ms,
                min_runs=self.promote_min_runs,
                max_concurrent_compiles=self.promote_compiles)
        return PoolConfig(workers=self.workers, cache_dir=self.cache_dir,
                          timeout_seconds=self.timeout_seconds,
                          max_pending=self.max_pending,
                          allow_debug=self.allow_debug,
                          adaptive=adaptive_cfg,
                          vm_cache_max=self.vm_cache_max,
                          store=self.store, shard=self.shard)


class ReproServer:
    """One service instance: pool + metrics + TCP front-end."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = MetricsRegistry(shard=config.shard)
        self.pool: WorkerPool | None = None
        self.batcher: "BatchQueue | None" = None
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start_pool(self) -> None:
        """Spawn and warm the worker pool (synchronous, fork-safe to call
        from the main thread before the event loop starts)."""
        if self.pool is None:
            self.pool = WorkerPool(self.config.pool_config(), self.metrics)
            self.pool.ping_all()

    async def start(self) -> None:
        self.start_pool()
        if self.config.max_batch > 1 and self.batcher is None:
            from repro.serve.batching import BatchQueue
            assert self.pool is not None
            self.batcher = BatchQueue(
                self.pool.execute, self.metrics,
                max_batch=self.config.max_batch,
                max_wait_ms=self.config.max_batch_wait_ms)
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.close)
        self._stopped.set()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, req: dict) -> dict:
        """Route one decoded request to its answer (always returns)."""
        request_id = req.get("id")
        op = req.get("op")
        loop = asyncio.get_running_loop()
        self.metrics.adjust_in_flight(1)
        trace_id = tracing.new_id(16)
        record = bool(req.get("trace")) or self.config.trace_log is not None
        root = (tracing.start_trace("request", trace_id=trace_id, op=op)
                if record else tracing.NULL_SPAN)
        if op not in ("ping", "metrics", "shutdown"):
            # Every worker-bound request carries its trace id — recording
            # or not — so a worker killed mid-request can always be
            # attributed (see repro.serve.pool).
            req["_trace"] = {"trace_id": trace_id,
                             "parent_id": root.span_id, "record": record}
        t0 = loop.time()
        finished = False
        try:
            with root:
                result, meta = await self._route(op, req)
            meta = dict(meta)
            meta["trace_id"] = trace_id
            spans = self._finish_trace(root, meta.pop("spans", None))
            finished = True
            if req.get("trace") and spans:
                # Additive: a forwarded response may already carry the
                # shard's trace forest — graft the local (router) spans
                # after it instead of clobbering it.  Plain servers never
                # see a pre-populated "trace", so their output is
                # unchanged.
                result = dict(result)
                result["trace"] = (list(result.get("trace") or ())
                                   + span_tree(spans))
            self._record_cache_meta(meta)
            self.metrics.record_request(op, "ok", loop.time() - t0)
            return ok_response(request_id, result, meta)
        except ServeError as exc:
            if not finished:
                self._finish_trace(root, None)
            self.metrics.record_request(op or "invalid", exc.error_type,
                                        loop.time() - t0)
            return error_response(request_id, exc, {"trace_id": trace_id})
        except Exception as exc:  # noqa: BLE001 — connection must survive
            if not finished:
                self._finish_trace(root, None)
            self.metrics.record_request(op or "invalid", "internal",
                                        loop.time() - t0)
            return error_response(request_id, ServeError(
                "internal", f"{type(exc).__name__}: {exc}"),
                {"trace_id": trace_id})
        finally:
            self.metrics.adjust_in_flight(-1)

    async def _route(self, op: str, req: dict) -> tuple[dict, dict]:
        loop = asyncio.get_running_loop()
        if self._stopping:
            raise ServeError("shutting_down", "server is draining")
        if op == "ping":
            result = {"pong": True, "role": "frontend",
                      "protocol_version": PROTOCOL_VERSION}
            if self.config.shard is not None:
                result["shard"] = self.config.shard
            return result, {}
        if op == "metrics":
            return self._metrics_result(req), {}
        if op == "shutdown":
            if not self.config.allow_shutdown:
                raise ServeError("bad_request",
                                 "shutdown op is disabled on this server")
            loop.call_soon(lambda: asyncio.ensure_future(self.stop()))
            return {"stopping": True}, {}
        if op == "run" and self.batcher is not None:
            # Coalescible run requests ride the micro-batching queue;
            # the batcher forwards anything it can't merge untouched.
            return await self.batcher.submit(req)
        assert self.pool is not None
        return await loop.run_in_executor(None, self.pool.execute, req)

    def _finish_trace(self, root, extra_spans) -> list[dict]:
        """Close out one request's trace: graft the spans shipped back in
        ``meta["spans"]`` (queue, pool, worker) onto the locally collected
        ones, feed every span into the phase-latency histograms, and
        append the flat list to the trace log when one is configured."""
        base = root.export()
        if not base:
            return []
        spans = tracing.merge_spans(base, extra_spans or [], root.span_id)
        for s in spans:
            self.metrics.record_phase(s["name"], s["wall_seconds"])
        if self.config.trace_log:
            try:
                write_jsonl(self.config.trace_log, spans, append=True)
            except OSError as exc:
                logging.getLogger("repro.serve.server").warning(
                    "cannot append to trace log %s: %s",
                    self.config.trace_log, exc)
        return spans

    def _record_cache_meta(self, meta: dict) -> None:
        for cache, key in (("artifact", "artifact_cache"),
                           ("vm", "vm_cache")):
            event = meta.get(key)
            if event in ("hit", "miss"):
                self.metrics.record_cache(cache, event)
        fusion = meta.get("fusion")
        if isinstance(fusion, dict) and meta.get("artifact_cache") != "hit":
            # Fusion runs when an artifact is compiled; a stored artifact
            # would count the same program's stats again.
            self.metrics.record_fusion(fusion)
        worker_pid = meta.get("worker_pid", 0)
        for event in meta.get("adaptive_events", ()):
            if isinstance(event, dict):
                self.metrics.record_adaptive_event(event.get("event", ""))
        states = meta.get("adaptive_states")
        if states is not None:
            self.metrics.record_adaptive_states(worker_pid, states)
        evictions = meta.get("vm_cache_evictions")
        if isinstance(evictions, int):
            self.metrics.record_vm_evictions(worker_pid, evictions)

    def _metrics_result(self, req: dict) -> dict:
        snapshot = self.metrics.snapshot()
        result = {"snapshot": snapshot}
        if req.get("render", True):
            result["text"] = self.metrics.render_text()
        return result

    async def _metrics_text(self) -> str:
        """Text for ``GET /metrics`` (the router overrides this with a
        fleet-merged view)."""
        return self.metrics.render_text()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            first = await self._read_line(reader)
            if first is None:
                return
            if any(first.startswith(m) for m in _HTTP_METHODS):
                self.metrics.record_connection("http")
                await self._handle_http(first, reader, writer)
                return
            self.metrics.record_connection("ndjson")
            line: bytes | None = first
            while line is not None:
                if line.strip():
                    try:
                        req = decode_request(line)
                    except ServeError as exc:
                        self.metrics.record_request("invalid", exc.error_type,
                                                    0.0)
                        writer.write(encode(error_response(None, exc)))
                    else:
                        writer.write(encode(await self._dispatch(req)))
                    await writer.drain()
                line = await self._read_line(reader)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return None  # oversized line: drop the connection
        return line if line else None

    # -- HTTP shim ---------------------------------------------------------

    async def _handle_http(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, path, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            await self._http_reply(writer, 400, "text/plain",
                                   "malformed request line\n")
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"", b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if method == "GET" and path == "/healthz":
            await self._http_reply(writer, 200, "text/plain", "ok\n")
        elif method == "GET" and path == "/metrics":
            await self._http_reply(writer, 200, "text/plain",
                                   await self._metrics_text())
        elif method == "POST" and path in ("/rpc", "/"):
            if content_length <= 0 or content_length > MAX_LINE_BYTES:
                await self._http_reply(writer, 400, "text/plain",
                                       "missing or oversized body\n")
                return
            body = await reader.readexactly(content_length)
            try:
                req = decode_request(body)
            except ServeError as exc:
                resp = error_response(None, exc)
            else:
                resp = await self._dispatch(req)
            await self._http_reply(writer, 200, "application/json",
                                   encode(resp).decode())
        else:
            await self._http_reply(writer, 404, "text/plain",
                                   f"no route for {method} {path}\n")

    @staticmethod
    async def _http_reply(writer: asyncio.StreamWriter, status: int,
                          content_type: str, body: str) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error")
        payload = body.encode()
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n".encode() + payload)
        await writer.drain()


async def run_server(config: ServeConfig,
                     ready: "threading.Event | None" = None,
                     announce=None) -> None:
    """Start a server and block until it stops (used by CLI and tests)."""
    server = ReproServer(config)
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    try:
        await server.wait_stopped()
    finally:
        await server.stop()


class ServerThread:
    """Run a :class:`ReproServer` on a background thread (tests, bench).

    The worker pool is forked from the *calling* thread before the event
    loop spins up, which keeps fork away from loop internals; ``start()``
    returns the bound port.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.server: ReproServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    def start(self, timeout: float = 30.0) -> int:
        self.server = ReproServer(self.config)
        self.server.start_pool()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        assert self.server._server is not None
        return self.server.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        assert self.server is not None
        await self.server.start()
        self._ready.set()
        await self.server.wait_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self.server is None:
            return
        if self._thread is not None and self._thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                 self._loop)
            except RuntimeError:
                pass  # loop already closed (e.g. a shutdown op beat us)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
