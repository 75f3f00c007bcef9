"""Process worker pool: warm caches, timeouts, crash recovery, load shed.

Each worker is a separate OS process holding its own warm state — the
module-level VM cache (:func:`repro.ir.interp.cached_vm`) plus an
:class:`~repro.serve.cache.ArtifactCache` handle on the shared blob
store (:mod:`repro.blobstore`).  Process isolation is what makes
concurrency safe here: a :class:`~repro.ir.interp.VirtualMachine` is not
reentrant (its buffers and counters mutate in place), so the pool
guarantees each worker runs exactly one request at a time and shares
nothing mutable across workers except the store directory — which holds
the ``backend="native"`` ``.so`` bundles next to the artifacts.  Blob
writes are atomic renames keyed by content, so the first worker to
build a program's library pays the compiler once and every other worker
(and every restart) loads the stored bundle.

Dispatch policy:

* a request takes an idle worker if one is free, otherwise waits in a
  **bounded** backlog; when ``max_pending`` waiters are already queued
  the request is shed immediately with a typed ``busy`` error (callers
  get fast feedback instead of an unbounded queue hiding the overload);
* every request has a deadline (``timeout_seconds``, per-request
  override allowed below the server cap): on expiry the worker is
  **killed** — mid-flight cancellation of arbitrary Python is only
  reliable at process granularity — and a fresh worker is spawned;
* if a worker dies mid-request (crash, OOM-kill), the request is retried
  once on a fresh worker: every op the pool executes is idempotent (pure
  functions of the request plus an idempotent cache write), so a retry
  can at worst redo work, never double-apply it.  Timeouts are *not*
  retried — the retry would very likely time out too and double the
  damage of a poison request.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from dataclasses import dataclass

from repro.obs import tracing
from repro.serve.protocol import ServeError

log = logging.getLogger("repro.serve.pool")


def _start_context():
    """Prefer fork (instant warm workers on Linux); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _build_cache(config: "PoolConfig"):
    """The worker's artifact cache over its ``--cache-dir`` store, which
    fronts the cluster's shared store when one is configured."""
    if not config.cache_dir:
        return None
    from repro.blobstore import LocalStore
    from repro.serve.cache import ArtifactCache
    store = LocalStore(config.cache_dir)
    if config.store:
        from repro.serve.store import RemoteStore, TieredStore
        store = TieredStore(store, RemoteStore.parse(config.store))
    return ArtifactCache(store)


def _heat_store(cache):
    """Where this process persists adaptive heat (see docs/cluster.md).

    A cluster shard reads and writes heat on the shared store directly,
    never through its local tier, so every shard sees the newest record;
    a single server keeps it under ``<cache_dir>/heat/`` so a restart
    also resumes from observed heat.
    """
    if cache is None:
        return None
    from repro.serve.store import HeatStore
    return HeatStore(getattr(cache.store, "remote", cache.store))


def _configure_runtime(cache, config: "PoolConfig") -> None:
    """Apply per-process serving knobs: VM cache bound and the adaptive
    promotion controller.  Called once per worker process (and once for
    the inline ``workers=0`` path), before any request is handled."""
    if config.vm_cache_max is not None:
        from repro.ir.interp import set_vm_cache_limit
        set_vm_cache_limit(config.vm_cache_max)
    if config.adaptive is not None:
        from repro.serve import adaptive
        so_store = cache.store if cache is not None else None
        adaptive.configure(config.adaptive, so_cache_dir=so_store,
                           heat_store=_heat_store(cache))


def _worker_main(conn, config: "PoolConfig") -> None:
    """Worker process loop: recv request dict, send response dict."""
    import signal
    from repro.serve.handlers import handle_request
    from repro.serve.protocol import ServeError as WorkerServeError
    # A forked worker inherits the server's graceful SIGTERM handler; it
    # has nothing to drain, so SIGTERM ends it at once.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    cache = _build_cache(config)
    _configure_runtime(cache, config)
    while True:
        try:
            req = conn.recv()
        except (EOFError, OSError):
            break
        if req is None:  # shutdown sentinel
            break
        try:
            result, meta = handle_request(req, cache,
                                          allow_debug=config.allow_debug,
                                          shard=config.shard)
            resp = {"ok": True, "result": result, "meta": meta}
        except WorkerServeError as exc:
            resp = {"ok": False, "error_type": exc.error_type,
                    "message": exc.message}
        except Exception as exc:  # noqa: BLE001 — workers must not die on bugs
            resp = {"ok": False, "error_type": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(resp)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerCrash(Exception):
    """The worker process died before producing a response."""


class WorkerTimeout(Exception):
    """The request exceeded its deadline; the worker was killed."""


class _Worker:
    """Parent-side handle on one worker process."""

    def __init__(self, ctx, config: "PoolConfig"):
        parent, child = ctx.Pipe()
        self.conn = parent
        self.proc = ctx.Process(
            target=_worker_main, args=(child, config), daemon=True)
        self.proc.start()
        child.close()
        # What the worker was last asked to do — read back when it has to
        # be killed, so the respawn log names the request that took it
        # down.  Trace ids propagate on *every* request (recording or
        # not), which is what keeps these attributions complete.
        self.last_op: str | None = None
        self.last_trace_id: str | None = None
        self.last_span_id: str | None = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def call(self, req: dict, timeout: float) -> dict:
        """Blocking request/response with a hard deadline."""
        self.last_op = req.get("op")
        ctx = req.get("_trace")
        if isinstance(ctx, dict):
            self.last_trace_id = ctx.get("trace_id")
            self.last_span_id = ctx.get("parent_id")
        else:
            self.last_trace_id = self.last_span_id = None
        try:
            self.conn.send(req)
        except (BrokenPipeError, OSError):
            raise WorkerCrash(f"worker {self.pid} pipe closed on send")
        if not self.conn.poll(timeout):
            raise WorkerTimeout(
                f"no response from worker {self.pid} within {timeout:g}s")
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrash(f"worker {self.pid} died mid-request")

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            pass
        self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short grace period, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass


@dataclass
class PoolConfig:
    workers: int = 2
    cache_dir: str | None = None
    timeout_seconds: float = 60.0
    #: Requests allowed to wait for a worker before shedding with ``busy``.
    max_pending: int = 16
    allow_debug: bool = False
    #: :class:`~repro.serve.adaptive.AdaptiveConfig` enabling obs-driven
    #: background promotion of hot ``backend="auto"`` programs to native.
    #: ``None`` (the default) leaves the adaptive tier off.
    adaptive: object | None = None
    #: Per-worker warm VM cache bound (``None`` keeps the interp default).
    vm_cache_max: int | None = None
    #: ``host:port`` of a shared blob store; workers then put their
    #: local store in front of it (:class:`~repro.serve.store.TieredStore`:
    #: remote read-through + publish).
    store: str | None = None
    #: Shard identity stamped into response meta and metrics labels
    #: (cluster mode; None for plain single-process servers).
    shard: str | None = None


class WorkerPool:
    """Fixed-size pool of single-request-at-a-time worker processes.

    Thread-safe: ``execute()`` may be called from many dispatcher threads
    (the asyncio server funnels requests through its executor).  With
    ``workers=0`` the pool runs requests inline in the calling thread —
    no isolation, no timeout enforcement — which keeps unit tests and
    one-shot CLI usage cheap.
    """

    def __init__(self, config: PoolConfig, metrics=None):
        self.config = config
        self.metrics = metrics
        self._ctx = _start_context()
        self._idle: list[_Worker] = []
        self._cond = threading.Condition()
        self._pending = 0
        self._closed = False
        self._inline_cache = None
        if config.workers == 0:
            self._inline_cache = _build_cache(config)
            _configure_runtime(self._inline_cache, config)
        else:
            for _ in range(config.workers):
                self._idle.append(self._spawn())

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        if self.metrics is not None:
            self.metrics.record_pool("spawned")
        return _Worker(self._ctx, self.config)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers, self._idle = self._idle, []
            self._cond.notify_all()
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def _acquire(self) -> _Worker:
        with self._cond:
            if self._closed:
                raise ServeError("shutting_down", "pool is closed")
            if not self._idle and self._pending >= self.config.max_pending:
                if self.metrics is not None:
                    self.metrics.record_pool("shed")
                raise ServeError(
                    "busy",
                    f"all {self.config.workers} workers busy and "
                    f"{self._pending} requests already waiting; retry later")
            self._pending += 1
            try:
                while not self._idle:
                    self._cond.wait()
                    if self._closed:
                        raise ServeError("shutting_down", "pool is closed")
                return self._idle.pop()
            finally:
                self._pending -= 1

    def _release(self, worker: _Worker) -> None:
        with self._cond:
            if self._closed:
                worker.stop()
                return
            self._idle.append(worker)
            self._cond.notify()

    def execute(self, req: dict) -> tuple[dict, dict]:
        """Run one request on the pool; returns ``(result, meta)``.

        Raises :class:`ServeError` for every failure mode (including the
        worker-side typed errors, re-raised here).
        """
        if self.config.workers == 0:
            from repro.serve.handlers import handle_request
            return handle_request(req, self._inline_cache,
                                  allow_debug=self.config.allow_debug,
                                  shard=self.config.shard)

        timeout = self.config.timeout_seconds
        override = req.get("timeout_seconds")
        if isinstance(override, (int, float)) and 0 < override:
            timeout = min(float(override), timeout)

        # execute() runs on the server's executor threads, where the
        # dispatching task's contextvars are invisible — the trace
        # position rides in req["_trace"] instead (see repro.obs).
        trace_ctx = req.get("_trace")
        root = tracing.resume(trace_ctx, "pool.execute", op=req.get("op"))
        with root:
            result, meta = self._run_attempts(req, trace_ctx, timeout)
        local = root.export()
        if local:
            meta["spans"] = list(meta.get("spans", ())) + local
        return result, meta

    def _run_attempts(self, req: dict, trace_ctx: dict | None,
                      timeout: float) -> tuple[dict, dict]:
        last_crash: WorkerCrash | None = None
        for attempt in (1, 2):
            with tracing.span("pool.acquire"):
                worker = self._acquire()
            replacement = None
            try:
                dispatch = tracing.span(
                    "pool.dispatch", worker_pid=worker.pid, attempt=attempt)
                with dispatch:
                    wire = req
                    if isinstance(trace_ctx, dict) and dispatch.span_id:
                        # Re-point the carrier at this dispatch span so
                        # the worker's spans nest beneath it.
                        wire = dict(req)
                        wire["_trace"] = dict(trace_ctx,
                                              parent_id=dispatch.span_id)
                    resp = worker.call(wire, timeout)
            except WorkerTimeout:
                self._log_worker_death(worker, f"timeout after {timeout:g}s")
                worker.kill()
                replacement = self._spawn()
                if self.metrics is not None:
                    self.metrics.record_pool("timed_out")
                raise ServeError(
                    "timeout",
                    f"request exceeded {timeout:g}s; worker was recycled")
            except WorkerCrash as exc:
                self._log_worker_death(worker, f"crash ({exc})")
                worker.kill()
                replacement = self._spawn()
                if self.metrics is not None:
                    self.metrics.record_pool("crashed")
                last_crash = exc
                if attempt == 1:
                    if self.metrics is not None:
                        self.metrics.record_pool("retried")
                    continue
                break
            finally:
                self._release(replacement if replacement is not None
                              else worker)
            if resp.get("ok"):
                meta = resp.get("meta", {})
                meta["attempts"] = attempt
                return resp["result"], meta
            raise ServeError(resp.get("error_type", "internal"),
                             resp.get("message", "worker error"))
        raise ServeError(
            "worker_crash",
            f"worker died twice on this request ({last_crash}); giving up")

    @staticmethod
    def _log_worker_death(worker: _Worker, cause: str) -> None:
        """Attribute a kill+respawn to the request the worker last held."""
        log.warning(
            "killing worker pid=%s after %s; last op=%s trace_id=%s "
            "span_id=%s; spawning replacement", worker.pid, cause,
            worker.last_op, worker.last_trace_id, worker.last_span_id)

    # -- introspection -----------------------------------------------------

    def ping_all(self) -> list[dict]:
        """Round-trip every worker once (warm-up / smoke check).

        Holds all workers while pinging so each worker is reached exactly
        once (plain ``execute`` would keep re-grabbing the same idle
        worker off the LIFO free list).
        """
        if self.config.workers == 0:
            result, _ = self.execute({"op": "ping"})
            return [result]
        workers = [self._acquire() for _ in range(self.config.workers)]
        try:
            return [w.call({"op": "ping"}, self.config.timeout_seconds)
                    .get("result", {}) for w in workers]
        finally:
            for w in workers:
                self._release(w)
