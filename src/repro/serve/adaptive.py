"""Tiered adaptive execution: obs-driven background promotion to native.

``backend="auto"`` has a JIT's ingredients — a cheap always-available
vector path, an expensive-but-fast native compile, and a cost model —
but before this module the choice was static.  Here it becomes a serving
tier, the standard inference-stack shape: every request is answered
immediately on the vector backend, a per-fingerprint **heat tracker**
accumulates how much work each program is actually serving, and once a
fingerprint is hot enough to pay for its compile, the ``.so`` is built
by a **background executor** off the request path (bounded concurrency;
a request never blocks on gcc).  The finished native VM is atomically
swapped into the warm worker VM cache
(:func:`repro.ir.interp.install_cached_vm` +
:func:`~repro.ir.interp.promote_fingerprint`), so the *next* request for
that fingerprint runs native.  A toolchain failure demotes the
fingerprint permanently — the vector VM remains the fallback and the
server keeps answering.

Heat and the promotion policy
-----------------------------

Heat is ``invocations × steps × batch`` with exponential decay
(``half_life_seconds``), so a burst that stops ages out instead of
promoting forever.  The promotion threshold is seeded from the cost
model (:mod:`repro.ir.cost`): each fingerprint's modeled per-step time
(static counts from :mod:`repro.ir.staticcount` priced by the
:data:`~repro.ir.cost.X86_GCC` profile, scaled by
:data:`VECTOR_OVERHEAD_FACTOR` for the Python vector backend's dispatch
overhead) converts heat into *estimated vector wall time served*; the
fingerprint promotes when that passes ``payoff_ratio`` times its
estimated compile cost (:data:`COMPILE_BASE_NS` +
:data:`COMPILE_PER_STMT_NS` × statement count).  Big programs therefore
need proportionally more traffic before the compiler is spent on them —
exactly the "compile cost off the request path" contract SDF-style
embedded codegen assumes.  ``threshold_ms`` overrides the seeded value
with a fixed one (tests and the CI smoke use this to promote quickly).

One controller lives per serve worker process (module singleton,
installed by :func:`configure` at worker startup).  Workers do not share
heat — but they share the on-disk ``.so`` store, so the first worker to
promote pays gcc once and every other worker's promotion is a dlopen.

Promotion/demotion events are traced (``native.promote`` spans recorded
on a background trace) and shipped to the server on the next handled
request (``meta["adaptive_events"]``), where they feed the
``backend_promotions_total`` / ``backend_demotions_total`` counters and
the per-worker promotion-state gauge in ``/metrics``.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs import tracing

#: Modeled-ns → estimated vector-backend wall-ns multiplier.  The cost
#: model prices compiled C at -O3; the numpy vector backend pays Python
#: and ufunc-dispatch overhead on top, measured at roughly this factor
#: across the zoo (BENCH_vm.json vector vs modeled).  This constant is
#: the *seed and fallback*: once a worker has seen enough traced
#: vector-backend ``vm.run`` spans, :func:`calibrate_from_spans` replaces
#: it with the measured median ratio for that worker's actual traffic.
VECTOR_OVERHEAD_FACTOR = 50.0

#: Traced vector ``vm.run`` samples required before the measured ratio
#: overrides :data:`VECTOR_OVERHEAD_FACTOR`.
CALIBRATION_MIN_SAMPLES = 4

#: Ratio samples retained per controller (sliding window).
CALIBRATION_MAX_SAMPLES = 256

#: Sanity clamp on the calibrated factor — a wildly skewed trace (paused
#: process, debugger attached) must not poison promotion thresholds.
CALIBRATION_FACTOR_BOUNDS = (1.0, 1000.0)

#: Estimated fixed cost of one native build (compiler spawn + front end).
COMPILE_BASE_NS = 2.5e8  # ~250 ms

#: Estimated marginal compile cost per IR statement.
COMPILE_PER_STMT_NS = 1.5e6  # ~1.5 ms

#: Minimum seconds between persisted-heat writes per fingerprint.  Heat
#: is a hint; flushing it on every request would turn the store into a
#: hot-path dependency.
HEAT_PUBLISH_INTERVAL = 1.0


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive tier (CLI: ``frodo serve --adaptive ...``)."""

    #: Promote once estimated vector wall time served crosses
    #: ``payoff_ratio`` × estimated compile cost.
    payoff_ratio: float = 1.0
    #: Fixed threshold in milliseconds of estimated vector wall time
    #: served; overrides the cost-seeded threshold when set.
    threshold_ms: float | None = None
    #: A fingerprint must be requested at least this many times before it
    #: is promotion-eligible, however hot one request made it.
    min_runs: int = 2
    #: Heat decay half-life — a fingerprint idle this long loses half
    #: its accumulated heat.
    half_life_seconds: float = 300.0
    #: Background compiles allowed in flight per worker.
    max_concurrent_compiles: int = 1
    #: LRU bound on tracked fingerprints (heat entries, not VMs).
    max_tracked: int = 512


class _Entry:
    """Heat and promotion state of one program fingerprint."""

    __slots__ = ("program_fp", "state", "heat", "invocations",
                 "last_update", "step_ns", "compile_ns", "first_seen",
                 "promoted_at", "compile_seconds", "model_name",
                 "seeded", "last_publish")

    def __init__(self, program_fp: str, model_name: str, now: float):
        self.program_fp = program_fp
        self.model_name = model_name
        self.state = "cold"  # cold -> compiling -> promoted | demoted
        self.heat = 0.0  # decayed steps × batch units
        self.invocations = 0
        self.last_update = now
        self.first_seen = now
        self.step_ns: float | None = None  # modeled per-step cost (lazy)
        self.compile_ns: float = 0.0
        self.promoted_at: float | None = None
        self.compile_seconds: float | None = None
        self.seeded = True  # flipped off when a heat store may hold history
        self.last_publish = float("-inf")


def modeled_step_ns(program) -> float:
    """Un-scaled cost-model estimate of one step's compiled time (ns).

    Static counts (:func:`repro.ir.staticcount.analyze_counts`) priced by
    the x86-gcc profile.  The estimate only has to *rank* programs and
    scale thresholds — the static counts' data-dependent approximations
    are fine here.
    """
    from repro.ir.cost import X86_GCC
    from repro.ir.staticcount import analyze_counts
    static = analyze_counts(program)
    return max(X86_GCC.modeled_time_ns(static.step), 1.0)


def estimate_step_ns(program, overhead_factor: float | None = None) -> float:
    """Estimate one vector-backend step's wall time (ns).

    ``overhead_factor`` defaults to the :data:`VECTOR_OVERHEAD_FACTOR`
    constant; a controller that has calibrated from measured spans passes
    its measured factor instead.
    """
    factor = VECTOR_OVERHEAD_FACTOR if overhead_factor is None \
        else overhead_factor
    return modeled_step_ns(program) * factor


def span_overhead_ratios(spans: list, modeled_ns: dict) -> list[float]:
    """Measured/modeled ratios from traced vector ``vm.run`` spans.

    ``modeled_ns`` maps a program name to its *un-scaled*
    :func:`modeled_step_ns`; spans for unknown programs, non-vector
    backends, or with unusable timing are skipped.
    """
    ratios = []
    for span in spans:
        if span.get("name") != "vm.run":
            continue
        attrs = span.get("attrs") or {}
        if attrs.get("backend") != "vector":
            continue
        steps = attrs.get("steps")
        wall = span.get("wall_seconds")
        modeled = modeled_ns.get(attrs.get("program"))
        if not isinstance(steps, int) or isinstance(steps, bool) \
                or steps < 1:
            continue
        if not isinstance(wall, (int, float)) or wall <= 0:
            continue
        if not modeled or modeled <= 0:
            continue
        ratios.append((wall * 1e9 / steps) / modeled)
    return ratios


def calibrate_from_spans(spans: list, modeled_ns: dict,
                         min_samples: int = CALIBRATION_MIN_SAMPLES) -> float:
    """Overhead factor from recorded ``vm.run`` spans.

    The median measured/modeled ratio across vector-backend runs, clamped
    to :data:`CALIBRATION_FACTOR_BOUNDS`; falls back to the
    :data:`VECTOR_OVERHEAD_FACTOR` constant when fewer than
    ``min_samples`` usable spans exist (e.g. tracing disabled).
    """
    ratios = span_overhead_ratios(spans, modeled_ns)
    if len(ratios) < min_samples:
        return VECTOR_OVERHEAD_FACTOR
    lo, hi = CALIBRATION_FACTOR_BOUNDS
    return min(max(statistics.median(ratios), lo), hi)


def estimate_compile_ns(program) -> float:
    """Estimated cost of building this program's ``.so`` once."""
    statements = sum(1 for _ in program.walk())
    return COMPILE_BASE_NS + COMPILE_PER_STMT_NS * statements


class AdaptiveController:
    """Per-worker heat tracking + background native promotion.

    Thread-safe: ``observe`` is called from the worker's request thread,
    completions land on executor threads, and ``drain_events`` may run
    concurrently with both.
    """

    def __init__(self, config: AdaptiveConfig, so_cache_dir=None,
                 heat_store=None):
        self.config = config
        #: Where promotions store and find ``.so`` bundles: a path or the
        #: serve layer's blob store (on a cluster shard, a fleet-built
        #: ``.so`` is then a download instead of a gcc run).
        self.so_cache_dir = so_cache_dir
        #: Optional :class:`repro.serve.store.HeatStore` — persists heat
        #: next to the artifact store so a shard inheriting a slice after
        #: a re-hash starts from observed heat, not from zero.
        self.heat_store = heat_store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._events: list[dict] = []
        self._futures: list[Future] = []
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        #: Measured overhead factor; None until enough spans calibrate it.
        self.overhead_factor: float | None = None
        self._ratio_samples: list[float] = []

    def _factor(self) -> float:
        return VECTOR_OVERHEAD_FACTOR if self.overhead_factor is None \
            else self.overhead_factor

    def record_vm_run_spans(self, spans: list) -> None:
        """Feed traced ``vm.run`` spans into overhead calibration.

        Called with each handled request's exported spans (empty for
        untraced requests).  Once :data:`CALIBRATION_MIN_SAMPLES` usable
        vector-run samples accumulate, the measured median replaces the
        :data:`VECTOR_OVERHEAD_FACTOR` seed for promotion thresholds.
        """
        if not spans:
            return
        with self._lock:
            modeled = {e.model_name: e.step_ns
                       for e in self._entries.values()
                       if e.step_ns is not None}
        if not modeled:
            return
        ratios = span_overhead_ratios(spans, modeled)
        if not ratios:
            return
        with self._lock:
            self._ratio_samples.extend(ratios)
            del self._ratio_samples[:-CALIBRATION_MAX_SAMPLES]
            if len(self._ratio_samples) >= CALIBRATION_MIN_SAMPLES:
                lo, hi = CALIBRATION_FACTOR_BOUNDS
                self.overhead_factor = min(
                    max(statistics.median(self._ratio_samples), lo), hi)

    # -- request path ------------------------------------------------------

    def observe(self, program, steps: int, batch: int = 1,
                model_name: str = "?") -> dict:
        """Record one ``backend="auto"`` request; maybe start a promotion.

        ``program`` is the program the request runs (a served artifact's,
        fused or not), so heat is tracked per program fingerprint.
        Returns a small status dict for the response meta:
        ``{"state": ..., "heat": ...}``.  Never blocks on compilation —
        the heaviest thing on this path is the one-time cost-model
        estimate for a fingerprint's first sighting.
        """
        from repro.ir.vectorize import fingerprint
        fp = fingerprint(program)
        now = time.monotonic()
        promote_entry = None
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                entry = _Entry(fp, model_name, now)
                # This thread owns the (single) persisted-heat lookup.
                entry.seeded = self.heat_store is None
                need_seed = not entry.seeded
                self._entries[fp] = entry
                while len(self._entries) > self.config.max_tracked:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    if evicted.state == "compiling":
                        # Never forget an in-flight compile's bookkeeping.
                        self._entries[evicted_key] = evicted
                        self._entries.move_to_end(evicted_key, last=True)
                        break
            else:
                self._entries.move_to_end(fp)
                need_seed = False
            dt = now - entry.last_update
            if dt > 0 and self.config.half_life_seconds > 0:
                entry.heat *= 0.5 ** (dt / self.config.half_life_seconds)
            entry.last_update = now
            entry.heat += max(steps, 1) * max(batch, 1)
            entry.invocations += 1
        if need_seed:
            self._seed_heat(entry)
        with self._lock:
            should_estimate = (entry.state == "cold"
                               and entry.step_ns is None
                               and entry.invocations >= self.config.min_runs)
        if should_estimate:
            # Stored un-scaled; the overhead factor is applied at the
            # threshold check so later calibration reaches old entries.
            step_ns = modeled_step_ns(program)
            compile_ns = estimate_compile_ns(program)
            with self._lock:
                entry.step_ns = step_ns
                entry.compile_ns = compile_ns
        with self._lock:
            if (entry.state == "cold" and entry.step_ns is not None
                    and entry.invocations >= self.config.min_runs
                    and entry.heat * entry.step_ns * self._factor()
                    >= self._threshold_ns(entry)):
                entry.state = "compiling"
                promote_entry = entry
            status = {"state": entry.state,
                      "heat": round(entry.heat, 3)}
        if promote_entry is not None:
            self._submit(promote_entry, program)
        self._maybe_publish_heat(entry)
        return status

    def _threshold_ns(self, entry: _Entry) -> float:
        if self.config.threshold_ms is not None:
            return self.config.threshold_ms * 1e6
        return self.config.payoff_ratio * entry.compile_ns

    # -- persisted heat ----------------------------------------------------

    def _seed_heat(self, entry: _Entry) -> None:
        """Merge a persisted heat record into a freshly created entry.

        Runs once per fingerprint, off the lock (the store hop may hit
        the network).  The stored heat is decayed by *wall-clock* age —
        the record's ``updated_at`` is ``time.time()`` from whichever
        shard last owned the slice, possibly a different process.
        """
        record = self.heat_store.load(entry.program_fp) \
            if self.heat_store is not None else None
        with self._lock:
            if entry.seeded:
                return
            entry.seeded = True
            if not isinstance(record, dict):
                return
            heat = record.get("heat")
            if isinstance(heat, (int, float)) and not isinstance(heat, bool) \
                    and heat > 0:
                age = 0.0
                updated_at = record.get("updated_at")
                if isinstance(updated_at, (int, float)) \
                        and not isinstance(updated_at, bool):
                    age = max(time.time() - updated_at, 0.0)
                if self.config.half_life_seconds > 0:
                    heat *= 0.5 ** (age / self.config.half_life_seconds)
                entry.heat += float(heat)
            invocations = record.get("invocations")
            if isinstance(invocations, int) \
                    and not isinstance(invocations, bool) and invocations > 0:
                entry.invocations = max(entry.invocations, invocations)

    def _maybe_publish_heat(self, entry: _Entry, force: bool = False) -> None:
        """Persist the entry's heat, throttled per fingerprint."""
        if self.heat_store is None:
            return
        now = time.monotonic()
        with self._lock:
            if not force and now - entry.last_publish < HEAT_PUBLISH_INTERVAL:
                return
            entry.last_publish = now
            payload = {
                "heat": round(entry.heat, 3),
                "updated_at": time.time(),
                "invocations": entry.invocations,
                "model": entry.model_name,
            }
        self.heat_store.save(entry.program_fp, payload)

    # -- background promotion ----------------------------------------------

    def _submit(self, entry: _Entry, program) -> None:
        with self._lock:
            if self._closed:
                entry.state = "cold"
                return
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(self.config.max_concurrent_compiles, 1),
                    thread_name_prefix="repro-promote")
            future = self._executor.submit(self._promote, entry, program)
            self._futures.append(future)
            self._futures = [f for f in self._futures if not f.done()]

    def _promote(self, entry: _Entry, program) -> None:
        """Background job: build the ``.so``, swap the VM cache, promote.

        Runs on an executor thread — a request that arrives while this
        compiles is still served by the vector VM.  ``program`` is built
        as it is (``fuse=False``): it is the program the requests run.
        """
        from repro.errors import NativeToolchainError
        from repro.ir.interp import (VirtualMachine, install_cached_vm,
                                     promote_fingerprint)
        root = tracing.start_trace(
            "native.promote", model=entry.model_name,
            fingerprint=entry.program_fp[:12])
        t0 = time.perf_counter()
        try:
            with root:
                vm = VirtualMachine(program, backend="native",
                                    so_cache_dir=self.so_cache_dir,
                                    fuse=False)
                install_cached_vm(program, vm,
                                  so_cache_dir=self.so_cache_dir)
                promoted = promote_fingerprint(
                    entry.program_fp, so_cache_dir=self.so_cache_dir)
                root.set(outcome="promoted" if promoted else "demoted")
        except NativeToolchainError as exc:
            self._finish(entry, "demoted", t0, root, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — demote, never crash worker
            self._finish(entry, "demoted", t0, root,
                         f"{type(exc).__name__}: {exc}")
            return
        self._finish(entry, "promoted" if promoted else "demoted", t0, root,
                     None)

    def _finish(self, entry: _Entry, state: str, t0: float, root,
                error: str | None) -> None:
        elapsed = time.perf_counter() - t0
        if state == "demoted":
            from repro.ir.interp import demote_fingerprint
            demote_fingerprint(entry.program_fp)
        event = {
            "event": state,
            "model": entry.model_name,
            "fingerprint": entry.program_fp[:12],
            "compile_seconds": round(elapsed, 6),
        }
        if error is not None:
            event["error"] = error
        spans = root.export()
        if spans:
            event["spans"] = spans
        with self._lock:
            entry.state = state
            entry.compile_seconds = elapsed
            if state == "promoted":
                entry.promoted_at = time.monotonic()
            self._events.append(event)
        # State changes are worth a flush regardless of the throttle —
        # an inheriting shard should see the record promptly.
        self._maybe_publish_heat(entry, force=True)

    # -- reporting ---------------------------------------------------------

    def drain_events(self) -> list[dict]:
        """Completed promotion/demotion events since the last drain."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def state_counts(self) -> dict[str, int]:
        """Current fingerprint-state distribution (the ``/metrics`` gauge)."""
        counts = {"cold": 0, "compiling": 0, "promoted": 0, "demoted": 0}
        with self._lock:
            for entry in self._entries.values():
                counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def state_of(self, program) -> str | None:
        from repro.ir.vectorize import fingerprint
        with self._lock:
            entry = self._entries.get(fingerprint(program))
            return entry.state if entry is not None else None

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until all submitted promotions finish (tests, drain)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [f for f in self._futures if not f.done()]
            if not pending:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


# -- per-process singleton -----------------------------------------------------

_CONTROLLER: AdaptiveController | None = None


def configure(config: AdaptiveConfig | None, so_cache_dir=None,
              heat_store=None) -> AdaptiveController | None:
    """Install (or clear, with ``config=None``) this process's controller.

    Called once per worker process at startup (and by the inline
    ``workers=0`` pool).  Reconfiguring closes the previous controller.
    ``so_cache_dir`` / ``heat_store`` wire the controller into the serve
    layer's blob store (see :mod:`repro.serve.store`) — both optional,
    both fail-soft.
    """
    global _CONTROLLER
    if _CONTROLLER is not None:
        _CONTROLLER.close()
    _CONTROLLER = (AdaptiveController(config, so_cache_dir,
                                      heat_store=heat_store)
                   if config is not None else None)
    return _CONTROLLER


def controller() -> AdaptiveController | None:
    """The process-wide controller, or None when adaptive is disabled."""
    return _CONTROLLER
