"""Cluster supervisor: shard processes + shared store + router, one knob.

``frodo serve --cluster N`` assembles the whole fleet in one process
tree:

* a :class:`~repro.serve.store.StoreServer` thread publishing the
  shared content-addressed blob store (compiled artifacts, native
  ``.so`` bundles, per-fingerprint heat records);
* N single-purpose **shard** subprocesses, each a plain
  ``frodo serve`` whose local store sits in front of the shared one
  (``--shard-id sK --store host:port``), announcing its ephemeral port
  on stdout;
* a :class:`~repro.serve.router.RouterThread` front door that
  consistent-hashes requests over the shards.

The supervisor's **monitor thread** is the self-healing part: a shard
process that dies unexpectedly is respawned with the *same shard name*
(ring membership never churns) at a fresh port, and the router's link
is swapped via ``replace_shard``.  While the replacement boots, the
router's ring-order retry keeps every request answered by the
survivors — the acceptance bar is *zero failed requests* through a
SIGKILL.  ``drain`` is the graceful variant: the shard is taken out of
rotation first, asked to finish in-flight work via the ``shutdown``
op, then respawned.

Because shard caches read through the shared store, a respawned shard
(or a survivor inheriting a killed shard's slice) re-materializes
artifacts and ``.so``s without recompiling, and — with the adaptive
tier on — re-seeds promotion heat from the persisted records.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.serve.router import RouterThread
from repro.serve.server import ServeConfig
from repro.serve.store import StoreServer

_ANNOUNCE_RE = re.compile(r"listening on ([\w.\-]+):(\d+)")

#: Monitor poll interval (seconds).
MONITOR_INTERVAL = 0.2

#: How long a shard gets to announce its port before spawn fails.
SPAWN_TIMEOUT = 60.0


@dataclass
class ClusterConfig:
    """One cluster = a router ServeConfig template + fleet shape."""

    #: Number of shard processes.
    shards: int = 2
    #: Template applied to every shard (host/port are overridden: shards
    #: bind ephemeral loopback ports) and to the router front door
    #: (which binds ``template.host:template.port``).
    template: ServeConfig = field(default_factory=ServeConfig)
    #: Worker processes per shard.  One is the sharded sweet spot — the
    #: fleet's parallelism lives across shards, not inside them.
    workers_per_shard: int = 1
    #: Root directory: the shared store lives in ``<root>/store``, each
    #: shard's local store in ``<root>/shard-<name>``.
    root: str = ".frodo-cluster"
    #: Respawn shards that die unexpectedly.
    respawn: bool = True


class _Shard:
    """Bookkeeping for one shard subprocess."""

    def __init__(self, name: str):
        self.name = name
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        #: Set while the supervisor itself stops/drains the process, so
        #: the monitor does not fight the intended exit with a respawn.
        self.expected_exit = False
        self.spawn_count = 0


class ClusterSupervisor:
    """Own the store thread, the shard processes and the router."""

    def __init__(self, config: ClusterConfig):
        if config.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.config = config
        self.store: StoreServer | None = None
        self.router: RouterThread | None = None
        self._shards = [_Shard(f"s{i}") for i in range(config.shards)]
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Boot store → shards → router; returns the router port."""
        root = Path(self.config.root)
        root.mkdir(parents=True, exist_ok=True)
        self.store = StoreServer(root / "store")
        self.store.start()
        try:
            for shard in self._shards:
                self._spawn(shard)
            router_config = replace(
                self.config.template,
                workers=0, max_batch=1, cache_dir=None, store=None,
                shard=None, adaptive=False)
            self.router = RouterThread(
                router_config,
                {s.name: (s.host, s.port) for s in self._shards})
            port = self.router.start()
        except BaseException:  # KeyboardInterrupt too: reap what started
            self.stop()
            raise
        if self.config.respawn:
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True,
                name="repro-cluster-monitor")
            self._monitor.start()
        return port

    @property
    def port(self) -> int:
        assert self.router is not None, "cluster not started"
        assert self.router.server is not None
        return self.router.server.port

    def shard_ports(self) -> dict[str, int]:
        return {s.name: s.port for s in self._shards}

    def stop(self) -> None:
        self._stopping = True
        for shard in self._shards:
            shard.expected_exit = True
        if self._monitor is not None:
            # Long enough to cover a respawn that was in flight when the
            # flag flipped — _spawn kills its own child once it notices
            # _stopping, but the monitor must get that far first.
            self._monitor.join(timeout=15.0)
            self._monitor = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        # SIGTERM every shard group before waiting on any: the shards
        # drain in parallel with each other and with the store's stop.
        for shard in self._shards:
            if shard.proc is not None:
                self._signal_group(shard.proc, signal.SIGTERM)
        if self.store is not None:
            self.store.stop()
            self.store = None
        for shard in self._shards:
            self._reap(shard)
        # Final sweep: a racing respawn may have re-assigned shard.proc
        # after the first pass terminated the old process.
        for shard in self._shards:
            self._terminate(shard, timeout=5.0)

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- shard process management ------------------------------------------

    def _shard_command(self, shard: _Shard) -> list[str]:
        t = self.config.template
        assert self.store is not None
        cache_dir = str(Path(self.config.root) / f"shard-{shard.name}")
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--host", "127.0.0.1", "--port", "0",
               "--workers", str(self.config.workers_per_shard),
               "--cache-dir", cache_dir,
               "--shard-id", shard.name,
               "--store", self.store.address,
               "--request-timeout", str(t.timeout_seconds),
               "--max-pending", str(t.max_pending),
               "--max-batch", str(t.max_batch),
               "--max-batch-wait-ms", str(t.max_batch_wait_ms)]
        if t.allow_debug:
            cmd.append("--debug-ops")
        if t.adaptive:
            cmd.append("--adaptive")
            if t.promote_threshold_ms is not None:
                cmd += ["--promote-threshold-ms",
                        str(t.promote_threshold_ms)]
            cmd += ["--promote-min-runs", str(t.promote_min_runs),
                    "--promote-compiles", str(t.promote_compiles)]
        if t.vm_cache_max is not None:
            cmd += ["--vm-cache-max", str(t.vm_cache_max)]
        return cmd

    def _spawn(self, shard: _Shard) -> None:
        if self._stopping:
            raise RuntimeError(f"shard {shard.name}: cluster is stopping")
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        # Each shard leads its own process group: its forked pool
        # workers share the group, so terminating the group reaps them
        # even when the shard main dies to SIGKILL (chaos tests) and
        # never runs its own pool teardown.
        proc = subprocess.Popen(
            self._shard_command(shard), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env,
            start_new_session=True)
        # Recorded before the announce wait, so stop() reaps this child
        # even when an interrupt lands while it boots.
        shard.proc = proc
        deadline = time.monotonic() + SPAWN_TIMEOUT
        host = port = None
        assert proc.stdout is not None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            match = _ANNOUNCE_RE.search(line)
            if match:
                host, port = match.group(1), int(match.group(2))
                break
        if port is None or self._stopping:
            # No announce, or stop() raced this respawn: reap the fresh
            # child's whole group now.
            self._signal_group(proc, signal.SIGKILL)
            proc.wait(timeout=10)
            if self._stopping:
                raise RuntimeError(
                    f"shard {shard.name}: cluster is stopping")
            raise RuntimeError(
                f"shard {shard.name} did not announce a port within "
                f"{SPAWN_TIMEOUT:g}s")
        shard.host = host
        shard.port = port
        shard.expected_exit = False
        shard.spawn_count += 1
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(target=self._drain_stdout, args=(proc,),
                         daemon=True,
                         name=f"repro-shard-{shard.name}-out").start()

    @staticmethod
    def _drain_stdout(proc: subprocess.Popen) -> None:
        try:
            assert proc.stdout is not None
            for _ in proc.stdout:
                pass
        except (OSError, ValueError):
            pass

    @staticmethod
    def _signal_group(proc: subprocess.Popen, sig: int) -> None:
        """Signal a shard's whole process group (main + forked workers)."""
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                proc.send_signal(sig)
            except (ProcessLookupError, OSError):
                pass

    def _terminate(self, shard: _Shard, timeout: float = 10.0) -> None:
        if shard.proc is not None:
            # Signal the group even if the main process already exited:
            # its pool workers outlive a SIGKILLed or crashed main.
            self._signal_group(shard.proc, signal.SIGTERM)
            self._reap(shard, timeout)

    def _reap(self, shard: _Shard, timeout: float = 10.0) -> None:
        """Wait for a SIGTERMed shard, then SIGKILL what is left of its
        group."""
        proc = shard.proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self._signal_group(proc, signal.SIGKILL)
        if proc.poll() is None:
            proc.wait(timeout=timeout)

    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(MONITOR_INTERVAL)
            for shard in self._shards:
                proc = shard.proc
                if (proc is None or proc.poll() is None
                        or shard.expected_exit or self._stopping):
                    continue
                with self._lock:
                    if shard.expected_exit or self._stopping:
                        continue
                    self._respawn(shard)

    def _respawn(self, shard: _Shard) -> None:
        router = self.router
        if router is not None:
            router.mark_down(shard.name)
        try:
            self._spawn(shard)
        except RuntimeError:
            return  # monitor retries on the next tick
        if router is not None:
            router.replace_shard(shard.name, shard.host, shard.port)

    # -- fault injection / maintenance -------------------------------------

    def _find(self, name: str) -> _Shard:
        for shard in self._shards:
            if shard.name == name:
                return shard
        raise KeyError(f"no shard named {name!r}")

    def kill_shard(self, name: str) -> None:
        """SIGKILL a shard mid-flight (tests, chaos).  The monitor — not
        this call — respawns it; until then its slice re-hashes to the
        survivors via the router's ring-order retry."""
        shard = self._find(name)
        if shard.proc is not None and shard.proc.poll() is None:
            # Whole group: a respawn replaces ``shard.proc``, so the dead
            # main's forked workers would otherwise never be reaped.
            self._signal_group(shard.proc, signal.SIGKILL)

    def drain_shard(self, name: str, respawn: bool = True) -> None:
        """Graceful rolling restart of one shard.

        Route-out first (``mark_down``), then the protocol ``shutdown``
        op so in-flight work finishes, then wait and respawn.  With the
        router's retry this is invisible to clients.
        """
        shard = self._find(name)
        with self._lock:
            shard.expected_exit = True
        if self.router is not None:
            self.router.mark_down(name)
        proc = shard.proc
        if proc is not None and proc.poll() is None:
            try:
                from repro.serve.client import ServeClient
                with ServeClient(shard.host, shard.port,
                                 timeout=10.0) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 — fall back to terminate
                pass
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
            # Graceful or not, reap the whole group before moving on —
            # a stuck worker must not survive the drain.
            self._terminate(shard)
        if respawn and not self._stopping:
            with self._lock:
                self._respawn(shard)

    def wait_shard_respawn(self, name: str, spawn_count: int,
                           timeout: float = 60.0) -> bool:
        """Block until ``name`` has been respawned past ``spawn_count``."""
        shard = self._find(name)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (shard.spawn_count > spawn_count and shard.proc is not None
                    and shard.proc.poll() is None):
                return True
            time.sleep(0.05)
        return False
