"""Shared content-addressed blob store for sharded serving.

Every on-disk cache is one :mod:`repro.blobstore` store keyed by
``(kind, key)``, and its keys are location-independent by construction —
an artifact's ``sha256(model_fp : generator : - : fuse)`` names the same
compiled (and, with ``fuse`` on, already fused) program on every box —
so scaling the cache out is a transport problem, not a keying problem.  This module supplies that transport:

* :class:`StoreServer` / :class:`RemoteStore` — a tiny NDJSON-over-TCP
  get/put/stat protocol (blobs ride base64) over one
  :class:`~repro.blobstore.LocalStore`, so N shard processes share one
  store;
* :class:`TieredStore` — a shard's store: its own local store in front
  of the remote one.  Reads go local first and copy a remote hit into
  the local tier; writes go local, then publish best-effort.  Artifacts
  and native ``.so`` bundles both ride it, so the fleet compiles each
  distinct program once and every shard still serves hot keys from its
  own disk;
* :class:`HeatStore` — heat records per program fingerprint (the
  fingerprint of the program a request runs), letting a shard
  that inherits a slice after a re-hash start from observed heat
  instead of cold (see :mod:`repro.serve.adaptive`).  Heat is the one
  mutable kind: in a cluster it is read and written on the shared store
  directly, never through a local tier whose stale copy would hide
  another shard's newer record.

A corrupt blob is **never served**: the store behind every tier checks
each blob's sha256 on ``get`` and deletes a mismatching file, so the
read is a miss and the caller rebuilds (its eventual ``put`` replaces
the bad entry with good bytes).  Remote failures are soft: a store
outage degrades the fleet to per-shard caching instead of failing
requests.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import socket
import socketserver
import threading
from pathlib import Path
from typing import Optional

from repro.blobstore import LocalStore, StoreError, check_address
from repro.serve.cache import pack_artifact  # noqa: F401 — re-export

#: One request or response line on the store protocol (native bundles
#: carry whole ``.so`` files as base64).
STORE_MAX_LINE = 64 * 1024 * 1024


# -- wire protocol -------------------------------------------------------------


def _encode_msg(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


class _StoreHandler(socketserver.StreamRequestHandler):
    """One store connection: NDJSON request per line, response per line."""

    def handle(self) -> None:  # noqa: D102 — socketserver contract
        server: StoreServer = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(STORE_MAX_LINE)
            except OSError:
                return
            if not line:
                return
            try:
                resp = server.serve_one(line)
            except Exception as exc:  # noqa: BLE001 — conn must survive
                resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                self.wfile.write(_encode_msg(resp))
            except OSError:
                return


class StoreServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front-end over a :class:`LocalStore`.

    One thread per connection; the store's atomic-rename writes make
    concurrent puts of the same key safe (last writer wins with
    identical bytes — keys are content addresses).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, root: str | Path, host: str = "127.0.0.1",
                 port: int = 0):
        self.store = LocalStore(root)
        self._counts_lock = threading.Lock()
        self.counts = {"get": 0, "get_hit": 0, "put": 0, "stat": 0,
                       "errors": 0}
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _StoreHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.server_address[0]}:{self.server_address[1]}"

    def _count(self, name: str) -> None:
        with self._counts_lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def serve_one(self, line: bytes) -> dict:
        try:
            req = json.loads(line)
        except ValueError as exc:
            self._count("errors")
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(req, dict):
            self._count("errors")
            return {"ok": False, "error": "request must be an object"}
        op = req.get("op")
        if op == "stat":
            self._count("stat")
            return {"ok": True, "kinds": self.store.stat(),
                    "counts": dict(self.counts)}
        kind, key = req.get("kind", ""), req.get("key", "")
        try:
            check_address(kind, key)
        except StoreError as exc:
            self._count("errors")
            return {"ok": False, "error": str(exc)}
        if op == "get":
            self._count("get")
            blob = self.store.get(kind, key)
            if blob is None:
                return {"ok": True, "found": False}
            self._count("get_hit")
            return {"ok": True, "found": True,
                    "blob": base64.b64encode(blob).decode()}
        if op == "put":
            self._count("put")
            try:
                blob = base64.b64decode(req.get("blob", ""), validate=True)
            except (ValueError, TypeError) as exc:
                self._count("errors")
                return {"ok": False, "error": f"bad blob encoding: {exc}"}
            self.store.put(kind, key, blob)
            return {"ok": True, "stored": len(blob)}
        self._count("errors")
        return {"ok": False, "error": f"unknown store op {op!r}"}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StoreServer":
        """Serve on a background thread; returns self (port is bound)."""
        # serve_forever notices stop() only between polls; the default
        # 0.5 s poll would dominate a cluster's teardown.
        self._thread = threading.Thread(target=self.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True, name="repro-store")
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.server_close()


class RemoteStore:
    """Blocking client for one :class:`StoreServer` (thread-safe).

    Keeps a small pool of persistent connections; a connection that
    errors is discarded and the request retried once on a fresh one, so
    a store restart is invisible to shards.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_conns: int = 4):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_conns = max_conns
        self._lock = threading.Lock()
        self._free: list[tuple[socket.socket, io.BufferedReader]] = []

    @classmethod
    def parse(cls, address: str, timeout: float = 10.0) -> "RemoteStore":
        """Build from a ``host:port`` string (the ``--store`` flag)."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise StoreError(f"store address must be host:port, "
                             f"got {address!r}")
        return cls(host, int(port), timeout=timeout)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _acquire(self) -> tuple[socket.socket, io.BufferedReader]:
        with self._lock:
            if self._free:
                return self._free.pop()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        return sock, sock.makefile("rb")

    def _release(self, conn: tuple[socket.socket, io.BufferedReader]) -> None:
        with self._lock:
            if len(self._free) < self.max_conns:
                self._free.append(conn)
                return
        self._discard(conn)

    @staticmethod
    def _discard(conn: tuple[socket.socket, io.BufferedReader]) -> None:
        sock, reader = conn
        for closer in (reader.close, sock.close):
            try:
                closer()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            conns, self._free = self._free, []
        for conn in conns:
            self._discard(conn)

    def _request(self, req: dict) -> dict:
        last: Exception | None = None
        for _ in range(2):  # one retry on a stale pooled connection
            try:
                conn = self._acquire()
            except OSError as exc:
                last = exc
                continue
            sock, reader = conn
            try:
                sock.sendall(_encode_msg(req))
                line = reader.readline(STORE_MAX_LINE)
                if not line:
                    raise StoreError("store closed the connection")
                resp = json.loads(line)
            except (OSError, ValueError, StoreError) as exc:
                self._discard(conn)
                last = exc
                continue
            self._release(conn)
            if not isinstance(resp, dict) or not resp.get("ok"):
                error = resp.get("error", "?") if isinstance(resp, dict) \
                    else "malformed response"
                raise StoreError(f"store error: {error}")
            return resp
        raise StoreError(f"store at {self.address} unreachable: {last}")

    # -- operations --------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        check_address(kind, key)
        resp = self._request({"op": "get", "kind": kind, "key": key})
        if not resp.get("found"):
            return None
        try:
            return base64.b64decode(resp.get("blob", ""), validate=True)
        except (ValueError, TypeError) as exc:
            raise StoreError(f"store returned undecodable blob: {exc}")

    def put(self, kind: str, key: str, blob: bytes) -> None:
        check_address(kind, key)
        self._request({"op": "put", "kind": kind, "key": key,
                       "blob": base64.b64encode(blob).decode()})

    def stat(self) -> dict:
        return self._request({"op": "stat"})


# -- the shard-side composition -----------------------------------------------


class TieredStore:
    """A shard's local store in front of the fleet's remote store.

    ``get``: the local tier first (hot path, no network), then the
    remote one; a remote hit is copied into the local tier so the next
    read never leaves the shard.  ``put``: the local tier, then a
    best-effort publish.  Remote failures are soft — an unreachable
    store makes a read a miss and a publish a no-op, never a failed
    request.
    """

    def __init__(self, local: LocalStore, remote: RemoteStore):
        self.local = local
        self.remote = remote

    def get(self, kind: str, key: str) -> Optional[bytes]:
        blob = self.local.get(kind, key)
        if blob is not None:
            return blob
        try:
            blob = self.remote.get(kind, key)
        except StoreError:
            return None
        if blob is not None:
            self.local.put(kind, key, blob)
        return blob

    def put(self, kind: str, key: str, blob: bytes) -> None:
        self.local.put(kind, key, blob)
        try:
            self.remote.put(kind, key, blob)
        except StoreError:
            pass


# -- heat persistence ----------------------------------------------------------


def heat_key(program_fp: str) -> str:
    """Content address of one program fingerprint's persisted heat
    record.  A fused program fingerprints apart from its unfused
    original, so the two never share a record."""
    return hashlib.sha256(f"heat:{program_fp}".encode()).hexdigest()


class HeatStore:
    """Per-fingerprint heat records over any get/put backend.

    Backed by either a :class:`RemoteStore` (cluster mode: heat lives
    next to the shared artifacts and is read and written there
    directly) or a :class:`~repro.blobstore.LocalStore` (single server:
    ``<cache_dir>/heat/``).  All failures are soft — heat is an
    optimization hint, never worth failing a request over.
    """

    def __init__(self, backend):
        self.backend = backend

    def load(self, program_fp: str) -> Optional[dict]:
        try:
            blob = self.backend.get("heat", heat_key(program_fp))
            if blob is None:
                return None
            payload = json.loads(blob)
            return payload if isinstance(payload, dict) else None
        except (StoreError, ValueError, OSError):
            return None

    def save(self, program_fp: str, payload: dict) -> bool:
        try:
            self.backend.put("heat", heat_key(program_fp),
                             json.dumps(payload).encode())
            return True
        except (StoreError, TypeError, ValueError, OSError):
            return False
