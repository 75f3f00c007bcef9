"""One content-addressed blob store under every on-disk cache.

Generated programs (``artifact``), their compiled ``.so`` bundles
(``native``) and adaptive-tier heat records (``heat``) all live in one
layout::

    <root>/<kind>/<aa>/<key>.blob

where ``key`` is a lowercase hex content address and ``aa`` its first
two characters.  Each file holds the sha256 digest of its payload
followed by the payload.  :meth:`LocalStore.get` recomputes the digest
on every read: a truncated, torn or bit-flipped file is deleted and the
read is a miss, so the caller rebuilds and its ``put`` replaces the
file.  Corrupt blobs are never served.  Writes go to a temp file in the
same directory and land with one ``os.replace``, so concurrent writers
of one key (identical bytes: keys are content addresses) never expose a
partial file.

Callers see a ``get``/``put`` pair keyed by ``(kind, key)``.  The serve
layer composes this store with a remote one for cluster shards
(:mod:`repro.serve.store`).  This module imports only the standard
library, because the native loader (:mod:`repro.native.sharedlib`) uses
it in processes that never load the serve layer.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import Optional

#: Blob namespaces the store accepts.
KINDS = ("artifact", "native", "heat")

#: Keys are hex digests: anything else is rejected before it can touch
#: the filesystem (no path traversal by construction).
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")

_DIGEST_SIZE = hashlib.sha256().digest_size


class StoreError(Exception):
    """A store operation failed (network, protocol, or invalid input)."""


def check_address(kind: str, key: str) -> None:
    """Raise :class:`StoreError` unless ``(kind, key)`` is a valid address."""
    if kind not in KINDS:
        raise StoreError(f"unknown blob kind {kind!r}; "
                         f"expected one of {KINDS}")
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise StoreError(f"invalid store key {key!r} (need lowercase hex)")


class LocalStore:
    """Digest-checked blob directory: ``<root>/<kind>/<aa>/<key>.blob``."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, kind: str, key: str) -> Path:
        check_address(kind, key)
        return self.root / kind / key[:2] / f"{key}.blob"

    def get(self, kind: str, key: str) -> Optional[bytes]:
        """The payload at ``(kind, key)``, or None when absent or corrupt.

        A file whose digest does not match its payload is deleted.
        """
        path = self.path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        payload = data[_DIGEST_SIZE:]
        if hashlib.sha256(payload).digest() == data[:_DIGEST_SIZE]:
            return payload
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, kind: str, key: str, blob: bytes) -> None:
        """Atomically store ``blob`` (with its digest) at ``(kind, key)``."""
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(blob).digest())
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stat(self) -> dict:
        """Blob count and bytes on disk per kind."""
        out: dict = {}
        for kind in KINDS:
            count = size = 0
            for path in self.root.glob(f"{kind}/*/*.blob"):
                try:
                    size += path.stat().st_size
                    count += 1
                except OSError:
                    pass
            out[kind] = {"count": count, "bytes": size}
        return out


def open_store(where):
    """A :class:`LocalStore` at ``where`` if it is a path, else ``where``
    itself (a store object, or None for no store).

    Lets callers keep passing a cache directory path where a store is
    expected (``ArtifactCache(path)``, ``load_shared_program(cache_dir=
    path)``).
    """
    if isinstance(where, (str, os.PathLike)):
        return LocalStore(where)
    return where
