"""Reusable shared-object execution of emitted C (``backend="native"``).

:mod:`repro.native.compile` is a one-shot harness: it bakes inputs into a
``main.c``, invokes the compiler, and forks a subprocess per run — fine
for validation, useless for serving traffic.  This module makes the
paper's own artifact (compiled C at ``-O3``) the serving fast path:

* the emitted translation unit is built **once** per (program content,
  compiler identity, flags) into a shared object (``-fPIC -shared``);
* the library is loaded in-process with :mod:`ctypes` and its two entry
  points are bound as ``<name>_init(int64_t nb, void *const *bufs)`` and
  ``<name>_step(int64_t nb, int64_t nsteps, void *const *bufs)`` — the
  one caller-owned ABI of :func:`repro.codegen.ctext.emit_c`.  A run of
  any length is one ``_init`` call and one ``_step`` call: the step loop
  runs in C;
* :meth:`SharedProgram.bind` builds the ``bufs`` pointer table **once**
  per array set: one pointer per input/output/state/temp buffer, in
  :func:`~repro.codegen.ctext.abi_buffers` order, each addressing ``nb``
  instances — zero copies, no marshalling, no subprocess;
* all model state lives in the caller's arrays.  The image holds only
  ``static const`` tables, so any number of VMs — each on its own thread
  if need be — can share one loaded library without aliasing, and one
  ``.so`` serves any batch size: a single run is ``nb = 1``.

Artifacts are content-addressed.  The key covers the program fingerprint
(:func:`repro.ir.vectorize.fingerprint`), the **compiler identity**
(resolved path + ``--version`` hash — a toolchain upgrade is a cache
miss, never a stale hit) and the exact flag tuple.  With a ``cache_dir``
(a directory, or any blob store such as the serve layer's) each build is
stored as one ``native`` blob of :mod:`repro.blobstore` holding the
``.so``, its C source and the :class:`BuildInfo` JSON, so a restarted
server skips both code generation and the C compiler, and cluster
shards share builds through their store.  Whether the bytes come from
the store or from gcc, the library is loaded from a private temp copy
that is deleted right after ``dlopen`` (POSIX keeps the mapping alive):
a stored file is never mapped, so nothing done to the store can reach a
loaded image.

Failure is loud: a missing compiler or failed build raises
:class:`~repro.errors.NativeToolchainError`.  There is no silent
fallback to another backend — benchmark columns must never lie.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import os
import pickle
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.blobstore import open_store
from repro.codegen.ctext import abi_buffers
from repro.errors import NativeToolchainError
from repro.ir.ops import BufferDecl, Program
from repro.obs import tracing

from repro.native.compile import (
    DEFAULT_FLAGS, CompilerIdentity, compiler_identity,
)

#: Flags that turn the translation unit into a loadable shared object.
SHARED_FLAGS: tuple[str, ...] = ("-fPIC", "-shared")

#: Bump when the emitted-C contract changes incompatibly (entry-point
#: names, signature order, init semantics); old cached ``.so`` files
#: become misses instead of ABI mismatches.
#: v2: added batched entry points (``int64_t nb`` + per-instance
#: input/output/state/temp arrays) beside the static-state ones.
#: v3: one caller-owned ABI, ``<name>_init`` / ``<name>_step`` taking
#: ``(int64_t nb, void *const *bufs)``; no mutable static state.
#: v4: ``<name>_step`` takes ``(int64_t nb, int64_t nsteps, void *const
#: *bufs)`` and runs ``nsteps`` steps of each instance.
SHARED_ABI_VERSION = 4

#: Bump when the stored ``native`` bundle layout changes.
NATIVE_BUNDLE_VERSION = 1


def shared_cache_key(program_fingerprint: str, identity: CompilerIdentity,
                     flags: Sequence[str]) -> str:
    """Content address of one compiled shared object."""
    material = ":".join([
        f"abi{SHARED_ABI_VERSION}",
        program_fingerprint,
        identity.cache_token,
        ",".join(flags),
    ])
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass(frozen=True)
class BuildInfo:
    """Provenance of a compiled shared object (persisted as JSON)."""

    key: str
    program_name: str
    program_fingerprint: str
    compiler_path: str
    compiler_version_hash: str
    flags: tuple[str, ...]
    abi_version: int = SHARED_ABI_VERSION

    def to_json(self) -> str:
        data = dict(self.__dict__)
        data["flags"] = list(self.flags)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class SharedProgram:
    """A loaded ``.so`` with ``_init``/``_step`` bound to the program ABI.

    :meth:`bind` turns the caller's buffer mapping (name -> flat numpy
    array of ``nb`` instances) into the ``bufs`` pointer table once;
    :meth:`init` and :meth:`step` then pass that table, ``nb`` and (for
    ``step``) the step count — one ctypes call per run phase, zero
    copies in either direction.
    """

    def __init__(self, program: Program, path: Path, *,
                 from_cache: bool, build_seconds: float,
                 info: BuildInfo):
        self.path = Path(path)
        self.from_cache = from_cache
        self.build_seconds = build_seconds
        self.info = info
        self._decls: list[BufferDecl] = abi_buffers(program)
        try:
            self._lib = ctypes.CDLL(str(self.path))
            self._init = getattr(self._lib, f"{program.name}_init")
            self._step = getattr(self._lib, f"{program.name}_step")
        except (OSError, AttributeError) as exc:
            raise NativeToolchainError(
                f"cannot load shared object {self.path}: {exc}") from exc
        self._init.restype = self._step.restype = None
        self._init.argtypes = (ctypes.c_int64, ctypes.c_void_p)
        self._step.argtypes = (ctypes.c_int64, ctypes.c_int64,
                               ctypes.c_void_p)

    def bind(self, buffers: Mapping[str, np.ndarray], nb: int = 1):
        """The ``bufs`` pointer table over fixed arrays.

        ``buffers`` maps each input/output/state/temp buffer name to a
        flat C-contiguous array of ``nb`` consecutive instances
        (``nb * max(size, 1)`` elements); no two arrays may overlap.  The
        table holds raw addresses: the caller keeps the arrays alive and
        never replaces them (the VM allocates its arrays once, so binding
        happens once per set).
        """
        table = (ctypes.c_void_p * len(self._decls))()
        for k, decl in enumerate(self._decls):
            arr = buffers[decl.name]
            expected = nb * max(decl.size, 1)
            if not isinstance(arr, np.ndarray) or arr.dtype != decl.dtype \
                    or not arr.flags["C_CONTIGUOUS"] \
                    or arr.size != expected:
                raise NativeToolchainError(
                    f"buffer {decl.name!r} must be a C-contiguous "
                    f"{decl.dtype} array of {expected} elements "
                    f"({nb} instance(s))")
            table[k] = arr.ctypes.data
        # The emitted per-instance functions take restrict pointers.
        spans = sorted((buffers[d.name].ctypes.data, buffers[d.name].nbytes)
                       for d in self._decls)
        if any(a + n > b for (a, n), (b, _) in zip(spans, spans[1:])):
            raise NativeToolchainError("native ABI buffers must not overlap")
        return table

    def init(self, nb: int, table) -> None:
        """Full per-instance reset of ``nb`` instances (see :meth:`bind`)."""
        self._init(nb, table)

    def step(self, nb: int, nsteps: int, table) -> None:
        """``nsteps`` steps of each of ``nb`` instances, in one call (see
        :meth:`bind`)."""
        self._step(nb, nsteps, table)


def _build_so(program: Program, source: str, compiler: str,
              flags: Sequence[str]) -> bytes:
    """Compile ``source`` into a shared object and return its bytes
    (raises on any failure)."""
    workdir = Path(tempfile.mkdtemp(prefix="repro_so_"))
    try:
        src = workdir / f"{program.name}.c"
        so_path = workdir / f"{program.name}.so"
        src.write_text(source)
        cmd = [compiler, *flags, *SHARED_FLAGS, "-o", str(so_path),
               str(src), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
        except FileNotFoundError as exc:
            raise NativeToolchainError(
                f"compiler {compiler!r} not found") from exc
        except subprocess.SubprocessError as exc:
            raise NativeToolchainError(
                f"shared-object build failed ({' '.join(cmd)}): {exc}"
            ) from exc
        if proc.returncode != 0:
            raise NativeToolchainError(
                f"shared-object build failed ({' '.join(cmd)}):\n"
                f"{proc.stderr}")
        return so_path.read_bytes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pack_native(so_bytes: bytes, c_source: str, info_json: str) -> bytes:
    """One ``native`` blob: the shared object, its source and metadata."""
    buf = io.BytesIO()
    pickle.dump((NATIVE_BUNDLE_VERSION,
                 {"so": so_bytes, "c": c_source, "info": info_json}),
                buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getvalue()


def unpack_native(blob: bytes) -> Optional[dict]:
    """The bundle dict, or None for malformed or version-skewed bytes."""
    try:
        version, bundle = pickle.loads(blob)
        if version != NATIVE_BUNDLE_VERSION or not isinstance(bundle, dict) \
                or not isinstance(bundle.get("so"), bytes):
            return None
    except Exception:  # noqa: BLE001 — any bad bytes are a miss
        return None
    return bundle


def _load_private_copy(program: Program, so_bytes: bytes,
                       **kwargs) -> SharedProgram:
    """``dlopen`` a private temp copy of ``so_bytes``, then unlink it."""
    fd, path = tempfile.mkstemp(prefix=f"repro_{program.name}_",
                                suffix=".so")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(so_bytes)
        return SharedProgram(program, Path(path), **kwargs)
    finally:
        os.unlink(path)


# In-process registry of loaded libraries, keyed by content address.
# Loading is idempotent (dlopen refcounts one image per path), but a
# registry hit also skips re-emitting C and re-probing the disk cache.
_LOADED: dict[str, SharedProgram] = {}
_LOADED_MAX = 64
_LOADED_LOCK = threading.Lock()
_LOADED_STATS = {"hits": 0, "builds": 0, "disk_hits": 0}


def load_shared_program(program: Program, cc: Optional[str] = None,
                        flags: Sequence[str] = DEFAULT_FLAGS,
                        cache_dir=None) -> SharedProgram:
    """Compile-once, load-in-process execution image for ``program``.

    Resolution order: in-process registry -> the ``native`` bundle in
    ``cache_dir`` (a directory path or a blob store; warm: skips codegen
    **and** the C compiler) -> fresh build (cold), stored back into
    ``cache_dir``.  Raises :class:`NativeToolchainError` when no
    compiler is available or the build fails — callers must surface
    that as a typed error, not fall back silently.
    """
    from repro.codegen.ctext import emit_c
    from repro.ir.vectorize import fingerprint

    identity = compiler_identity(cc)
    flags = tuple(flags)
    program_fp = fingerprint(program)
    key = shared_cache_key(program_fp, identity, flags)

    with _LOADED_LOCK:
        cached = _LOADED.pop(key, None)
        if cached is not None:
            _LOADED_STATS["hits"] += 1
            _LOADED[key] = cached  # refresh LRU position
            return cached

    info = BuildInfo(
        key=key,
        program_name=program.name,
        program_fingerprint=program_fp,
        compiler_path=identity.path,
        compiler_version_hash=identity.version_hash,
        flags=flags,
    )
    store = open_store(cache_dir)
    t0 = time.perf_counter()
    blob = store.get("native", key) if store is not None else None
    bundle = unpack_native(blob) if blob is not None else None
    if bundle is not None:
        with tracing.span("native.load", program=program.name,
                          key=key[:12], source="store"):
            shared = _load_private_copy(
                program, bundle["so"], from_cache=True,
                build_seconds=time.perf_counter() - t0, info=info)
        counter = "disk_hits"
    else:
        with tracing.span("native.compile", program=program.name,
                          key=key[:12], compiler=identity.path):
            source = emit_c(program)
            so_bytes = _build_so(program, source, identity.path, flags)
        if store is not None:
            store.put("native", key,
                      pack_native(so_bytes, source, info.to_json()))
        shared = _load_private_copy(
            program, so_bytes, from_cache=False,
            build_seconds=time.perf_counter() - t0, info=info)
        counter = "builds"

    with _LOADED_LOCK:
        _LOADED_STATS[counter] += 1
        _LOADED[key] = shared
        while len(_LOADED) > _LOADED_MAX:
            del _LOADED[next(iter(_LOADED))]
    return shared


def clear_shared_program_cache() -> None:
    """Drop the in-process registry (loaded images stay mapped until the
    last referencing VM is garbage-collected)."""
    with _LOADED_LOCK:
        _LOADED.clear()


def shared_program_stats() -> dict[str, int]:
    with _LOADED_LOCK:
        return {**_LOADED_STATS, "entries": len(_LOADED)}
